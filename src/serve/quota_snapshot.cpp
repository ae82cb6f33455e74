#include "serve/quota_snapshot.h"

#include <algorithm>
#include <utility>

#include "core/webwave_batch.h"
#include "util/check.h"
#include "util/row_pool.h"

namespace webwave {

QuotaSnapshot::Builder::Builder(int node_count, int doc_count)
    : nodes_(node_count), docs_(doc_count) {
  WEBWAVE_REQUIRE(node_count >= 1 && doc_count >= 1,
                  "snapshot needs nodes and documents");
  row_end_.assign(static_cast<std::size_t>(node_count), 0);
}

void QuotaSnapshot::Builder::Add(NodeId node, std::int32_t doc, double rate,
                                 double fraction) {
  WEBWAVE_REQUIRE(node >= 0 && node < nodes_, "cell node out of range");
  WEBWAVE_REQUIRE(doc >= 0 && doc < docs_, "cell document out of range");
  WEBWAVE_REQUIRE(rate > 0, "quota cells must carry positive rate");
  WEBWAVE_REQUIRE(fraction > 0 && fraction <= 1 + 1e-9,
                  "serve fraction must lie in (0, 1]");
  WEBWAVE_REQUIRE(
      node > last_node_ || (node == last_node_ && doc > last_doc_),
      "cells must arrive nodes ascending, documents ascending within a node");
  last_node_ = node;
  last_doc_ = doc;
  row_end_[static_cast<std::size_t>(node)] =
      static_cast<std::int64_t>(doc_.size()) + 1;
  doc_.push_back(doc);
  rate_.push_back(rate);
  frac_.push_back(std::min(fraction, 1.0));
  total_ += rate;
}

QuotaSnapshot QuotaSnapshot::Builder::Build() && {
  QuotaSnapshot s;
  s.nodes_ = nodes_;
  s.docs_ = docs_;
  s.total_ = total_;
  s.doc_ = std::move(doc_);
  s.rate_ = std::move(rate_);
  s.frac_ = std::move(frac_);
  s.row_off_.assign(static_cast<std::size_t>(nodes_) + 1, 0);
  // row_end_ holds, for each node with cells, one past its last cell; rows
  // were filled in ascending node order, so a running maximum turns the
  // sparse ends into CSR offsets.
  std::int64_t off = 0;
  for (int v = 0; v < nodes_; ++v) {
    off = std::max(off, row_end_[static_cast<std::size_t>(v)]);
    s.row_off_[static_cast<std::size_t>(v) + 1] = off;
  }
  return s;
}

QuotaSnapshot QuotaSnapshot::FromPlacement(const PlacementResult& placement,
                                           double min_rate) {
  const int nodes = static_cast<int>(placement.quota.size());
  WEBWAVE_REQUIRE(nodes >= 1, "placement covers no nodes");
  const int docs = static_cast<int>(placement.quota.front().size());
  Builder b(nodes, docs);
  for (NodeId v = 0; v < nodes; ++v) {
    const std::vector<double>& row =
        placement.quota[static_cast<std::size_t>(v)];
    for (std::int32_t d = 0; d < docs; ++d)
      if (row[static_cast<std::size_t>(d)] > min_rate)
        b.Add(v, d, row[static_cast<std::size_t>(d)]);
  }
  return std::move(b).Build();
}

QuotaSnapshot QuotaSnapshot::FromPlacement(const RoutingTree& tree,
                                           const PlacementResult& placement,
                                           const DemandMatrix& demand,
                                           double min_rate) {
  const int nodes = tree.size();
  WEBWAVE_REQUIRE(
      placement.quota.size() == static_cast<std::size_t>(nodes) &&
          demand.node_count() == nodes,
      "placement/demand do not match the tree");
  const int docs = demand.doc_count();
  // Recompute the per-document flows the placement decomposed, bottom-up:
  // arrive = own demand + what the children forwarded after serving their
  // quotas; a copy's serve fraction is quota / arrive.  A node's flow row
  // lives until its parent sums it; fraction is node-major, D per node.
  const std::size_t dd = static_cast<std::size_t>(docs);
  RowPool flow(dd);
  std::vector<std::int32_t> slot(static_cast<std::size_t>(nodes));
  std::vector<double> fraction(static_cast<std::size_t>(nodes) * dd, 1.0);
  for (const NodeId v : tree.postorder()) {
    const std::int32_t s = flow.Acquire();
    slot[static_cast<std::size_t>(v)] = s;
    double* row = flow.row(s);
    std::copy(demand.row(v), demand.row(v) + dd, row);
    for (const NodeId c : tree.children(v)) {
      const std::int32_t cs = slot[static_cast<std::size_t>(c)];
      const double* crow = flow.row(cs);
      for (std::size_t d = 0; d < dd; ++d) row[d] += crow[d];
      flow.Release(cs);
    }
    const double* quota = placement.quota[static_cast<std::size_t>(v)].data();
    double* frac = fraction.data() + static_cast<std::size_t>(v) * dd;
    for (std::size_t d = 0; d < dd; ++d) {
      const double q = quota[d];
      if (q > 0 && row[d] > 0) frac[d] = std::min(1.0, q / row[d]);
      row[d] = std::max(0.0, row[d] - q);
    }
  }
  Builder b(nodes, docs);
  for (NodeId v = 0; v < nodes; ++v) {
    const std::size_t off = static_cast<std::size_t>(v) * dd;
    const double* quota = placement.quota[static_cast<std::size_t>(v)].data();
    for (std::int32_t d = 0; d < docs; ++d)
      if (quota[d] > min_rate) b.Add(v, d, quota[d], fraction[off + d]);
  }
  return std::move(b).Build();
}

namespace {

// The cell a batch lane entry produces: rate = served, fraction = the
// copy's share of its passing flow.  One definition for the full and the
// incremental export so the two cannot drift.
inline double BatchFraction(double served, double forwarded) {
  const double arriving = served + std::max(0.0, forwarded);
  return arriving > 0 ? std::min(1.0, served / arriving) : 1.0;
}

}  // namespace

QuotaSnapshot QuotaSnapshot::FromBatch(const BatchWebWaveSimulator& batch,
                                       double min_rate) {
  Builder b(batch.node_count(), batch.doc_count());
  batch.ExportQuotas(
      min_rate, [&b](NodeId v, std::int32_t d, double served,
                     double forwarded) {
        b.Add(v, d, served, BatchFraction(served, forwarded));
      });
  QuotaSnapshot s = std::move(b).Build();
  s.incremental_ = true;
  s.min_rate_ = min_rate;
  // The column index is built lazily by the first RefreshFromBatch:
  // one-shot snapshots (and the full rebuilds the bench times against)
  // should not pay for refresh machinery they never use.
  return s;
}

void QuotaSnapshot::BuildColumnIndex() const {
  // Counting sort of the cells by document: rows are node-ascending, so
  // within one document the cells fall out node-ascending too.
  const std::size_t dd = static_cast<std::size_t>(docs_);
  col_off_.assign(dd + 1, 0);
  for (const std::int32_t d : doc_)
    ++col_off_[static_cast<std::size_t>(d) + 1];
  for (std::size_t d = 0; d < dd; ++d) col_off_[d + 1] += col_off_[d];
  col_cells_.resize(doc_.size());
  col_nodes_.resize(doc_.size());
  std::vector<std::int64_t> fill(col_off_.begin(), col_off_.end() - 1);
  for (NodeId v = 0; v < nodes_; ++v)
    for (std::int64_t cell = row_begin(v); cell < row_end(v); ++cell) {
      const std::size_t d =
          static_cast<std::size_t>(doc_[static_cast<std::size_t>(cell)]);
      const std::int64_t slot = fill[d]++;
      col_cells_[static_cast<std::size_t>(slot)] = cell;
      col_nodes_[static_cast<std::size_t>(slot)] = v;
    }
}

bool QuotaSnapshot::RefreshFromBatch(const BatchWebWaveSimulator& batch) {
  WEBWAVE_REQUIRE(incremental_,
                  "RefreshFromBatch needs a FromBatch-produced snapshot");
  WEBWAVE_REQUIRE(batch.node_count() == nodes_ && batch.doc_count() == docs_,
                  "snapshot does not match the batch engine");
  if (col_off_.empty()) BuildColumnIndex();
  const std::vector<int> dirty = batch.DirtyLanes();
  // One merged engine sweep collects the dirty lanes' fresh cells in
  // ExportQuotas order — the only part that touches the engine, O(dirty
  // lanes), not O(catalog).
  std::vector<BatchWebWaveSimulator::QuotaCell> fresh_cells;
  std::int64_t expect = 0;  // last refresh's dirty-lane cell count
  for (const int d : dirty)
    expect += col_off_[static_cast<std::size_t>(d) + 1] -
              col_off_[static_cast<std::size_t>(d)];
  fresh_cells.reserve(static_cast<std::size_t>(expect) + 1024);
  batch.ExportLanesQuotas(Span<const int>(dirty.data(), dirty.size()),
                          min_rate_, &fresh_cells);

  // Fast path: every dirty lane kept its copy set (same cells, same
  // nodes), so the CSR structure stands and only rates and fractions are
  // rewritten in place.  The check and the rewrite are one fused pass —
  // a mid-stream shape mismatch just falls through to the structural
  // merge below, which rebuilds everything and makes the partial writes
  // harmless.  total_ absorbs the rate deltas — the one field that can
  // drift ulps from a fresh build's summation order.
  bool same_shape = true;
  {
    std::vector<std::int64_t> at(static_cast<std::size_t>(docs_), 0);
    for (const int d : dirty)
      at[static_cast<std::size_t>(d)] = col_off_[static_cast<std::size_t>(d)];
    for (std::size_t i = 0; same_shape && i < fresh_cells.size(); ++i) {
      const BatchWebWaveSimulator::QuotaCell& c = fresh_cells[i];
      const std::size_t d = static_cast<std::size_t>(c.doc);
      std::int64_t& cursor = at[d];
      if (cursor >= col_off_[d + 1] ||
          col_nodes_[static_cast<std::size_t>(cursor)] != c.node) {
        same_shape = false;
        break;
      }
      const std::size_t cell = static_cast<std::size_t>(
          col_cells_[static_cast<std::size_t>(cursor++)]);
      total_ += c.served - rate_[cell];
      rate_[cell] = c.served;
      frac_[cell] = BatchFraction(c.served, c.forwarded);
    }
    for (const int d : dirty)
      same_shape = same_shape &&
                   at[static_cast<std::size_t>(d)] ==
                       col_off_[static_cast<std::size_t>(d) + 1];
    if (same_shape) return true;
  }

  // Structural path: some dirty lane gained or lost copies, so row
  // lengths shift.  Rebuild the CSR by merging the *old snapshot's* clean
  // cells with the fresh dirty cells row by row — O(old cells + new
  // cells) over the snapshot arrays, still never a rescan of the engine's
  // clean lanes.  Cells are appended in exactly the order Builder::Add
  // sees them in FromBatch, and total re-accumulates in that order, so
  // the result is byte-identical to a fresh build.
  std::vector<std::uint8_t> is_dirty(static_cast<std::size_t>(docs_), 0);
  for (const int d : dirty) is_dirty[static_cast<std::size_t>(d)] = 1;
  QuotaSnapshot merged;
  merged.nodes_ = nodes_;
  merged.docs_ = docs_;
  merged.incremental_ = true;
  merged.min_rate_ = min_rate_;
  merged.row_off_.assign(static_cast<std::size_t>(nodes_) + 1, 0);
  const std::size_t reserve = doc_.size() + fresh_cells.size();
  merged.doc_.reserve(reserve);
  merged.rate_.reserve(reserve);
  merged.frac_.reserve(reserve);
  std::size_t fresh = 0;  // next unconsumed dirty cell, (node, doc) order
  for (NodeId v = 0; v < nodes_; ++v) {
    std::int64_t old = row_begin(v);
    const std::int64_t old_end = row_end(v);
    while (true) {
      // Skip the old row's dirty-lane cells: the fresh export replaces
      // them (possibly with nothing).
      while (old < old_end &&
             is_dirty[static_cast<std::size_t>(
                 doc_[static_cast<std::size_t>(old)])])
        ++old;
      const bool has_old = old < old_end;
      const bool has_fresh =
          fresh < fresh_cells.size() && fresh_cells[fresh].node == v;
      if (!has_old && !has_fresh) break;
      const bool take_fresh =
          has_fresh && (!has_old || fresh_cells[fresh].doc <
                                        doc_[static_cast<std::size_t>(old)]);
      if (take_fresh) {
        merged.doc_.push_back(fresh_cells[fresh].doc);
        merged.rate_.push_back(fresh_cells[fresh].served);
        merged.frac_.push_back(BatchFraction(fresh_cells[fresh].served,
                                             fresh_cells[fresh].forwarded));
        merged.total_ += fresh_cells[fresh].served;
        ++fresh;
      } else {
        merged.doc_.push_back(doc_[static_cast<std::size_t>(old)]);
        merged.rate_.push_back(rate_[static_cast<std::size_t>(old)]);
        merged.frac_.push_back(frac_[static_cast<std::size_t>(old)]);
        merged.total_ += rate_[static_cast<std::size_t>(old)];
        ++old;
      }
    }
    merged.row_off_[static_cast<std::size_t>(v) + 1] =
        static_cast<std::int64_t>(merged.doc_.size());
  }
  merged.BuildColumnIndex();  // this snapshot is refreshed again by design
  *this = std::move(merged);
  return false;
}

std::int64_t QuotaSnapshot::CellOf(NodeId v, std::int32_t d) const {
  WEBWAVE_REQUIRE(v >= 0 && v < nodes_, "node out of range");
  const std::int32_t* lo = doc_.data() + row_begin(v);
  const std::int32_t* hi = doc_.data() + row_end(v);
  const std::int32_t* it = std::lower_bound(lo, hi, d);
  if (it == hi || *it != d) return -1;
  return it - doc_.data();
}

double QuotaSnapshot::RateAt(NodeId v, std::int32_t d) const {
  const std::int64_t cell = CellOf(v, d);
  return cell >= 0 ? rate_[static_cast<std::size_t>(cell)] : 0.0;
}

double QuotaSnapshot::FractionAt(NodeId v, std::int32_t d) const {
  const std::int64_t cell = CellOf(v, d);
  return cell >= 0 ? frac_[static_cast<std::size_t>(cell)] : 0.0;
}

std::vector<std::int64_t> QuotaSnapshot::CopiesPerDoc() const {
  std::vector<std::int64_t> copies(static_cast<std::size_t>(docs_), 0);
  for (const std::int32_t d : doc_) ++copies[static_cast<std::size_t>(d)];
  return copies;
}

Span<const NodeId> QuotaSnapshot::DocNodes(std::int32_t d) const {
  WEBWAVE_REQUIRE(d >= 0 && d < docs_, "document out of range");
  if (col_off_.empty()) BuildColumnIndex();
  const std::size_t begin =
      static_cast<std::size_t>(col_off_[static_cast<std::size_t>(d)]);
  const std::size_t end =
      static_cast<std::size_t>(col_off_[static_cast<std::size_t>(d) + 1]);
  return Span<const NodeId>(col_nodes_.data() + begin, end - begin);
}

Span<const std::int64_t> QuotaSnapshot::DocCells(std::int32_t d) const {
  WEBWAVE_REQUIRE(d >= 0 && d < docs_, "document out of range");
  if (col_off_.empty()) BuildColumnIndex();
  const std::size_t begin =
      static_cast<std::size_t>(col_off_[static_cast<std::size_t>(d)]);
  const std::size_t end =
      static_cast<std::size_t>(col_off_[static_cast<std::size_t>(d) + 1]);
  return Span<const std::int64_t>(col_cells_.data() + begin, end - begin);
}

}  // namespace webwave
