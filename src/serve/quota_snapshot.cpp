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
  return s;
}

bool QuotaSnapshot::RefreshFromBatch(const BatchWebWaveSimulator& batch) {
  WEBWAVE_REQUIRE(incremental_,
                  "RefreshFromBatch needs a FromBatch-produced snapshot");
  WEBWAVE_REQUIRE(batch.node_count() == nodes_ && batch.doc_count() == docs_,
                  "snapshot does not match the batch engine");
  RefreshScratch& x = scratch_;
  const std::vector<int> dirty = batch.DirtyLanes();

  // The new CSR is built in the scratch arrays (cleared, so their storage
  // is reused) in exactly the order Builder::Add sees the cells in
  // FromBatch, and total re-accumulates in that order, so the result is
  // byte-identical to a fresh build.
  x.doc.clear();
  x.rate.clear();
  x.frac.clear();
  x.row_off.resize(static_cast<std::size_t>(nodes_) + 1);
  x.row_off[0] = 0;
  double total = 0;
  const auto append = [&](std::int32_t d, double rate, double frac) {
    x.doc.push_back(d);
    x.rate.push_back(rate);
    x.frac.push_back(frac);
    total += rate;
  };
  NodeId open_row = 0;  // rows below it are complete
  const auto close_rows_below = [&](NodeId v) {
    for (; open_row < v; ++open_row)
      x.row_off[static_cast<std::size_t>(open_row) + 1] =
          static_cast<std::int64_t>(x.doc.size());
  };

  if (dirty.size() == static_cast<std::size_t>(docs_)) {
    // Every lane is dirty, so no old cell survives: the engine's export
    // is the new CSR, streamed straight into the scratch arrays.
    batch.ExportQuotas(min_rate_, [&](NodeId v, std::int32_t d, double served,
                                      double forwarded) {
      close_rows_below(v);
      append(d, served, BatchFraction(served, forwarded));
    });
  } else {
    // One merged engine sweep collects the dirty lanes' fresh cells in
    // ExportQuotas order — the only part that touches the engine, O(dirty
    // lanes), not O(catalog) — and one pass merges them, row by row, with
    // the old rows' clean cells.  An old cell of a dirty lane is dropped:
    // the fresh export replaces it (possibly with nothing).
    x.fresh.clear();
    batch.ExportLanesQuotas(Span<const int>(dirty.data(), dirty.size()),
                            min_rate_, &x.fresh);
    x.dirty.assign(static_cast<std::size_t>(docs_), 0);
    for (const int d : dirty) x.dirty[static_cast<std::size_t>(d)] = 1;
    const auto append_if_clean = [&](std::size_t old) {
      if (x.dirty[static_cast<std::size_t>(doc_[old])] == 0)
        append(doc_[old], rate_[old], frac_[old]);
    };
    const BatchWebWaveSimulator::QuotaCell* fresh = x.fresh.data();
    const BatchWebWaveSimulator::QuotaCell* const fresh_end =
        fresh + x.fresh.size();
    for (NodeId v = 0; v < nodes_; ++v) {
      std::size_t old = static_cast<std::size_t>(row_begin(v));
      const std::size_t old_end = static_cast<std::size_t>(row_end(v));
      for (; fresh != fresh_end && fresh->node == v; ++fresh) {
        for (; old < old_end && doc_[old] < fresh->doc; ++old)
          append_if_clean(old);
        append(fresh->doc, fresh->served,
               BatchFraction(fresh->served, fresh->forwarded));
      }
      for (; old < old_end; ++old) append_if_clean(old);
      close_rows_below(v + 1);
    }
  }
  close_rows_below(nodes_);
  const bool same_shape = x.row_off == row_off_ && x.doc == doc_;
  row_off_.swap(x.row_off);
  doc_.swap(x.doc);
  rate_.swap(x.rate);
  frac_.swap(x.frac);
  total_ = total;
  return same_shape;
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

}  // namespace webwave
