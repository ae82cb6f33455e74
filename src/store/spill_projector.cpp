#include "store/spill_projector.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/check.h"

namespace webwave {

SpillProjector::SpillProjector(const RoutingTree& tree) : tree_(tree) {
  spill_.assign(static_cast<std::size_t>(tree.size()), 0.0);
}

double SpillProjector::spilled_rate() const {
  double total = 0;
  for (const double s : doc_spill_) total += s;
  return total;
}

std::int64_t SpillProjector::evicted_cells() const {
  std::int64_t total = 0;
  for (const std::int64_t e : doc_evicted_) total += e;
  return total;
}

void SpillProjector::PublishMetrics(MetricRegistry* registry,
                                    const std::string& prefix) const {
  registry->Set(registry->Gauge(prefix + "evicted_cells"), evicted_cells());
  registry->Set(registry->Gauge(prefix + "spilled_rate_micros"),
                std::llround(spilled_rate() * 1e6));
  registry->Set(registry->Gauge(prefix + "affected_docs"),
                static_cast<std::int64_t>(last_affected_.size()));
}

bool SpillProjector::ConservesTotalRate(const QuotaSnapshot& base,
                                        double rel_tol) const {
  return std::abs(clamped_.total_rate() - base.total_rate()) <=
         rel_tol * (1.0 + std::abs(base.total_rate()));
}

void SpillProjector::ProjectDoc(const QuotaSnapshot& base, std::int32_t d) {
  const Span<const NodeId> nodes = base.DocNodes(d);
  const Span<const std::int64_t> cells = base.DocCells(d);
  const double* rates = base.cell_rates();
  const double* fracs = base.cell_fractions();
  const NodeId home = tree_.root();
  std::vector<DocCell>& out = doc_scratch_[static_cast<std::size_t>(d)];
  out.clear();

  // Pass 1 — excised copies spill their whole quota onto the nearest
  // surviving ancestor copy (the home at worst, so the climb terminates
  // before running off the root).  Only the climb visits nodes that may
  // hold no base copy, so only the climb looks the cell up.  Cells are
  // visited node-ascending, so the spill sums accumulate in a fixed
  // order no matter how the snapshot was produced.
  double spilled = 0;
  std::int64_t evicted = 0;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const NodeId v = nodes[i];
    if (Keeps(v, d)) continue;
    const double q = rates[cells[i]];
    NodeId u = tree_.parent(v);
    while (!tree_.is_root(u) && !(Keeps(u, d) && base.CellOf(u, d) >= 0))
      u = tree_.parent(u);
    if (spill_[static_cast<std::size_t>(u)] == 0.0) spill_touched_.push_back(u);
    spill_[static_cast<std::size_t>(u)] += q;
    spilled += q;
    ++evicted;
  }

  // Pass 2 — emit the surviving copies.  A cell with no spill passes
  // through bit-identical; a spill target's quota grows by S and its
  // fraction is recomputed against the arrival flow implied by the base
  // fraction (A = q/f), which also grew by S — the excised copies
  // between the target and the spill sources absorb nothing anymore.
  bool home_has_cell = false;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const NodeId v = nodes[i];
    if (!Keeps(v, d)) continue;
    const double q = rates[cells[i]];
    const double f = fracs[cells[i]];
    const double s = spill_[static_cast<std::size_t>(v)];
    if (v == home) home_has_cell = true;
    if (s == 0.0) {
      out.push_back({v, q, f});
    } else {
      const double arrive = f >= 1.0 ? q : q / f;
      out.push_back({v, q + s, std::min(1.0, (q + s) / (arrive + s))});
    }
  }
  const double home_spill = spill_[static_cast<std::size_t>(home)];
  if (!home_has_cell && home_spill > 0.0) {
    // The document had no home copy in the base snapshot (everything was
    // absorbed below); the spilled remainder materializes one.
    const DocCell cell{home, home_spill, 1.0};
    out.insert(std::lower_bound(out.begin(), out.end(), cell,
                                [](const DocCell& a, const DocCell& b) {
                                  return a.node < b.node;
                                }),
               cell);
  }

  for (const NodeId u : spill_touched_)
    spill_[static_cast<std::size_t>(u)] = 0.0;
  spill_touched_.clear();
  doc_spill_[static_cast<std::size_t>(d)] = spilled;
  doc_evicted_[static_cast<std::size_t>(d)] = evicted;
}

void SpillProjector::Assemble() {
  const int nodes = tree_.size();
  const std::size_t docs = doc_scratch_.size();
  const std::vector<std::int32_t>& affected = last_affected_;
  std::vector<std::uint8_t> is_affected(docs, 0);
  for (const std::int32_t d : affected)
    is_affected[static_cast<std::size_t>(d)] = 1;
  // Unaffected documents keep their current clamped cells.  On the first
  // projection every document is affected and the old snapshot is never
  // read.
  const bool keep_old = affected.size() < docs;

  // The result is built in spare_ and swapped in, so its arrays' storage
  // is reused epoch over epoch.  Column sizes are known up front, so
  // column d's entries can be filled as its cells are emitted.
  QuotaSnapshot& out = spare_;
  out.nodes_ = nodes;
  out.docs_ = static_cast<int>(docs);
  out.col_off_.assign(docs + 1, 0);
  for (std::size_t d = 0; d < docs; ++d)
    out.col_off_[d + 1] =
        out.col_off_[d] +
        static_cast<std::int64_t>(
            is_affected[d] != 0
                ? doc_scratch_[d].size()
                : clamped_.DocNodes(static_cast<std::int32_t>(d)).size());
  const std::size_t cells = static_cast<std::size_t>(out.col_off_[docs]);
  out.row_off_.assign(static_cast<std::size_t>(nodes) + 1, 0);
  out.doc_.resize(cells);
  out.rate_.resize(cells);
  out.frac_.resize(cells);
  out.col_cells_.resize(cells);
  out.col_nodes_.resize(cells);
  out.total_ = 0;
  std::vector<std::int64_t> col_fill(out.col_off_.begin(),
                                     out.col_off_.end() - 1);
  std::size_t slot = 0;
  const auto emit = [&](NodeId v, std::int32_t d, double rate, double frac) {
    out.doc_[slot] = d;
    out.rate_[slot] = rate;
    out.frac_[slot] = frac;
    out.total_ += rate;  // cell order, as a Builder over the cells would
    const std::size_t k =
        static_cast<std::size_t>(col_fill[static_cast<std::size_t>(d)]++);
    out.col_cells_[k] = static_cast<std::int64_t>(slot);
    out.col_nodes_[k] = v;
    ++slot;
  };

  // Row by row, merge the old row's unaffected cells with the affected
  // documents' scratch cells at this node.  Each scratch column is
  // node-ascending, so a cursor per affected document walks it once, and
  // both sequences are doc-ascending (affected is), so the output is
  // written strictly in CSR order.
  std::vector<std::size_t> cursor(affected.size(), 0);
  for (NodeId v = 0; v < nodes; ++v) {
    std::int64_t old = keep_old ? clamped_.row_begin(v) : 0;
    const std::int64_t old_end = keep_old ? clamped_.row_end(v) : 0;
    std::size_t a = 0;
    while (true) {
      while (old < old_end &&
             is_affected[static_cast<std::size_t>(
                 clamped_.doc_[static_cast<std::size_t>(old)])] != 0)
        ++old;
      while (a < affected.size()) {
        const std::vector<DocCell>& col =
            doc_scratch_[static_cast<std::size_t>(affected[a])];
        if (cursor[a] < col.size() && col[cursor[a]].node == v) break;
        ++a;
      }
      const bool has_old = old < old_end;
      const bool has_fresh = a < affected.size();
      if (!has_old && !has_fresh) break;
      if (has_fresh &&
          (!has_old ||
           affected[a] < clamped_.doc_[static_cast<std::size_t>(old)])) {
        const DocCell& c =
            doc_scratch_[static_cast<std::size_t>(affected[a])][cursor[a]++];
        emit(v, affected[a], c.rate, c.frac);
        ++a;
      } else {
        const std::size_t o = static_cast<std::size_t>(old++);
        emit(v, clamped_.doc_[o], clamped_.rate_[o], clamped_.frac_[o]);
      }
    }
    out.row_off_[static_cast<std::size_t>(v) + 1] =
        static_cast<std::int64_t>(slot);
  }
  std::swap(clamped_, spare_);
}

bool SpillProjector::PassThrough(const QuotaSnapshot& base) {
  const bool same_shape =
      clamped_.row_off_ == base.row_off_ && clamped_.doc_ == base.doc_;
  if (base.col_off_.empty()) base.BuildColumnIndex();
  clamped_ = base;  // column index included: Reproject reads it next epoch
  clamped_.incremental_ = false;
  clamped_.min_rate_ = 0;
  std::fill(doc_spill_.begin(), doc_spill_.end(), 0.0);
  std::fill(doc_evicted_.begin(), doc_evicted_.end(), 0);
  return same_shape;
}

void SpillProjector::ProjectAll(const QuotaSnapshot& base) {
  WEBWAVE_REQUIRE(base.node_count() == tree_.size(),
                  "snapshot does not match the tree");
  const int docs = base.doc_count();
  doc_spill_.assign(static_cast<std::size_t>(docs), 0.0);
  doc_evicted_.assign(static_cast<std::size_t>(docs), 0);
  doc_scratch_.resize(static_cast<std::size_t>(docs));
  affected_.Reset(docs);
  last_affected_.resize(static_cast<std::size_t>(docs));
  std::iota(last_affected_.begin(), last_affected_.end(), 0);
  projected_ = true;
  if (KeepsAll(base)) {
    PassThrough(base);
    return;
  }
  for (const std::int32_t d : last_affected_) ProjectDoc(base, d);
  Assemble();
}

bool SpillProjector::Reproject(const QuotaSnapshot& base) {
  WEBWAVE_REQUIRE(projected_, "Reproject needs a prior ProjectAll");
  affected_.Drain(&last_affected_);
  const std::vector<std::int32_t>& affected = last_affected_;
  if (affected.empty()) return true;
  if (KeepsAll(base)) return PassThrough(base);

  for (const std::int32_t d : affected) ProjectDoc(base, d);

  // In-place when every affected document kept its clamped copy set:
  // rewrite rates and fractions through the column index, applying rate
  // deltas to the total (the one field that may drift ulps versus a full
  // projection, exactly like RefreshFromBatch's in-place path).
  bool same_shape = true;
  for (const std::int32_t d : affected) {
    const Span<const NodeId> old_nodes = clamped_.DocNodes(d);
    const std::vector<DocCell>& fresh =
        doc_scratch_[static_cast<std::size_t>(d)];
    if (old_nodes.size() != fresh.size()) {
      same_shape = false;
      break;
    }
    for (std::size_t i = 0; same_shape && i < fresh.size(); ++i)
      same_shape = old_nodes[i] == fresh[i].node;
    if (!same_shape) break;
  }
  if (same_shape) {
    for (const std::int32_t d : affected) {
      const Span<const std::int64_t> cells = clamped_.DocCells(d);
      const std::vector<DocCell>& fresh =
          doc_scratch_[static_cast<std::size_t>(d)];
      for (std::size_t i = 0; i < fresh.size(); ++i) {
        const std::size_t cell = static_cast<std::size_t>(cells[i]);
        clamped_.total_ += fresh[i].rate - clamped_.rate_[cell];
        clamped_.rate_[cell] = fresh[i].rate;
        clamped_.frac_[cell] = fresh[i].frac;
      }
    }
    return true;
  }
  Assemble();
  return false;
}

}  // namespace webwave
