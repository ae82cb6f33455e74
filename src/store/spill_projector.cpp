#include "store/spill_projector.h"

#include <algorithm>
#include <cmath>

#include "util/bits.h"
#include "util/check.h"

namespace webwave {

SpillProjector::SpillProjector(const RoutingTree& tree) : tree_(tree) {}

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
}

bool SpillProjector::ConservesTotalRate(const QuotaSnapshot& base,
                                        double rel_tol) const {
  return std::abs(clamped_.total_rate() - base.total_rate()) <=
         rel_tol * (1.0 + std::abs(base.total_rate()));
}

bool SpillProjector::Sweep(const QuotaSnapshot& base) {
  WEBWAVE_REQUIRE(&base != &clamped_,
                  "a projection cannot consume its own output");
  const int nodes = base.node_count();
  const int docs = base.doc_count();
  const std::size_t cells = static_cast<std::size_t>(base.cell_count());
  const std::int32_t* doc = base.cell_docs();
  const double* rates = base.cell_rates();
  const double* fracs = base.cell_fractions();
  const NodeId home = tree_.root();
  keep_.resize(cells);
  cell_spill_.resize(cells, 0.0);  // zero wherever keep_ is not kSpillTarget
  home_spill_.assign(static_cast<std::size_t>(docs), 0.0);
  doc_spill_.assign(static_cast<std::size_t>(docs), 0.0);
  doc_evicted_.assign(static_cast<std::size_t>(docs), 0);

  // Sweep 1 — which base cells survive.  Every later sweep reads these
  // flags, ancestors' included, so they are all decided first.
  for (NodeId v = 0; v < nodes; ++v) {
    std::uint8_t* keep = keep_.data() + base.row_begin(v);
    if (v == home)
      std::fill(keep, keep + (base.row_end(v) - base.row_begin(v)), kKept);
    else
      KeepRow(base, v, keep);
  }

  // Sweep 2 — each excised copy spills its whole quota onto the nearest
  // surviving ancestor copy, the home at worst, so the climb ends before
  // running off the root.  spill_target is that copy's base cell, or -1
  // when the climb reaches a home holding no base cell of d.  An ancestor
  // is tested by one bit of its row's summary, two bitmaps over the
  // documents: "held" (the row holds d) and "held kept" (it holds d and
  // the cell survives).  Only the target's cell is computed, as its row
  // start plus the rank of d among the row's held bits (the home keeps
  // every cell, so there the two bitmaps agree).  A row is summarized
  // when a climb first reaches it; the flags it reads are final, since a
  // cell only ever turns from kept into a spill target.
  const std::size_t words = (static_cast<std::size_t>(docs) + 63) / 64;
  // Every entry of summary_of_ is -1 between sweeps: a sweep resets the
  // entries of the rows it summarized, not the whole index.
  summary_of_.resize(static_cast<std::size_t>(nodes), -1);
  summaries_.clear();
  summarized_.clear();
  // u's row summary: its held words, then its held-kept words.
  const auto summary = [&](NodeId u) -> const std::uint64_t* {
    std::int32_t& ordinal = summary_of_[static_cast<std::size_t>(u)];
    if (ordinal < 0) {
      ordinal = static_cast<std::int32_t>(summarized_.size());
      summarized_.push_back(u);
      summaries_.resize(summaries_.size() + 2 * words, 0);
      std::uint64_t* held = summaries_.data() + summaries_.size() - 2 * words;
      std::uint64_t* held_kept = held + words;
      for (std::int64_t c = base.row_begin(u); c < base.row_end(u); ++c) {
        const std::size_t w = BitWord(doc[c]);
        const std::uint64_t bit = BitMask(doc[c]);
        held[w] |= bit;
        if (keep_[static_cast<std::size_t>(c)] != kExcised) held_kept[w] |= bit;
      }
    }
    return summaries_.data() + static_cast<std::size_t>(ordinal) * 2 * words;
  };
  const std::vector<NodeId>& parent = tree_.parents();
  const auto spill_target = [&](NodeId v, std::int32_t d) -> std::int64_t {
    const std::size_t w = BitWord(d);
    const std::uint64_t bit = BitMask(d);
    for (NodeId u = parent[static_cast<std::size_t>(v)];;
         u = parent[static_cast<std::size_t>(u)]) {
      const std::uint64_t* held = summary(u);
      if (held[words + w] & bit) return base.row_begin(u) + RankBelow(held, d);
      if (u == home) return -1;
    }
  };
  std::int64_t kept = 0;
  for (NodeId v = 0; v < nodes; ++v)
    for (std::int64_t c = base.row_begin(v); c < base.row_end(v); ++c) {
      if (keep_[static_cast<std::size_t>(c)] != kExcised) {
        ++kept;
        continue;
      }
      const std::int32_t d = doc[c];
      const double q = rates[c];
      const std::int64_t target = spill_target(v, d);
      if (target >= 0) {
        keep_[static_cast<std::size_t>(target)] = kSpillTarget;
        cell_spill_[static_cast<std::size_t>(target)] += q;
      } else {
        home_spill_[static_cast<std::size_t>(d)] += q;
      }
      doc_spill_[static_cast<std::size_t>(d)] += q;
      ++doc_evicted_[static_cast<std::size_t>(d)];
    }
  for (const NodeId u : summarized_)
    summary_of_[static_cast<std::size_t>(u)] = -1;
  std::int64_t synthesized = 0;
  for (const double s : home_spill_) synthesized += s > 0.0;

  // Sweep 3 — emit the surviving copies in CSR order straight into
  // clamped_, over its previous cells; each slot's old document and each
  // row's old end are compared before they are overwritten, which is the
  // shape check.  A cell with no spill passes through bit-identical; a
  // spill target's quota grows by S and its fraction is recomputed
  // against the arrival flow implied by the base fraction (A = q/f),
  // which also grew by S — the excised copies between the target and the
  // spill sources absorb nothing anymore.  A document whose home held no
  // base cell but received spill gets one synthesized there, fraction 1.
  // total_ sums in cell order, as a Builder over the cells would.
  QuotaSnapshot& out = clamped_;
  const std::size_t out_cells = static_cast<std::size_t>(kept + synthesized);
  bool same_shape = out.doc_.size() == out_cells &&
                    out.row_off_.size() == static_cast<std::size_t>(nodes) + 1;
  out.nodes_ = nodes;
  out.docs_ = docs;
  out.total_ = 0;
  out.incremental_ = false;
  out.min_rate_ = 0;
  out.row_off_.resize(static_cast<std::size_t>(nodes) + 1);
  out.row_off_[0] = 0;
  out.doc_.resize(out_cells);
  out.rate_.resize(out_cells);
  out.frac_.resize(out_cells);
  std::size_t slot = 0;
  const auto emit = [&](std::int32_t d, double rate, double frac) {
    same_shape = same_shape && out.doc_[slot] == d;
    out.doc_[slot] = d;
    out.rate_[slot] = rate;
    out.frac_[slot] = frac;
    out.total_ += rate;
    ++slot;
  };
  const auto emit_cell = [&](std::int64_t c) {
    const std::size_t i = static_cast<std::size_t>(c);
    if (keep_[i] == kKept) {
      emit(doc[c], rates[c], fracs[c]);
    } else if (keep_[i] == kSpillTarget) {
      const double q = rates[c];
      const double s = cell_spill_[i];
      cell_spill_[i] = 0.0;
      const double arrive = fracs[c] >= 1.0 ? q : q / fracs[c];
      emit(doc[c], q + s, std::min(1.0, (q + s) / (arrive + s)));
    }
  };
  for (NodeId v = 0; v < nodes; ++v) {
    if (v != home) {
      for (std::int64_t c = base.row_begin(v); c < base.row_end(v); ++c)
        emit_cell(c);
    } else {
      // The home row merges its own cells with the synthesized ones.
      std::int32_t synth = 0;
      const auto emit_synthesized_below = [&](std::int32_t limit) {
        for (; synth < limit; ++synth) {
          const double s = home_spill_[static_cast<std::size_t>(synth)];
          if (s > 0.0) emit(synth, s, 1.0);
        }
      };
      for (std::int64_t c = base.row_begin(v); c < base.row_end(v); ++c) {
        emit_synthesized_below(doc[c]);
        emit_cell(c);
      }
      emit_synthesized_below(docs);
    }
    std::int64_t& row_end = out.row_off_[static_cast<std::size_t>(v) + 1];
    same_shape = same_shape && row_end == static_cast<std::int64_t>(slot);
    row_end = static_cast<std::int64_t>(slot);
  }
  return same_shape;
}

bool SpillProjector::PassThrough(const QuotaSnapshot& base) {
  const bool same_shape =
      clamped_.row_off_ == base.row_off_ && clamped_.doc_ == base.doc_;
  clamped_ = base;  // copy-assigned: clamped_'s storage is reused
  clamped_.incremental_ = false;
  clamped_.min_rate_ = 0;
  doc_spill_.assign(static_cast<std::size_t>(base.doc_count()), 0.0);
  doc_evicted_.assign(static_cast<std::size_t>(base.doc_count()), 0);
  return same_shape;
}

bool SpillProjector::ProjectAll(const QuotaSnapshot& base) {
  WEBWAVE_REQUIRE(base.node_count() == tree_.size(),
                  "snapshot does not match the tree");
  projected_ = true;
  return KeepsAll(base) ? PassThrough(base) : Sweep(base);
}

}  // namespace webwave
