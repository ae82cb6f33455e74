// Shared up-tree spill machinery for snapshot projections that delete
// copies and conserve their quota.
//
// Two subsystems clamp a QuotaSnapshot by removing copies and re-homing
// their service rate: the capacity layer (a finite CacheStore evicts what
// does not fit, store/capacity_projector) and the fault plane (a crashed
// node's copies vanish, fault/fault_projector).  Both obey the same spill
// law — an excised copy's quota moves up the tree onto the nearest
// *surviving* copy of the same document, the home at worst (a home cell
// is synthesized when the base snapshot had none), serve fractions are
// re-derived as (q+S)/(A+S) against the arrival flow A = q/f, untouched
// cells pass through bit-identical, and total rate is conserved by
// construction.  SpillProjector is that law factored out once: a
// subclass supplies only the survivor predicate (store residency, crash
// sets) and the incremental bookkeeping that decides *which* documents to
// re-project; the per-document projection, the CSR merge/assembly, the
// in-place value rewrite and the conservation check live here.
//
// A projection that excises no base cell is the base snapshot itself,
// cell for cell (no spill, so every cell passes through).  When the
// subclass reports that (KeepsAll), the base is installed as the clamped
// snapshot directly — a copy, not a per-document pass and a CSR rebuild.
//
// Everything is a pure serial function of (base snapshot, predicate
// state): deterministic across thread counts and lane_block widths, so
// the engine's bit-identity guarantees carry through any projection
// stack (capacity, faults, or both chained) untouched.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metric_registry.h"
#include "serve/quota_snapshot.h"
#include "tree/routing_tree.h"
#include "util/mark_set.h"
#include "util/span.h"

namespace webwave {

class SpillProjector {
 public:
  virtual ~SpillProjector() = default;

  SpillProjector(const SpillProjector&) = delete;
  SpillProjector& operator=(const SpillProjector&) = delete;

  // The clamped snapshot of the last ProjectAll/Reproject.
  const QuotaSnapshot& clamped() const { return clamped_; }

  // Stats of the last projection: total quota rate moved up-tree, and
  // how many base cells the predicate rejected.
  double spilled_rate() const;
  std::int64_t evicted_cells() const;

  // The documents the last ProjectAll/Reproject re-projected (ascending)
  // — every clamped cell outside these columns is untouched.  Chained
  // projectors feed this to the next layer's refresh.
  Span<const std::int32_t> last_affected_docs() const {
    return Span<const std::int32_t>(last_affected_.data(),
                                    last_affected_.size());
  }

  // Publishes the last projection's stats into `registry` as gauges:
  // "<prefix>evicted_cells", "<prefix>spilled_rate_micros" (the spilled
  // quota rate in integer micro-units — the registry is integer-only so
  // identity assertions stay exact) and "<prefix>affected_docs".  The
  // EpochDriver calls this each epoch with "capacity." / "fault.".
  void PublishMetrics(MetricRegistry* registry,
                      const std::string& prefix) const;

  // The spill invariant, checkable against the snapshot the last
  // projection consumed: |clamped total − base total| within rel_tol
  // relatively (total_rate is the one field that may drift ulps on the
  // in-place refresh path).  The benches assert this every projection.
  bool ConservesTotalRate(const QuotaSnapshot& base,
                          double rel_tol = 1e-6) const;

 protected:
  explicit SpillProjector(const RoutingTree& tree);

  // Does v's base copy of d survive this projection?  Asked only about
  // nodes that hold a base copy of d (the spill climb checks that itself
  // with CellOf) and must be true at the root — the home is the
  // authoritative origin, and the climb terminates there.  Called only
  // while a ProjectAll/Reproject is consuming a base snapshot.
  virtual bool Keeps(NodeId v, std::int32_t d) const = 0;

  // True only when Keeps holds for every cell of `base`: the projection
  // then installs `base` as is.
  virtual bool KeepsAll(const QuotaSnapshot& base) const = 0;

  // Full projection of every document; replaces the clamped snapshot and
  // all stats.  Requires base.node_count() == tree size.
  void ProjectAll(const QuotaSnapshot& base);

  // Incremental re-projection (requires a prior ProjectAll): re-projects
  // exactly the documents marked in affected_ (and empties it) — the
  // subclass promises every other document's base column *and* predicate
  // outcomes are unchanged.  When every affected document kept its
  // clamped copy set, cell values are rewritten in place through the
  // column index (total_rate by deltas); otherwise clean rows and fresh
  // cells merge into a rebuilt CSR; when KeepsAll, the base is installed.
  // Whichever path runs, the result is cell-identical to a full
  // ProjectAll.  Returns true when the clamped CSR shape held.
  bool Reproject(const QuotaSnapshot& base);

  bool projected() const { return projected_; }

  const RoutingTree& tree_;
  // The documents the next Reproject re-projects; subclasses mark them.
  MarkSet affected_;

 private:
  // One clamped cell of a single document's projection.
  struct DocCell {
    NodeId node;
    double rate;
    double frac;
  };

  // Computes document d's clamped cells from the base column into
  // doc_scratch_[d] (node ascending) and refreshes doc_spill_[d] /
  // doc_evicted_[d].
  void ProjectDoc(const QuotaSnapshot& base, std::int32_t d);
  // Rebuilds clamped_, column index included, from the scratch cells of
  // last_affected_ and the current clamped cells of every other
  // document; with every document affected this is the full assembly.
  void Assemble();
  // Installs `base` as clamped_ with zero spill stats (the KeepsAll
  // case); returns true when clamped_ already had base's CSR shape.
  bool PassThrough(const QuotaSnapshot& base);

  QuotaSnapshot clamped_;
  QuotaSnapshot spare_;  // Assemble's output buffer, swapped with clamped_
  bool projected_ = false;

  std::vector<double> doc_spill_;          // per document, last projection
  std::vector<std::int64_t> doc_evicted_;  // per document, last projection
  std::vector<std::vector<DocCell>> doc_scratch_;  // per-doc clamped cells
  std::vector<std::int32_t> last_affected_;        // see accessor

  // Per-node scratch for one document's spill pass.
  std::vector<double> spill_;
  std::vector<NodeId> spill_touched_;
};

}  // namespace webwave
