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
// subclass supplies only the survivor predicate, one base row at a time
// (store residency, crash sets); the projection and the conservation
// check live here.
//
// The projection is node-major: three sequential sweeps over the base
// rows, whatever the document count.  The first asks the subclass which
// cells of each row survive.  The second climbs every excised cell to
// its nearest surviving ancestor copy and adds its quota to that target
// *cell*, or to a per-document home accumulator when the home holds no
// base cell.  The third writes the kept cells, grown by their spill,
// straight over the previous clamped CSR and synthesizes the home cells.
// Rows are walked in node order, so each (target, document) sum
// accumulates its sources node-ascending — the association order of a
// per-document column walk — and the result does not depend on how the
// base snapshot was produced.  Every buffer is reused across calls.
//
// A projection that excises no base cell is the base snapshot itself,
// cell for cell (no spill, so every cell passes through).  When the
// subclass reports that (KeepsAll), the base is copied in as the clamped
// snapshot directly, into the clamped snapshot's existing storage.
//
// Every projection re-derives the whole clamped snapshot from (base,
// predicate state), so a subclass's refresh is cell-identical to a fresh
// projection by construction and needs no record of what changed.
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

namespace webwave {

class SpillProjector {
 public:
  virtual ~SpillProjector() = default;

  SpillProjector(const SpillProjector&) = delete;
  SpillProjector& operator=(const SpillProjector&) = delete;

  // The clamped snapshot of the last projection.
  const QuotaSnapshot& clamped() const { return clamped_; }

  // Stats of the last projection: total quota rate moved up-tree, and
  // how many base cells the predicate rejected.
  double spilled_rate() const;
  std::int64_t evicted_cells() const;

  // Publishes the last projection's stats into `registry` as gauges:
  // "<prefix>evicted_cells" and "<prefix>spilled_rate_micros" (the
  // spilled quota rate in integer micro-units — the registry is
  // integer-only so identity assertions stay exact).  The EpochDriver
  // calls this each epoch with "capacity." / "fault.".
  void PublishMetrics(MetricRegistry* registry,
                      const std::string& prefix) const;

  // The spill invariant, checkable against the snapshot the last
  // projection consumed: |clamped total − base total| ≤
  // rel_tol·(1 + |base total|).  Spill moves quota between cells, so the
  // two totals are sums of the same rates in different association
  // orders.  The benches assert this every projection.
  bool ConservesTotalRate(const QuotaSnapshot& base,
                          double rel_tol = 1e-6) const;

 protected:
  explicit SpillProjector(const RoutingTree& tree);

  // Fills keep[i] with 1 when the i-th cell of v's base row survives
  // this projection, 0 when it is excised.  Never asked about the root:
  // the home is the authoritative origin, keeps every copy, and ends
  // every spill climb.  Called only while a projection is consuming
  // `base`.
  virtual void KeepRow(const QuotaSnapshot& base, NodeId v,
                       std::uint8_t* keep) const = 0;

  // True only when KeepRow keeps every cell of `base`: the projection
  // then installs `base` as is.
  virtual bool KeepsAll(const QuotaSnapshot& base) const = 0;

  // Projects `base` against the subclass's current predicate — the
  // pass-through when KeepsAll, the node-major sweep otherwise — and
  // replaces the clamped snapshot and all stats.  Requires
  // base.node_count() == tree size.  Returns true when the clamped CSR
  // shape held.
  bool ProjectAll(const QuotaSnapshot& base);

  bool projected() const { return projected_; }

  const RoutingTree& tree_;

 private:
  // The node-major projection of `base`, written over clamped_ in place
  // (see the file comment), replacing every stat; returns true when
  // clamped_ already had the result's CSR shape.
  bool Sweep(const QuotaSnapshot& base);
  // Installs `base` as clamped_ with zero spill stats (the KeepsAll
  // case); returns true when clamped_ already had base's CSR shape.
  bool PassThrough(const QuotaSnapshot& base);

  QuotaSnapshot clamped_;
  bool projected_ = false;

  std::vector<double> doc_spill_;          // per document, last projection
  std::vector<std::int64_t> doc_evicted_;  // per document, last projection

  // Sweep's scratch, sized by the base snapshot: per base cell, its
  // KeepState and the quota spilled onto it (nonzero only at a
  // kSpillTarget, and zeroed again as the emit reads it); per document,
  // the quota spilled onto a home that holds no base cell of it.
  enum KeepState : std::uint8_t { kExcised = 0, kKept = 1, kSpillTarget = 2 };
  std::vector<std::uint8_t> keep_;
  std::vector<double> cell_spill_;
  std::vector<double> home_spill_;
};

}  // namespace webwave
