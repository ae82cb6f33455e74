// Re-homing quota around crashed nodes: the fault plane's projector.
//
// FaultProjector consumes crash/recover events exactly the way
// CapacityProjector consumes byte budgets: given a base QuotaSnapshot and
// the current down set, Project emits a clamped snapshot in which every
// crashed node's copies have vanished and each lost copy's quota has
// spilled up the tree onto the nearest *live* ancestor that holds a copy
// of the same document (the home at worst — the home never crashes; see
// fault/fault_schedule.h).  Total rate is conserved: a crash moves
// service, it never destroys it.  The spill law — ancestor climb,
// fraction re-derivation (q+S)/(A+S), home-cell synthesis, bit-identical
// pass-through of untouched cells — is SpillProjector's
// (store/spill_projector.h), shared with the capacity plane, and runs as
// one node-major projection over the base rows; this class contributes
// only the survivor predicate: a base row survives whole iff its node is
// live.
//
// Refresh re-projects when anything can have moved: given the transition
// batch from FaultSchedule::NextEvents (plus the demand-side dirty lanes,
// if the base itself moved this epoch), the documents whose clamped cells
// can differ are the dirty lanes plus every document in a transitioned
// node's base row.  That union is exact: a crash or recovery at node v
// only re-routes quota belonging to documents v holds a base copy of
// (live nodes without a copy never absorb spill, so transit nodes cannot
// couple other documents in).  An empty union leaves the clamped
// snapshot as it is; otherwise the whole projection runs again.  The
// result is cell-identical to a full Project against the same down set
// (asserted by fault_test across interleaved churn and fault epochs).
//
// Layering under finite storage: run CapacityProjector first and feed
// its clamped() snapshot here as the base.  Then a crashed node's
// *resident* copies spill to live resident ancestors, and a recovery
// re-admits exactly the copies the store's admission kept — the
// capacity plane decides residency, the fault plane decides liveness.
// When the capacity refresh rebuilt cells this epoch, union its
// last_affected_docs() into dirty_lanes so the fault refresh re-reads
// every base row that moved.
//
// Pure serial functions of (base, down set) throughout — bit-identical
// at every thread count and lane_block width by construction.
#pragma once

#include <cstdint>
#include <vector>

#include "fault/fault_schedule.h"
#include "serve/quota_snapshot.h"
#include "store/spill_projector.h"
#include "tree/routing_tree.h"
#include "util/span.h"

namespace webwave {

class FaultProjector : public SpillProjector {
 public:
  explicit FaultProjector(const RoutingTree& tree);

  // Replaces the down set (no projection).  Nodes must be in range and
  // never the root — a dead home is an unpublished catalog, not a
  // fault-tolerance scenario; duplicates collapse.  Every node whose
  // status flips is banked like an ApplyEvents transition, so the next
  // Refresh re-projects its row.
  void SetDown(Span<const NodeId> down);

  // Full projection of `base` against the current down set.
  void Project(const QuotaSnapshot& base);

  // Applies crash/recover transitions to the down set without
  // projecting anything; the transitioned nodes accumulate and the next
  // Refresh re-projects their rows.  Splitting the event intake from
  // the re-projection gives this class the same epoch surface as
  // CapacityProjector — one Project(base) / Refresh(base, dirty_lanes)
  // shape per projector, whatever its survivor predicate (see
  // store/README.md).
  void ApplyEvents(Span<const FaultEvent> events);

  // Event-proportional re-projection (requires a prior Project):
  // re-projects `dirty_lanes` (the demand-side lanes whose base cells
  // moved this epoch; empty when the base is unchanged) plus every
  // document in the base row of a node ApplyEvents transitioned since
  // the last projection.  Returns true when the clamped CSR shape held.
  // Signature-compatible with CapacityProjector::Refresh.
  bool Refresh(const QuotaSnapshot& base, Span<const int> dirty_lanes);

  // Convenience composition of ApplyEvents + Refresh (the historical
  // one-call form).
  bool Refresh(const QuotaSnapshot& base, Span<const FaultEvent> events,
               Span<const int> dirty_lanes);

  // The current down set, ascending — the shape ServingPlane::SetDownNodes
  // consumes.
  const std::vector<NodeId>& down() const { return down_; }
  bool IsDown(NodeId v) const;

 protected:
  // A base copy survives iff its node is live; the root is always live
  // and absorbs any remainder (home-cell synthesis).
  void KeepRow(const QuotaSnapshot& base, NodeId v,
               std::uint8_t* keep) const override;
  bool KeepsAll(const QuotaSnapshot& base) const override;

 private:
  std::vector<NodeId> down_;             // ascending
  std::vector<std::uint8_t> down_mask_;  // per node, 1 = crashed
  // Nodes SetDown/ApplyEvents transitioned since the last
  // Project/Refresh; their base rows join the next Refresh's affected
  // set.
  std::vector<NodeId> pending_transitions_;
};

}  // namespace webwave
