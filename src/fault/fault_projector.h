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
// Crash/recover events reach the down set through ApplyEvents (or
// SetDown, which replaces it whole); Refresh then projects the base
// against the current down set, exactly as Project does, and reports
// whether the clamped CSR shape held.  The result is a pure function of
// (base, down set), so it is cell-identical to a fresh Project by
// construction (asserted by fault_test across interleaved churn and
// fault epochs).
//
// Layering under finite storage: run CapacityProjector first and feed
// its clamped() snapshot here as the base.  Then a crashed node's
// *resident* copies spill to live resident ancestors, and a recovery
// re-admits exactly the copies the store's admission kept — the
// capacity plane decides residency, the fault plane decides liveness.
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
  // fault-tolerance scenario; duplicates collapse.
  void SetDown(Span<const NodeId> down);

  // Full projection of `base` against the current down set.
  void Project(const QuotaSnapshot& base);

  // Applies crash/recover transitions to the down set without
  // projecting anything.  Splitting the event intake from the
  // projection gives this class the same epoch surface as
  // CapacityProjector: out-of-band state changes first, then one
  // Project/Refresh (see store/README.md).
  void ApplyEvents(Span<const FaultEvent> events);

  // Project(base) that also reports whether the clamped CSR shape held.
  bool Refresh(const QuotaSnapshot& base);

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
};

}  // namespace webwave
