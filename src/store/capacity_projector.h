// Clamping a quota snapshot to finite storage: eviction + up-tree spill.
//
// The control plane's QuotaSnapshot assumes every copy it places can be
// materialized; a CacheStore says otherwise.  CapacityProjector connects
// the two: Project runs the store's admission over the base snapshot and
// emits a *clamped* snapshot containing only resident copies, with every
// evicted copy's quota spilled up the tree onto the nearest surviving
// copy of the same document (the home at worst — it is always resident).
// The serving plane then routes against the clamped snapshot, so requests
// walk past evicted nodes exactly as if the copy had never been placed,
// and the spill target's enlarged quota absorbs what the evicted copy
// would have served.
//
// The spill law itself — nearest-surviving-ancestor re-homing, fraction
// re-derivation (q+S)/(A+S), home-cell synthesis, bit-identical
// pass-through of untouched cells, conservation of total rate — lives in
// SpillProjector (store/spill_projector.h), shared with the fault
// plane's FaultProjector; this class contributes only the survivor
// predicate (store residency) and the churn-proportional bookkeeping.
//
// Refresh is the churn-proportional path, mirroring
// QuotaSnapshot::RefreshFromBatch one layer down: given the freshly
// re-synced base snapshot and the engine's dirty-lane set, it re-ranks
// admission only at nodes whose rows hold dirty cells (or held resident
// ones), then re-projects dirty lanes ∪ documents whose residency moved
// — capacity couples documents through the shared byte budget, so a
// dirty lane can evict a clean lane's copy, and the union is exactly the
// set whose clamped cells can change.  The result is cell-identical to a
// full Project(base) (asserted under ChurnSchedule churn by store_test).
// Both sets are mark arrays (util/mark_set.h), and when the store
// evicted nothing the clamp installs the base itself, so an epoch costs
// the re-ranked rows plus one snapshot copy — nothing per document.
//
// Everything here is a pure serial function of (base, store state):
// deterministic across thread counts and lane_block widths by
// construction — the engine's bit-identity guarantees carry through the
// store untouched.
#pragma once

#include <cstdint>
#include <vector>

#include "serve/quota_snapshot.h"
#include "store/cache_store.h"
#include "store/spill_projector.h"
#include "tree/routing_tree.h"
#include "util/mark_set.h"
#include "util/span.h"

namespace webwave {

class CapacityProjector : public SpillProjector {
 public:
  CapacityProjector(const RoutingTree& tree, CacheStore store);

  // Full projection: admission at every node, then every document's
  // spill resolved.  Replaces the clamped snapshot and all stats.
  void Project(const QuotaSnapshot& base);

  // Incremental re-projection after a closed-loop epoch (requires a
  // prior Project): `base` must be the maintained snapshot *after* its
  // RefreshFromBatch, `dirty_lanes` the engine's dirty set that drove
  // it (ascending).  Returns true when the clamped CSR shape held.
  // last_affected_docs() afterwards covers every dirty lane.
  bool Refresh(const QuotaSnapshot& base, Span<const int> dirty_lanes);

  const CacheStore& store() const { return store_; }

 protected:
  // A copy survives iff the store kept it resident (the home is resident
  // for the whole catalog by definition).
  bool Keeps(NodeId v, std::int32_t d) const override;
  bool KeepsAll(const QuotaSnapshot& base) const override;

 private:
  CacheStore store_;
  // Refresh scratch: the nodes to re-rank, marked, then drained ascending.
  MarkSet touched_;
  std::vector<NodeId> touched_nodes_;
};

}  // namespace webwave
