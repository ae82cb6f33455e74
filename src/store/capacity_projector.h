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
// predicate (store residency, one row-merge against the keep list) and
// the choice of which rows to re-rank.
//
// Refresh mirrors QuotaSnapshot::RefreshFromBatch one layer down: given
// the freshly re-synced base snapshot and the engine's dirty-lane set, it
// re-ranks admission only at nodes whose rows hold dirty cells (or held
// resident ones) — found by one scan of the rows against a dirty-document
// mark — and then projects the whole base again.  Re-ranking anywhere
// else would reproduce the stored keep set, a pure function of an
// unchanged row, so the result is cell-identical to a full Project(base)
// (asserted under ChurnSchedule churn by store_test).  When the store
// evicted nothing the clamp copies the base in; otherwise one node-major
// projection runs.  Either way an epoch costs O(cells), read
// sequentially, plus the re-ranked rows.
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
  bool Refresh(const QuotaSnapshot& base, Span<const int> dirty_lanes);

  const CacheStore& store() const { return store_; }

 protected:
  // A copy survives iff the store kept it resident: v's keep list is a
  // doc-ascending subset of its base row, so one merge marks the row.
  void KeepRow(const QuotaSnapshot& base, NodeId v,
               std::uint8_t* keep) const override;
  bool KeepsAll(const QuotaSnapshot& base) const override;

 private:
  CacheStore store_;
  // Refresh scratch: per document, 1 = dirty this refresh; the nodes to
  // re-rank, ascending.
  std::vector<std::uint8_t> dirty_doc_;
  std::vector<NodeId> touched_nodes_;
};

}  // namespace webwave
