#include "store/capacity_projector.h"

#include "util/check.h"

namespace webwave {

CapacityProjector::CapacityProjector(const RoutingTree& tree, CacheStore store)
    : SpillProjector(tree), store_(std::move(store)) {
  WEBWAVE_REQUIRE(store_.node_count() == tree.size(),
                  "store does not match the tree");
}

bool CapacityProjector::Keeps(NodeId v, std::int32_t d) const {
  return store_.Resident(v, d);
}

bool CapacityProjector::KeepsAll(const QuotaSnapshot& base) const {
  // Residency was decided over base's rows, and every row keeps a subset
  // of its cells: the counts match only when no row evicted anything.
  return store_.resident_cells() == base.cell_count();
}

void CapacityProjector::Project(const QuotaSnapshot& base) {
  WEBWAVE_REQUIRE(base.node_count() == store_.node_count(),
                  "snapshot does not match the store");
  store_.Admit(base);
  ProjectAll(base);
  touched_.Reset(store_.node_count());
}

bool CapacityProjector::Refresh(const QuotaSnapshot& base,
                                Span<const int> dirty_lanes) {
  WEBWAVE_REQUIRE(projected(), "Refresh needs a prior Project");
  WEBWAVE_REQUIRE(base.node_count() == store_.node_count() &&
                      base.doc_count() == clamped().doc_count(),
                  "snapshot does not match the projection");

  // Admission can only move at nodes whose base rows changed — nodes
  // holding a dirty lane's cells now — or whose budget a dirty lane was
  // occupying — nodes where it was resident before (its old clamped
  // cells).  Re-ranking anywhere else would reproduce the stored keep
  // set: it is a pure function of an unchanged row.
  for (const int d : dirty_lanes) {
    touched_.InsertAll(base.DocNodes(d));
    touched_.InsertAll(clamped().DocNodes(d));
  }
  touched_.Drain(&touched_nodes_);

  // The documents whose clamped cells can differ: the dirty lanes (their
  // rates moved) plus every document some re-ranked node admitted or
  // evicted (their spill routing moved).
  affected_.InsertAll(dirty_lanes);
  store_.Readmit(base, Span<const NodeId>(touched_nodes_), &affected_);
  return Reproject(base);
}

}  // namespace webwave
