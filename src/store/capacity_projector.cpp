#include "store/capacity_projector.h"

#include <algorithm>

#include "util/check.h"

namespace webwave {

CapacityProjector::CapacityProjector(const RoutingTree& tree, CacheStore store)
    : SpillProjector(tree), store_(std::move(store)) {
  WEBWAVE_REQUIRE(store_.node_count() == tree.size(),
                  "store does not match the tree");
}

void CapacityProjector::KeepRow(const QuotaSnapshot& base, NodeId v,
                                std::uint8_t* keep) const {
  const std::vector<DocId>& kept = store_.ResidentDocs(v);
  const std::int32_t* docs = base.cell_docs() + base.row_begin(v);
  const std::int64_t len = base.row_end(v) - base.row_begin(v);
  std::size_t k = 0;
  for (std::int64_t i = 0; i < len; ++i) {
    const bool resident = k < kept.size() && kept[k] == docs[i];
    keep[i] = resident ? 1 : 0;
    k += resident ? 1 : 0;
  }
  WEBWAVE_REQUIRE(k == kept.size(),
                  "residency was decided over a different row");
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
}

bool CapacityProjector::Refresh(const QuotaSnapshot& base,
                                Span<const int> dirty_lanes) {
  WEBWAVE_REQUIRE(projected(), "Refresh needs a prior Project");
  WEBWAVE_REQUIRE(base.node_count() == store_.node_count() &&
                      base.doc_count() == clamped().doc_count(),
                  "snapshot does not match the projection");

  // Admission can only move at nodes whose base rows changed — nodes
  // holding a dirty lane's cells now — or whose budget a dirty lane was
  // occupying — nodes where it was resident before.  Re-ranking anywhere
  // else would reproduce the stored keep set: it is a pure function of
  // an unchanged row.  One scan of both lists per node finds them.
  dirty_doc_.assign(static_cast<std::size_t>(base.doc_count()), 0);
  for (const int d : dirty_lanes) {
    WEBWAVE_REQUIRE(d >= 0 && d < base.doc_count(), "dirty lane out of range");
    dirty_doc_[static_cast<std::size_t>(d)] = 1;
  }
  const auto dirty = [this](std::int32_t d) {
    return dirty_doc_[static_cast<std::size_t>(d)] != 0;
  };
  const std::int32_t* docs = base.cell_docs();
  touched_nodes_.clear();
  for (NodeId v = 0; v < base.node_count(); ++v) {
    const std::vector<DocId>& was = store_.ResidentDocs(v);
    if (std::any_of(docs + base.row_begin(v), docs + base.row_end(v), dirty) ||
        std::any_of(was.begin(), was.end(), dirty))
      touched_nodes_.push_back(v);
  }

  store_.Readmit(base, Span<const NodeId>(touched_nodes_));
  return ProjectAll(base);
}

}  // namespace webwave
