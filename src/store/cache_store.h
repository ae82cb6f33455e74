// Finite per-node storage: byte budgets, residency and the deterministic
// admission policy that decides what a full node keeps.
//
// A CacheStore gives every node of the tree a byte budget and tracks, per
// node, the set of documents actually resident.  Residency is decided by
// QuotaWeightedEviction, a pure function of a QuotaSnapshot row: keep the
// copies with the highest quota-rate-per-byte (the value density of the
// placement's own allocation) greedily until the budget is exhausted,
// evict everything below that water line.  Ties break toward the lower
// document id, so the keep set is a deterministic function of (row,
// sizes, budget) — replayable, identical at every thread count and
// lane_block width, with no RNG stream anywhere.
//
// The home (root) server is the authoritative origin of the whole
// catalog, not a cache: it is never budgeted and never evicts (the
// paper's model — the serving plane already routes anything unserved to
// the root).  Everything else competes for its budget across the whole
// catalog at once, which is exactly where placement schemes start to
// differentiate: a scheme that piles quota on few nodes loses more to
// eviction than one that spreads it.
//
// Admission is row-incremental: Admit re-ranks every node, Readmit only
// the nodes whose snapshot rows changed (CapacityProjector feeds it the
// nodes holding dirty-lane cells).  resident_cells() tells the projector
// when nothing was evicted at all.
//
// Residency is the ascending keep list per node (ResidentDocs).
// CapacityProjector reads it one whole row at a time, merged against the
// snapshot row the list was decided over, so no per-(node, document)
// index is kept beside it.
#pragma once

#include <cstdint>
#include <vector>

#include "serve/quota_snapshot.h"
#include "store/document_sizes.h"
#include "tree/routing_tree.h"
#include "util/span.h"

namespace webwave {

// The admission policy: one snapshot row in, the keep set out.  Holds
// only sort scratch, so one instance serves any number of rows; the
// decision is a pure function of its arguments.
class QuotaWeightedEviction {
 public:
  // Fills `kept` (cleared first) with the documents of node v's row that
  // fit the budget, ascending doc id, and adds their bytes to
  // *bytes_used: cells are taken in decreasing rate/byte order (ties:
  // lower doc id first), each admitted iff it still fits — smaller
  // documents may slip under a large one that did not.  A row whose
  // bytes fit whole is kept whole without ranking: O(row), not
  // O(row log row).
  void KeepSet(const QuotaSnapshot& snapshot, NodeId v,
               const DocumentSizes& sizes, std::uint64_t budget,
               std::vector<DocId>* kept, std::uint64_t* bytes_used);

 private:
  std::vector<std::int64_t> order_;  // sort scratch, per-row cell indices
};

class CacheStore {
 public:
  // One budget per node; budgets[root] is ignored (the home is the
  // origin, see file comment).
  CacheStore(const RoutingTree& tree, DocumentSizes sizes,
             std::vector<std::uint64_t> budgets);

  // Every non-root node gets the same budget, `multiple` times the
  // catalog working set (sizes.total_bytes()) — the budget axis of the
  // capacity sweeps: 1.0 means every node could hold one copy of
  // everything, 0.1 means a tenth of that.
  static CacheStore WorkingSetStore(const RoutingTree& tree,
                                    DocumentSizes sizes, double multiple);

  const DocumentSizes& sizes() const { return sizes_; }
  NodeId home() const { return home_; }
  int node_count() const { return static_cast<int>(budgets_.size()); }
  std::uint64_t budget(NodeId v) const;
  std::uint64_t bytes_used(NodeId v) const;

  // Residency after the last Admit/Readmit.  The home is resident for
  // every document by definition; elsewhere a document outside the
  // catalog is never resident.  Resident is a binary search of the keep
  // list.
  bool Resident(NodeId v, DocId d) const;
  const std::vector<DocId>& ResidentDocs(NodeId v) const;
  std::int64_t resident_cells() const { return resident_cells_; }

  // Runs QuotaWeightedEviction over every row of `snapshot`, replacing
  // all residency state.
  void Admit(const QuotaSnapshot& snapshot);

  // Re-ranks only `nodes` against their current `snapshot` rows.  Rows
  // not listed keep their keep sets — correct whenever their snapshot
  // rows are unchanged, because the keep set is a pure function of the
  // row.
  void Readmit(const QuotaSnapshot& snapshot, Span<const NodeId> nodes);

 private:
  void AdmitRow(const QuotaSnapshot& snapshot, NodeId v);

  DocumentSizes sizes_;
  std::vector<std::uint64_t> budgets_;
  std::vector<std::uint64_t> used_;
  std::vector<std::vector<DocId>> kept_;  // per node, ascending doc id
  std::int64_t resident_cells_ = 0;
  NodeId home_;
  QuotaWeightedEviction policy_;
};

}  // namespace webwave
