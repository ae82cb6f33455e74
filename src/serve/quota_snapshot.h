// A frozen per-(node, document) quota table in CSR form — the contract
// between copy placement (control plane) and request serving (data plane).
//
// Row v lists the documents node v holds a copy of (ascending DocId) with
// the service rate allocated to each copy and the copy's *serve fraction*
// — the share of the document's flow passing v that this copy absorbs
// (rate / arriving flow; 1 when the producer cannot know the flow, i.e.
// the copy takes everything that reaches it).  The fraction is what lets
// the serving plane realize quotas thinner than one request per token
// window by Poisson thinning instead of token counting.  The layout is
// flat: the serving plane's hot loop walks rows with no hashing, no
// pointers and no allocation.
//
// Snapshots come from three places: any PlacementPolicy (home-only and the
// other baselines), DerivePlacement's TLB-realizing quotas, or live
// BatchWebWaveSimulator lane loads through the ExportQuotas hook — the
// diffused copy set of §7.
//
// Batch-produced snapshots can be refreshed *incrementally*:
// RefreshFromBatch re-exports only the lanes the engine marked dirty since
// the last export and merges them, row by row, with the old snapshot's
// clean cells — one sequential O(cells) pass over the snapshot arrays,
// never a rescan of the engine's clean lanes.  When every lane is dirty
// no clean cell is left to merge, and the engine's export streams
// straight into the new CSR instead.  Either way the CSR is built in
// buffers the snapshot keeps and swaps with its live arrays, so a
// closed-loop epoch allocates nothing.  The result is byte-identical to a
// fresh FromBatch(batch, min_rate), total_rate() included (asserted by
// serving_test): cells arrive in FromBatch's order and the total is
// re-summed in that order.
#pragma once

#include <cstdint>
#include <vector>

#include "core/webwave_batch.h"
#include "doc/placement.h"
#include "tree/routing_tree.h"
#include "util/span.h"

namespace webwave {

class SpillProjector;

class QuotaSnapshot {
 public:
  // Incremental CSR assembly; cells must arrive nodes ascending, documents
  // ascending within a node (the export order of every producer here).
  class Builder {
   public:
    Builder(int node_count, int doc_count);
    // fraction: the copy's share of the document flow passing the node,
    // in (0, 1]; 1 (the default) means "serves whatever reaches it, up to
    // the token budget".
    void Add(NodeId node, std::int32_t doc, double rate,
             double fraction = 1.0);
    // Capacity for `cells` cells, when the producer knows the count.
    void Reserve(std::size_t cells);
    QuotaSnapshot Build() &&;

   private:
    int nodes_;
    int docs_;
    NodeId last_node_ = -1;
    std::int32_t last_doc_ = -1;
    std::vector<std::int64_t> row_end_;  // per node, cells so far
    std::vector<std::int32_t> doc_;
    std::vector<double> rate_;
    std::vector<double> frac_;
    double total_ = 0;
  };

  QuotaSnapshot() = default;

  // The quotas DerivePlacement computed; cells with rate <= min_rate are
  // dropped.  When the demand the placement was derived from is supplied,
  // per-copy serve fractions are recomputed from the document flows
  // (quota / arriving flow); without it fractions default to 1.
  static QuotaSnapshot FromPlacement(const PlacementResult& placement,
                                     double min_rate = 0);
  static QuotaSnapshot FromPlacement(const RoutingTree& tree,
                                     const PlacementResult& placement,
                                     const DemandMatrix& demand,
                                     double min_rate = 0);

  // The batch engine's current served rates, via its ExportQuotas hook;
  // fractions come from the engine's tracked flows, served/(served +
  // forwarded).  Batch-produced snapshots remember min_rate, so
  // RefreshFromBatch can re-sync them later.
  static QuotaSnapshot FromBatch(const BatchWebWaveSimulator& batch,
                                 double min_rate = 0);

  // Incrementally re-syncs a FromBatch snapshot with the engine: only the
  // cells of batch.DirtyLanes() are re-exported, then merged with the old
  // clean cells into the CSR (streamed in whole when every lane is
  // dirty); clean lanes' cells keep their values.
  // Returns true when the CSR shape (row offsets and cell documents)
  // held.  The caller decides when the dirty set is consumed — typically
  // batch.ClearDirtyLanes() right after this returns.  Requires *this to
  // have been produced by FromBatch (or a prior RefreshFromBatch) against
  // an engine with the same node/document counts.
  bool RefreshFromBatch(const BatchWebWaveSimulator& batch);

  int node_count() const { return nodes_; }
  int doc_count() const { return docs_; }
  std::int64_t cell_count() const {
    return static_cast<std::int64_t>(doc_.size());
  }
  // Sum of all quota rates (total service rate the placement provisions).
  double total_rate() const { return total_; }

  // Row access for the serving hot loop.
  std::int64_t row_begin(NodeId v) const {
    return row_off_[static_cast<std::size_t>(v)];
  }
  std::int64_t row_end(NodeId v) const {
    return row_off_[static_cast<std::size_t>(v) + 1];
  }
  const std::int32_t* cell_docs() const { return doc_.data(); }
  const double* cell_rates() const { return rate_.data(); }
  const double* cell_fractions() const { return frac_.data(); }

  // The cell index of (v, d), or -1 if v holds no copy of d.
  std::int64_t CellOf(NodeId v, std::int32_t d) const;
  // Quota rate at (v, d); 0 when absent.
  double RateAt(NodeId v, std::int32_t d) const;
  // Serve fraction at (v, d); 0 when absent.
  double FractionAt(NodeId v, std::int32_t d) const;

 private:
  // The spill projectors (capacity clamping and the fault plane) own a
  // clamped QuotaSnapshot and write its CSR arrays directly
  // (store/spill_projector).
  friend class SpillProjector;
  // The wire serializer reconstructs a snapshot byte-exactly — including
  // total_, which an Add-by-Add rebuild would re-sum in a different
  // association order (wire/quota_wire).
  friend class QuotaWireTable;

  int nodes_ = 0;
  int docs_ = 0;
  double total_ = 0;
  std::vector<std::int64_t> row_off_;  // nodes_ + 1 entries
  std::vector<std::int32_t> doc_;
  std::vector<double> rate_;
  std::vector<double> frac_;

  // RefreshFromBatch's reusable buffers: the dirty lanes' fresh export
  // and the dirty-document marks (used only while some lane is clean),
  // and the CSR arrays built before they are swapped with the live ones.
  // Scratch, not state: a copy of the snapshot starts with empty
  // buffers, so copying a maintained snapshot never copies them.
  struct RefreshScratch {
    RefreshScratch() = default;
    RefreshScratch(const RefreshScratch&) {}
    RefreshScratch& operator=(const RefreshScratch&) { return *this; }
    RefreshScratch(RefreshScratch&&) = default;
    RefreshScratch& operator=(RefreshScratch&&) = default;

    std::vector<BatchWebWaveSimulator::QuotaCell> fresh;
    std::vector<std::uint8_t> dirty;
    std::vector<std::int64_t> row_off;
    std::vector<std::int32_t> doc;
    std::vector<double> rate;
    std::vector<double> frac;
  };

  bool incremental_ = false;
  double min_rate_ = 0;
  RefreshScratch scratch_;
};

}  // namespace webwave
