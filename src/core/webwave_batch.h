// Batched WebWave: a whole catalog of hot documents stepped over one
// shared routing tree in a single pass, in parallel across documents.
//
// A home server rarely publishes one hot document; it publishes a catalog,
// and every document's diffusion runs over the *same* topology.  Running D
// one-document engines would duplicate the edge structure and the gossip
// bookkeeping D times and touch them in D separate passes.  This is the
// repo's only diffusion engine: a single document is a one-lane batch,
// BatchWebWaveSimulator(tree, {spontaneous}, options), and RunUntil runs
// the paper's convergence experiment on any one lane.
//
// Layout — document blocks.  Lanes are grouped into blocks of
// options.lane_block documents (B, default 8; the last block is ragged
// when D is not a multiple).  Within a block every per-node quantity is
// stored *lane-interleaved*: served_[block_base + l·W + b] is lane
// (g·B + b)'s value at the node labelled l (see "Node order"), W the
// block's width.  One sweep of the
// shared edge arrays (parent, child, alpha — one copy for the whole
// catalog) advances all W lanes of a block through an inner loop over b
// that is contiguous in memory, so the edge metadata is streamed once per
// *block* instead of once per document — D/B× less shared-structure
// traffic than the document-major layout (which is exactly the B = 1
// special case).
//
// Node order.  The src/tree builders give each node a random earlier
// parent, so a sweep in node-id order gathers a random parent row per
// edge.  The engine instead stores, steps and projects every lane in its
// own *labels*: an id-ordered DFS that, at each node, labels first the
// subtrees of the children with a smaller id (ascending), then the node,
// then the subtrees of the children with a larger id (ascending).  Every
// subtree is a contiguous label range, and on a tree whose parents precede
// their children (every src/tree builder's) the labels are exactly the
// preorder.  At every node the incident edges keep the relative order of
// the ascending child-id sweep, so the relabelled step is bit-identical
// to it on any tree (webwave_kernel.h, "Sweep order"), and the churn
// projection sums each node's children in the same order as before.
// Only the boundary sees original ids: ApplyDemandEvents maps each
// event's node to its label; ExportQuotas and ExportLanesQuotas emit cells
// in original node order, reading rows through the label map; ServedLane,
// ForwardedLane, SpontaneousLane, NodeLoads, options.capacities and
// CheckInvariants all speak original ids.  Asynchronous mode draws each
// lane's per-edge Bernoulli in original edge order (DrawActivations), so
// asynchronous lanes match one-lane runs too.
//
// Step kernel.  The constructor picks the step variant once by CPU
// feature (internal::SelectStepLaneBlock): on AVX-512 or AVX2 hosts each
// full 8-lane chunk of a block row runs a branch-free SIMD body, in both
// phases, and the remainder lanes (W % 8), blocks narrower than 8 and
// asynchronous mode run the scalar loop.  Every variant is bit-identical
// to the scalar loop (see webwave_kernel.h for the exactness rules), so
// nothing below depends on which one ran.
//
// Estimates — a double-buffered gossip plane.  Each block owns one
// node-indexed estimate plane (its *front* buffer); the step kernel reads
// the two endpoint slots of each edge from it directly, which replaces
// the two edge-indexed estimate arrays of the old layout (2(n−1) doubles
// per lane) with one n-sized plane per lane and turns a gossip refresh
// into a straight copy — half the refresh's read+write traffic.  With
// gossip_delay = 0 there is no ring: a refresh copies the live served
// block into the front plane.  With gossip_delay > 0 each block owns a
// ring of gossip_delay + 1 served-snapshot slots (pushed per step) plus
// the front plane, all behind a per-block offset table: in the steady
// state a refresh *swaps* the front plane with the consumed ring slot —
// a pointer exchange, zero copies — because the consumed slot is exactly
// the slot the very next push overwrites.  Only when lanes of one block
// disagree on their history depth (for gossip_delay steps after a
// demand-churn restart touched some of them) does the refresh fall back
// to per-lane strided copies into the front plane.  Either path installs
// identical bytes, so results do not depend on which one ran.
//
// Semantics are exactly D independent one-document runs, document for
// document: lane d evolves as the one-lane batch
// BatchWebWaveSimulator(tree, {spontaneous[d]}, opt_d) would, where opt_d
// is the shared options with seed = options.seed + d (each lane owns an
// RNG stream, so asynchronous runs also match).  Per-lane arithmetic
// inside a block is independent and runs in the same IEEE order at every
// width, so the equivalence is bit-exact at every lane_block value —
// asserted by webwave_batch_test against a frozen single-lane reference
// simulator (tests/webwave_reference.h) at ragged catalog sizes, under
// churn, asynchronously and at 1/2/8 threads.
//
// Threading: a document block is the unit of parallel work.  Blocks are
// independent (each owns its load, estimate, ring and RNG slices), so
// Step and ApplyDemandEvents sweep them on a WorkerPool with a
// deterministic static partition; every per-block byte is written by
// exactly one worker and per-edge scratch is per-worker, so results are
// bit-identical to the serial path at any options.threads value.
//
// Demand churn is first-class: ApplyDemandEvents takes a batch of
// (doc, node, rate) events and re-projects each affected lane onto its
// new feasible set (ProjectLaneBlock) with a per-lane gossip-history
// restart, so rotating-hot-spot and flash-crowd scenarios run at catalog
// scale without leaving the fast path.
//
// Dirty-lane tracking: the engine records which lanes' (served,
// forwarded) state actually *changed* — a demand event touched them, or a
// step moved at least one of their values by at least 1 ulp.  A lane that
// has diffused to its floating-point fixed point steps clean.  The set
// feeds QuotaSnapshot::RefreshFromBatch, which rewrites only dirty lanes'
// cells of the serving plane's CSR snapshot; callers reset the set with
// ClearDirtyLanes() after snapshotting (forgetting to reset is safe —
// the set only over-approximates, never misses a change).
//
// Memory: under the default instantaneous gossip (period 1, delay 0) no
// estimate storage exists at all — the kernel reads the served block as
// the estimate plane, which is bitwise what a per-step refresh would have
// installed — so a lane costs 3n doubles (spontaneous, served, forwarded)
// ≈ 24 bytes per (node, document) pair: 10⁶ nodes × 64 documents in
// ~1.5 GB, plus edges·lane_block step scratch per worker.  The tree costs
// 36 bytes per node whatever the catalog: 16 for the edge arrays and 20
// for the node order (two label maps, the children CSR and the
// projection's postorder).  An export borrows a 64 KiB row buffer for
// its duration.  Non-trivial gossip adds the front plane (n per lane)
// and, when delayed, the ring (gossip_delay + 1 slots of n per lane).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/webwave_kernel.h"
#include "core/webwave_options.h"
#include "tree/routing_tree.h"
#include "util/rng.h"
#include "util/span.h"
#include "util/worker_pool.h"

namespace webwave {
class BatchWebWaveSimulator {
 public:
  // spontaneous[d][v] is document d's spontaneous request rate at node v.
  // All lanes share `tree` and `options`; lane d's RNG stream is seeded
  // options.seed + d.  `tree` must outlive the engine.
  BatchWebWaveSimulator(const RoutingTree& tree,
                        std::vector<std::vector<double>> spontaneous,
                        WebWaveOptions options = {});

  // One diffusion period for every document lane.
  void Step();

  // Applies a batch of demand changes: event (doc, node, rate) sets
  // document doc's spontaneous rate at `node`, then every *affected* lane
  // is re-projected onto its new feasible set (in postorder every node
  // keeps min(L_v, arriving flow), the shortfall climbs and the root
  // absorbs it), its gossip history is restarted and its estimates
  // refreshed, so per-lane equivalence with independent one-document runs
  // survives churn.  Untouched lanes are not perturbed in any way (their
  // delayed-gossip history keeps running).  Later events win when a batch
  // writes one (doc, node) cell twice.  An empty batch is a no-op.
  void ApplyDemandEvents(Span<DemandEvent> events);

  int steps() const { return steps_; }
  int doc_count() const { return docs_; }
  int node_count() const { return tree_.size(); }
  int thread_count() const { return pool_->thread_count(); }
  // Effective document block width (options.lane_block clamped to the
  // catalog size).
  int lane_block() const { return block_; }

  // Lane d's served (L) / forwarded (A) / spontaneous vectors, length
  // node_count(), gathered out of the interleaved block storage.
  std::vector<double> ServedLane(int d) const;
  std::vector<double> ForwardedLane(int d) const;
  std::vector<double> SpontaneousLane(int d) const;

  // Total served rate per node, summed across documents.
  std::vector<double> NodeLoads() const;
  double MaxNodeLoad() const;

  // Dirty-lane set (see file comment): lanes whose served/forwarded state
  // changed since construction or the last ClearDirtyLanes(), ascending.
  std::vector<int> DirtyLanes() const;
  int dirty_lane_count() const;
  // Resets the set — call after exporting a quota snapshot so the next
  // export sees only what changed in between.
  void ClearDirtyLanes();

  // Quota-export hook for the serving data plane: visits every (node,
  // document) cell whose current served rate exceeds min_rate, nodes
  // ascending and documents ascending within a node — the order a CSR
  // quota snapshot wants — without materializing the node-major matrix.
  // The served rates *are* the per-copy service quotas the protocol has
  // diffused to (§7: "WebWave implicitly determines ... the number of
  // requests allocated to each copy"); the forwarded rate alongside lets
  // the consumer derive the copy's share of its passing flow,
  // served / (served + forwarded).
  void ExportQuotas(
      double min_rate,
      const std::function<void(NodeId, std::int32_t, double served,
                               double forwarded)>& sink) const;

  // One exported (node, document) quota cell (see ExportQuotas).
  struct QuotaCell {
    NodeId node;
    std::int32_t doc;
    double served;
    double forwarded;
  };

  // A subset of documents' cells only (lanes must be ascending and
  // unique), appended to `out` in ExportQuotas order — the
  // incremental-snapshot counterpart of ExportQuotas
  // (QuotaSnapshot::RefreshFromBatch feeds it the dirty set).  One
  // node-major sweep serves all requested lanes at once, so lanes sharing
  // a block share its cache lines instead of each paying a full strided
  // re-scan; the sweep fills a plain vector (no per-cell callback) so the
  // inner loop stays tight.
  void ExportLanesQuotas(Span<const int> lanes, double min_rate,
                         std::vector<QuotaCell>* out) const;

  // Euclidean distance of lane d's served vector to a target assignment —
  // the paper's convergence metric.
  double DistanceTo(int d, const std::vector<double>& target) const;

  // Steps the whole batch until lane d's DistanceTo(target) <= tol or
  // max_steps is reached; returns lane d's distance trajectory including
  // the initial state (index 0 = before the first step).
  std::vector<double> RunUntil(int d, const std::vector<double>& target,
                               double tol, int max_steps);

  // Per-lane flow conservation, NSS and non-negativity; throws
  // std::logic_error on violation.
  void CheckInvariants(double tol = 1e-6) const;

 private:
  // Gossip period 1 with delay 0 (the paper's instantaneous-gossip
  // default): every refresh would copy the served block into the front
  // plane, so the plane would always be bitwise the start-of-step served
  // state — no arena is kept and the kernel reads the served block
  // directly.
  bool InstantGossip() const {
    return options_.gossip_period == 1 && options_.gossip_delay == 0;
  }
  // Block bookkeeping.  Block g holds lanes [g·B, g·B + BlockWidth(g));
  // all blocks before the last are full, so block g's node-indexed arrays
  // start at g·B·n and its edge-indexed scratch at g·B·(n−1).
  int BlockOf(int d) const { return d / block_; }
  int LaneInBlock(int d) const { return d % block_; }
  int BlockWidth(int g) const;
  std::size_t BlockNodeBase(int g) const;
  // Flat index of (lane d, label l) in the blocked label-major arrays.
  std::size_t LaneIndex(int d, NodeId l) const;

  // Gossip-plane arena accessors: each block owns kFrontSlot() + 1 buffers
  // of n·W doubles in gossip_arena_ (just the front plane at zero delay),
  // addressed through plane_off_ so a refresh can swap buffers.
  int ring_slots() const { return options_.gossip_delay + 1; }
  int slots_per_block() const {
    return options_.gossip_delay > 0 ? ring_slots() + 1 : 1;
  }
  int FrontSlot() const { return slots_per_block() - 1; }
  double* PlaneAt(int g, int slot);
  const double* PlaneAt(int g, int slot) const;

  void RefreshBlockEstimates(int g);
  // Asynchronous mode: writes block g's per-(edge, lane) activations into
  // `delta` for the step kernel, drawing each lane's Bernoulli per edge in
  // ascending original child id — the order a one-lane run draws them.
  void DrawActivations(int g, double* delta);
  void PushBlockHistory(int g);
  // Restart lane d's gossip history and estimates after churn: the
  // current head slot and the front plane both receive the lane's served
  // column, and the lane's history depth resets to 1.
  void RestartLaneGossip(int d);
  std::vector<double> GatherLane(const std::vector<double>& blocked,
                                 int d) const;
  // Lanes [lo, hi) of one block, whose label-l rows start at
  // served + l·width and forwarded + l·width; lane offset b is document
  // first_doc + b.
  struct LaneRun {
    const double* served;
    const double* forwarded;
    std::size_t width;
    std::int32_t first_doc;
    std::size_t lo, hi;
  };
  LaneRun RunOf(int g, std::size_t lo, std::size_t hi) const;
  // The export both ExportQuotas and ExportLanesQuotas run: for nodes in
  // ascending original id and the runs' lanes in order, calls
  // emit(node, doc, served, forwarded) for every cell above min_rate.
  template <class Emit>
  void ExportRuns(const std::vector<LaneRun>& runs, double min_rate,
                  const Emit& emit) const;

  const RoutingTree& tree_;
  WebWaveOptions options_;
  int docs_;
  int block_;   // effective lane_block (clamped to docs_)
  int blocks_;  // ceil(docs_ / block_)
  int steps_ = 0;

  // Node order (file comment): label_[v] is node v's label, node_[l] the
  // node labelled l.
  std::vector<NodeId> label_;
  std::vector<NodeId> node_;
  // The tree in labels, one copy for all documents: the step's edges
  // (ascending child label) and the churn projection's shape.
  internal::EdgeArrays edges_;
  internal::TreeShape shape_;
  std::vector<double> capacity_;  // by label
  // The step kernel variant this CPU runs (internal::SelectStepLaneBlock),
  // picked once at construction.
  internal::StepLaneBlockFn step_block_ = internal::SelectStepLaneBlock();
  // Per-edge scratch, edges·block_ doubles per pool worker, allocated on a
  // worker's first block (the pool may hold more workers than blocks —
  // its size is part of the thread_count() contract — and idle workers
  // should not cost 8·edges bytes each).
  std::vector<std::vector<double>> delta_;

  // Blocked load lanes, label-major (layout in the file comment).
  std::vector<double> spontaneous_;
  std::vector<double> served_;
  std::vector<double> forwarded_;

  // Gossip plane arena: per block, ring slots (delay > 0 only) + front
  // plane, addressed through plane_off_[g·slots_per_block() + slot].
  std::vector<double> gossip_arena_;
  std::vector<std::size_t> plane_off_;
  std::vector<std::uint32_t> block_head_;   // ring position, per block
  std::vector<std::uint32_t> lane_filled_;  // history depth, per lane

  std::vector<Rng> lane_rng_;  // one independent stream per document

  std::vector<std::uint8_t> dirty_;    // per lane, since ClearDirtyLanes
  std::vector<std::uint8_t> churned_;  // per-lane scratch of ApplyDemandEvents

  std::unique_ptr<WorkerPool> pool_;
};

}  // namespace webwave
