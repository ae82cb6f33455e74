#include "core/webwave_batch.h"

#include <algorithm>
#include <cmath>
#include <thread>
#include <utility>

#include "core/load_model.h"
#include "stats/summary.h"
#include "util/check.h"

namespace webwave {
namespace {

// The engine's node labels (webwave_batch.h, "Node order"): label[v] for
// every node v.  Top-down, a node's subtree owns the label range starting
// at first[v]; within it the smaller-id children's subtrees come first,
// then v, then the larger-id children's subtrees, children ascending.
std::vector<NodeId> TreeOrderLabels(const RoutingTree& tree) {
  const std::size_t n = static_cast<std::size_t>(tree.size());
  std::vector<NodeId> label(n), first(n);
  first[static_cast<std::size_t>(tree.root())] = 0;
  for (const NodeId v : tree.preorder()) {
    const std::size_t i = static_cast<std::size_t>(v);
    NodeId next = first[i];
    bool placed = false;
    for (const NodeId c : tree.children(v)) {
      if (!placed && c > v) {
        label[i] = next++;
        placed = true;
      }
      first[static_cast<std::size_t>(c)] = next;
      next += tree.subtree_size(c);
    }
    if (!placed) label[i] = next;
  }
  return label;
}

// The node-order exports read each node's rows through the label map, so
// consecutive nodes' rows lie far apart.  They copy the rows of a run of
// nodes into a buffer of this many doubles (64 KiB), one lane run (so one
// block) at a time, and only then emit the run's cells from it.  The copy
// loops are tight, so their misses overlap, and each touches one block's
// pages only.  Emitting node by node instead, each row's misses queued
// behind the previous cells' stores: a full snapshot refresh took twice
// as long at 5·10⁴ nodes × 16 documents on a 4-vCPU Xeon.  Buffers from
// 64 to 512 KiB ran alike there; 64 KiB stays under glibc's default mmap
// threshold, so an export does not move where later frees land.
constexpr std::size_t kExportChunkDoubles = 8 * 1024;

}  // namespace

BatchWebWaveSimulator::BatchWebWaveSimulator(
    const RoutingTree& tree, std::vector<std::vector<double>> spontaneous,
    WebWaveOptions options)
    : tree_(tree),
      options_(options),
      docs_(static_cast<int>(spontaneous.size())) {
  const int n = tree_.size();
  WEBWAVE_REQUIRE(docs_ >= 1, "batch needs at least one document");
  WEBWAVE_REQUIRE(options_.gossip_period >= 1, "gossip period must be >= 1");
  WEBWAVE_REQUIRE(options_.gossip_delay >= 0, "gossip delay must be >= 0");
  WEBWAVE_REQUIRE(options_.lane_block >= 1, "lane block must be >= 1");
  if (options_.alpha_policy == AlphaPolicy::kFixed ||
      options_.alpha_policy == AlphaPolicy::kFixedUncapped)
    WEBWAVE_REQUIRE(options_.alpha > 0 && options_.alpha <= 0.5,
                    "fixed alpha must be in (0, 0.5]");
  block_ = std::min(options_.lane_block, docs_);
  blocks_ = (docs_ + block_ - 1) / block_;
  const std::size_t nn = static_cast<std::size_t>(n);
  if (!options_.capacities.empty()) {
    WEBWAVE_REQUIRE(options_.capacities.size() == nn,
                    "capacities size mismatch");
    for (const double c : options_.capacities)
      WEBWAVE_REQUIRE(c > 0, "capacities must be positive");
  }

  // The tree in labels: both label maps, the edges in ascending child
  // label, capacities by label, and the projection's children CSR (each
  // node's children ascending, which is their id order too) and postorder.
  label_ = TreeOrderLabels(tree_);
  node_.resize(nn);
  for (NodeId v = 0; v < n; ++v)
    node_[static_cast<std::size_t>(label_[static_cast<std::size_t>(v)])] = v;
  capacity_.resize(nn);
  shape_.root = label_[static_cast<std::size_t>(tree_.root())];
  shape_.child_begin.reserve(nn + 1);
  shape_.children.reserve(nn - 1);
  edges_.parent.reserve(nn - 1);
  edges_.child.reserve(nn - 1);
  edges_.alpha.reserve(nn - 1);
  for (NodeId l = 0; l < n; ++l) {
    const NodeId v = node_[static_cast<std::size_t>(l)];
    capacity_[static_cast<std::size_t>(l)] =
        options_.capacities.empty()
            ? 1.0
            : options_.capacities[static_cast<std::size_t>(v)];
    shape_.child_begin.push_back(static_cast<NodeId>(shape_.children.size()));
    for (const NodeId c : tree_.children(v))
      shape_.children.push_back(label_[static_cast<std::size_t>(c)]);
    if (tree_.is_root(v)) continue;
    edges_.parent.push_back(
        label_[static_cast<std::size_t>(tree_.parent(v))]);
    edges_.child.push_back(l);
    edges_.alpha.push_back(internal::EdgeAlpha(tree_, v, options_));
  }
  shape_.child_begin.push_back(static_cast<NodeId>(shape_.children.size()));
  shape_.postorder.reserve(nn);
  for (const NodeId v : tree_.postorder())
    shape_.postorder.push_back(label_[static_cast<std::size_t>(v)]);

  // The block sweeps run on a persistent pool; per-edge scratch is
  // per-worker so concurrent blocks never share it.  The pool is clamped
  // to the catalog size (the historical contract of thread_count()); a
  // block is the unit of work, so at most blocks_ workers are ever busy.
  const int requested =
      options_.threads > 0
          ? options_.threads
          : static_cast<int>(
                std::max(1u, std::thread::hardware_concurrency()));
  pool_ = std::make_unique<WorkerPool>(std::min(requested, docs_));
  delta_.resize(static_cast<std::size_t>(pool_->thread_count()));

  // Blocked load lanes: scatter each caller lane into its block columns,
  // row l holding node node_[l].
  const std::size_t lanes = static_cast<std::size_t>(docs_);
  spontaneous_.assign(lanes * nn, 0.0);
  served_.assign(lanes * nn, 0.0);
  forwarded_.assign(lanes * nn, 0.0);
  for (int d = 0; d < docs_; ++d) {
    auto& spont = spontaneous[static_cast<std::size_t>(d)];
    WEBWAVE_REQUIRE(spont.size() == nn, "spontaneous size mismatch");
    for (const double e : spont)
      WEBWAVE_REQUIRE(e >= 0, "spontaneous rates must be non-negative");
    const std::size_t base = LaneIndex(d, 0);
    const std::size_t w =
        static_cast<std::size_t>(BlockWidth(BlockOf(d)));
    for (std::size_t l = 0; l < nn; ++l)
      spontaneous_[base + l * w] = spont[static_cast<std::size_t>(node_[l])];
    switch (options_.initial_load) {
      case InitialLoad::kAllAtRoot:
        served_[base + static_cast<std::size_t>(shape_.root) * w] =
            TotalRate(spont);
        break;
      case InitialLoad::kSelfService:
        for (std::size_t l = 0; l < nn; ++l)
          served_[base + l * w] = spontaneous_[base + l * w];
        break;
    }
    // Release the caller's lane as soon as it is flattened: at 10⁶ nodes
    // × 64 documents the input otherwise holds ~0.5 GB alive for the
    // whole construction.
    spont = std::vector<double>();
  }
  // The initial forwarded rates, every lane of a block in one postorder
  // sweep: ForwardedRates' sum per node (own rate, each child's forwarded
  // rate in id order, minus the served rate), so the same bits.
  for (int g = 0; g < blocks_; ++g) {
    const std::size_t w = static_cast<std::size_t>(BlockWidth(g));
    const double* spont = spontaneous_.data() + BlockNodeBase(g);
    const double* served = served_.data() + BlockNodeBase(g);
    double* fwd = forwarded_.data() + BlockNodeBase(g);
    for (const NodeId l : shape_.postorder) {
      const std::size_t i = static_cast<std::size_t>(l);
      const NodeId* first = shape_.children.data() + shape_.child_begin[i];
      const NodeId* last = shape_.children.data() + shape_.child_begin[i + 1];
      for (std::size_t b = 0; b < w; ++b) {
        double in = spont[i * w + b];
        for (const NodeId* c = first; c != last; ++c)
          in += fwd[static_cast<std::size_t>(*c) * w + b];
        fwd[i * w + b] = in - served[i * w + b];
      }
    }
  }

  // Gossip plane arena: every block's front plane (and, with delayed
  // gossip, its ring slots) starts as a copy of the block's served state.
  // Instantaneous gossip (period 1 / delay 0, the default) keeps no arena
  // at all — the kernel reads the served block directly, which is bitwise
  // what a per-step refresh would have installed.
  const std::size_t spb = static_cast<std::size_t>(slots_per_block());
  if (!InstantGossip()) {
    gossip_arena_.assign(spb * lanes * nn, 0.0);
    plane_off_.resize(static_cast<std::size_t>(blocks_) * spb);
  }
  for (int g = 0; g < blocks_ && !InstantGossip(); ++g) {
    const std::size_t block_doubles =
        static_cast<std::size_t>(BlockWidth(g)) * nn;
    const std::size_t arena_base = spb * BlockNodeBase(g);
    for (std::size_t s = 0; s < spb; ++s)
      plane_off_[static_cast<std::size_t>(g) * spb + s] =
          arena_base + s * block_doubles;
    std::copy(served_.begin() +
                  static_cast<std::ptrdiff_t>(BlockNodeBase(g)),
              served_.begin() +
                  static_cast<std::ptrdiff_t>(BlockNodeBase(g) + block_doubles),
              gossip_arena_.begin() +
                  static_cast<std::ptrdiff_t>(plane_off_[
                      static_cast<std::size_t>(g) * spb + spb - 1]));
    if (options_.gossip_delay > 0)
      std::copy(served_.begin() +
                    static_cast<std::ptrdiff_t>(BlockNodeBase(g)),
                served_.begin() + static_cast<std::ptrdiff_t>(
                                      BlockNodeBase(g) + block_doubles),
                gossip_arena_.begin() +
                    static_cast<std::ptrdiff_t>(plane_off_[
                        static_cast<std::size_t>(g) * spb]));
  }
  block_head_.assign(static_cast<std::size_t>(blocks_), 0);
  lane_filled_.assign(lanes, 1);

  lane_rng_.reserve(lanes);
  for (int d = 0; d < docs_; ++d)
    lane_rng_.emplace_back(options_.seed + static_cast<std::uint64_t>(d));
  dirty_.assign(lanes, 1);  // a fresh engine has never been snapshotted
  churned_.assign(lanes, 0);
}

int BatchWebWaveSimulator::BlockWidth(int g) const {
  return std::min(block_, docs_ - g * block_);
}

std::size_t BatchWebWaveSimulator::BlockNodeBase(int g) const {
  // Blocks before g are all full (width block_), so their lanes occupy
  // exactly g·block_ node-indexed rows.
  return static_cast<std::size_t>(g) * static_cast<std::size_t>(block_) *
         static_cast<std::size_t>(tree_.size());
}

std::size_t BatchWebWaveSimulator::LaneIndex(int d, NodeId l) const {
  WEBWAVE_REQUIRE(d >= 0 && d < docs_, "document lane out of range");
  const int g = BlockOf(d);
  return BlockNodeBase(g) +
         static_cast<std::size_t>(l) * static_cast<std::size_t>(BlockWidth(g)) +
         static_cast<std::size_t>(LaneInBlock(d));
}

double* BatchWebWaveSimulator::PlaneAt(int g, int slot) {
  return gossip_arena_.data() +
         plane_off_[static_cast<std::size_t>(g) *
                        static_cast<std::size_t>(slots_per_block()) +
                    static_cast<std::size_t>(slot)];
}

const double* BatchWebWaveSimulator::PlaneAt(int g, int slot) const {
  return gossip_arena_.data() +
         plane_off_[static_cast<std::size_t>(g) *
                        static_cast<std::size_t>(slots_per_block()) +
                    static_cast<std::size_t>(slot)];
}

std::vector<double> BatchWebWaveSimulator::GatherLane(
    const std::vector<double>& blocked, int d) const {
  const std::size_t nn = static_cast<std::size_t>(tree_.size());
  const std::size_t base = LaneIndex(d, 0);
  const std::size_t w = static_cast<std::size_t>(BlockWidth(BlockOf(d)));
  std::vector<double> lane(nn);
  for (std::size_t l = 0; l < nn; ++l)
    lane[static_cast<std::size_t>(node_[l])] = blocked[base + l * w];
  return lane;
}

std::vector<double> BatchWebWaveSimulator::ServedLane(int d) const {
  return GatherLane(served_, d);
}

std::vector<double> BatchWebWaveSimulator::ForwardedLane(int d) const {
  return GatherLane(forwarded_, d);
}

std::vector<double> BatchWebWaveSimulator::SpontaneousLane(int d) const {
  return GatherLane(spontaneous_, d);
}

void BatchWebWaveSimulator::PushBlockHistory(int g) {
  // Advance the block's ring position and snapshot the whole block's
  // served state into the new head slot — one contiguous copy for all W
  // lanes (the per-step cost of delayed gossip).
  const std::size_t slots = static_cast<std::size_t>(ring_slots());
  block_head_[static_cast<std::size_t>(g)] = static_cast<std::uint32_t>(
      (block_head_[static_cast<std::size_t>(g)] + 1) % slots);
  const std::size_t block_doubles =
      static_cast<std::size_t>(BlockWidth(g)) *
      static_cast<std::size_t>(tree_.size());
  const std::size_t base = BlockNodeBase(g);
  std::copy(served_.begin() + static_cast<std::ptrdiff_t>(base),
            served_.begin() + static_cast<std::ptrdiff_t>(base + block_doubles),
            PlaneAt(g, static_cast<int>(
                           block_head_[static_cast<std::size_t>(g)])));
  const int lo = g * block_;
  const int hi = lo + BlockWidth(g);
  for (int d = lo; d < hi; ++d)
    lane_filled_[static_cast<std::size_t>(d)] = static_cast<std::uint32_t>(
        std::min<std::size_t>(lane_filled_[static_cast<std::size_t>(d)] + 1,
                              slots));
}

void BatchWebWaveSimulator::RefreshBlockEstimates(int g) {
  const std::size_t nn = static_cast<std::size_t>(tree_.size());
  const std::size_t w = static_cast<std::size_t>(BlockWidth(g));
  const std::size_t block_doubles = w * nn;
  if (options_.gossip_delay == 0) {
    // No ring: gossip sees the live state, frozen into the front plane
    // until the next refresh.
    std::copy(served_.begin() + static_cast<std::ptrdiff_t>(BlockNodeBase(g)),
              served_.begin() +
                  static_cast<std::ptrdiff_t>(BlockNodeBase(g) + block_doubles),
              PlaneAt(g, FrontSlot()));
    return;
  }
  const std::size_t slots = static_cast<std::size_t>(ring_slots());
  const std::size_t head = block_head_[static_cast<std::size_t>(g)];
  const std::size_t delay = static_cast<std::size_t>(options_.gossip_delay);
  const int lo = g * block_;
  const int hi = lo + BlockWidth(g);
  bool uniform = true;
  for (int d = lo; d < hi; ++d)
    uniform = uniform &&
              lane_filled_[static_cast<std::size_t>(d)] == slots;
  if (uniform) {
    // Steady state: every lane reads the same (oldest) ring slot, and that
    // slot is exactly the one the next push will overwrite — so instead of
    // copying n·W doubles out of it, swap it with the front plane.  The
    // old front becomes the slot and is fully rewritten next step before
    // anyone reads it.
    const std::size_t consumed = (head + slots - delay) % slots;
    const std::size_t spb = static_cast<std::size_t>(slots_per_block());
    std::swap(plane_off_[static_cast<std::size_t>(g) * spb + consumed],
              plane_off_[static_cast<std::size_t>(g) * spb + spb - 1]);
    return;
  }
  // Lanes disagree on history depth (some restarted after churn within
  // the last gossip_delay steps): gather each lane's own delayed column.
  double* front = PlaneAt(g, FrontSlot());
  for (int d = lo; d < hi; ++d) {
    const std::size_t lag = std::min(
        delay,
        static_cast<std::size_t>(lane_filled_[static_cast<std::size_t>(d)]) -
            1);
    const double* slot =
        PlaneAt(g, static_cast<int>((head + slots - lag) % slots));
    const std::size_t b = static_cast<std::size_t>(LaneInBlock(d));
    for (std::size_t v = 0; v < nn; ++v)
      front[v * w + b] = slot[v * w + b];
  }
}

void BatchWebWaveSimulator::DrawActivations(int g, double* delta) {
  const std::size_t w = static_cast<std::size_t>(BlockWidth(g));
  const NodeId root = shape_.root;
  Rng* rng = lane_rng_.data() + static_cast<std::size_t>(g) *
                                    static_cast<std::size_t>(block_);
  for (const NodeId l : label_) {
    if (l == root) continue;
    // Edges run in ascending child label with the root's slot skipped.
    const std::size_t k = static_cast<std::size_t>(l - (l > root ? 1 : 0));
    for (std::size_t b = 0; b < w; ++b)
      delta[k * w + b] =
          rng[b].NextBernoulli(options_.activation_probability) ? 1.0 : 0.0;
  }
}

void BatchWebWaveSimulator::Step() {
  // Per block, the two-phase round of webwave_kernel.h followed by the
  // block's gossip bookkeeping.  Everything a block touches — load
  // slices, planes, RNGs, ring positions — is its own, so the block sweep
  // parallelizes with no synchronization beyond the pool barrier, and the
  // static partition keeps results bit-identical to the serial order.
  const std::size_t edge_count = edges_.size();
  const bool instant = InstantGossip();
  const bool push_history = options_.gossip_delay > 0;
  const bool refresh =
      !instant && (steps_ + 1) % options_.gossip_period == 0;
  pool_->ParallelFor(
      static_cast<std::size_t>(blocks_),
      [&](int worker, std::size_t begin, std::size_t end) {
        if (begin == end) return;
        std::vector<double>& scratch =
            delta_[static_cast<std::size_t>(worker)];
        if (scratch.empty())
          scratch.assign(edge_count * static_cast<std::size_t>(block_), 0.0);
        double* delta = scratch.data();
        for (std::size_t gi = begin; gi < end; ++gi) {
          const int g = static_cast<int>(gi);
          const std::size_t base = BlockNodeBase(g);
          if (options_.asynchronous) DrawActivations(g, delta);
          // Phase 1 reads estimates before phase 2 writes, so under
          // instantaneous gossip the served block doubles as the
          // estimate plane (same bytes a per-step refresh would copy).
          step_block_(
              edges_, capacity_.data(), options_, BlockWidth(g),
              served_.data() + base, forwarded_.data() + base,
              instant ? served_.data() + base : PlaneAt(g, FrontSlot()),
              delta,
              dirty_.data() + static_cast<std::size_t>(g) *
                                  static_cast<std::size_t>(block_));
          if (push_history) PushBlockHistory(g);
          if (refresh) RefreshBlockEstimates(g);
        }
      });
  ++steps_;
}

void BatchWebWaveSimulator::RestartLaneGossip(int d) {
  // The restart snapshot (the lane's freshly projected served column)
  // becomes both the lane's only history entry and its live estimates, so
  // stale pre-churn vectors are never gossiped and the first post-churn
  // step already diffuses against post-churn estimates.
  // Under instantaneous gossip there is nothing to restart — the kernel
  // reads the (just projected) served block directly.
  if (InstantGossip()) return;
  const std::size_t nn = static_cast<std::size_t>(tree_.size());
  const int g = BlockOf(d);
  const std::size_t w = static_cast<std::size_t>(BlockWidth(g));
  const std::size_t b = static_cast<std::size_t>(LaneInBlock(d));
  const double* lane = served_.data() + BlockNodeBase(g);
  if (options_.gossip_delay > 0) {
    lane_filled_[static_cast<std::size_t>(d)] = 1;
    double* head = PlaneAt(
        g, static_cast<int>(block_head_[static_cast<std::size_t>(g)]));
    for (std::size_t v = 0; v < nn; ++v)
      head[v * w + b] = lane[v * w + b];
  }
  double* front = PlaneAt(g, FrontSlot());
  for (std::size_t v = 0; v < nn; ++v) front[v * w + b] = lane[v * w + b];
}

void BatchWebWaveSimulator::ApplyDemandEvents(Span<DemandEvent> events) {
  if (events.empty()) return;
  // Validate the whole batch before mutating anything (a throw must leave
  // every lane untouched), then do the serial rate writes; the per-lane
  // projection below only touches lane-owned state, so it parallelizes.
  for (const DemandEvent& e : events) {
    WEBWAVE_REQUIRE(e.doc >= 0 && e.doc < docs_,
                    "demand event document out of range");
    WEBWAVE_REQUIRE(e.node >= 0 && e.node < tree_.size(),
                    "demand event node out of range");
    WEBWAVE_REQUIRE(e.rate >= 0, "spontaneous rates must be non-negative");
  }
  std::fill(churned_.begin(), churned_.end(), 0);
  for (const DemandEvent& e : events) {
    spontaneous_[LaneIndex(e.doc, label_[static_cast<std::size_t>(e.node)])] =
        e.rate;
    churned_[static_cast<std::size_t>(e.doc)] = 1;
  }
  std::vector<int> affected_blocks;
  for (int d = 0; d < docs_; ++d)
    if (churned_[static_cast<std::size_t>(d)]) {
      dirty_[static_cast<std::size_t>(d)] = 1;
      const int g = BlockOf(d);
      if (affected_blocks.empty() || affected_blocks.back() != g)
        affected_blocks.push_back(g);
    }

  pool_->ParallelFor(
      affected_blocks.size(), [&](int, std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          const int g = affected_blocks[i];
          const std::size_t base = BlockNodeBase(g);
          // All of a block's churned lanes project in one postorder
          // sweep (ProjectLaneBlock reads each cache line of the block
          // once), then each restarts its gossip history and refreshes
          // its estimates.
          internal::ProjectLaneBlock(
              shape_, spontaneous_.data() + base, served_.data() + base,
              forwarded_.data() + base, BlockWidth(g),
              churned_.data() + static_cast<std::size_t>(g) *
                                    static_cast<std::size_t>(block_));
          const int lo = g * block_;
          const int hi = lo + BlockWidth(g);
          for (int d = lo; d < hi; ++d)
            if (churned_[static_cast<std::size_t>(d)]) RestartLaneGossip(d);
        }
      });
}

std::vector<double> BatchWebWaveSimulator::NodeLoads() const {
  const std::size_t nn = static_cast<std::size_t>(tree_.size());
  std::vector<double> total(nn, 0.0);
  for (int g = 0; g < blocks_; ++g) {
    const std::size_t w = static_cast<std::size_t>(BlockWidth(g));
    const double* block = served_.data() + BlockNodeBase(g);
    for (std::size_t l = 0; l < nn; ++l) {
      double& node_total = total[static_cast<std::size_t>(node_[l])];
      for (std::size_t b = 0; b < w; ++b) node_total += block[l * w + b];
    }
  }
  return total;
}

std::vector<int> BatchWebWaveSimulator::DirtyLanes() const {
  std::vector<int> lanes;
  for (int d = 0; d < docs_; ++d)
    if (dirty_[static_cast<std::size_t>(d)]) lanes.push_back(d);
  return lanes;
}

int BatchWebWaveSimulator::dirty_lane_count() const {
  int count = 0;
  for (const std::uint8_t f : dirty_) count += f != 0;
  return count;
}

void BatchWebWaveSimulator::ClearDirtyLanes() {
  std::fill(dirty_.begin(), dirty_.end(), 0);
}

BatchWebWaveSimulator::LaneRun BatchWebWaveSimulator::RunOf(
    int g, std::size_t lo, std::size_t hi) const {
  return {served_.data() + BlockNodeBase(g),
          forwarded_.data() + BlockNodeBase(g),
          static_cast<std::size_t>(BlockWidth(g)),
          static_cast<std::int32_t>(g * block_), lo, hi};
}

template <class Emit>
void BatchWebWaveSimulator::ExportRuns(const std::vector<LaneRun>& runs,
                                       double min_rate,
                                       const Emit& emit) const {
  // A node's buffer row holds [served of every selected lane][forwarded of
  // the same lanes]; slot_doc names each slot's document.
  std::vector<std::int32_t> slot_doc;
  for (const LaneRun& run : runs)
    for (std::size_t b = run.lo; b < run.hi; ++b)
      slot_doc.push_back(run.first_doc + static_cast<std::int32_t>(b));
  const std::size_t width = slot_doc.size();
  if (width == 0) return;
  const std::size_t nn = static_cast<std::size_t>(tree_.size());
  const std::size_t chunk =
      std::max<std::size_t>(1, kExportChunkDoubles / (2 * width));
  // Every slot is written before it is read: no zero fill.
  const std::unique_ptr<double[]> rows(
      new double[2 * width * std::min(chunk, nn)]);
  for (std::size_t v0 = 0; v0 < nn; v0 += chunk) {
    const std::size_t v1 = std::min(nn, v0 + chunk);
    std::size_t slot = 0;  // the run's first slot in a buffer row
    for (const LaneRun& run : runs) {
      const std::size_t count = run.hi - run.lo;
      double* out = rows.get() + slot;
      for (std::size_t v = v0; v < v1; ++v, out += 2 * width) {
        const std::size_t row =
            static_cast<std::size_t>(label_[v]) * run.width + run.lo;
        for (std::size_t j = 0; j < count; ++j) {
          out[j] = run.served[row + j];
          out[width + j] = run.forwarded[row + j];
        }
      }
      slot += count;
    }
    const double* in = rows.get();
    for (std::size_t v = v0; v < v1; ++v, in += 2 * width)
      for (std::size_t j = 0; j < width; ++j)
        if (in[j] > min_rate)
          emit(static_cast<NodeId>(v), slot_doc[j], in[j], in[width + j]);
  }
}

void BatchWebWaveSimulator::ExportQuotas(
    double min_rate,
    const std::function<void(NodeId, std::int32_t, double, double)>& sink)
    const {
  WEBWAVE_REQUIRE(min_rate >= 0, "min_rate must be non-negative");
  std::vector<LaneRun> runs;
  for (int g = 0; g < blocks_; ++g)
    runs.push_back(RunOf(g, 0, static_cast<std::size_t>(BlockWidth(g))));
  ExportRuns(runs, min_rate, sink);
}

void BatchWebWaveSimulator::ExportLanesQuotas(
    Span<const int> lanes, double min_rate,
    std::vector<QuotaCell>* out) const {
  WEBWAVE_REQUIRE(min_rate >= 0, "min_rate must be non-negative");
  WEBWAVE_REQUIRE(out != nullptr, "export needs an output vector");
  // Maximal runs of adjacent selected lanes within one block: dirty sets
  // are usually runs of adjacent documents, and each run is one tight
  // inner loop per node.  Runs come out in document order, so ExportRuns
  // emits ExportQuotas order.
  std::vector<LaneRun> runs;
  int last = -1;
  for (const int d : lanes) {
    WEBWAVE_REQUIRE(d > last, "lanes must be ascending and unique");
    WEBWAVE_REQUIRE(d < docs_, "document lane out of range");
    const int g = BlockOf(d);
    const std::size_t b = static_cast<std::size_t>(LaneInBlock(d));
    if (!runs.empty() && runs.back().first_doc == g * block_ &&
        runs.back().hi == b)
      ++runs.back().hi;
    else
      runs.push_back(RunOf(g, b, b + 1));
    last = d;
  }
  ExportRuns(runs, min_rate,
             [out](NodeId v, std::int32_t d, double served, double forwarded) {
               out->push_back({v, d, served, forwarded});
             });
}

double BatchWebWaveSimulator::MaxNodeLoad() const {
  const std::vector<double> total = NodeLoads();
  double mx = 0;
  for (const double l : total) mx = std::max(mx, l);
  return mx;
}

double BatchWebWaveSimulator::DistanceTo(
    int d, const std::vector<double>& target) const {
  return EuclideanDistance(ServedLane(d), target);
}

std::vector<double> BatchWebWaveSimulator::RunUntil(
    int d, const std::vector<double>& target, double tol, int max_steps) {
  std::vector<double> trajectory = {DistanceTo(d, target)};
  for (int s = 0; s < max_steps && trajectory.back() > tol; ++s) {
    Step();
    trajectory.push_back(DistanceTo(d, target));
  }
  return trajectory;
}

void BatchWebWaveSimulator::CheckInvariants(double tol) const {
  for (int d = 0; d < docs_; ++d) {
    const std::size_t nn = static_cast<std::size_t>(tree_.size());
    const std::vector<double> spont = SpontaneousLane(d);
    const std::vector<double> served = ServedLane(d);
    const std::vector<double> forwarded = ForwardedLane(d);
    const double total = TotalRate(spont);
    WEBWAVE_ASSERT(std::abs(TotalRate(served) - total) <=
                       tol * (1 + std::abs(total)),
                   "flow conservation violated in a document lane");
    const std::vector<double> expect = ForwardedRates(tree_, spont, served);
    for (std::size_t v = 0; v < nn; ++v) {
      WEBWAVE_ASSERT(served[v] >= -tol, "negative served rate in a lane");
      WEBWAVE_ASSERT(forwarded[v] >= -tol,
                     "NSS violated (negative A) in a lane");
      WEBWAVE_ASSERT(std::abs(forwarded[v] - expect[v]) <= tol * (1 + total),
                     "tracked A diverged from flow-conservation A");
    }
  }
}

}  // namespace webwave
