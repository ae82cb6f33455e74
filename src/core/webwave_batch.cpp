#include "core/webwave_batch.h"

#include <algorithm>
#include <cmath>
#include <thread>
#include <utility>

#include "core/load_model.h"
#include "stats/summary.h"
#include "util/check.h"

namespace webwave {

BatchWebWaveSimulator::BatchWebWaveSimulator(
    const RoutingTree& tree, std::vector<std::vector<double>> spontaneous,
    WebWaveOptions options, internal::SharedEdgeArrays edges)
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
  if (options_.capacities.empty()) {
    capacity_.assign(static_cast<std::size_t>(n), 1.0);
  } else {
    WEBWAVE_REQUIRE(options_.capacities.size() == static_cast<std::size_t>(n),
                    "capacities size mismatch");
    for (const double c : options_.capacities)
      WEBWAVE_REQUIRE(c > 0, "capacities must be positive");
    capacity_ = options_.capacities;
  }

  // Shared edge structure: a private build, or the caller's shared one
  // once it is checked against this tree and alpha policy.
  if (edges != nullptr) {
    WEBWAVE_REQUIRE(edges->MatchesTree(tree_),
                    "shared edge arrays do not match the tree");
    WEBWAVE_REQUIRE(edges->MatchesOptions(options_),
                    "shared edge arrays were built under a different "
                    "alpha policy");
    edges_ = std::move(edges);
  } else {
    edges_ = internal::BuildSharedEdgeArrays(tree_, options_);
  }

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

  // Blocked load lanes: scatter each caller lane into its block columns.
  const std::size_t lanes = static_cast<std::size_t>(docs_);
  const std::size_t nn = static_cast<std::size_t>(n);
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
    for (std::size_t v = 0; v < nn; ++v) spontaneous_[base + v * w] = spont[v];
    std::vector<double> init_served(nn, 0.0);
    switch (options_.initial_load) {
      case InitialLoad::kAllAtRoot:
        init_served[static_cast<std::size_t>(tree_.root())] =
            TotalRate(spont);
        break;
      case InitialLoad::kSelfService:
        init_served = spont;
        break;
    }
    const std::vector<double> fwd = ForwardedRates(tree_, spont, init_served);
    for (std::size_t v = 0; v < nn; ++v) {
      served_[base + v * w] = init_served[v];
      forwarded_[base + v * w] = fwd[v];
    }
    // Release the caller's lane as soon as it is flattened: at 10⁶ nodes
    // × 64 documents the input otherwise holds ~0.5 GB alive for the
    // whole construction.
    spont = std::vector<double>();
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

std::size_t BatchWebWaveSimulator::LaneIndex(int d, NodeId v) const {
  WEBWAVE_REQUIRE(d >= 0 && d < docs_, "document lane out of range");
  const int g = BlockOf(d);
  return BlockNodeBase(g) +
         static_cast<std::size_t>(v) * static_cast<std::size_t>(BlockWidth(g)) +
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
  for (std::size_t v = 0; v < nn; ++v) lane[v] = blocked[base + v * w];
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

void BatchWebWaveSimulator::Step() {
  // Per block, the two-phase round of webwave_kernel.h followed by the
  // block's gossip bookkeeping.  Everything a block touches — load
  // slices, planes, RNGs, ring positions — is its own, so the block sweep
  // parallelizes with no synchronization beyond the pool barrier, and the
  // static partition keeps results bit-identical to the serial order.
  const std::size_t edge_count = edges_->size();
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
          // Phase 1 reads estimates before phase 2 writes, so under
          // instantaneous gossip the served block doubles as the
          // estimate plane (same bytes a per-step refresh would copy).
          step_block_(
              *edges_, capacity_.data(), options_,
              lane_rng_.data() + static_cast<std::size_t>(g) *
                                     static_cast<std::size_t>(block_),
              BlockWidth(g), served_.data() + base, forwarded_.data() + base,
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
    spontaneous_[LaneIndex(e.doc, e.node)] = e.rate;
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
              tree_, spontaneous_.data() + base, served_.data() + base,
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
    for (std::size_t v = 0; v < nn; ++v)
      for (std::size_t b = 0; b < w; ++b) total[v] += block[v * w + b];
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

void BatchWebWaveSimulator::ExportQuotas(
    double min_rate,
    const std::function<void(NodeId, std::int32_t, double, double)>& sink)
    const {
  WEBWAVE_REQUIRE(min_rate >= 0, "min_rate must be non-negative");
  const std::size_t nn = static_cast<std::size_t>(tree_.size());
  // Node-major sweep over the blocked storage: for a fixed node the lanes
  // of one block are contiguous (served[row + b]), so the CSR consumer's
  // order — nodes ascending, documents ascending within a node — walks
  // memory almost linearly instead of striding a full lane apart per cell.
  for (std::size_t v = 0; v < nn; ++v)
    for (int g = 0; g < blocks_; ++g) {
      const std::size_t w = static_cast<std::size_t>(BlockWidth(g));
      const std::size_t row = BlockNodeBase(g) + v * w;
      const double* served = served_.data() + row;
      const double* forwarded = forwarded_.data() + row;
      for (std::size_t b = 0; b < w; ++b)
        if (served[b] > min_rate)
          sink(static_cast<NodeId>(v),
               static_cast<std::int32_t>(g * block_ +
                                         static_cast<int>(b)),
               served[b], forwarded[b]);
    }
}

void BatchWebWaveSimulator::ExportLanesQuotas(
    Span<const int> lanes, double min_rate,
    std::vector<QuotaCell>* out) const {
  WEBWAVE_REQUIRE(min_rate >= 0, "min_rate must be non-negative");
  WEBWAVE_REQUIRE(out != nullptr, "export needs an output vector");
  if (lanes.empty()) return;
  // Group the requested lanes by block, keeping both orders ascending, so
  // the sweep below emits ExportQuotas order and touches each selected
  // block's rows once per node regardless of how many of its lanes were
  // asked for.
  // Maximal contiguous runs of selected lanes, per block: dirty sets are
  // usually runs of adjacent documents, and a [lo, hi) inner loop with no
  // offset indirection is what lets the sweep below run at line speed
  // instead of ~3 ns per (node, lane).
  struct RunSelect {
    const double* served;  // block's row of node 0
    const double* forwarded;
    std::size_t width;
    std::int32_t first_doc;  // document id of lane offset 0
    std::size_t lo, hi;      // selected lane-in-block offsets [lo, hi)
  };
  std::vector<RunSelect> selected;
  int last = -1;
  for (const int d : lanes) {
    WEBWAVE_REQUIRE(d > last, "lanes must be ascending and unique");
    WEBWAVE_REQUIRE(d < docs_, "document lane out of range");
    const int g = BlockOf(d);
    const std::size_t b = static_cast<std::size_t>(LaneInBlock(d));
    if (!selected.empty() && d == last + 1 &&
        selected.back().first_doc == static_cast<std::int32_t>(g * block_) &&
        selected.back().hi == b) {
      ++selected.back().hi;
    } else {
      selected.push_back({served_.data() + BlockNodeBase(g),
                          forwarded_.data() + BlockNodeBase(g),
                          static_cast<std::size_t>(BlockWidth(g)),
                          static_cast<std::int32_t>(g * block_), b, b + 1});
    }
    last = d;
  }
  const std::size_t nn = static_cast<std::size_t>(tree_.size());
  // Node-major over run-minor keeps the emission order; one row-pointer
  // computation per (node, run), and all of a block's selected lanes read
  // out of the same cache line(s).
  for (std::size_t v = 0; v < nn; ++v)
    for (const RunSelect& sel : selected) {
      const double* row = sel.served + v * sel.width;
      for (std::size_t b = sel.lo; b < sel.hi; ++b) {
        const double rate = row[b];
        if (rate > min_rate)
          out->push_back({static_cast<NodeId>(v),
                          sel.first_doc + static_cast<std::int32_t>(b), rate,
                          sel.forwarded[v * sel.width + b]});
      }
    }
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
