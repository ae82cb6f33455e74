// Configuration of the WebWave rate-level engine (BatchWebWaveSimulator)
// and its step kernel.
#pragma once

#include <cstdint>
#include <vector>

namespace webwave {

// How the diffusion parameter α_ij of an edge is chosen.  The paper's
// Figure 5 notes "other values of α_i are possible"; the standard choice
// guaranteeing Cybenko's convergence conditions (1 − Σ_j α_ij > 0) is
// 1/(1 + max degree of the endpoints).
enum class AlphaPolicy {
  // α_ij = min(alpha, 1/(1 + max degree)): the requested value, capped so
  // Cybenko's stability condition always holds.
  kFixed,
  // α_ij = alpha exactly, even when it violates the stability condition —
  // used by the ablation bench to demonstrate why the condition matters.
  kFixedUncapped,
  // α_ij = 1 / (1 + max(deg(i), deg(j))) (the default).
  kDegree,
};

// Where the load sits before the protocol starts.
enum class InitialLoad {
  kAllAtRoot,    // cold start: no caches yet, the home server serves all
  kSelfService,  // every node serves exactly its spontaneous requests
};

struct WebWaveOptions {
  AlphaPolicy alpha_policy = AlphaPolicy::kDegree;
  double alpha = 0.25;        // used when alpha_policy == kFixed
  InitialLoad initial_load = InitialLoad::kAllAtRoot;
  int gossip_period = 1;      // steps between neighbor-estimate refreshes
  int gossip_delay = 0;       // estimates lag the true load by this many steps
  bool asynchronous = false;  // edges activate independently at random
  double activation_probability = 0.5;  // per-edge, in asynchronous mode
  // Per-node service capacities.  Empty reproduces the paper's uniform-
  // capacity assumption.  When set, diffusion equalizes *utilizations*
  // L_i / c_i and converges to the WebFoldWeighted assignment.
  std::vector<double> capacities;
  // Worker threads for the batched simulator's per-block sweeps.  0 picks
  // one per hardware thread; the pool is clamped to the document count.
  // Document blocks are partitioned statically and share no mutable state
  // between gossip refreshes, so results are bit-identical at every
  // thread count.
  int threads = 1;
  // Document block width of the batched simulator: lanes are stored and
  // stepped in blocks of this many documents interleaved per node/edge
  // slot, so one sweep of the shared edge metadata advances lane_block
  // lanes (the last block is ragged when the catalog size is not a
  // multiple).  Purely a memory-layout knob — per-lane results are
  // bit-identical at every width.  8 won the micro-benchmark sweep
  // (BENCH_step_blocked.json); 1 reproduces the document-major layout.
  int lane_block = 8;
  std::uint64_t seed = 1;
};

// One demand change: document `doc`'s spontaneous request rate at `node`
// becomes `rate` (absolute, not a delta).  Batches of events are the unit
// of churn: ApplyDemandEvents applies a whole batch and re-projects each
// affected lane once, with its merged rate vector.
struct DemandEvent {
  std::int32_t doc = 0;
  std::int32_t node = 0;
  double rate = 0;
};

}  // namespace webwave
