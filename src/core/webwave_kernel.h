// The shared per-lane diffusion kernel of WebWaveSimulator and
// BatchWebWaveSimulator.
//
// Both simulators advance load with the identical two-phase round of §5
// (decide all transfers from one snapshot, then apply them edge-atomically
// with feasibility clamps) over the identical flattened edge layout.  The
// batch form's guarantee — per-document lanes bit-identical to independent
// simulators — holds *by construction* because both call the functions in
// this header rather than keeping copies of the kernel.
//
// The kernel is *width-generic*: StepLaneBlock advances `width` lanes in
// one sweep over the edge list, with every per-lane quantity stored
// interleaved ([edge or node][width] — lane b of the block at slot
// index·width + b).  The single-document simulator calls it with width 1
// (where the layout degenerates to the plain flat arrays); the batch
// simulator calls it with width = its document block size, so the shared
// edge metadata (parent, child, alpha) is streamed once per *block*
// instead of once per document.  Each lane's arithmetic is independent and
// executed in the same IEEE order at every width, so per-lane results are
// bit-identical across widths — the invariant the batch property tests
// assert against independent simulators.
//
// SIMD chunk path.  StepLaneBlock below is the scalar reference.  Its
// per-lane branches (transfer direction, clamp, "did anything move") are
// data-dependent and mispredict once the lanes of a row disagree on
// direction, so the batch engine steps every full chunk of
// kStepChunkLanes = 8 lanes of a block row with a branch-free body
// instead (webwave_kernel.cpp): per edge, both phases load the chunk's
// rows, compute both branch outcomes for all 8 lanes and select per lane,
// and store whole chunks.  The `changed` flags accumulate as a mask under
// the update mask and fold into the caller's flags once per block.
//
// Dispatch.  The body is instantiated for AVX-512F/DQ (one zmm per chunk)
// and AVX2 (two ymm per chunk) on x86-64; SelectStepLaneBlock picks the
// widest one the CPU supports, once, from __builtin_cpu_supports.  There
// is no option, environment variable or build flag.  The scalar loop
// still runs the remainder lanes (width % 8), blocks narrower than 8,
// asynchronous mode (per-lane RNG draws in edge order), the width-1
// WebWaveSimulator, and CPUs or architectures without either ISA.
//
// Exactness.  Every variant is bit-identical to the scalar loop on every
// host, because the chunk body uses only IEEE + − × ÷, compares and
// selects, in the scalar loop's order: std::min(a, b) is written as its
// definition (b < a) ? b : a, min({d, f, s}) as two mins in that order,
// products left to right, no FMA (ISO mode keeps -ffp-contract=off and
// neither target enables FMA), and each scalar test mirrored literally
// (!(x <= 0) is not x > 0 for NaN).  WebWaveKernel.SimdMatchesScalarBitwise
// asserts it on adversarial blocks (±0 ties, NaN, subnormals, lanes on
// the dead band) for every variant the host runs.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/webwave_options.h"
#include "tree/routing_tree.h"
#include "util/rng.h"

namespace webwave {
namespace internal {

// Relative utilization imbalances at or below this are treated as
// balanced: no transfer is scheduled for them.  Without the dead band the
// protocol never reaches a floating-point fixed point — near convergence
// it keeps applying transfers smaller than 1 ulp of the endpoint loads
// (which therefore never move) but comparable to 1 ulp of the smaller
// forwarded rates, which drift one ulp per step forever, slowly eroding
// exact flow conservation and keeping every lane permanently "changed".
// Cutting transfers ~4 decimal orders above load ulps stops the leak and
// makes convergence literal: once every edge is within 1e-12 relative of
// balance, a step changes nothing, the batch engine's dirty-lane tracking
// sees the lane clean, and incremental snapshots skip it.  1e-12 is ~1e6×
// below every tolerance the tests and the paper's convergence metric use.
inline constexpr double kImbalanceDeadband = 1e-12;

// The tree's edges flattened into parallel arrays in ascending child-id
// order — the fixed sweep order of every step — with the per-edge
// diffusion parameter resolved from the alpha policy.
struct EdgeArrays {
  std::vector<NodeId> parent;
  std::vector<NodeId> child;
  std::vector<double> alpha;
  // The options the alphas were resolved from — lets a simulator reject a
  // shared build whose diffusion parameters do not match its own options.
  AlphaPolicy alpha_policy = AlphaPolicy::kDegree;
  double alpha_value = 0;

  std::size_t size() const { return child.size(); }

  bool MatchesOptions(const WebWaveOptions& options) const {
    if (alpha_policy != options.alpha_policy) return false;
    return alpha_policy == AlphaPolicy::kDegree ||
           alpha_value == options.alpha;
  }

  // True iff these arrays describe exactly `tree`'s edges — the guard the
  // simulator constructors apply to a caller-supplied shared build, so a
  // build for a *different* same-sized tree cannot silently diffuse over
  // the wrong topology.  O(edges), far cheaper than rebuilding.
  bool MatchesTree(const RoutingTree& tree) const {
    if (size() != static_cast<std::size_t>(tree.size() - 1)) return false;
    for (std::size_t k = 0; k < size(); ++k) {
      const NodeId c = child[k];
      if (c < 0 || c >= tree.size() || tree.is_root(c) ||
          tree.parent(c) != parent[k])
        return false;
    }
    return true;
  }
};

// Read-only edge structure shared between simulators: the arrays depend
// only on (tree, alpha policy), so one build can back a batch engine, its
// per-document reference simulators and any closed-loop re-derivations at
// once instead of each constructor re-flattening the same tree.
using SharedEdgeArrays = std::shared_ptr<const EdgeArrays>;

inline EdgeArrays BuildEdgeArrays(const RoutingTree& tree,
                                  const WebWaveOptions& options) {
  EdgeArrays edges;
  edges.alpha_policy = options.alpha_policy;
  edges.alpha_value = options.alpha;
  const std::size_t edge_count = static_cast<std::size_t>(tree.size() - 1);
  edges.parent.reserve(edge_count);
  edges.child.reserve(edge_count);
  edges.alpha.reserve(edge_count);
  for (NodeId v = 0; v < tree.size(); ++v) {
    if (tree.is_root(v)) continue;
    const NodeId p = tree.parent(v);
    const double stable =
        1.0 / (1.0 + std::max(tree.degree(p), tree.degree(v)));
    double alpha = stable;
    switch (options.alpha_policy) {
      case AlphaPolicy::kFixed:
        alpha = std::min(options.alpha, stable);
        break;
      case AlphaPolicy::kFixedUncapped:
        alpha = options.alpha;
        break;
      case AlphaPolicy::kDegree:
        break;
    }
    edges.parent.push_back(p);
    edges.child.push_back(v);
    edges.alpha.push_back(alpha);
  }
  return edges;
}

inline SharedEdgeArrays BuildSharedEdgeArrays(const RoutingTree& tree,
                                              const WebWaveOptions& options) {
  return std::make_shared<const EdgeArrays>(BuildEdgeArrays(tree, options));
}

// Phase 1 of one edge (p, c) for lanes [lo, hi): the transfer each lane
// schedules, positive when load moves down p -> c.  sp/sc/fc/ep/ec point
// at the edge's parent served, child served, child forwarded, parent
// estimate and child estimate rows; dk at the edge's delta row.
inline void DecideLanes(double alpha, double cp, double cc, const double* sp,
                        const double* sc, const double* fc, const double* ep,
                        const double* ec, double* dk, std::size_t lo,
                        std::size_t hi, const WebWaveOptions& options,
                        Rng* rng) {
  const double scale = std::min(cp, cc);
  for (std::size_t b = lo; b < hi; ++b) {
    if (options.asynchronous &&
        !rng[b].NextBernoulli(options.activation_probability)) {
      dk[b] = 0;
      continue;
    }
    const double up = sp[b] / cp;
    const double uc = sc[b] / cc;
    const double parent_view = ec[b] / cc;
    const double child_view = ep[b] / cp;
    double d = 0;
    if (up - parent_view > kImbalanceDeadband * up) {
      d = std::min(alpha * (up - parent_view) * scale, fc[b]);
    } else if (uc - child_view > kImbalanceDeadband * uc) {
      d = -std::min(alpha * (uc - child_view) * scale, sc[b]);
    }
    dk[b] = d;
  }
}

// Phase 2 of one edge for lanes [lo, hi): applies each lane's transfer,
// clamped against the evolving state, and OR-s the lane's `changed` flag
// (null = untracked) when a value actually moved.
inline void ApplyLanes(double* sp, double* sc, double* fc, const double* dk,
                       std::size_t lo, std::size_t hi,
                       std::uint8_t* changed) {
  for (std::size_t b = lo; b < hi; ++b) {
    double d = dk[b];
    if (d == 0) continue;
    if (d > 0) {
      d = std::min({d, fc[b], sp[b]});
      if (d <= 0) continue;
      const double np = sp[b] - d;
      const double nc = sc[b] + d;
      const double nf = fc[b] - d;
      if (changed != nullptr)
        changed[b] |= static_cast<std::uint8_t>(np != sp[b] || nc != sc[b] ||
                                                nf != fc[b]);
      sp[b] = np;
      sc[b] = nc;
      fc[b] = nf;
    } else {
      const double up_amt = std::min(-d, sc[b]);
      if (up_amt <= 0) continue;
      const double nc = sc[b] - up_amt;
      const double np = sp[b] + up_amt;
      const double nf = fc[b] + up_amt;
      if (changed != nullptr)
        changed[b] |= static_cast<std::uint8_t>(nc != sc[b] || np != sp[b] ||
                                                nf != fc[b]);
      sc[b] = nc;
      sp[b] = np;
      fc[b] = nf;
    }
  }
}

// One two-phase diffusion round over a block of `width` load lanes — the
// scalar reference every variant below must match bit for bit.
//
// Phase 1 decides every edge's transfer from the same snapshot — the
// synchronous rounds of Figure 5, where steps (2.1)-(2.2) read the
// estimates gathered at the end of the previous period.  A transfer on
// edge (p, c) is positive when load moves down (p -> c): the parent
// delegates using its true load and its estimate of the child, capped by
// the observed A_c; the child relinquishes upward symmetrically, capped
// by its own served rate.  Diffusion equalizes utilization (load with
// uniform capacities); the transfer scale min(c_p, c_c) reduces to the
// paper's load difference when capacities are uniform.
//
// Phase 2 applies the transfers atomically per edge, clamping against the
// evolving state so that L >= 0 and A >= 0 hold exactly even when a node
// participates in several transfers within one round.
//
// Estimates are read from `est_plane`, the gossiped load snapshot indexed
// by *node* (not by edge): the parent's view of child c is
// est_plane[c·width + b], the child's view of parent p is
// est_plane[p·width + b].  One n-sized plane per lane replaces the two
// edge-indexed estimate arrays the simulators used to materialize — the
// same values, read through the edge endpoints instead of pre-gathered.
//
// `rng` points at `width` per-lane generators; lane b consumes one
// Bernoulli per edge (ascending edge order) in asynchronous mode only —
// the identical draw sequence an independent simulator of that lane makes.
// `delta` is caller-provided scratch of edges.size()·width entries.
//
// `changed`, when non-null, points at `width` per-lane flags; a lane's
// flag is OR-ed to 1 iff any of its served/forwarded values actually
// changed (a transfer below 1 ulp of its endpoint leaves the value — and
// the flag — untouched).  This is what feeds the batch engine's dirty-lane
// set: clean means bit-identical state, not merely "no events".
inline void StepLaneBlock(const EdgeArrays& edges, const double* capacity,
                          const WebWaveOptions& options, Rng* rng, int width,
                          double* served, double* forwarded,
                          const double* est_plane, double* delta,
                          std::uint8_t* changed = nullptr) {
  const std::size_t edge_count = edges.size();
  const std::size_t w = static_cast<std::size_t>(width);
  for (std::size_t k = 0; k < edge_count; ++k) {
    const std::size_t p = static_cast<std::size_t>(edges.parent[k]);
    const std::size_t c = static_cast<std::size_t>(edges.child[k]);
    DecideLanes(edges.alpha[k], capacity[p], capacity[c], served + p * w,
                served + c * w, forwarded + c * w, est_plane + p * w,
                est_plane + c * w, delta + k * w, 0, w, options, rng);
  }
  for (std::size_t k = 0; k < edge_count; ++k) {
    const std::size_t p = static_cast<std::size_t>(edges.parent[k]);
    const std::size_t c = static_cast<std::size_t>(edges.child[k]);
    ApplyLanes(served + p * w, served + c * w, forwarded + c * w,
               delta + k * w, 0, w, changed);
  }
}

// The signature every StepLaneBlock variant shares.
using StepLaneBlockFn = void (*)(const EdgeArrays& edges,
                                 const double* capacity,
                                 const WebWaveOptions& options, Rng* rng,
                                 int width, double* served,
                                 double* forwarded, const double* est_plane,
                                 double* delta, std::uint8_t* changed);

// Lanes per SIMD chunk: one zmm, or two ymm, of doubles.
inline constexpr int kStepChunkLanes = 8;

#if defined(__x86_64__)
// StepLaneBlock with the SIMD chunk path (file comment), bit-identical to
// it.  Call a variant only when its Cpu*() check holds.
void StepLaneBlockAvx512(const EdgeArrays& edges, const double* capacity,
                         const WebWaveOptions& options, Rng* rng, int width,
                         double* served, double* forwarded,
                         const double* est_plane, double* delta,
                         std::uint8_t* changed);
void StepLaneBlockAvx2(const EdgeArrays& edges, const double* capacity,
                       const WebWaveOptions& options, Rng* rng, int width,
                       double* served, double* forwarded,
                       const double* est_plane, double* delta,
                       std::uint8_t* changed);
// AVX-512F + AVX-512DQ (one zmm per chunk) / AVX2 (two ymm per chunk).
bool CpuHasAvx512();
bool CpuHasAvx2();
#endif

// The fastest StepLaneBlock variant this CPU runs, decided once per call
// from the CPU's features: AVX-512, else AVX2, else the scalar loop.
StepLaneBlockFn SelectStepLaneBlock();

// Projects a lane's served vector onto the feasible set of (possibly new)
// spontaneous rates — the demand-churn counterpart of StepLaneBlock,
// shared by WebWaveSimulator::UpdateSpontaneous/ApplyDemandEvents and the
// batch simulator's per-lane churn path so the two stay equivalent by
// construction.
//
// In postorder, every node may keep at most the flow that now arrives at
// it (its own spontaneous rate plus what its children still forward); the
// shortfall travels up and the root absorbs whatever remains unclaimed (it
// is the authoritative copy, Constraint 1: A_root = 0).  This models
// servers instantly noticing their request streams thinned.  On return the
// lane satisfies flow conservation, L >= 0 and A >= 0 exactly.
//
// The width-generic form mirrors StepLaneBlock's layout: arrays are
// [node][width] interleaved, and `select` (width flags, null = all)
// picks which lanes of the block to project.  One postorder sweep
// projects every selected lane — under churn that touches most of a
// block this reads each cache line once instead of once per lane, which
// is what keeps ApplyDemandEvents' cost flat in the block width.  Each
// lane's arithmetic is independent and ordered exactly as the width-1
// form, so projections agree bit for bit across layouts.
inline void ProjectLaneBlock(const RoutingTree& tree,
                             const double* spontaneous, double* served,
                             double* forwarded, int width,
                             const std::uint8_t* select) {
  const std::size_t w = static_cast<std::size_t>(width);
  for (const NodeId v : tree.postorder()) {
    const std::size_t row = static_cast<std::size_t>(v) * w;
    const bool root = tree.is_root(v);
    for (std::size_t b = 0; b < w; ++b) {
      if (select != nullptr && select[b] == 0) continue;
      double arrive = spontaneous[row + b];
      for (const NodeId c : tree.children(v))
        arrive += forwarded[static_cast<std::size_t>(c) * w + b];
      double serve = std::min(served[row + b], arrive);
      if (root) serve = arrive;
      served[row + b] = serve;
      forwarded[row + b] = arrive - serve;
    }
  }
}

inline void ProjectLane(const RoutingTree& tree, const double* spontaneous,
                        double* served, double* forwarded) {
  ProjectLaneBlock(tree, spontaneous, served, forwarded, 1, nullptr);
}

}  // namespace internal
}  // namespace webwave
