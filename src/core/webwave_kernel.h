// The per-lane diffusion kernel of BatchWebWaveSimulator.
//
// The engine advances load with the two-phase round of §5 (decide all
// transfers from one snapshot, then apply them edge-atomically with
// feasibility clamps) over a flattened edge layout.
//
// The kernel is *width-generic*: StepLaneBlock advances `width` lanes in
// one sweep over the edge list, with every per-lane quantity stored
// interleaved ([edge or node][width] — lane b of the block at slot
// index·width + b).  The batch simulator calls it with width = its
// document block size (a one-lane batch calls it with width 1, where the
// layout degenerates to plain flat arrays), so the shared edge metadata
// (parent, child, alpha) is streamed once per *block* instead of once per
// document.  Each lane's arithmetic is independent and executed in the
// same IEEE order at every width, so per-lane results are bit-identical
// across widths — the invariant webwave_batch_test asserts against the
// single-lane reference simulator (tests/webwave_reference.h).
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
// still runs the remainder lanes (width % 8), blocks narrower than 8
// (one-lane batches among them), asynchronous mode (per-edge activations
// read from the delta scratch), and CPUs or architectures without either
// ISA.
//
// Aliased estimates.  Under instantaneous gossip the engine passes the
// served block itself as `est_plane`.  Phase 1's views ec/cc and ep/cp
// are then the very divisions sc/cc and sp/cp that give uc and up, so the
// SIMD body (StepChunks<R, kInstant = true>, picked when
// est_plane == served) reuses uc and up instead of reloading both rows
// and dividing twice more per edge.  Same operands, same operation: the
// same bits.
//
// Sweep order.  Phase 1 reads only the start-of-round state, so its edge
// order matters for nothing but the asynchronous draws.  Phase 2 is a
// sequence of per-edge updates; an update touches only its two endpoint
// loads and its child's forwarded rate, so two updates that share no node
// commute, and any two sweeps that order every node's incident edges
// alike produce identical bits.  BuildEdgeArrays sweeps edges by
// ascending child id, so at node v the edges to children with a smaller
// id come first (ascending), then v's own parent edge, then the edges to
// larger children.  The engine's node labels (webwave_batch.h, "Node
// order") keep exactly that order at every node, which is why its
// relabelled sweep is exact on any tree.
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
#include <vector>

#include "core/webwave_options.h"
#include "tree/routing_tree.h"

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

// The tree's edges flattened into parallel arrays in ascending child
// order — the fixed sweep order of every step — with the per-edge
// diffusion parameter resolved from the alpha policy.  BuildEdgeArrays
// lays them out in original node ids; BatchWebWaveSimulator builds its
// own in its node labels (see the sweep-order rule below).
struct EdgeArrays {
  std::vector<NodeId> parent;
  std::vector<NodeId> child;
  std::vector<double> alpha;

  std::size_t size() const { return child.size(); }
};

// The diffusion parameter of the edge from `child` to its parent.
inline double EdgeAlpha(const RoutingTree& tree, NodeId child,
                        const WebWaveOptions& options) {
  const double stable =
      1.0 / (1.0 + std::max(tree.degree(tree.parent(child)),
                            tree.degree(child)));
  switch (options.alpha_policy) {
    case AlphaPolicy::kFixed:
      return std::min(options.alpha, stable);
    case AlphaPolicy::kFixedUncapped:
      return options.alpha;
    case AlphaPolicy::kDegree:
      break;
  }
  return stable;
}

inline EdgeArrays BuildEdgeArrays(const RoutingTree& tree,
                                  const WebWaveOptions& options) {
  EdgeArrays edges;
  const std::size_t edge_count = static_cast<std::size_t>(tree.size() - 1);
  edges.parent.reserve(edge_count);
  edges.child.reserve(edge_count);
  edges.alpha.reserve(edge_count);
  for (NodeId v = 0; v < tree.size(); ++v) {
    if (tree.is_root(v)) continue;
    edges.parent.push_back(tree.parent(v));
    edges.child.push_back(v);
    edges.alpha.push_back(EdgeAlpha(tree, v, options));
  }
  return edges;
}

// Phase 1 of one edge (p, c) for lanes [lo, hi): the transfer each lane
// schedules, positive when load moves down p -> c.  sp/sc/fc/ep/ec point
// at the edge's parent served, child served, child forwarded, parent
// estimate and child estimate rows; dk at the edge's delta row, which in
// asynchronous mode holds the lane's activation on entry (0 = the edge
// sleeps this round, and its transfer stays 0).
inline void DecideLanes(double alpha, double cp, double cc, const double* sp,
                        const double* sc, const double* fc, const double* ep,
                        const double* ec, double* dk, std::size_t lo,
                        std::size_t hi, const WebWaveOptions& options) {
  const double scale = std::min(cp, cc);
  for (std::size_t b = lo; b < hi; ++b) {
    if (options.asynchronous && dk[b] == 0) continue;
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
// `delta` is caller-provided scratch of edges.size()·width entries.  In
// asynchronous mode it carries each (edge, lane) activation in: the caller
// writes 0 where the edge sleeps this round and any other value where it
// runs, drawing every lane's Bernoulli in the order a one-lane run makes
// them (the engine's DrawActivations).
//
// `changed`, when non-null, points at `width` per-lane flags; a lane's
// flag is OR-ed to 1 iff any of its served/forwarded values actually
// changed (a transfer below 1 ulp of its endpoint leaves the value — and
// the flag — untouched).  This is what feeds the batch engine's dirty-lane
// set: clean means bit-identical state, not merely "no events".
inline void StepLaneBlock(const EdgeArrays& edges, const double* capacity,
                          const WebWaveOptions& options, int width,
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
                est_plane + c * w, delta + k * w, 0, w, options);
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
                                 const WebWaveOptions& options, int width,
                                 double* served,
                                 double* forwarded, const double* est_plane,
                                 double* delta, std::uint8_t* changed);

// Lanes per SIMD chunk: one zmm, or two ymm, of doubles.
inline constexpr int kStepChunkLanes = 8;

#if defined(__x86_64__)
// StepLaneBlock with the SIMD chunk path (file comment), bit-identical to
// it.  Call a variant only when its Cpu*() check holds.
void StepLaneBlockAvx512(const EdgeArrays& edges, const double* capacity,
                         const WebWaveOptions& options, int width,
                         double* served, double* forwarded,
                         const double* est_plane, double* delta,
                         std::uint8_t* changed);
void StepLaneBlockAvx2(const EdgeArrays& edges, const double* capacity,
                       const WebWaveOptions& options, int width,
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

// The parts of a tree ProjectLaneBlock walks, in the node numbering the
// lanes are stored in: node v's children are
// children[child_begin[v], child_begin[v + 1]), in the order their
// forwarded rates are summed, and `postorder` lists every node after all
// of its children.
struct TreeShape {
  NodeId root = kNoNode;
  std::vector<NodeId> child_begin;
  std::vector<NodeId> children;
  std::vector<NodeId> postorder;
};

// Projects a lane's served vector onto the feasible set of (possibly new)
// spontaneous rates — the demand-churn counterpart of StepLaneBlock,
// behind BatchWebWaveSimulator::ApplyDemandEvents.
//
// In postorder, every node may keep at most the flow that now arrives at
// it (its own spontaneous rate plus what its children still forward); the
// shortfall travels up and the root absorbs whatever remains unclaimed (it
// is the authoritative copy, Constraint 1: A_root = 0).  This models
// servers instantly noticing their request streams thinned.  On return the
// lane satisfies flow conservation, L >= 0 and A >= 0 exactly.  A node's
// result depends only on its own cell and its children's final forwarded
// rates, summed in `shape`'s child order, so any children-before-parent
// order gives the same bits.
//
// The width-generic form mirrors StepLaneBlock's layout: arrays are
// [node][width] interleaved, and `select` (width flags, null = all)
// picks which lanes of the block to project.  One postorder sweep
// projects every selected lane — under churn that touches most of a
// block this reads each cache line once instead of once per lane, which
// is what keeps ApplyDemandEvents' cost flat in the block width.  Each
// lane's arithmetic is independent and ordered exactly as at width 1, so
// projections agree bit for bit across layouts.
inline void ProjectLaneBlock(const TreeShape& shape,
                             const double* spontaneous, double* served,
                             double* forwarded, int width,
                             const std::uint8_t* select) {
  const std::size_t w = static_cast<std::size_t>(width);
  for (const NodeId v : shape.postorder) {
    const std::size_t row = static_cast<std::size_t>(v) * w;
    const bool root = v == shape.root;
    const std::size_t i = static_cast<std::size_t>(v);
    const NodeId* first = shape.children.data() + shape.child_begin[i];
    const NodeId* last = shape.children.data() + shape.child_begin[i + 1];
    for (std::size_t b = 0; b < w; ++b) {
      if (select != nullptr && select[b] == 0) continue;
      double arrive = spontaneous[row + b];
      for (const NodeId* c = first; c != last; ++c)
        arrive += forwarded[static_cast<std::size_t>(*c) * w + b];
      double serve = std::min(served[row + b], arrive);
      if (root) serve = arrive;
      served[row + b] = serve;
      forwarded[row + b] = arrive - serve;
    }
  }
}

}  // namespace internal
}  // namespace webwave
