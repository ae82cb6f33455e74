// ISA-targeted variants of StepLaneBlock (declared in webwave_kernel.h).
//
// One body, StepChunks<R, kInstant>, is written once over a small
// register type R (GCC vector extensions) and explicitly instantiated for
// both kInstant values once per ISA under that ISA's
// `#pragma GCC target`: AVX-512 steps a chunk of
// kStepChunkLanes lanes as one 8-double vector (one zmm), AVX2 as two
// 4-double vectors (two ymm).  The instantiation, not an inlined caller,
// must carry the target: GCC lowers a function's generic vector
// operations for the ISA that function is compiled under, so a body
// compiled for baseline x86-64 and inlined into an AVX-512 function
// comes out scalarized.  The library itself needs no -m flag.
//
// The body follows the exactness rules in webwave_kernel.h; the comment
// at each select names the std::min it is, operand for operand.  Were a
// compiler to ignore the pragma, the instantiation would still be exact,
// only slow.
#include "core/webwave_kernel.h"

#include <algorithm>

namespace webwave {
namespace internal {

#if defined(__x86_64__)
namespace {

// Lanes per phase-2 sweep: each sweep keeps the changed masks of this
// many lanes in locals and folds them into the caller's flags once.
constexpr std::size_t kSweepLanes = 64;

// The register types: F holds one vector of lanes; Row is F as loaded
// from and stored to a block row, which starts at any double (aligned(8))
// and is a double array (may_alias).
struct Zmm {
  typedef double F __attribute__((vector_size(64)));
  typedef F Row __attribute__((aligned(8), may_alias));
};
struct Ymm {
  typedef double F __attribute__((vector_size(32)));
  typedef F Row __attribute__((aligned(8), may_alias));
};

// StepLaneBlock for synchronous mode (options.asynchronous is false) and
// w >= kStepChunkLanes.  kInstant: est_plane is `served` (the aliased
// estimates of webwave_kernel.h), so the views are uc and up themselves.
template <class R, bool kInstant>
void StepChunks(
    const EdgeArrays& edges, const double* capacity,
    const WebWaveOptions& options, std::size_t w, double* served,
    double* forwarded, const double* est_plane, double* delta,
    std::uint8_t* changed) {
  using F = typename R::F;
  using Row = typename R::Row;
  using M = decltype(F{} < F{});
  constexpr std::size_t kLanes = sizeof(F) / sizeof(double);
  const std::size_t edge_count = edges.size();
  const std::size_t simd_end = w - w % kStepChunkLanes;
  const F zero = {};

  // Phase 1: the scalar `if / else if / else 0` chain as two masks.
  for (std::size_t k = 0; k < edge_count; ++k) {
    const std::size_t p = static_cast<std::size_t>(edges.parent[k]);
    const std::size_t c = static_cast<std::size_t>(edges.child[k]);
    const double cp = capacity[p];
    const double cc = capacity[c];
    const double scale = std::min(cp, cc);
    const double alpha = edges.alpha[k];
    const double* sp = served + p * w;
    const double* sc = served + c * w;
    const double* fc = forwarded + c * w;
    const double* ep = est_plane + p * w;
    const double* ec = est_plane + c * w;
    double* dk = delta + k * w;
    for (std::size_t b = 0; b < simd_end; b += kLanes) {
      const F spv = *reinterpret_cast<const Row*>(sp + b);
      const F scv = *reinterpret_cast<const Row*>(sc + b);
      const F fcv = *reinterpret_cast<const Row*>(fc + b);
      const F up = spv / cp;
      const F uc = scv / cc;
      const F parent_view =
          kInstant ? uc : *reinterpret_cast<const Row*>(ec + b) / cc;
      const F child_view =
          kInstant ? up : *reinterpret_cast<const Row*>(ep + b) / cp;
      const M down = up - parent_view > kImbalanceDeadband * up;
      const M upward = uc - child_view > kImbalanceDeadband * uc;
      const F push = alpha * (up - parent_view) * scale;
      const F pull = alpha * (uc - child_view) * scale;
      const F give = fcv < push ? fcv : push;  // std::min(push, fc)
      const F take = scv < pull ? scv : pull;  // std::min(pull, sc)
      *reinterpret_cast<Row*>(dk + b) = down ? give : (upward ? -take : zero);
    }
    DecideLanes(alpha, cp, cc, sp, sc, fc, ep, ec, dk, simd_end, w, options);
  }

  // Phase 2: both clamped amounts, then a per-lane select of the new
  // state.  `changed` accumulates "a value differs" under the update mask.
  for (std::size_t lo = 0; lo < simd_end; lo += kSweepLanes) {
    const std::size_t hi = std::min(simd_end, lo + kSweepLanes);
    // The last sweep also runs the scalar remainder lanes [simd_end, w).
    const std::size_t tail = hi == simd_end ? w : hi;
    M moved[kSweepLanes / kLanes] = {};
    for (std::size_t k = 0; k < edge_count; ++k) {
      const std::size_t p = static_cast<std::size_t>(edges.parent[k]);
      const std::size_t c = static_cast<std::size_t>(edges.child[k]);
      double* sp = served + p * w;
      double* sc = served + c * w;
      double* fc = forwarded + c * w;
      const double* dk = delta + k * w;
      for (std::size_t b = lo; b < hi; b += kLanes) {
        const F d = *reinterpret_cast<const Row*>(dk + b);
        const F spv = *reinterpret_cast<const Row*>(sp + b);
        const F scv = *reinterpret_cast<const Row*>(sc + b);
        const F fcv = *reinterpret_cast<const Row*>(fc + b);
        const M is_zero = d == zero;
        const M is_down = d > zero;
        // std::min({d, fc, sp}) is std::min(std::min(d, fc), sp).
        const F give0 = fcv < d ? fcv : d;
        const F give = spv < give0 ? spv : give0;
        const F neg_d = -d;
        const F take = scv < neg_d ? scv : neg_d;  // std::min(-d, sc)
        const M go_down = is_down & ~(give <= zero);
        const M go_up = ~is_zero & ~is_down & ~(take <= zero);
        const F np = go_down ? spv - give : (go_up ? spv + take : spv);
        const F nc = go_down ? scv + give : (go_up ? scv - take : scv);
        const F nf = go_down ? fcv - give : (go_up ? fcv + take : fcv);
        moved[(b - lo) / kLanes] |=
            (go_down | go_up) & ((np != spv) | (nc != scv) | (nf != fcv));
        *reinterpret_cast<Row*>(sp + b) = np;
        *reinterpret_cast<Row*>(sc + b) = nc;
        *reinterpret_cast<Row*>(fc + b) = nf;
      }
      if (tail > hi) ApplyLanes(sp, sc, fc, dk, hi, tail, changed);
    }
    if (changed == nullptr) continue;
    for (std::size_t b = lo; b < hi; ++b)
      changed[b] |= static_cast<std::uint8_t>(
          moved[(b - lo) / kLanes][(b - lo) % kLanes] != 0);
  }
}

using ChunksFn = void(const EdgeArrays&, const double*,
                      const WebWaveOptions&, std::size_t, double*, double*,
                      const double*, double*, std::uint8_t*);

}  // namespace

#pragma GCC push_options
#pragma GCC target("avx512f,avx512dq")
namespace {
template ChunksFn StepChunks<Zmm, false>;
template ChunksFn StepChunks<Zmm, true>;
}  // namespace

void StepLaneBlockAvx512(const EdgeArrays& edges, const double* capacity,
                         const WebWaveOptions& options, int width,
                         double* served, double* forwarded,
                         const double* est_plane, double* delta,
                         std::uint8_t* changed) {
  if (options.asynchronous || width < kStepChunkLanes)
    return StepLaneBlock(edges, capacity, options, width, served, forwarded,
                         est_plane, delta, changed);
  (est_plane == served ? StepChunks<Zmm, true> : StepChunks<Zmm, false>)(
      edges, capacity, options, static_cast<std::size_t>(width), served,
      forwarded, est_plane, delta, changed);
}
#pragma GCC pop_options

#pragma GCC push_options
#pragma GCC target("avx2")
namespace {
template ChunksFn StepChunks<Ymm, false>;
template ChunksFn StepChunks<Ymm, true>;
}  // namespace

void StepLaneBlockAvx2(const EdgeArrays& edges, const double* capacity,
                       const WebWaveOptions& options, int width,
                       double* served, double* forwarded,
                       const double* est_plane, double* delta,
                       std::uint8_t* changed) {
  if (options.asynchronous || width < kStepChunkLanes)
    return StepLaneBlock(edges, capacity, options, width, served, forwarded,
                         est_plane, delta, changed);
  (est_plane == served ? StepChunks<Ymm, true> : StepChunks<Ymm, false>)(
      edges, capacity, options, static_cast<std::size_t>(width), served,
      forwarded, est_plane, delta, changed);
}
#pragma GCC pop_options

bool CpuHasAvx512() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512dq");
}

bool CpuHasAvx2() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2");
}
#endif

StepLaneBlockFn SelectStepLaneBlock() {
#if defined(__x86_64__)
  if (CpuHasAvx512()) return StepLaneBlockAvx512;
  if (CpuHasAvx2()) return StepLaneBlockAvx2;
#endif
  return StepLaneBlock;
}

}  // namespace internal
}  // namespace webwave
