// Deterministic pseudo-random number generation.
//
// Every randomized component in webwave takes an explicit seed so that
// simulations, tests and benchmarks are exactly reproducible across runs
// and platforms.  The generator is xoshiro256++ seeded via SplitMix64, a
// small, fast, well-tested combination with 256 bits of state; we do not
// use std::mt19937 because its distributions are not portable across
// standard-library implementations.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

namespace webwave {

// SplitMix64 step; used for seeding and as a cheap stateless mixer.
// Inline because every counter-based draw on the serve path reduces to it.
inline std::uint64_t SplitMix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// One uniform double in [0, 1) as a pure function of a counter: the
// SplitMix64 finalizer scaled to 53 bits.  The counter-based determinism
// primitive of the serving layer — request-stream draws, token dither
// phases and thinning draws all reduce to this, so they are identical
// under any batching or threading.
inline double CounterUnitDouble(std::uint64_t counter) {
  return static_cast<double>(SplitMix64(counter) >> 11) * 0x1.0p-53;
}

// CounterUnitDouble(counter) < p in integer form.  The draw is m·2⁻⁵³
// for an integer m < 2⁵³, and m·2⁻⁵³ < p ⇔ m < ⌈p·2⁵³⌉ exactly (scaling
// by a power of two rounds nothing), so UnitThreshold(p) stores the
// comparison once and CounterBelow makes it without a double.  p ≥ 1
// gives 2⁵³, which admits without hashing.
inline std::uint64_t UnitThreshold(double p) {
  if (!(p > 0)) return 0;
  if (p >= 1) return std::uint64_t{1} << 53;
  return static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53));
}
inline bool CounterBelow(std::uint64_t counter, std::uint64_t threshold) {
  return threshold >= (std::uint64_t{1} << 53) ||
         (SplitMix64(counter) >> 11) < threshold;
}

// A standard normal as a pure function of a counter: Box–Muller over two
// counter-hashed uniforms.  The heavy-tailed size models build on this.
double CounterNormal(std::uint64_t counter);

// One lognormal byte size as a pure function of (seed, item):
// round(median · exp(sigma · z)) clamped to >= 1 byte.  The single
// definition both the catalog's kilobyte view (Catalog::MakeLogNormal)
// and the store's byte view (DocumentSizes::LogNormal) draw through, so
// the two can never disagree.
std::uint64_t CounterLogNormalBytes(std::uint64_t seed, std::int64_t item,
                                    double median_bytes, double sigma);

// xoshiro256++ generator with portable, explicitly-seeded behaviour.
class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  // Raw 64 uniformly distributed bits.
  std::uint64_t Next();

  // Uniform integer in [0, bound); bound must be positive.  Uses rejection
  // sampling, so the result is exactly uniform.
  std::uint64_t NextBelow(std::uint64_t bound);

  // Uniform integer in [lo, hi] inclusive.
  std::int64_t NextInt(std::int64_t lo, std::int64_t hi);

  // Uniform double in [0, 1) with 53 bits of precision.
  double NextDouble();

  // Uniform double in [lo, hi).
  double NextDouble(double lo, double hi);

  // Standard exponential variate with the given rate (mean 1/rate).
  double NextExponential(double rate);

  // true with probability p (clamped to [0, 1]).
  bool NextBernoulli(double p);

  // Fisher–Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(NextBelow(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

 private:
  std::uint64_t s_[4];
};

}  // namespace webwave
