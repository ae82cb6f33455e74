#include "util/rng.h"

#include <cmath>

#include "util/check.h"

namespace webwave {

namespace {
inline std::uint64_t Rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
  // xoshiro256++ must not be seeded with all-zero state; SplitMix64 of any
  // seed (including 0) avoids that.
  std::uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(sm);
}

std::uint64_t Rng::Next() {
  const std::uint64_t result = Rotl(s_[0] + s_[3], 23) + s_[0];
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::NextBelow(std::uint64_t bound) {
  WEBWAVE_REQUIRE(bound > 0, "NextBelow bound must be positive");
  // Rejection sampling over the largest multiple of bound below 2^64.
  const std::uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    const std::uint64_t r = Next();
    if (r >= threshold) return r % bound;
  }
}

std::int64_t Rng::NextInt(std::int64_t lo, std::int64_t hi) {
  WEBWAVE_REQUIRE(lo <= hi, "NextInt requires lo <= hi");
  const std::uint64_t span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  if (span == 0) return static_cast<std::int64_t>(Next());  // full range
  return lo + static_cast<std::int64_t>(NextBelow(span));
}

double Rng::NextDouble() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double Rng::NextDouble(double lo, double hi) {
  WEBWAVE_REQUIRE(lo <= hi, "NextDouble requires lo <= hi");
  return lo + (hi - lo) * NextDouble();
}

double Rng::NextExponential(double rate) {
  WEBWAVE_REQUIRE(rate > 0, "exponential rate must be positive");
  // Avoid log(0): NextDouble() is in [0,1), so 1 - NextDouble() is in (0,1].
  return -std::log(1.0 - NextDouble()) / rate;
}

bool Rng::NextBernoulli(double p) {
  if (p <= 0) return false;
  if (p >= 1) return true;
  return NextDouble() < p;
}

double CounterNormal(std::uint64_t counter) {
  const double u1 = CounterUnitDouble(counter * 2 + 1);
  const double u2 = CounterUnitDouble(counter * 2 + 2);
  // 1 - u1 keeps the log argument in (0, 1]; u1 is in [0, 1).
  return std::sqrt(-2.0 * std::log(1.0 - u1)) *
         std::cos(6.283185307179586 * u2);
}

std::uint64_t CounterLogNormalBytes(std::uint64_t seed, std::int64_t item,
                                    double median_bytes, double sigma) {
  const double z = CounterNormal(seed * 0x9e3779b97f4a7c15ULL +
                                 static_cast<std::uint64_t>(item));
  const double b = median_bytes * std::exp(sigma * z);
  const long long rounded = std::llround(b);
  return rounded < 1 ? 1 : static_cast<std::uint64_t>(rounded);
}

}  // namespace webwave
