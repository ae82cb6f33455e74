#include "stats/zipf.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace webwave {

ZipfDistribution::ZipfDistribution(int n, double s) : s_(s) {
  WEBWAVE_REQUIRE(n >= 1, "Zipf needs at least one item");
  WEBWAVE_REQUIRE(s >= 0, "Zipf exponent must be non-negative");
  pmf_.resize(static_cast<std::size_t>(n));
  double norm = 0;
  for (int k = 0; k < n; ++k) {
    pmf_[static_cast<std::size_t>(k)] = std::pow(static_cast<double>(k + 1), -s);
    norm += pmf_[static_cast<std::size_t>(k)];
  }
  cdf_.resize(static_cast<std::size_t>(n));
  double acc = 0;
  for (int k = 0; k < n; ++k) {
    pmf_[static_cast<std::size_t>(k)] /= norm;
    acc += pmf_[static_cast<std::size_t>(k)];
    cdf_[static_cast<std::size_t>(k)] = acc;
  }
  cdf_.back() = 1.0;  // guard against rounding
}

double ZipfDistribution::pmf(int k) const {
  WEBWAVE_REQUIRE(k >= 0 && k < size(), "rank out of range");
  return pmf_[static_cast<std::size_t>(k)];
}

int ZipfDistribution::Sample(Rng& rng) const {
  const double u = rng.NextDouble();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<int>(it - cdf_.begin());
}

}  // namespace webwave
