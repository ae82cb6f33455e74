// Zipf-distributed document popularity.
//
// The paper's motivation is "hot published documents": web popularity is
// heavy-tailed, and the per-document experiments (§5.2) need a small number
// of hot documents dominating demand.  ZipfDistribution samples rank k in
// 1..n with probability proportional to 1/k^s.
#pragma once

#include <vector>

#include "util/rng.h"

namespace webwave {

class ZipfDistribution {
 public:
  // n items, exponent s >= 0 (s = 0 is uniform).
  ZipfDistribution(int n, double s);

  int size() const { return static_cast<int>(pmf_.size()); }
  double exponent() const { return s_; }

  // Probability of rank k (0-based).
  double pmf(int k) const;

  // Samples a 0-based rank via inverse-CDF binary search.
  int Sample(Rng& rng) const;

 private:
  double s_;
  std::vector<double> pmf_;
  std::vector<double> cdf_;
};

}  // namespace webwave
