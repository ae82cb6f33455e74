#include "stats/summary.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace webwave {

Summary Summarize(const std::vector<double>& values) {
  Summary s;
  s.count = values.size();
  if (values.empty()) return s;
  s.min = values[0];
  s.max = values[0];
  double sum = 0;
  for (const double v : values) {
    sum += v;
    s.min = std::min(s.min, v);
    s.max = std::max(s.max, v);
  }
  s.mean = sum / static_cast<double>(s.count);
  if (s.count >= 2) {
    double ss = 0;
    for (const double v : values) ss += (v - s.mean) * (v - s.mean);
    s.variance = ss / static_cast<double>(s.count - 1);
    s.stddev = std::sqrt(s.variance);
  }
  return s;
}

double Quantile(std::vector<double> values, double p) {
  WEBWAVE_REQUIRE(!values.empty(), "quantile of empty sample");
  WEBWAVE_REQUIRE(p >= 0 && p <= 1, "quantile p must be in [0,1]");
  std::sort(values.begin(), values.end());
  const double idx = p * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return values[lo] * (1 - frac) + values[hi] * frac;
}

double EuclideanDistance(const std::vector<double>& a,
                         const std::vector<double>& b) {
  WEBWAVE_REQUIRE(a.size() == b.size(), "vector sizes differ");
  double ss = 0;
  for (std::size_t i = 0; i < a.size(); ++i) ss += (a[i] - b[i]) * (a[i] - b[i]);
  return std::sqrt(ss);
}

double CoefficientOfVariation(const std::vector<double>& values) {
  const Summary s = Summarize(values);
  return s.mean != 0 ? s.stddev / s.mean : 0;
}

double JainFairness(const std::vector<double>& values) {
  WEBWAVE_REQUIRE(!values.empty(), "fairness of empty sample");
  double sum = 0;
  double sum_sq = 0;
  for (const double v : values) {
    sum += v;
    sum_sq += v * v;
  }
  if (sum_sq == 0) return 1.0;  // all-zero load is trivially uniform
  return sum * sum / (static_cast<double>(values.size()) * sum_sq);
}

}  // namespace webwave
