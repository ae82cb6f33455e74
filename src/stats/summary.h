// Descriptive statistics used by benches and tests.
#pragma once

#include <vector>

namespace webwave {

struct Summary {
  std::size_t count = 0;
  double mean = 0;
  double variance = 0;  // sample variance (n-1 denominator; 0 when n < 2)
  double stddev = 0;
  double min = 0;
  double max = 0;
};

Summary Summarize(const std::vector<double>& values);

// p in [0,1]; linear interpolation between order statistics.
double Quantile(std::vector<double> values, double p);

// Euclidean (L2) distance between two equally sized vectors.  This is the
// metric the paper uses to measure WebWave's convergence to TLB (§5.1).
double EuclideanDistance(const std::vector<double>& a,
                         const std::vector<double>& b);

// Coefficient of variation of a load vector (stddev/mean) — a standard
// imbalance measure used in the scalability benches.
double CoefficientOfVariation(const std::vector<double>& values);

// Jain's fairness index: (Σx)² / (n·Σx²); equals 1 for perfectly uniform
// load and 1/n for a single hot node.
double JainFairness(const std::vector<double>& values);

}  // namespace webwave
