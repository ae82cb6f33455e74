// Unit tests for summaries, regression fits and the Zipf sampler.
#include "stats/fit.h"
#include "stats/summary.h"
#include "stats/zipf.h"
#include "util/rng.h"

#include <gtest/gtest.h>

#include <cmath>

namespace webwave {
namespace {

TEST(Summary, BasicMoments) {
  const Summary s = Summarize({1, 2, 3, 4});
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_NEAR(s.variance, 5.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min, 1);
  EXPECT_DOUBLE_EQ(s.max, 4);
}

TEST(Summary, EmptyAndSingleton) {
  EXPECT_EQ(Summarize({}).count, 0u);
  const Summary s = Summarize({7});
  EXPECT_DOUBLE_EQ(s.mean, 7);
  EXPECT_DOUBLE_EQ(s.variance, 0);
}

TEST(Summary, Quantiles) {
  std::vector<double> v = {5, 1, 3, 2, 4};
  EXPECT_DOUBLE_EQ(Quantile(v, 0), 1);
  EXPECT_DOUBLE_EQ(Quantile(v, 1), 5);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.5), 3);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.25), 2);
}

TEST(Summary, Distances) {
  EXPECT_DOUBLE_EQ(EuclideanDistance({0, 0}, {3, 4}), 5);
}

TEST(Summary, FairnessIndices) {
  EXPECT_DOUBLE_EQ(JainFairness({4, 4, 4, 4}), 1.0);
  EXPECT_NEAR(JainFairness({1, 0, 0, 0}), 0.25, 1e-12);
  EXPECT_DOUBLE_EQ(CoefficientOfVariation({2, 2, 2}), 0);
}

TEST(LinearFitTest, ExactLine) {
  const LinearFit f = FitLinear({0, 1, 2, 3}, {1, 3, 5, 7});
  EXPECT_NEAR(f.slope, 2, 1e-12);
  EXPECT_NEAR(f.intercept, 1, 1e-12);
  EXPECT_NEAR(f.r_squared, 1, 1e-12);
}

TEST(ExponentialFitTest, RecoversExactDecay) {
  // y = 3 · 0.85^t, no noise: both parameters must come back tight.
  std::vector<double> y;
  for (int t = 0; t < 40; ++t) y.push_back(3.0 * std::pow(0.85, t));
  const ExponentialFit fit = FitExponential(y);
  EXPECT_NEAR(fit.gamma, 0.85, 1e-6);
  EXPECT_NEAR(fit.a, 3.0, 1e-5);
  EXPECT_LT(fit.rss, 1e-10);
}

TEST(ExponentialFitTest, RecoversUnderNoise) {
  Rng rng(17);
  std::vector<double> y;
  for (int t = 0; t < 60; ++t)
    y.push_back(10.0 * std::pow(0.9, t) * (1.0 + 0.05 * (rng.NextDouble() - 0.5)));
  const ExponentialFit fit = FitExponential(y);
  EXPECT_NEAR(fit.gamma, 0.9, 0.01);
  EXPECT_GT(fit.stderr_gamma, 0);
  EXPECT_LT(fit.stderr_gamma, 0.05) << "SE should be small for 60 points";
}

TEST(ExponentialFitTest, ToleratesZeroTail) {
  // Trajectories that hit exactly zero (converged runs) must still fit.
  std::vector<double> y;
  for (int t = 0; t < 20; ++t) y.push_back(5.0 * std::pow(0.5, t));
  for (int t = 0; t < 10; ++t) y.push_back(0.0);
  const ExponentialFit fit = FitExponential(y);
  EXPECT_NEAR(fit.gamma, 0.5, 0.05);
}

TEST(ExponentialFitTest, RejectsTooFewPoints) {
  EXPECT_THROW(FitExponential({1.0, 0.5}), std::invalid_argument);
}

class ZipfTest : public ::testing::TestWithParam<double> {};

TEST_P(ZipfTest, PmfRatiosMatchPowerLaw) {
  const double s = GetParam();
  const ZipfDistribution zipf(100, s);
  // p(k) / p(2k) should equal 2^s for a power law.
  for (const int k : {1, 5, 20}) {
    const double ratio = zipf.pmf(k - 1) / zipf.pmf(2 * k - 1);
    EXPECT_NEAR(ratio, std::pow(2.0, s), 1e-9) << "k=" << k;
  }
  double total = 0;
  for (int k = 0; k < zipf.size(); ++k) total += zipf.pmf(k);
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST_P(ZipfTest, SampleFrequenciesTrackPmf) {
  const double s = GetParam();
  const ZipfDistribution zipf(20, s);
  Rng rng(123);
  std::vector<int> counts(20, 0);
  const int kSamples = 200000;
  for (int i = 0; i < kSamples; ++i) ++counts[zipf.Sample(rng)];
  for (int k = 0; k < 5; ++k) {
    const double expected = zipf.pmf(k) * kSamples;
    EXPECT_NEAR(counts[k], expected, 5 * std::sqrt(expected) + 5)
        << "rank " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Exponents, ZipfTest,
                         ::testing::Values(0.0, 0.8, 1.0, 1.5));

TEST(RngTest, DeterministicAndDistinctStreams) {
  Rng a(5), b(5), c(6);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RngTest, UniformMomentsSane) {
  Rng rng(11);
  double sum = 0;
  const int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) sum += rng.NextDouble();
  EXPECT_NEAR(sum / kSamples, 0.5, 0.01);
}

TEST(RngTest, ExponentialMeanMatches) {
  Rng rng(29);
  double sum = 0;
  const int kSamples = 50000;
  for (int i = 0; i < kSamples; ++i) sum += rng.NextExponential(2.0);
  EXPECT_NEAR(sum / kSamples, 0.5, 0.02);
}

TEST(RngTest, BoundsRespected) {
  Rng rng(31);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(7), 7u);
    const auto v = rng.NextInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
}

}  // namespace
}  // namespace webwave
