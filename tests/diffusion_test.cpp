// Unit tests for the §2 diffusion method: matrix construction, spectral γ
// against closed-form eigenvalues, and Cybenko's convergence bound.
#include "core/diffusion.h"
#include "stats/fit.h"
#include "tree/builders.h"
#include "util/rng.h"

#include <gtest/gtest.h>

#include <cmath>

namespace webwave {
namespace {

constexpr double kPi = 3.14159265358979323846;

TEST(Graphs, RingShape) {
  const UndirectedGraph g = MakeRingGraph(6);
  EXPECT_EQ(g.size(), 6);
  EXPECT_EQ(g.edge_count(), 6);
  for (int v = 0; v < 6; ++v) EXPECT_EQ(g.degree(v), 2);
  EXPECT_TRUE(g.IsConnected());
}

TEST(Graphs, HypercubeShape) {
  const UndirectedGraph g = MakeHypercubeGraph(4);
  EXPECT_EQ(g.size(), 16);
  EXPECT_EQ(g.edge_count(), 32);  // n * d / 2
  for (int v = 0; v < 16; ++v) EXPECT_EQ(g.degree(v), 4);
  EXPECT_TRUE(g.IsConnected());
}

TEST(Graphs, KAryNCubeMatchesKnownShapes) {
  // 2-ary n-cube is the hypercube.
  const UndirectedGraph h = MakeKAryNCubeGraph(2, 3);
  EXPECT_EQ(h.size(), 8);
  EXPECT_EQ(h.edge_count(), 12);
  for (int v = 0; v < 8; ++v) EXPECT_EQ(h.degree(v), 3);
  // k-ary 1-cube is the ring.
  const UndirectedGraph r = MakeKAryNCubeGraph(5, 1);
  EXPECT_EQ(r.size(), 5);
  EXPECT_EQ(r.edge_count(), 5);
  // 4-ary 2-cube: 16 nodes, degree 4 (two wrap dimensions).
  const UndirectedGraph t = MakeKAryNCubeGraph(4, 2);
  EXPECT_EQ(t.size(), 16);
  for (int v = 0; v < 16; ++v) EXPECT_EQ(t.degree(v), 4) << "node " << v;
  EXPECT_TRUE(t.IsConnected());
}

TEST(Graphs, TorusMatchesKAryNCube) {
  const UndirectedGraph a = MakeTorusGraph(4, 4);
  const UndirectedGraph b = MakeKAryNCubeGraph(4, 2);
  EXPECT_EQ(a.size(), b.size());
  EXPECT_EQ(a.edge_count(), b.edge_count());
}

TEST(DiffusionMatrixTest, RowsSumToOneAndSymmetric) {
  const UndirectedGraph g = MakeRingGraph(8);
  const SparseDiffusionMatrix d = SparseDiffusionMatrix::Uniform(g, 0.3);
  for (int i = 0; i < 8; ++i) {
    double row = 0;
    for (int j = 0; j < 8; ++j) {
      row += d.at(i, j);
      EXPECT_DOUBLE_EQ(d.at(i, j), d.at(j, i));
    }
    EXPECT_NEAR(row, 1.0, 1e-12);
  }
}

TEST(DiffusionMatrixTest, RejectsUnstableAlpha) {
  const UndirectedGraph g = MakeRingGraph(5);
  EXPECT_THROW(SparseDiffusionMatrix::Uniform(g, 0.6), std::invalid_argument);
  EXPECT_NO_THROW(SparseDiffusionMatrix::Uniform(g, 0.49));
}

TEST(SpectralGamma, MatchesClosedFormOnRing) {
  // Ring eigenvalues: 1 − 2α(1 − cos(2πk/n)).
  const int n = 12;
  const double alpha = 0.3;
  const UndirectedGraph g = MakeRingGraph(n);
  const SparseDiffusionMatrix d = SparseDiffusionMatrix::Uniform(g, alpha);
  double expected = 0;
  for (int k = 1; k < n; ++k) {
    const double lambda =
        1.0 - 2.0 * alpha * (1.0 - std::cos(2.0 * kPi * k / n));
    expected = std::max(expected, std::abs(lambda));
  }
  EXPECT_NEAR(d.SpectralGamma(), expected, 1e-6);
}

TEST(SpectralGamma, MatchesClosedFormOnHypercube) {
  // Hypercube with α = 1/(d+1): γ = (d−1)/(d+1).
  for (const int dim : {2, 3, 4}) {
    const UndirectedGraph g = MakeHypercubeGraph(dim);
    const SparseDiffusionMatrix d =
        SparseDiffusionMatrix::Uniform(g, 1.0 / (dim + 1));
    EXPECT_NEAR(d.SpectralGamma(),
                static_cast<double>(dim - 1) / (dim + 1), 1e-6)
        << "dim=" << dim;
  }
}

TEST(SpectralGamma, CompleteGraphWithAlphaOverNIsExact) {
  // Complete graph, α = 1/n: D = J/n, converges in one step (γ = 0).
  const int n = 6;
  const UndirectedGraph g = MakeCompleteGraph(n);
  const SparseDiffusionMatrix d = SparseDiffusionMatrix::Uniform(g, 1.0 / n);
  EXPECT_NEAR(d.SpectralGamma(), 0.0, 1e-6);
}

TEST(Diffusion, ConvergesToUniformAndCybenkoBoundHolds) {
  Rng rng(3);
  for (const auto* name : {"ring", "torus", "hypercube", "tree"}) {
    UndirectedGraph g = [&]() -> UndirectedGraph {
      if (std::string(name) == "ring") return MakeRingGraph(10);
      if (std::string(name) == "torus") return MakeTorusGraph(4, 3);
      if (std::string(name) == "hypercube") return MakeHypercubeGraph(3);
      Rng tree_rng(9);
      return GraphFromTree(MakeRandomTree(12, tree_rng));
    }();
    const SparseDiffusionMatrix d = SparseDiffusionMatrix::DegreeBased(g);
    std::vector<double> x(static_cast<std::size_t>(g.size()));
    for (auto& v : x) v = rng.NextDouble(0, 100);
    const DiffusionRun run = RunDiffusion(d, x, 1e-9, 20000);
    EXPECT_TRUE(run.reached_tolerance) << name;
    const double gamma = d.SpectralGamma();
    EXPECT_LT(gamma, 1.0) << name;
    EXPECT_TRUE(CybenkoBoundHolds(run, gamma, 1e-7)) << name;
  }
}

TEST(Diffusion, MeasuredRateMatchesSpectralGamma) {
  // The asymptotic decay rate of ‖x(t) − u‖ equals γ (§2's  y^t bound is
  // tight for generic starting vectors).
  const UndirectedGraph g = MakeRingGraph(16);
  const SparseDiffusionMatrix d = SparseDiffusionMatrix::Uniform(g, 0.25);
  Rng rng(5);
  std::vector<double> x(16);
  for (auto& v : x) v = rng.NextDouble(0, 10);
  const DiffusionRun run = RunDiffusion(d, x, 1e-12, 3000);
  // Measure the tail ratio (after transients die out).
  const auto& ds = run.distances;
  ASSERT_GT(ds.size(), 50u);
  const std::size_t t0 = ds.size() / 2;
  const double measured = std::pow(ds[t0 + 20] / ds[t0], 1.0 / 20.0);
  EXPECT_NEAR(measured, d.SpectralGamma(), 0.01);
}

TEST(OptimalAlpha, BeatsNeighboringAlphasOnKAryNCube) {
  for (const auto& [k, n] : std::vector<std::pair<int, int>>{{4, 2}, {3, 2}, {5, 1}}) {
    const UndirectedGraph g = MakeKAryNCubeGraph(k, n);
    const double a_star = OptimalAlphaKAryNCube(k, n);
    const SparseDiffusionMatrix best =
        SparseDiffusionMatrix::Uniform(g, a_star);
    const double gamma_star = best.SpectralGamma();
    for (const double delta : {-0.05, 0.05}) {
      const double a = a_star + delta;
      if (a <= 0 || a * g.MaxDegree() >= 1) continue;
      const SparseDiffusionMatrix other =
          SparseDiffusionMatrix::Uniform(g, a);
      EXPECT_LE(gamma_star, other.SpectralGamma() + 1e-9)
          << "k=" << k << " n=" << n << " delta=" << delta;
    }
  }
}

TEST(Diffusion, GammaGrowsWithRingSize) {
  // Bigger rings mix slower: γ increases with n.
  double prev = 0;
  for (const int n : {4, 8, 16, 32}) {
    const SparseDiffusionMatrix d =
        SparseDiffusionMatrix::Uniform(MakeRingGraph(n), 0.25);
    const double gamma = d.SpectralGamma();
    EXPECT_GT(gamma, prev);
    prev = gamma;
  }
}

class AsyncDiffusionSweep
    : public ::testing::TestWithParam<std::pair<double, int>> {};

TEST_P(AsyncDiffusionSweep, ConvergesUnderPartialAsynchronism) {
  // Bertsekas–Tsitsiklis: bounded delays + connected graph + positive
  // diagonal => convergence.  Sweep activation probability and delay.
  const auto [activation, delay] = GetParam();
  const UndirectedGraph g = MakeTorusGraph(4, 4);
  Rng rng(5);
  std::vector<double> x0(16);
  for (auto& v : x0) v = rng.NextDouble(0, 100);
  AsyncDiffusionOptions opt;
  opt.activation = activation;
  opt.max_delay = delay;
  opt.seed = 11;
  const DiffusionRun run =
      RunAsyncDiffusion(g, 0.2, x0, opt, 1e-6, 100000);
  EXPECT_TRUE(run.reached_tolerance)
      << "activation=" << activation << " delay=" << delay;
  // Conservation is exact: the final vector still sums to the initial
  // total (transfers are edge-atomic).
  double total0 = 0, total1 = 0;
  for (const double v : x0) total0 += v;
  for (const double v : run.final_load) total1 += v;
  EXPECT_NEAR(total1, total0, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    Params, AsyncDiffusionSweep,
    ::testing::Values(std::pair<double, int>{1.0, 0},
                      std::pair<double, int>{0.7, 1},
                      std::pair<double, int>{0.5, 3},
                      std::pair<double, int>{0.25, 5}));

TEST(AsyncDiffusion, SlowerThanSynchronousButSameLimit) {
  const UndirectedGraph g = MakeRingGraph(12);
  Rng rng(7);
  std::vector<double> x0(12);
  for (auto& v : x0) v = rng.NextDouble(0, 50);

  const SparseDiffusionMatrix d = SparseDiffusionMatrix::Uniform(g, 0.3);
  const DiffusionRun sync = RunDiffusion(d, x0, 1e-6, 100000);
  AsyncDiffusionOptions opt;
  opt.activation = 0.4;
  opt.max_delay = 2;
  const DiffusionRun async = RunAsyncDiffusion(g, 0.3, x0, opt, 1e-6, 100000);
  ASSERT_TRUE(sync.reached_tolerance);
  ASSERT_TRUE(async.reached_tolerance);
  EXPECT_GE(async.distances.size(), sync.distances.size())
      << "thinned activation cannot beat the synchronous sweep";
}

TEST(AsyncDiffusion, RejectsBadOptions) {
  const UndirectedGraph g = MakeRingGraph(4);
  AsyncDiffusionOptions opt;
  opt.activation = 0;
  EXPECT_THROW(RunAsyncDiffusion(g, 0.2, {1, 2, 3, 4}, opt, 1e-6, 10),
               std::invalid_argument);
  opt.activation = 0.5;
  opt.max_delay = -1;
  EXPECT_THROW(RunAsyncDiffusion(g, 0.2, {1, 2, 3, 4}, opt, 1e-6, 10),
               std::invalid_argument);
  opt.max_delay = 0;
  EXPECT_THROW(RunAsyncDiffusion(g, 0.9, {1, 2, 3, 4}, opt, 1e-6, 10),
               std::invalid_argument)
      << "alpha * degree >= 1 must be rejected";
}

TEST(Diffusion, PreservesTotalLoad) {
  const UndirectedGraph g = MakeTorusGraph(3, 3);
  const SparseDiffusionMatrix d = SparseDiffusionMatrix::DegreeBased(g);
  std::vector<double> x = {10, 0, 0, 0, 0, 0, 0, 0, 0};
  double total = 10;
  for (int t = 0; t < 50; ++t) {
    x = d.Apply(x);
    double s = 0;
    for (const double v : x) s += v;
    EXPECT_NEAR(s, total, 1e-9);
  }
}

}  // namespace
}  // namespace webwave
