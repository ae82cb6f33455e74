// Property tests for the CSR diffusion engine: SparseDiffusionMatrix must
// agree with the dense reference DiffusionMatrix (tests/diffusion_reference.h)
// — entries, Apply, SpectralGamma and whole diffusion runs — on random
// trees, rings and tori (n <= 200).  The CSR rows keep ascending column
// order, matching the dense row scan, so agreement is expected at full
// double precision, asserted here to 1e-9.
#include "core/diffusion.h"
#include "diffusion_reference.h"
#include "tree/builders.h"
#include "util/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

namespace webwave {
namespace {

std::vector<UndirectedGraph> EquivalenceShapes() {
  std::vector<UndirectedGraph> shapes;
  shapes.push_back(MakeRingGraph(7));
  shapes.push_back(MakeRingGraph(64));
  shapes.push_back(MakeTorusGraph(4, 5));
  shapes.push_back(MakeTorusGraph(10, 10));
  shapes.push_back(MakePathGraph(33));
  shapes.push_back(MakeHypercubeGraph(5));
  for (const std::uint64_t seed : {2u, 3u, 4u}) {
    Rng rng(seed);
    const int n = 20 + static_cast<int>(rng.NextBelow(180));
    shapes.push_back(GraphFromTree(MakeRandomTree(n, rng)));
  }
  return shapes;
}

TEST(SparseDiffusion, EntriesMatchDenseDegreeBased) {
  for (const UndirectedGraph& g : EquivalenceShapes()) {
    const DiffusionMatrix dense = DiffusionMatrix::DegreeBased(g);
    const SparseDiffusionMatrix sparse = SparseDiffusionMatrix::DegreeBased(g);
    ASSERT_EQ(sparse.size(), dense.size());
    EXPECT_EQ(sparse.nonzeros(),
              static_cast<std::size_t>(g.size()) + 2u * g.edge_count());
    for (int i = 0; i < g.size(); ++i)
      for (int j = 0; j < g.size(); ++j)
        EXPECT_EQ(sparse.at(i, j), dense.at(i, j)) << i << "," << j;
  }
}

TEST(SparseDiffusion, EntriesMatchDenseUniform) {
  const UndirectedGraph g = MakeTorusGraph(5, 5);
  const DiffusionMatrix dense = DiffusionMatrix::Uniform(g, 0.2);
  const SparseDiffusionMatrix sparse = SparseDiffusionMatrix::Uniform(g, 0.2);
  for (int i = 0; i < g.size(); ++i)
    for (int j = 0; j < g.size(); ++j)
      EXPECT_EQ(sparse.at(i, j), dense.at(i, j));
}

TEST(SparseDiffusion, RejectsUnstableAlpha) {
  const UndirectedGraph g = MakeRingGraph(5);
  EXPECT_THROW(SparseDiffusionMatrix::Uniform(g, 0.6), std::invalid_argument);
  EXPECT_NO_THROW(SparseDiffusionMatrix::Uniform(g, 0.49));
}

TEST(SparseDiffusion, ApplyMatchesDenseToOneENine) {
  Rng rng(11);
  for (const UndirectedGraph& g : EquivalenceShapes()) {
    const DiffusionMatrix dense = DiffusionMatrix::DegreeBased(g);
    const SparseDiffusionMatrix sparse = SparseDiffusionMatrix::DegreeBased(g);
    std::vector<double> x(static_cast<std::size_t>(g.size()));
    for (auto& v : x) v = rng.NextDouble(0, 1000);
    const std::vector<double> yd = dense.Apply(x);
    const std::vector<double> ys = sparse.Apply(x);
    ASSERT_EQ(yd.size(), ys.size());
    for (std::size_t i = 0; i < yd.size(); ++i)
      EXPECT_NEAR(ys[i], yd[i], 1e-9) << "n=" << g.size() << " i=" << i;
  }
}

TEST(SparseDiffusion, RepeatedApplyStaysWithinToleranceOverLongRuns) {
  // Error must not accumulate across sweeps: iterate both forms 500 times.
  Rng rng(13);
  const UndirectedGraph g = MakeTorusGraph(8, 8);
  const DiffusionMatrix dense = DiffusionMatrix::DegreeBased(g);
  const SparseDiffusionMatrix sparse = SparseDiffusionMatrix::DegreeBased(g);
  std::vector<double> xd(static_cast<std::size_t>(g.size()));
  for (auto& v : xd) v = rng.NextDouble(0, 100);
  std::vector<double> xs = xd;
  for (int t = 0; t < 500; ++t) {
    xd = dense.Apply(xd);
    xs = sparse.Apply(xs);
  }
  for (std::size_t i = 0; i < xd.size(); ++i)
    EXPECT_NEAR(xs[i], xd[i], 1e-9);
}

TEST(SparseDiffusion, SpectralGammaMatchesDenseToOneENine) {
  for (const UndirectedGraph& g : EquivalenceShapes()) {
    const double dense_gamma = DiffusionMatrix::DegreeBased(g).SpectralGamma();
    const double sparse_gamma =
        SparseDiffusionMatrix::DegreeBased(g).SpectralGamma();
    EXPECT_NEAR(sparse_gamma, dense_gamma, 1e-9) << "n=" << g.size();
  }
}

TEST(SparseDiffusion, SpectralGammaMatchesClosedFormOnRing) {
  constexpr double kPi = 3.14159265358979323846;
  const int n = 12;
  const double alpha = 0.3;
  const SparseDiffusionMatrix d =
      SparseDiffusionMatrix::Uniform(MakeRingGraph(n), alpha);
  double expected = 0;
  for (int k = 1; k < n; ++k) {
    const double lambda =
        1.0 - 2.0 * alpha * (1.0 - std::cos(2.0 * kPi * k / n));
    expected = std::max(expected, std::abs(lambda));
  }
  EXPECT_NEAR(d.SpectralGamma(), expected, 1e-6);
}

TEST(SparseDiffusion, RunDiffusionMatchesDensePath) {
  Rng rng(17);
  for (const UndirectedGraph& g : EquivalenceShapes()) {
    std::vector<double> x(static_cast<std::size_t>(g.size()));
    for (auto& v : x) v = rng.NextDouble(0, 50);
    const DiffusionRun dense_run =
        RunDiffusion(DiffusionMatrix::DegreeBased(g), x, 1e-9, 20000);
    const DiffusionRun sparse_run =
        RunDiffusion(SparseDiffusionMatrix::DegreeBased(g), x, 1e-9, 20000);
    EXPECT_EQ(dense_run.reached_tolerance, sparse_run.reached_tolerance);
    ASSERT_EQ(dense_run.distances.size(), sparse_run.distances.size());
    for (std::size_t t = 0; t < dense_run.distances.size(); ++t)
      EXPECT_NEAR(sparse_run.distances[t], dense_run.distances[t], 1e-9);
    for (std::size_t i = 0; i < x.size(); ++i)
      EXPECT_NEAR(sparse_run.final_load[i], dense_run.final_load[i], 1e-9);
  }
}

TEST(SparseDiffusion, CybenkoBoundHoldsWithSparseGamma) {
  Rng rng(19);
  for (const std::uint64_t seed : {23u, 29u, 31u}) {
    Rng tree_rng(seed);
    const UndirectedGraph g =
        GraphFromTree(MakeRandomTree(150, tree_rng));
    const SparseDiffusionMatrix d = SparseDiffusionMatrix::DegreeBased(g);
    std::vector<double> x(static_cast<std::size_t>(g.size()));
    for (auto& v : x) v = rng.NextDouble(0, 100);
    const DiffusionRun run = RunDiffusion(d, x, 1e-9, 300000);
    EXPECT_TRUE(run.reached_tolerance);
    const double gamma = d.SpectralGamma();
    EXPECT_LT(gamma, 1.0);
    EXPECT_TRUE(CybenkoBoundHolds(run, gamma, 1e-7)) << "seed " << seed;
  }
}

TEST(SparseDiffusion, MillionNodeApplyNeverMaterializesDense) {
  // A 2^20-node hypercube-like budget is far beyond dense n² storage; the
  // CSR form applies in O(n + E).  This also exercises the size regime the
  // batched catalog benchmarks run at.
  Rng rng(37);
  const RoutingTree tree = MakeRandomTree(1 << 20, rng);
  const UndirectedGraph g = GraphFromTree(tree);
  const SparseDiffusionMatrix d = SparseDiffusionMatrix::DegreeBased(g);
  EXPECT_EQ(d.nonzeros(),
            static_cast<std::size_t>(g.size()) + 2u * g.edge_count());
  std::vector<double> x(static_cast<std::size_t>(g.size()), 0.0);
  x[0] = 1e6;
  double total = 0;
  const std::vector<double> y = d.Apply(x);
  for (const double v : y) total += v;
  EXPECT_NEAR(total, 1e6, 1e-3);  // doubly stochastic: mass preserved
}

}  // namespace
}  // namespace webwave
