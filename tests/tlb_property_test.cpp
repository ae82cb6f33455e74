// Property tests cross-validating three independent TLB solvers.
//
// WebFold (the paper's algorithm), SolveTlbByMaxMeanRegions (water-filling
// by Dinkelbach/parametric tree DP) and SolveTlbBruteForce (exhaustive
// enumeration of fold partitions) are algorithmically unrelated; their
// agreement over randomized instances is the strongest evidence we have
// that each is correct — and that WebFold is TLB-optimal (Theorem 1).
#include "core/load_model.h"
#include "core/tlb.h"
#include "core/webfold.h"
#include "tree/builders.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

namespace webwave {
namespace {

std::vector<double> RandomRates(int n, Rng& rng, bool integral,
                                double zero_fraction) {
  std::vector<double> rates(static_cast<std::size_t>(n));
  for (auto& r : rates) {
    if (rng.NextBernoulli(zero_fraction)) {
      r = 0;
    } else if (integral) {
      r = static_cast<double>(rng.NextInt(0, 60));
    } else {
      r = rng.NextDouble(0, 50);
    }
  }
  return rates;
}

// Both fields are 64-bit so the struct has no padding: gtest names each
// case after the bytes of its parameter, and padding bytes are garbage.
struct TlbCase {
  std::int64_t nodes;
  std::uint64_t seed;
};

class SmallTreeOracle : public ::testing::TestWithParam<TlbCase> {};

TEST_P(SmallTreeOracle, WebFoldMatchesBruteForceAndRegions) {
  const int n = static_cast<int>(GetParam().nodes);
  const std::uint64_t seed = GetParam().seed;
  Rng rng(seed);
  for (int round = 0; round < 30; ++round) {
    const RoutingTree tree = MakeRandomTree(n, rng);
    const std::vector<double> spont =
        RandomRates(n, rng, /*integral=*/round % 2 == 0,
                    /*zero_fraction=*/round % 3 == 0 ? 0.4 : 0.0);

    const WebFoldResult webfold = WebFold(tree, spont);
    const std::vector<double> brute = SolveTlbBruteForce(tree, spont);
    const std::vector<double> regions = SolveTlbByMaxMeanRegions(tree, spont);

    for (NodeId v = 0; v < n; ++v) {
      EXPECT_NEAR(webfold.load[v], brute[v], 1e-6)
          << "webfold vs brute, n=" << n << " seed=" << seed
          << " round=" << round << " node=" << v;
      EXPECT_NEAR(webfold.load[v], regions[v], 1e-6)
          << "webfold vs regions, n=" << n << " seed=" << seed
          << " round=" << round << " node=" << v;
    }
    EXPECT_TRUE(CheckFeasible(tree, spont, webfold.load, 1e-7).ok());
    EXPECT_TRUE(SatisfiesTlb(tree, spont, webfold.load));
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndSeeds, SmallTreeOracle,
    ::testing::Values(TlbCase{2, 1}, TlbCase{3, 2}, TlbCase{4, 3},
                      TlbCase{5, 4}, TlbCase{6, 5}, TlbCase{7, 6},
                      TlbCase{8, 7}, TlbCase{9, 8}, TlbCase{10, 9},
                      TlbCase{12, 10}));

class LargerTreeAgreement : public ::testing::TestWithParam<TlbCase> {};

TEST_P(LargerTreeAgreement, WebFoldMatchesMaxMeanRegions) {
  const int n = static_cast<int>(GetParam().nodes);
  const std::uint64_t seed = GetParam().seed;
  Rng rng(seed);
  for (int round = 0; round < 8; ++round) {
    const RoutingTree tree =
        round % 2 == 0 ? MakeRandomTree(n, rng) : MakeRandomBinaryTree(n, rng);
    const std::vector<double> spont =
        RandomRates(n, rng, /*integral=*/false, /*zero_fraction=*/0.2);
    const WebFoldResult webfold = WebFold(tree, spont);
    const std::vector<double> regions = SolveTlbByMaxMeanRegions(tree, spont);
    double max_diff = 0;
    for (NodeId v = 0; v < n; ++v)
      max_diff = std::max(max_diff, std::abs(webfold.load[v] - regions[v]));
    EXPECT_LT(max_diff, 1e-6) << "n=" << n << " seed=" << seed;
    EXPECT_TRUE(SatisfiesTlb(tree, spont, webfold.load));
  }
}

INSTANTIATE_TEST_SUITE_P(SizesAndSeeds, LargerTreeAgreement,
                         ::testing::Values(TlbCase{30, 11}, TlbCase{80, 12},
                                           TlbCase{200, 13}, TlbCase{500, 14}));

TEST(TlbProperties, WebFoldIsLexicographicallyMinimalAmongFeasible) {
  // Directly exercise Definition 1: no feasible fold-partition assignment
  // beats WebFold's in the sorted-descending lexicographic order.  (The
  // brute-force solver enumerates them; equality means WebFold wins.)
  Rng rng(99);
  for (int round = 0; round < 40; ++round) {
    const int n = 2 + static_cast<int>(rng.NextBelow(9));
    const RoutingTree tree = MakeRandomTree(n, rng);
    const std::vector<double> spont = RandomRates(n, rng, true, 0.3);
    const WebFoldResult webfold = WebFold(tree, spont);
    const std::vector<double> brute = SolveTlbBruteForce(tree, spont);
    EXPECT_EQ(LexCompareMinimax(webfold.load, brute, 1e-7), 0);
  }
}

TEST(TlbProperties, GleFeasibleImpliesSingleFold) {
  Rng rng(7);
  int gle_cases = 0;
  for (int round = 0; round < 200; ++round) {
    const int n = 2 + static_cast<int>(rng.NextBelow(10));
    const RoutingTree tree = MakeRandomTree(n, rng);
    std::vector<double> spont = RandomRates(n, rng, false, 0.0);
    if (!GleIsFeasible(tree, spont)) continue;
    ++gle_cases;
    const WebFoldResult r = WebFold(tree, spont);
    EXPECT_TRUE(IsUniform(r.load, 1e-6))
        << "when GLE is feasible, TLB must be GLE";
  }
  EXPECT_GT(gle_cases, 5) << "the sweep should hit some GLE-feasible cases";
}

TEST(TlbProperties, MaxLoadNeverBelowGlobalAverage) {
  // The max of any feasible assignment is >= average; TLB attains average
  // exactly when GLE is feasible.
  Rng rng(21);
  for (int round = 0; round < 50; ++round) {
    const int n = 2 + static_cast<int>(rng.NextBelow(40));
    const RoutingTree tree = MakeRandomTree(n, rng);
    const std::vector<double> spont = RandomRates(n, rng, false, 0.1);
    const WebFoldResult r = WebFold(tree, spont);
    const double avg = TotalRate(spont) / n;
    double max_load = 0;
    for (const double l : r.load) max_load = std::max(max_load, l);
    EXPECT_GE(max_load + 1e-9, avg);
  }
}

TEST(TlbProperties, RootFoldCarriesTheMaximumLoad) {
  // By Lemma 1 the root's fold has the maximum per-node load.
  Rng rng(23);
  for (int round = 0; round < 50; ++round) {
    const int n = 2 + static_cast<int>(rng.NextBelow(40));
    const RoutingTree tree = MakeRandomTree(n, rng);
    const std::vector<double> spont = RandomRates(n, rng, false, 0.2);
    const WebFoldResult r = WebFold(tree, spont);
    double max_load = 0;
    for (const double l : r.load) max_load = std::max(max_load, l);
    EXPECT_NEAR(r.load[tree.root()], max_load, 1e-9);
  }
}

TEST(TlbProperties, ScalingRatesScalesAssignmentLinearly) {
  Rng rng(25);
  const RoutingTree tree = MakeRandomTree(40, rng);
  const std::vector<double> spont = RandomRates(40, rng, false, 0.1);
  std::vector<double> doubled(spont);
  for (auto& e : doubled) e *= 2;
  const WebFoldResult a = WebFold(tree, spont);
  const WebFoldResult b = WebFold(tree, doubled);
  for (NodeId v = 0; v < 40; ++v)
    EXPECT_NEAR(b.load[v], 2 * a.load[v], 1e-9);
}

TEST(TlbProperties, SatisfiesTlbRejectsNonOptimalFeasibleAssignments) {
  // The "serve everything at the home server" assignment is feasible but
  // (generically) not balanced; the structural check must reject it.
  Rng rng(27);
  int rejected = 0;
  for (int round = 0; round < 20; ++round) {
    const int n = 3 + static_cast<int>(rng.NextBelow(10));
    const RoutingTree tree = MakeRandomTree(n, rng);
    std::vector<double> spont = RandomRates(n, rng, false, 0.0);
    std::vector<double> all_at_root(static_cast<std::size_t>(n), 0.0);
    all_at_root[tree.root()] = TotalRate(spont);
    ASSERT_TRUE(CheckFeasible(tree, spont, all_at_root).ok());
    if (!SatisfiesTlb(tree, spont, all_at_root)) ++rejected;
  }
  EXPECT_GE(rejected, 18) << "root-serves-all is almost never TLB";
}

}  // namespace
}  // namespace webwave
