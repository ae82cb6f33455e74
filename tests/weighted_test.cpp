// Tests for the capacity-weighted generalization (the paper assumes
// uniform capacity; §5.1 flags that as a simplifying assumption).
#include "core/load_model.h"
#include "core/tlb.h"
#include "core/webfold.h"
#include "core/webwave_batch.h"
#include "tree/builders.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace webwave {
namespace {

// Weighted brute-force oracle: enumerate all edge-cut fold partitions,
// assign L_v = c_v * (fold E / fold C), keep feasible ones, minimize the
// sorted-descending *utilization* vector lexicographically.
std::vector<double> BruteForceWeighted(const RoutingTree& tree,
                                       const std::vector<double>& spont,
                                       const std::vector<double>& cap) {
  const int n = tree.size();
  std::vector<NodeId> edge_child;
  for (NodeId v = 0; v < n; ++v)
    if (!tree.is_root(v)) edge_child.push_back(v);
  std::vector<double> best;
  std::vector<double> best_util;
  std::vector<double> load(static_cast<std::size_t>(n));
  for (std::uint64_t mask = 0; mask < (1ULL << (n - 1)); ++mask) {
    std::vector<NodeId> fold_root(static_cast<std::size_t>(n));
    std::vector<double> fr(static_cast<std::size_t>(n), 0), fc(static_cast<std::size_t>(n), 0);
    std::vector<bool> cut(static_cast<std::size_t>(n), false);
    cut[static_cast<std::size_t>(tree.root())] = true;
    for (int b = 0; b < n - 1; ++b)
      if (mask & (1ULL << b)) cut[static_cast<std::size_t>(edge_child[static_cast<std::size_t>(b)])] = true;
    for (const NodeId v : tree.preorder()) {
      fold_root[static_cast<std::size_t>(v)] =
          cut[static_cast<std::size_t>(v)] ? v : fold_root[static_cast<std::size_t>(tree.parent(v))];
      const NodeId r = fold_root[static_cast<std::size_t>(v)];
      fr[static_cast<std::size_t>(r)] += spont[static_cast<std::size_t>(v)];
      fc[static_cast<std::size_t>(r)] += cap[static_cast<std::size_t>(v)];
    }
    std::vector<double> util(static_cast<std::size_t>(n));
    for (const NodeId v : tree.preorder()) {
      const NodeId r = fold_root[static_cast<std::size_t>(v)];
      const double density = fr[static_cast<std::size_t>(r)] / fc[static_cast<std::size_t>(r)];
      load[static_cast<std::size_t>(v)] = cap[static_cast<std::size_t>(v)] * density;
      util[static_cast<std::size_t>(v)] = density;
    }
    if (!CheckFeasible(tree, spont, load, 1e-9).ok()) continue;
    std::sort(util.rbegin(), util.rend());
    if (best.empty() ||
        std::lexicographical_compare(util.begin(), util.end(),
                                     best_util.begin(), best_util.end())) {
      best = load;
      best_util = util;
    }
  }
  return best;
}

TEST(WeightedWebFold, UnitCapacitiesReduceToPlainWebFold) {
  Rng rng(3);
  for (int round = 0; round < 10; ++round) {
    const int n = 3 + static_cast<int>(rng.NextBelow(20));
    const RoutingTree tree = MakeRandomTree(n, rng);
    std::vector<double> spont(static_cast<std::size_t>(n));
    for (auto& e : spont) e = rng.NextDouble(0, 30);
    const WebFoldResult plain = WebFold(tree, spont);
    const WebFoldResult weighted = WebFoldWeighted(
        tree, spont, std::vector<double>(static_cast<std::size_t>(n), 1.0));
    for (NodeId v = 0; v < n; ++v)
      EXPECT_NEAR(plain.load[v], weighted.load[v], 1e-12);
  }
}

TEST(WeightedWebFold, CapacityScalingLeavesLoadsInvariant) {
  // Doubling every capacity halves densities but leaves loads unchanged.
  Rng rng(5);
  const RoutingTree tree = MakeRandomTree(15, rng);
  std::vector<double> spont(15), cap(15);
  for (auto& e : spont) e = rng.NextDouble(0, 30);
  for (auto& c : cap) c = rng.NextDouble(0.5, 4);
  std::vector<double> cap2(cap);
  for (auto& c : cap2) c *= 2;
  const WebFoldResult a = WebFoldWeighted(tree, spont, cap);
  const WebFoldResult b = WebFoldWeighted(tree, spont, cap2);
  for (NodeId v = 0; v < 15; ++v)
    EXPECT_NEAR(a.load[v], b.load[v], 1e-9);
}

TEST(WeightedWebFold, BigChildAbsorbsProportionally) {
  // Chain root(c=1) <- leaf(c=3), all demand at the leaf: one fold of
  // density 10, loads (10, 30).
  const RoutingTree tree = MakeChain(2);
  const WebFoldResult r = WebFoldWeighted(tree, {0, 40}, {1, 3});
  EXPECT_NEAR(r.load[0], 10, 1e-9);
  EXPECT_NEAR(r.load[1], 30, 1e-9);
  ASSERT_EQ(r.folds.size(), 1u);
  EXPECT_NEAR(r.folds[0].per_node, 10, 1e-9);
  EXPECT_NEAR(r.folds[0].capacity_sum, 4, 1e-9);
  EXPECT_TRUE(CheckFeasible(tree, {0, 40}, r.load).ok());
}

class WeightedOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WeightedOracle, MatchesBruteForceOnRandomInstances) {
  Rng rng(GetParam());
  for (int round = 0; round < 15; ++round) {
    const int n = 2 + static_cast<int>(rng.NextBelow(9));
    const RoutingTree tree = MakeRandomTree(n, rng);
    std::vector<double> spont(static_cast<std::size_t>(n)),
        cap(static_cast<std::size_t>(n));
    for (auto& e : spont) e = rng.NextDouble(0, 20);
    for (auto& c : cap) c = rng.NextDouble(0.25, 4);
    const WebFoldResult fast = WebFoldWeighted(tree, spont, cap);
    const std::vector<double> slow = BruteForceWeighted(tree, spont, cap);
    for (NodeId v = 0; v < n; ++v)
      EXPECT_NEAR(fast.load[v], slow[v], 1e-6)
          << "n=" << n << " round=" << round << " node=" << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WeightedOracle,
                         ::testing::Values(7, 8, 9, 10));

TEST(WeightedWebWave, ConvergesToWeightedTlb) {
  Rng rng(11);
  const RoutingTree tree = MakeKaryTree(2, 3);
  std::vector<double> spont(static_cast<std::size_t>(tree.size()), 0.0);
  std::vector<double> cap(static_cast<std::size_t>(tree.size()), 1.0);
  for (NodeId v = 0; v < tree.size(); ++v) {
    if (tree.is_leaf(v)) spont[static_cast<std::size_t>(v)] = rng.NextDouble(10, 60);
    cap[static_cast<std::size_t>(v)] = rng.NextDouble(0.5, 3.0);
  }
  const WebFoldResult target = WebFoldWeighted(tree, spont, cap);
  WebWaveOptions opt;
  opt.capacities = cap;
  BatchWebWaveSimulator sim(tree, {spont}, opt);
  const auto traj = sim.RunUntil(0, target.load, 1e-6, 60000);
  EXPECT_LE(traj.back(), 1e-6)
      << "weighted protocol must reach the weighted TLB";
  sim.CheckInvariants();
}

TEST(WeightedWebWave, RejectsBadCapacities) {
  const RoutingTree tree = MakeChain(3);
  WebWaveOptions opt;
  opt.capacities = {1, 2};  // wrong size
  EXPECT_THROW(BatchWebWaveSimulator(tree, {{1, 1, 1}}, opt),
               std::invalid_argument);
  opt.capacities = {1, 0, 1};  // zero capacity
  EXPECT_THROW(BatchWebWaveSimulator(tree, {{1, 1, 1}}, opt),
               std::invalid_argument);
}

TEST(WeightedWebWave, UniformCapacitiesBehaveExactlyAsDefault) {
  Rng rng(13);
  const RoutingTree tree = MakeRandomTree(20, rng);
  std::vector<double> spont(20);
  for (auto& e : spont) e = rng.NextDouble(0, 10);
  WebWaveOptions with_caps;
  with_caps.capacities.assign(20, 1.0);
  BatchWebWaveSimulator a(tree, {spont}, with_caps);
  BatchWebWaveSimulator b(tree, {spont}, WebWaveOptions{});
  for (int s = 0; s < 50; ++s) {
    a.Step();
    b.Step();
  }
  const std::vector<double> served_a = a.ServedLane(0);
  const std::vector<double> served_b = b.ServedLane(0);
  for (NodeId v = 0; v < 20; ++v)
    EXPECT_NEAR(served_a[v], served_b[v], 1e-12);
}

}  // namespace
}  // namespace webwave
