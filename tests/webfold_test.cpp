// Unit tests for WebFold, the load model, and the paper's hand examples.
//
// Figure 2 and Figure 4 of the paper are reproduced as concrete trees here
// (rates reconstructed to exhibit exactly the phenomena the figures show:
// (a) a TLB assignment that is GLE, (b) one that is not, and a multi-step
// folding cascade).
#include "core/load_model.h"
#include "core/tlb.h"
#include "core/webfold.h"
#include "tree/builders.h"
#include "util/rng.h"
#include "webfold_reference.h"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>

namespace webwave {
namespace {

// The 5-node tree used by Figure 2:   0 <- {1, 2},  1 <- {3, 4}.
RoutingTree Fig2Tree() {
  return RoutingTree::FromParents({kNoNode, 0, 0, 1, 1});
}

TEST(LoadModel, ForwardedRatesFollowFlowConservation) {
  const RoutingTree t = Fig2Tree();
  const std::vector<double> spont = {0, 5, 10, 25, 10};
  const std::vector<double> served = {10, 10, 10, 10, 10};
  const auto a = ForwardedRates(t, spont, served);
  EXPECT_DOUBLE_EQ(a[3], 15);  // leaf: E - L
  EXPECT_DOUBLE_EQ(a[4], 0);
  EXPECT_DOUBLE_EQ(a[1], 5 + 15 + 0 - 10);
  EXPECT_DOUBLE_EQ(a[2], 0);
  EXPECT_DOUBLE_EQ(a[0], 0 + 10 + 0 - 10);
}

TEST(LoadModel, FeasibilityReportFlagsEachConstraint) {
  const RoutingTree t = Fig2Tree();
  const std::vector<double> spont = {0, 5, 10, 25, 10};
  // Serving more than arrives at node 2 violates NSS (A_2 < 0).
  EXPECT_FALSE(CheckFeasible(t, spont, {10, 10, 11, 10, 9}).nss);
  // Negative served rate.
  EXPECT_FALSE(
      CheckFeasible(t, spont, {20, 10, -1, 11, 10}).served_nonnegative);
  // Total served != total spontaneous -> the root keeps forwarding.
  EXPECT_FALSE(CheckFeasible(t, spont, {1, 1, 1, 1, 1}).root_forwards_nothing);
  // The GLE assignment is feasible on this instance.
  EXPECT_TRUE(CheckFeasible(t, spont, {10, 10, 10, 10, 10}).ok());
}

TEST(Figure2a, TlbEqualsGleWhenFeasible) {
  const RoutingTree t = Fig2Tree();
  const std::vector<double> spont = {0, 5, 10, 25, 10};  // total 50
  ASSERT_TRUE(GleIsFeasible(t, spont));
  const WebFoldResult r = WebFold(t, spont);
  for (NodeId v = 0; v < t.size(); ++v)
    EXPECT_NEAR(r.load[v], 10.0, 1e-9) << "node " << v;
  EXPECT_TRUE(IsUniform(r.load, 1e-9));
  // Folding stops at equality (strict foldability), so equal-load folds may
  // stay separate — but every fold must carry the GLE per-node load.
  for (const Fold& fold : r.folds) EXPECT_NEAR(fold.per_node, 10.0, 1e-9);
  EXPECT_TRUE(SatisfiesTlb(t, spont, r.load));
}

TEST(Figure2b, TlbDiffersFromGleUnderNss) {
  const RoutingTree t = Fig2Tree();
  const std::vector<double> spont = {0, 40, 10, 0, 0};  // total 50
  ASSERT_FALSE(GleIsFeasible(t, spont))
      << "leaf 3 cannot absorb the uniform share";
  const WebFoldResult r = WebFold(t, spont);
  EXPECT_NEAR(r.load[0], 20, 1e-9);
  EXPECT_NEAR(r.load[1], 20, 1e-9);
  EXPECT_NEAR(r.load[2], 10, 1e-9);
  EXPECT_NEAR(r.load[3], 0, 1e-9);
  EXPECT_NEAR(r.load[4], 0, 1e-9);
  EXPECT_FALSE(IsUniform(r.load, 1e-9));
  EXPECT_TRUE(SatisfiesTlb(t, spont, r.load));
  EXPECT_TRUE(CheckFeasible(t, spont, r.load).ok());
}

// Figure 4: a folding cascade.  Tree:
//   0 <- {1, 2}; 1 <- {3, 4}; 2 <- {5}; 3 <- {6}; 5 <- {7}
// Rates force four folds in sequence: 6 into 3, 4 into 1, {3,6} into
// {1,4}, and the merged fold into the root.
TEST(Figure4, FoldingSequenceAndFinalFolds) {
  const RoutingTree t =
      RoutingTree::FromParents({kNoNode, 0, 0, 1, 1, 2, 3, 5});
  const std::vector<double> spont = {5, 0, 10, 0, 30, 8, 40, 2};
  const WebFoldResult r = WebFold(t, spont);

  ASSERT_EQ(r.trace.size(), 4u);
  // Max per-node fold first: node 6 (40) into node 3 (0).
  EXPECT_EQ(r.trace[0].folded_root, 6);
  EXPECT_EQ(r.trace[0].into_root, 3);
  EXPECT_NEAR(r.trace[0].merged_per_node, 20, 1e-9);
  // Then node 4 (30) into node 1 (0).
  EXPECT_EQ(r.trace[1].folded_root, 4);
  EXPECT_EQ(r.trace[1].into_root, 1);
  EXPECT_NEAR(r.trace[1].merged_per_node, 15, 1e-9);
  // Then fold {3,6} (20) into fold {1,4} (15).
  EXPECT_EQ(r.trace[2].folded_root, 3);
  EXPECT_EQ(r.trace[2].into_root, 1);
  EXPECT_NEAR(r.trace[2].merged_per_node, 17.5, 1e-9);
  // Finally fold {1,3,4,6} (17.5) into the root (5).
  EXPECT_EQ(r.trace[3].folded_root, 1);
  EXPECT_EQ(r.trace[3].into_root, 0);
  EXPECT_NEAR(r.trace[3].merged_per_node, 15, 1e-9);

  // Final folds: {0,1,3,4,6}@15, {2}@10, {5}@8, {7}@2.
  ASSERT_EQ(r.folds.size(), 4u);
  const std::vector<double> expected = {15, 15, 10, 15, 15, 8, 15, 2};
  for (NodeId v = 0; v < t.size(); ++v)
    EXPECT_NEAR(r.load[v], expected[v], 1e-9) << "node " << v;
  EXPECT_TRUE(SatisfiesTlb(t, spont, r.load));
}

TEST(WebFold, SingleNodeServesItsOwnLoad) {
  const RoutingTree t = RoutingTree::FromParents({kNoNode});
  const WebFoldResult r = WebFold(t, {42});
  EXPECT_DOUBLE_EQ(r.load[0], 42);
  EXPECT_EQ(r.folds.size(), 1u);
  EXPECT_TRUE(r.trace.empty());
}

TEST(WebFold, AllLoadAtLeafOfChainSpreadsEvenly) {
  const RoutingTree t = MakeChain(5);
  const WebFoldResult r = WebFold(t, {0, 0, 0, 0, 100});
  for (NodeId v = 0; v < 5; ++v) EXPECT_NEAR(r.load[v], 20, 1e-9);
  EXPECT_EQ(r.folds.size(), 1u);
}

TEST(WebFold, AllLoadAtRootStaysAtRoot) {
  // NSS forbids pushing root load down: everything stays at the root.
  const RoutingTree t = MakeChain(4);
  const WebFoldResult r = WebFold(t, {100, 0, 0, 0});
  EXPECT_NEAR(r.load[0], 100, 1e-9);
  EXPECT_NEAR(r.load[1], 0, 1e-9);
  EXPECT_EQ(r.folds.size(), 4u);
  EXPECT_TRUE(SatisfiesTlb(t, {100, 0, 0, 0}, r.load));
}

TEST(WebFold, CascadingRefoldAcrossGrandparent) {
  // Chain g(0) <- p(10) <- k(6): p folds into g first (avg 5), which makes
  // k foldable into the merged fold — the case that requires re-examining
  // child folds after every merge.
  const RoutingTree t = MakeChain(3);
  const WebFoldResult r = WebFold(t, {0, 10, 6});
  for (NodeId v = 0; v < 3; ++v)
    EXPECT_NEAR(r.load[v], 16.0 / 3.0, 1e-9) << "node " << v;
  EXPECT_EQ(r.folds.size(), 1u);
  ASSERT_EQ(r.trace.size(), 2u);
  EXPECT_EQ(r.trace[0].folded_root, 1);
  EXPECT_EQ(r.trace[1].folded_root, 2);
}

TEST(WebFold, MonotoneNonIncreasingDownTheTree) {
  // Lemma 1 on a concrete bushy instance.
  const RoutingTree t = MakeCaterpillar(4, 3);
  std::vector<double> spont(t.size(), 1.0);
  spont[t.size() - 1] = 50;  // hot leaf at the deep end
  const WebFoldResult r = WebFold(t, spont);
  for (NodeId v = 0; v < t.size(); ++v) {
    if (!t.is_root(v)) {
      EXPECT_GE(r.load[t.parent(v)] + 1e-9, r.load[v]) << "node " << v;
    }
  }
}

TEST(WebFold, NoLoadCrossesFoldBoundaries) {
  // Lemma 2: A = 0 at every fold root.
  const RoutingTree t =
      RoutingTree::FromParents({kNoNode, 0, 0, 1, 1, 2, 3, 5});
  const std::vector<double> spont = {5, 0, 10, 0, 30, 8, 40, 2};
  const WebFoldResult r = WebFold(t, spont);
  const auto a = ForwardedRates(t, spont, r.load);
  for (const Fold& fold : r.folds)
    EXPECT_NEAR(a[fold.root], 0, 1e-9) << "fold root " << fold.root;
}

TEST(WebFold, RejectsNegativeRates) {
  const RoutingTree t = MakeChain(2);
  EXPECT_THROW(WebFold(t, {1, -1}), std::invalid_argument);
  EXPECT_THROW(WebFold(t, {1}), std::invalid_argument);
}

TEST(WebFold, ZeroRatesEverywhere) {
  const RoutingTree t = MakeKaryTree(2, 2);
  const WebFoldResult r = WebFold(t, std::vector<double>(7, 0.0));
  for (NodeId v = 0; v < t.size(); ++v) EXPECT_DOUBLE_EQ(r.load[v], 0);
}

TEST(WebFold, FoldMembersPartitionTheTree) {
  const RoutingTree t = MakeCaterpillar(5, 2);
  std::vector<double> spont(t.size());
  for (NodeId v = 0; v < t.size(); ++v) spont[v] = (v * 7) % 13;
  const WebFoldResult r = WebFold(t, spont);
  std::vector<int> seen(t.size(), 0);
  for (const Fold& f : r.folds) {
    EXPECT_FALSE(f.members.empty());
    double sum = 0;
    for (const NodeId v : f.members) {
      ++seen[v];
      sum += spont[v];
    }
    EXPECT_NEAR(sum, f.rate_sum, 1e-9);
    EXPECT_NEAR(f.per_node, f.rate_sum / f.members.size(), 1e-12);
    // Members form a connected region: every member except the fold root
    // has its parent in the same fold.
    for (const NodeId v : f.members) {
      if (v != f.root) {
        EXPECT_EQ(r.fold_root[t.parent(v)], f.root);
      }
    }
  }
  for (NodeId v = 0; v < t.size(); ++v)
    EXPECT_EQ(seen[v], 1) << "node in exactly one fold";
}

// The flat-array fold bookkeeping against the frozen loop ----------------
//
// tests/webfold_reference.h keeps the folding loop as it was before its
// bookkeeping went flat (child folds read from the tree until a fold
// absorbs another, a heap built in one pass, a vector from representative
// to fold index, a reserved trace).  Every field of the result must be
// bit-identical, on trees whose labels are and are not their preorder,
// with uniform and non-uniform capacities, and with many tied loads (the
// heap's tie-break and the order child folds are re-examined then decide
// the folding sequence).

void ExpectSameFold(const WebFoldResult& got, const WebFoldResult& want) {
  ASSERT_EQ(got.load, want.load);
  ASSERT_EQ(got.fold_root, want.fold_root);
  ASSERT_EQ(got.fold_index, want.fold_index);
  ASSERT_EQ(got.folds.size(), want.folds.size());
  for (std::size_t f = 0; f < want.folds.size(); ++f) {
    ASSERT_EQ(got.folds[f].root, want.folds[f].root) << "fold " << f;
    ASSERT_EQ(got.folds[f].members, want.folds[f].members) << "fold " << f;
    ASSERT_EQ(got.folds[f].rate_sum, want.folds[f].rate_sum) << "fold " << f;
    ASSERT_EQ(got.folds[f].capacity_sum, want.folds[f].capacity_sum)
        << "fold " << f;
    ASSERT_EQ(got.folds[f].per_node, want.folds[f].per_node) << "fold " << f;
  }
  ASSERT_EQ(got.trace.size(), want.trace.size());
  for (std::size_t k = 0; k < want.trace.size(); ++k) {
    const FoldStep& a = got.trace[k];
    const FoldStep& b = want.trace[k];
    ASSERT_EQ(a.folded_root, b.folded_root) << "step " << k;
    ASSERT_EQ(a.into_root, b.into_root) << "step " << k;
    ASSERT_EQ(a.folded_per_node, b.folded_per_node) << "step " << k;
    ASSERT_EQ(a.into_per_node, b.into_per_node) << "step " << k;
    ASSERT_EQ(a.merged_per_node, b.merged_per_node) << "step " << k;
    ASSERT_EQ(a.merged_size, b.merged_size) << "step " << k;
  }
}

// A random tree relabelled by a random permutation, so node ids follow
// neither preorder nor depth.
RoutingTree ShuffledTree(int n, Rng& rng) {
  const RoutingTree tree = MakeRandomTree(n, rng);
  std::vector<NodeId> label(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) label[static_cast<std::size_t>(v)] = v;
  rng.Shuffle(label);
  std::vector<NodeId> parents(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v)
    parents[static_cast<std::size_t>(label[static_cast<std::size_t>(v)])] =
        tree.is_root(v) ? kNoNode
                        : label[static_cast<std::size_t>(tree.parent(v))];
  return RoutingTree::FromParents(std::move(parents));
}

TEST(WebFold, FlatArraysMatchTheFrozenLoopBitForBit) {
  for (const std::uint64_t seed : {11u, 12u, 13u, 14u}) {
    Rng rng(seed);
    std::vector<std::pair<const char*, RoutingTree>> trees;
    trees.emplace_back("random", MakeRandomTree(700, rng));
    trees.emplace_back("shuffled", ShuffledTree(900, rng));
    trees.emplace_back("binary", MakeRandomBinaryTree(511, rng));
    trees.emplace_back("chain", MakeChain(60));
    trees.emplace_back("star", MakeStar(80));
    trees.emplace_back("caterpillar", MakeCaterpillar(30, 3));
    for (const auto& [name, tree] : trees) {
      const std::size_t n = static_cast<std::size_t>(tree.size());
      // Continuous rates, rates from a three-value set (most folds tie),
      // and a few hot leaves over an all-zero background.
      std::vector<std::vector<double>> rates(3, std::vector<double>(n, 0.0));
      for (std::size_t v = 0; v < n; ++v) {
        rates[0][v] = rng.NextDouble(0.0, 10.0);
        rates[1][v] = static_cast<double>(rng.NextBelow(3));
        if (tree.is_leaf(static_cast<NodeId>(v)) && rng.NextBernoulli(0.1))
          rates[2][v] = 4.0;
      }
      // Uniform capacities, capacities from a two-value set, and
      // continuous ones.
      std::vector<std::vector<double>> caps(3, std::vector<double>(n, 1.0));
      for (std::size_t v = 0; v < n; ++v) {
        caps[1][v] = 1.0 + static_cast<double>(rng.NextBelow(2));
        caps[2][v] = rng.NextDouble(0.5, 3.0);
      }
      for (std::size_t r = 0; r < rates.size(); ++r)
        for (std::size_t c = 0; c < caps.size(); ++c) {
          SCOPED_TRACE(::testing::Message() << name << " seed " << seed
                                            << " rates " << r << " caps " << c);
          ExpectSameFold(WebFoldWeighted(tree, rates[r], caps[c]),
                         webfold_reference::WebFoldWeighted(tree, rates[r],
                                                            caps[c]));
        }
      SCOPED_TRACE(name);
      ExpectSameFold(WebFold(tree, rates[1]),
                     webfold_reference::WebFold(tree, rates[1]));
    }
  }
}

TEST(LexCompare, OrdersBySortedDescendingVectors) {
  EXPECT_EQ(LexCompareMinimax({1, 5}, {5, 1}), 0);
  EXPECT_EQ(LexCompareMinimax({4, 4}, {5, 3}), -1);  // smaller max wins
  EXPECT_EQ(LexCompareMinimax({5, 3}, {5, 2}), 1);   // tie on max, then next
  EXPECT_EQ(LexCompareMinimax({3, 3, 3}, {3, 3, 3}), 0);
}

}  // namespace
}  // namespace webwave
