// Unit tests for the RoutingTree substrate and the tree builders.
#include "tree/builders.h"
#include "tree/render.h"
#include "tree/routing_tree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

namespace webwave {
namespace {

TEST(RoutingTree, SingleNode) {
  const RoutingTree t = RoutingTree::FromParents({kNoNode});
  EXPECT_EQ(t.size(), 1);
  EXPECT_EQ(t.root(), 0);
  EXPECT_TRUE(t.is_root(0));
  EXPECT_TRUE(t.is_leaf(0));
  EXPECT_EQ(t.height(), 0);
  EXPECT_EQ(t.subtree_size(0), 1);
}

TEST(RoutingTree, SmallTreeStructure) {
  // 0 <- {1, 2}; 1 <- {3, 4}
  const RoutingTree t = RoutingTree::FromParents({kNoNode, 0, 0, 1, 1});
  EXPECT_EQ(t.root(), 0);
  EXPECT_EQ(t.parent(3), 1);
  EXPECT_EQ(t.children(0), (std::vector<NodeId>{1, 2}));
  EXPECT_EQ(t.children(1), (std::vector<NodeId>{3, 4}));
  EXPECT_TRUE(t.is_leaf(2));
  EXPECT_FALSE(t.is_leaf(1));
  EXPECT_EQ(t.depth(0), 0);
  EXPECT_EQ(t.depth(4), 2);
  EXPECT_EQ(t.height(), 2);
  EXPECT_EQ(t.subtree_size(1), 3);
  EXPECT_EQ(t.subtree_size(0), 5);
  EXPECT_EQ(t.degree(0), 2);
  EXPECT_EQ(t.degree(1), 3);
  EXPECT_EQ(t.degree(3), 1);
}

TEST(RoutingTree, TraversalOrders) {
  const RoutingTree t = RoutingTree::FromParents({kNoNode, 0, 0, 1, 1});
  EXPECT_EQ(t.preorder(), (std::vector<NodeId>{0, 1, 3, 4, 2}));
  // Postorder must place every node after its whole subtree.
  const auto& post = t.postorder();
  std::vector<int> position(5);
  for (int i = 0; i < 5; ++i) position[post[i]] = i;
  for (NodeId v = 1; v < 5; ++v)
    EXPECT_LT(position[v], position[t.parent(v)]) << "node " << v;
}

TEST(RoutingTree, SubtreeAndAncestors) {
  const RoutingTree t = RoutingTree::FromParents({kNoNode, 0, 0, 1, 1, 3});
  EXPECT_EQ(t.subtree(1), (std::vector<NodeId>{1, 3, 5, 4}));
  EXPECT_TRUE(t.is_ancestor(0, 5));
  EXPECT_TRUE(t.is_ancestor(1, 5));
  EXPECT_TRUE(t.is_ancestor(3, 5));
  EXPECT_TRUE(t.is_ancestor(5, 5));
  EXPECT_FALSE(t.is_ancestor(5, 3));
  EXPECT_FALSE(t.is_ancestor(2, 5));
  EXPECT_EQ(t.path_to_root(5), (std::vector<NodeId>{5, 3, 1, 0}));
}

TEST(RoutingTree, RejectsMalformedInputs) {
  EXPECT_THROW(RoutingTree::FromParents({}), std::invalid_argument);
  // No root.
  EXPECT_THROW(RoutingTree::FromParents({1, 0}), std::invalid_argument);
  // Two roots.
  EXPECT_THROW(RoutingTree::FromParents({kNoNode, kNoNode}),
               std::invalid_argument);
  // Self parent.
  EXPECT_THROW(RoutingTree::FromParents({kNoNode, 1}), std::invalid_argument);
  // Out of range parent.
  EXPECT_THROW(RoutingTree::FromParents({kNoNode, 7}), std::invalid_argument);
  // Cycle 1 -> 2 -> 1 disconnected from the root.
  EXPECT_THROW(RoutingTree::FromParents({kNoNode, 2, 1}),
               std::invalid_argument);
}

TEST(Builders, Chain) {
  const RoutingTree t = MakeChain(5);
  EXPECT_EQ(t.size(), 5);
  EXPECT_EQ(t.height(), 4);
  for (NodeId v = 1; v < 5; ++v) EXPECT_EQ(t.parent(v), v - 1);
}

TEST(Builders, Star) {
  const RoutingTree t = MakeStar(6);
  EXPECT_EQ(t.height(), 1);
  for (NodeId v = 1; v < 6; ++v) EXPECT_EQ(t.parent(v), 0);
}

TEST(Builders, KaryTreeSizes) {
  EXPECT_EQ(MakeKaryTree(2, 0).size(), 1);
  EXPECT_EQ(MakeKaryTree(2, 3).size(), 15);
  EXPECT_EQ(MakeKaryTree(3, 2).size(), 13);
  EXPECT_EQ(MakeKaryTree(2, 3).height(), 3);
  // Every internal node of a complete binary tree has exactly 2 children.
  const RoutingTree t = MakeKaryTree(2, 3);
  for (NodeId v = 0; v < t.size(); ++v) {
    if (!t.is_leaf(v)) {
      EXPECT_EQ(t.children(v).size(), 2u);
    }
  }
}

TEST(Builders, Caterpillar) {
  const RoutingTree t = MakeCaterpillar(3, 2);
  EXPECT_EQ(t.size(), 9);
  EXPECT_EQ(t.height(), 3);  // spine of 3 plus a leg at the end
}

class RandomTreeTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomTreeTest, RandomTreeIsValidAndDeterministic) {
  const int n = GetParam();
  Rng rng1(42), rng2(42);
  const RoutingTree a = MakeRandomTree(n, rng1);
  const RoutingTree b = MakeRandomTree(n, rng2);
  EXPECT_EQ(a.parents(), b.parents()) << "same seed must give same tree";
  EXPECT_EQ(a.size(), n);
  EXPECT_EQ(a.subtree_size(a.root()), n);
}

TEST_P(RandomTreeTest, RandomTreeOfHeightHitsHeightExactly) {
  const int n = GetParam();
  for (const int h : {1, 3, 9}) {
    if (n < h + 1) continue;
    Rng rng(7 * static_cast<unsigned>(n) + static_cast<unsigned>(h));
    const RoutingTree t = MakeRandomTreeOfHeight(n, h, rng);
    EXPECT_EQ(t.height(), h) << "n=" << n << " h=" << h;
    EXPECT_EQ(t.size(), n);
  }
}

TEST(RandomTreeOfHeight, RejectsImpossibleShapes) {
  Rng rng(1);
  // height 0 with more than one node has nowhere to attach them.
  EXPECT_THROW(MakeRandomTreeOfHeight(5, 0, rng), std::invalid_argument);
  EXPECT_NO_THROW(MakeRandomTreeOfHeight(1, 0, rng));
  EXPECT_THROW(MakeRandomTreeOfHeight(3, 5, rng), std::invalid_argument);
  EXPECT_THROW(MakeRandomTreeOfHeight(3, -1, rng), std::invalid_argument);
}

TEST_P(RandomTreeTest, RandomBinaryTreeRespectsArity) {
  const int n = GetParam();
  Rng rng(99);
  const RoutingTree t = MakeRandomBinaryTree(n, rng);
  for (NodeId v = 0; v < t.size(); ++v)
    EXPECT_LE(t.children(v).size(), 2u);
}

INSTANTIATE_TEST_SUITE_P(Sizes, RandomTreeTest,
                         ::testing::Values(1, 2, 5, 16, 64, 300));

TEST(Render, AsciiContainsEveryNodeOnce) {
  const RoutingTree t = RoutingTree::FromParents({kNoNode, 0, 0, 1, 1});
  const std::string art = RenderTree(t);
  // 5 lines, one per node.
  EXPECT_EQ(std::count(art.begin(), art.end(), '\n'), 5);
}

}  // namespace
}  // namespace webwave
