// The routing tree T — the substrate of the whole paper.
//
// WebWave models the Internet as a forest of trees, each rooted at a home
// server; every request for a document travels from its originating node up
// the tree toward the root, and may be served by any node it passes (paper
// §3, Figure 1).  A RoutingTree captures the routes in effect at a point in
// time: node i is the parent of j if i is the first cache server on the
// route from j to the home server.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace webwave {

using NodeId = std::int32_t;
inline constexpr NodeId kNoNode = -1;

// An immutable rooted tree over nodes 0..n-1, stored as a parent array with
// derived children lists, depths, subtree sizes and traversal orders.
// Construction validates that the parent array describes a single tree
// (exactly one root, no cycles, all nodes reachable).
class RoutingTree {
 public:
  // parents[i] is the parent of node i; exactly one entry must be kNoNode
  // (the root / home server).  Throws std::invalid_argument otherwise.
  static RoutingTree FromParents(std::vector<NodeId> parents);

  int size() const { return static_cast<int>(parents_.size()); }
  NodeId root() const { return root_; }

  NodeId parent(NodeId v) const;
  const std::vector<NodeId>& children(NodeId v) const;
  bool is_root(NodeId v) const { return v == root_; }
  bool is_leaf(NodeId v) const { return children(v).empty(); }
  int degree(NodeId v) const;  // children + (1 if not root)

  // Depth of v (root has depth 0) and the height of the whole tree (depth
  // of the deepest node).
  int depth(NodeId v) const;
  int height() const { return height_; }
  const std::vector<int>& depths() const { return depth_; }

  // Number of nodes in the subtree rooted at v, including v.
  int subtree_size(NodeId v) const;

  // Node orders.  preorder() visits parents before children; postorder()
  // visits children before parents.  Both are deterministic (children in
  // ascending NodeId order).
  const std::vector<NodeId>& preorder() const { return preorder_; }
  const std::vector<NodeId>& postorder() const { return postorder_; }

  // All nodes of the subtree rooted at v, in preorder.
  std::vector<NodeId> subtree(NodeId v) const;

  // True if `ancestor` lies on the path from v to the root (v counts as its
  // own ancestor).
  bool is_ancestor(NodeId ancestor, NodeId v) const;

  // Path from v up to the root, inclusive of both ends.
  std::vector<NodeId> path_to_root(NodeId v) const;

  // Number of edges, always size() - 1.
  int edge_count() const { return size() - 1; }

  const std::vector<NodeId>& parents() const { return parents_; }

 private:
  RoutingTree() = default;
  void CheckNode(NodeId v) const;

  std::vector<NodeId> parents_;
  std::vector<std::vector<NodeId>> children_;
  std::vector<int> depth_;
  std::vector<int> subtree_size_;
  std::vector<NodeId> preorder_;
  std::vector<NodeId> postorder_;
  NodeId root_ = kNoNode;
  int height_ = 0;
};

}  // namespace webwave
