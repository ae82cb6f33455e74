// Test-only oracle for WebFold (core/webfold): a frozen copy of the
// folding loop as it stood before its bookkeeping moved to flat arrays —
// per-node child vectors merged by append, a heap grown by single pushes,
// and a hash map from fold representative to fold index.  The library's
// WebFoldWeighted must match it in every WebFoldResult field, bit for
// bit: load, fold_root, folds (root, members, sums, per_node), trace and
// fold_index.
#pragma once

#include <algorithm>
#include <cstdint>
#include <queue>
#include <unordered_map>
#include <vector>

#include "core/webfold.h"
#include "tree/routing_tree.h"
#include "util/check.h"

namespace webwave {
namespace webfold_reference {

// Union-find over nodes; the representative of a set is the fold's root
// node (the member closest to the tree root), which is preserved by always
// merging a child fold into its parent fold.
class FoldForest {
 public:
  explicit FoldForest(int n) : link_(static_cast<std::size_t>(n)) {
    for (int i = 0; i < n; ++i) link_[static_cast<std::size_t>(i)] = i;
  }

  NodeId Find(NodeId v) {
    NodeId r = v;
    while (link_[static_cast<std::size_t>(r)] != r)
      r = link_[static_cast<std::size_t>(r)];
    while (link_[static_cast<std::size_t>(v)] != r) {
      const NodeId next = link_[static_cast<std::size_t>(v)];
      link_[static_cast<std::size_t>(v)] = r;
      v = next;
    }
    return r;
  }

  // Merges the fold rooted at `child_rep` into the fold rooted at
  // `parent_rep`; the parent's representative survives.
  void Union(NodeId child_rep, NodeId parent_rep) {
    link_[static_cast<std::size_t>(child_rep)] = parent_rep;
  }

 private:
  std::vector<NodeId> link_;
};

struct HeapEntry {
  double per_node;
  NodeId rep;
  std::uint64_t version;  // stale entries are skipped on pop

  bool operator<(const HeapEntry& other) const {
    // std::priority_queue is a max-heap on operator<; ties broken by node
    // id for determinism.
    if (per_node != other.per_node) return per_node < other.per_node;
    return rep > other.rep;
  }
};

inline WebFoldResult WebFoldWeighted(const RoutingTree& tree,
                              const std::vector<double>& spontaneous,
                              const std::vector<double>& capacity) {
  const int n = tree.size();
  WEBWAVE_REQUIRE(spontaneous.size() == static_cast<std::size_t>(n),
                  "spontaneous size mismatch");
  WEBWAVE_REQUIRE(capacity.size() == static_cast<std::size_t>(n),
                  "capacity size mismatch");
  for (const double e : spontaneous)
    WEBWAVE_REQUIRE(e >= 0, "spontaneous rates must be non-negative");
  for (const double c : capacity)
    WEBWAVE_REQUIRE(c > 0, "capacities must be positive");

  FoldForest forest(n);
  std::vector<double> rate(spontaneous);  // Σ E over fold, by representative
  std::vector<double> count(capacity);    // Σ capacity over fold
  std::vector<int> members_count(static_cast<std::size_t>(n), 1);
  std::vector<std::uint64_t> version(static_cast<std::size_t>(n), 0);
  // Child folds of each fold, by representative.  May contain stale reps;
  // filtered on use.
  std::vector<std::vector<NodeId>> fold_children(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v)
    for (const NodeId c : tree.children(v))
      fold_children[static_cast<std::size_t>(v)].push_back(c);

  auto per_node = [&](NodeId rep) {
    return rate[static_cast<std::size_t>(rep)] /
           count[static_cast<std::size_t>(rep)];
  };

  std::priority_queue<HeapEntry> heap;
  for (NodeId v = 0; v < n; ++v)
    if (v != tree.root()) heap.push({per_node(v), v, 0});

  WebFoldResult result;
  while (!heap.empty()) {
    const HeapEntry top = heap.top();
    heap.pop();
    const NodeId j = top.rep;
    // Skip entries that no longer describe a live fold at this load.
    if (forest.Find(j) != j) continue;
    if (top.version != version[static_cast<std::size_t>(j)]) continue;
    if (j == tree.root()) continue;  // the root fold can never fold upward

    const NodeId i = forest.Find(tree.parent(j));
    const double avg_j = per_node(j);
    const double avg_i = per_node(i);
    if (!(avg_j > avg_i)) continue;  // not foldable now; re-pushed if it becomes so

    // Fold j into i (Fold step 2.1–2.4 of Figure 3).
    FoldStep step;
    step.folded_root = j;
    step.into_root = i;
    step.folded_per_node = avg_j;
    step.into_per_node = avg_i;
    forest.Union(j, i);
    rate[static_cast<std::size_t>(i)] += rate[static_cast<std::size_t>(j)];
    count[static_cast<std::size_t>(i)] += count[static_cast<std::size_t>(j)];
    ++version[static_cast<std::size_t>(i)];
    auto& kids_i = fold_children[static_cast<std::size_t>(i)];
    auto& kids_j = fold_children[static_cast<std::size_t>(j)];
    kids_i.insert(kids_i.end(), kids_j.begin(), kids_j.end());
    kids_j.clear();
    kids_j.shrink_to_fit();

    members_count[static_cast<std::size_t>(i)] +=
        members_count[static_cast<std::size_t>(j)];
    const double merged = per_node(i);
    step.merged_per_node = merged;
    step.merged_size = members_count[static_cast<std::size_t>(i)];
    result.trace.push_back(step);

    // The merged fold's load changed, so (a) it may itself have become
    // foldable into its parent, and (b) any of its child folds whose load
    // exceeds the new average becomes foldable — including former children
    // of j, whose parent fold's load just *dropped* from avg_j to merged.
    if (i != tree.root()) heap.push({merged, i, version[static_cast<std::size_t>(i)]});
    std::vector<NodeId> live_children;
    live_children.reserve(kids_i.size());
    for (const NodeId raw : kids_i) {
      const NodeId c = forest.Find(raw);
      if (c == i) continue;  // absorbed (e.g. the edge j->i itself)
      if (forest.Find(tree.parent(c)) != i) continue;  // stale
      live_children.push_back(c);
      if (per_node(c) > merged)
        heap.push({per_node(c), c, version[static_cast<std::size_t>(c)]});
    }
    // Compact the child list so repeated merges do not accumulate stale
    // entries quadratically.
    std::sort(live_children.begin(), live_children.end());
    live_children.erase(
        std::unique(live_children.begin(), live_children.end()),
        live_children.end());
    kids_i = std::move(live_children);
  }

  // Assemble the final folds and the TLB assignment (WebFold step 4).
  result.load.resize(static_cast<std::size_t>(n));
  result.fold_root.resize(static_cast<std::size_t>(n));
  result.fold_index.assign(static_cast<std::size_t>(n), -1);
  std::unordered_map<NodeId, int> index_of_rep;
  for (const NodeId v : tree.preorder()) {
    const NodeId rep = forest.Find(v);
    result.fold_root[static_cast<std::size_t>(v)] = rep;
    // Every member serves its capacity share of the fold density.
    result.load[static_cast<std::size_t>(v)] =
        capacity[static_cast<std::size_t>(v)] * per_node(rep);
    auto [it, inserted] =
        index_of_rep.emplace(rep, static_cast<int>(result.folds.size()));
    if (inserted) {
      Fold fold;
      fold.root = rep;
      fold.rate_sum = rate[static_cast<std::size_t>(rep)];
      fold.capacity_sum = count[static_cast<std::size_t>(rep)];
      fold.per_node = per_node(rep);
      result.folds.push_back(std::move(fold));
    }
    result.fold_index[static_cast<std::size_t>(v)] = it->second;
    result.folds[static_cast<std::size_t>(it->second)].members.push_back(v);
  }
  return result;
}

// The uniform-capacity entry point, as WebFold.
inline WebFoldResult WebFold(const RoutingTree& tree,
                             const std::vector<double>& spontaneous) {
  return webfold_reference::WebFoldWeighted(
      tree, spontaneous,
      std::vector<double>(static_cast<std::size_t>(tree.size()), 1.0));
}

}  // namespace webfold_reference
}  // namespace webwave
