// Potential-barrier detection (§5.2).
//
// A server j is a *potential barrier* when it has children k, k' and
// parent i with  L_k' >= L_j >= L_i > L_k  and j caches none of the
// documents requested by the underloaded child k's subtree: diffusion
// stalls, and j even hides the imbalance from i.
//
// Detection is purely local at the underloaded child: "a server k assumes
// that its parent j is a potential barrier if k remains underloaded,
// relative to j, for more than two periods, and no action is taken by j."
// The BarrierMonitor implements exactly that counter; the recovery —
// *tunneling*, fetching a document from across the barrier — lives in
// DocWebWave.
#pragma once

#include <vector>

#include "tree/routing_tree.h"

namespace webwave {

// How many consecutive no-action underloaded periods a node tolerates
// before declaring its parent a barrier: the paper's "more than two
// periods", so tunneling starts on the third.
inline constexpr int kBarrierPatience = 2;

class BarrierMonitor {
 public:
  explicit BarrierMonitor(int node_count);

  // Called once per diffusion period per node with whether the node was
  // underloaded relative to its parent and whether the parent shifted any
  // load to it this period.  Returns true when the node should tunnel.
  bool Observe(NodeId node, bool underloaded_vs_parent,
               bool received_load);

  // Resets a node's counter (after a successful tunnel).
  void Reset(NodeId node);

  int ConsecutiveStalls(NodeId node) const;

 private:
  std::vector<int> stalls_;
};

// The static structural predicate of §5.2, used by tests and benches to
// assert that a configuration really contains a barrier: node j is a
// potential barrier w.r.t. underloaded child k iff
//   L_{k'} >= L_j >= L_{parent(j)} > L_k  for some sibling k', and
//   j caches none of the documents k forwards.
bool IsPotentialBarrier(const RoutingTree& tree, NodeId j, NodeId k,
                        const std::vector<double>& loads,
                        const std::vector<std::vector<bool>>& caches,
                        const std::vector<std::vector<double>>& forwarded_per_doc);

}  // namespace webwave
