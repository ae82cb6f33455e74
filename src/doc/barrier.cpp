#include "doc/barrier.h"

#include "util/check.h"

namespace webwave {

BarrierMonitor::BarrierMonitor(int node_count)
    : stalls_(static_cast<std::size_t>(node_count), 0) {
  WEBWAVE_REQUIRE(node_count >= 1, "need at least one node");
}

bool BarrierMonitor::Observe(NodeId node, bool underloaded_vs_parent,
                             bool received_load) {
  WEBWAVE_REQUIRE(node >= 0 &&
                      node < static_cast<NodeId>(stalls_.size()),
                  "node out of range");
  if (!underloaded_vs_parent || received_load) {
    stalls_[static_cast<std::size_t>(node)] = 0;
    return false;
  }
  return ++stalls_[static_cast<std::size_t>(node)] > kBarrierPatience;
}

void BarrierMonitor::Reset(NodeId node) {
  WEBWAVE_REQUIRE(node >= 0 &&
                      node < static_cast<NodeId>(stalls_.size()),
                  "node out of range");
  stalls_[static_cast<std::size_t>(node)] = 0;
}

int BarrierMonitor::ConsecutiveStalls(NodeId node) const {
  WEBWAVE_REQUIRE(node >= 0 &&
                      node < static_cast<NodeId>(stalls_.size()),
                  "node out of range");
  return stalls_[static_cast<std::size_t>(node)];
}

bool IsPotentialBarrier(
    const RoutingTree& tree, NodeId j, NodeId k,
    const std::vector<double>& loads,
    const std::vector<std::vector<bool>>& caches,
    const std::vector<std::vector<double>>& forwarded_per_doc) {
  if (tree.is_root(j)) return false;  // j needs a parent i
  if (tree.parent(k) != j) return false;
  const NodeId i = tree.parent(j);
  const double lj = loads[static_cast<std::size_t>(j)];
  const double li = loads[static_cast<std::size_t>(i)];
  const double lk = loads[static_cast<std::size_t>(k)];
  if (!(lj >= li && li > lk)) return false;
  // Some sibling k' at least as loaded as j.
  bool has_loaded_sibling = false;
  for (const NodeId sibling : tree.children(j)) {
    if (sibling == k) continue;
    if (loads[static_cast<std::size_t>(sibling)] >= lj) {
      has_loaded_sibling = true;
      break;
    }
  }
  if (!has_loaded_sibling) return false;
  // j caches none of the documents k forwards.
  const auto& fwd_k = forwarded_per_doc[static_cast<std::size_t>(k)];
  const auto& cache_j = caches[static_cast<std::size_t>(j)];
  for (std::size_t d = 0; d < fwd_k.size(); ++d)
    if (fwd_k[d] > 1e-12 && cache_j[d]) return false;
  return true;
}

}  // namespace webwave
