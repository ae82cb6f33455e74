// Test-only structural metrics for generated topologies and routing
// trees — used to verify that the synthetic networks standing in for the paper's
// "Internet" actually look Internet-like (heavy-tailed degrees, small
// diameter) and to characterize the trees routing induces on them.
#pragma once

#include <algorithm>
#include <queue>
#include <vector>

#include "topology/network.h"
#include "tree/routing_tree.h"
#include "util/check.h"

namespace webwave {

struct NetworkMetrics {
  int nodes = 0;
  int edges = 0;
  double mean_degree = 0;
  int max_degree = 0;
  // Hop diameter and mean shortest-path hop count (unweighted BFS),
  // exact for n up to a few thousand.
  int diameter_hops = 0;
  double mean_distance_hops = 0;
  // Degree distribution tail weight: fraction of nodes with degree more
  // than 3x the mean — near zero for Erdős–Rényi, substantial for
  // preferential attachment.
  double hub_fraction = 0;
};

struct TreeMetrics {
  int nodes = 0;
  int height = 0;
  int leaves = 0;
  double mean_depth = 0;
  double mean_children_of_interior = 0;
  int max_children = 0;
};

inline NetworkMetrics ComputeNetworkMetrics(const Network& net) {
  NetworkMetrics m;
  m.nodes = net.size();
  m.edges = net.edge_count();
  for (int v = 0; v < net.size(); ++v) {
    m.mean_degree += net.degree(v);
    m.max_degree = std::max(m.max_degree, net.degree(v));
  }
  m.mean_degree /= net.size();
  int hubs = 0;
  for (int v = 0; v < net.size(); ++v)
    if (net.degree(v) > 3 * m.mean_degree) ++hubs;
  m.hub_fraction = static_cast<double>(hubs) / net.size();

  // All-pairs BFS over hops.
  long long pair_count = 0;
  long long hop_sum = 0;
  std::vector<int> dist(static_cast<std::size_t>(net.size()));
  for (int src = 0; src < net.size(); ++src) {
    std::fill(dist.begin(), dist.end(), -1);
    std::queue<int> q;
    dist[static_cast<std::size_t>(src)] = 0;
    q.push(src);
    while (!q.empty()) {
      const int v = q.front();
      q.pop();
      for (const auto& nb : net.neighbors(v)) {
        if (dist[static_cast<std::size_t>(nb.node)] == -1) {
          dist[static_cast<std::size_t>(nb.node)] =
              dist[static_cast<std::size_t>(v)] + 1;
          q.push(nb.node);
        }
      }
    }
    for (int v = 0; v < net.size(); ++v) {
      if (v == src) continue;
      WEBWAVE_REQUIRE(dist[static_cast<std::size_t>(v)] >= 0,
                      "metrics require a connected network");
      m.diameter_hops =
          std::max(m.diameter_hops, dist[static_cast<std::size_t>(v)]);
      hop_sum += dist[static_cast<std::size_t>(v)];
      ++pair_count;
    }
  }
  m.mean_distance_hops =
      pair_count > 0 ? static_cast<double>(hop_sum) / pair_count : 0;
  return m;
}

inline TreeMetrics ComputeTreeMetrics(const RoutingTree& tree) {
  TreeMetrics m;
  m.nodes = tree.size();
  m.height = tree.height();
  int interior = 0;
  long long child_sum = 0;
  long long depth_sum = 0;
  for (NodeId v = 0; v < tree.size(); ++v) {
    depth_sum += tree.depth(v);
    if (tree.is_leaf(v)) {
      ++m.leaves;
    } else {
      ++interior;
      const int kids = static_cast<int>(tree.children(v).size());
      child_sum += kids;
      m.max_children = std::max(m.max_children, kids);
    }
  }
  m.mean_depth = static_cast<double>(depth_sum) / tree.size();
  m.mean_children_of_interior =
      interior > 0 ? static_cast<double>(child_sum) / interior : 0;
  return m;
}

}  // namespace webwave
