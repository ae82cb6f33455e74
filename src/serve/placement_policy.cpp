#include "serve/placement_policy.h"

#include <algorithm>
#include <utility>

#include "doc/placement.h"
#include "util/check.h"
#include "util/rng.h"

namespace webwave {

namespace {

void CheckLanes(const RoutingTree& tree,
                const std::vector<std::vector<double>>& lanes) {
  WEBWAVE_REQUIRE(!lanes.empty(), "need at least one document lane");
  for (const auto& lane : lanes)
    WEBWAVE_REQUIRE(lane.size() == static_cast<std::size_t>(tree.size()),
                    "lane does not match the tree");
}

std::vector<double> DocTotals(const std::vector<std::vector<double>>& lanes) {
  std::vector<double> totals(lanes.size(), 0.0);
  for (std::size_t d = 0; d < lanes.size(); ++d)
    for (const double r : lanes[d]) totals[d] += r;
  return totals;
}

}  // namespace

DemandMatrix DemandFromLanes(const std::vector<std::vector<double>>& lanes) {
  WEBWAVE_REQUIRE(!lanes.empty(), "need at least one document lane");
  const int docs = static_cast<int>(lanes.size());
  const int nodes = static_cast<int>(lanes.front().size());
  DemandMatrix demand(nodes, docs);
  for (int d = 0; d < docs; ++d) {
    const auto& lane = lanes[static_cast<std::size_t>(d)];
    WEBWAVE_REQUIRE(lane.size() == static_cast<std::size_t>(nodes),
                    "lanes differ in length");
    // Only positive rates are written, so the matrix stays non-negative.
    for (int v = 0; v < nodes; ++v)
      if (lane[static_cast<std::size_t>(v)] > 0)
        demand.row(v)[d] = lane[static_cast<std::size_t>(v)];
  }
  return demand;
}

QuotaSnapshot HomeOnlyPolicy::Place(
    const RoutingTree& tree,
    const std::vector<std::vector<double>>& lanes) const {
  CheckLanes(tree, lanes);
  const std::vector<double> totals = DocTotals(lanes);
  QuotaSnapshot::Builder b(tree.size(), static_cast<int>(lanes.size()));
  for (std::size_t d = 0; d < totals.size(); ++d)
    if (totals[d] > 0)
      b.Add(tree.root(), static_cast<std::int32_t>(d), totals[d]);
  return std::move(b).Build();
}

UniformTopKPolicy::UniformTopKPolicy(int top_k, int replicas,
                                     std::uint64_t seed)
    : top_k_(top_k), replicas_(replicas), seed_(seed) {
  WEBWAVE_REQUIRE(top_k >= 0, "top_k must be non-negative");
  WEBWAVE_REQUIRE(replicas >= 1, "need at least one replica per document");
}

std::string UniformTopKPolicy::name() const {
  return "uniform-top" + std::to_string(top_k_) + "x" +
         std::to_string(replicas_);
}

QuotaSnapshot UniformTopKPolicy::Place(
    const RoutingTree& tree,
    const std::vector<std::vector<double>>& lanes) const {
  CheckLanes(tree, lanes);
  const int docs = static_cast<int>(lanes.size());
  const std::vector<double> totals = DocTotals(lanes);

  std::vector<int> order(static_cast<std::size_t>(docs));
  for (int d = 0; d < docs; ++d) order[static_cast<std::size_t>(d)] = d;
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const double ra = totals[static_cast<std::size_t>(a)];
    const double rb = totals[static_cast<std::size_t>(b)];
    if (ra != rb) return ra > rb;
    return a < b;
  });

  struct Cell {
    NodeId node;
    std::int32_t doc;
    double rate;
  };
  std::vector<Cell> cells;
  Rng rng(seed_);
  const int k = std::min(top_k_, docs);
  const int max_replicas =
      std::min(replicas_, std::max(1, tree.size() - 1));
  std::vector<std::uint8_t> picked(static_cast<std::size_t>(tree.size()), 0);
  for (int i = 0; i < docs; ++i) {
    const int d = order[static_cast<std::size_t>(i)];
    const double total = totals[static_cast<std::size_t>(d)];
    if (total <= 0) continue;
    if (i >= k || tree.size() == 1) {
      cells.push_back({tree.root(), d, total});
      continue;
    }
    // `max_replicas` distinct non-root nodes, uniform, demand-blind.
    std::vector<NodeId> sites;
    while (static_cast<int>(sites.size()) < max_replicas) {
      const NodeId v = static_cast<NodeId>(
          rng.NextBelow(static_cast<std::uint64_t>(tree.size())));
      if (tree.is_root(v) || picked[static_cast<std::size_t>(v)]) continue;
      picked[static_cast<std::size_t>(v)] = 1;
      sites.push_back(v);
    }
    for (const NodeId v : sites) picked[static_cast<std::size_t>(v)] = 0;
    const double share = total / static_cast<double>(max_replicas + 1);
    for (const NodeId v : sites) cells.push_back({v, d, share});
    cells.push_back({tree.root(), d, share});
  }

  std::sort(cells.begin(), cells.end(), [](const Cell& a, const Cell& b) {
    if (a.node != b.node) return a.node < b.node;
    return a.doc < b.doc;
  });
  QuotaSnapshot::Builder b(tree.size(), docs);
  for (const Cell& c : cells) b.Add(c.node, c.doc, c.rate);
  return std::move(b).Build();
}

GreedyByPopularityPolicy::GreedyByPopularityPolicy(int capacity_docs)
    : capacity_docs_(capacity_docs) {
  WEBWAVE_REQUIRE(capacity_docs >= 0, "capacity must be non-negative");
}

std::string GreedyByPopularityPolicy::name() const {
  return "greedy-pop" + std::to_string(capacity_docs_);
}

QuotaSnapshot GreedyByPopularityPolicy::Place(
    const RoutingTree& tree,
    const std::vector<std::vector<double>>& lanes) const {
  CheckLanes(tree, lanes);
  const int docs = static_cast<int>(lanes.size());
  const std::size_t nn = static_cast<std::size_t>(tree.size());
  const std::size_t dd = static_cast<std::size_t>(docs);

  // flow[v·docs + d]: document d's rate still flowing upward at v.  Starts
  // as the local demand; children are folded in bottom-up, and whatever a
  // node absorbs is subtracted before its parent reads it.
  std::vector<double> flow(nn * dd, 0.0);
  for (int d = 0; d < docs; ++d) {
    const auto& lane = lanes[static_cast<std::size_t>(d)];
    for (std::size_t v = 0; v < nn; ++v)
      flow[v * dd + static_cast<std::size_t>(d)] = lane[v];
  }

  std::vector<std::vector<std::pair<std::int32_t, double>>> taken(nn);
  for (const NodeId v : tree.postorder()) {
    double* row = flow.data() + static_cast<std::size_t>(v) * dd;
    for (const NodeId c : tree.children(v)) {
      const double* crow = flow.data() + static_cast<std::size_t>(c) * dd;
      for (std::size_t d = 0; d < dd; ++d) row[d] += crow[d];
    }
    if (tree.is_root(v)) {
      // The home absorbs everything that got this far.
      for (std::size_t d = 0; d < dd; ++d)
        if (row[d] > 0) {
          taken[static_cast<std::size_t>(v)].emplace_back(
              static_cast<std::int32_t>(d), row[d]);
          row[d] = 0;
        }
      continue;
    }
    // Absorb the capacity_docs hottest passing documents outright.
    for (int pick = 0; pick < capacity_docs_; ++pick) {
      std::size_t best = dd;
      double best_rate = 0;
      for (std::size_t d = 0; d < dd; ++d)
        if (row[d] > best_rate) {
          best_rate = row[d];
          best = d;
        }
      if (best == dd) break;
      taken[static_cast<std::size_t>(v)].emplace_back(
          static_cast<std::int32_t>(best), best_rate);
      row[best] = 0;
    }
  }

  QuotaSnapshot::Builder b(tree.size(), docs);
  for (std::size_t v = 0; v < nn; ++v) {
    auto& row = taken[v];
    std::sort(row.begin(), row.end());
    for (const auto& [d, rate] : row) b.Add(static_cast<NodeId>(v), d, rate);
  }
  return std::move(b).Build();
}

QuotaSnapshot WebWaveTlbPolicy::Place(
    const RoutingTree& tree,
    const std::vector<std::vector<double>>& lanes) const {
  CheckLanes(tree, lanes);
  const DemandMatrix demand = DemandFromLanes(lanes);
  const PlacementResult placement = DerivePlacement(tree, demand);
  return QuotaSnapshot::FromPlacement(tree, placement, demand);
}

std::vector<std::unique_ptr<PlacementPolicy>> StandardPolicies(
    int top_k, int replicas, int capacity_docs, std::uint64_t seed) {
  std::vector<std::unique_ptr<PlacementPolicy>> policies;
  policies.push_back(std::make_unique<HomeOnlyPolicy>());
  policies.push_back(
      std::make_unique<UniformTopKPolicy>(top_k, replicas, seed));
  policies.push_back(
      std::make_unique<GreedyByPopularityPolicy>(capacity_docs));
  policies.push_back(std::make_unique<WebWaveTlbPolicy>());
  return policies;
}

}  // namespace webwave
