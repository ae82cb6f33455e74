// From topology to routing trees to balanced caching: the full pipeline.
//
// Generates an Internet-like Waxman graph, picks home servers, derives
// their shortest-path routing trees (the paper's "forest of trees"),
// computes each tree's TLB assignment, and runs the distributed protocol
// on the busiest tree.
//
// Build & run:  ./build/examples/internet_forest
#include <cstdio>
#include <string>

#include "core/load_model.h"
#include "core/webfold.h"
#include "core/webwave_batch.h"
#include "stats/summary.h"
#include "topology/generators.h"
#include "topology/spt.h"
#include "util/ascii.h"

int main() {
  using namespace webwave;
  Rng rng(404);
  const Network net = MakeWaxman(60, 0.5, 0.2, rng);
  std::printf("Waxman topology: %d nodes, %d links, connected: %s\n\n",
              net.size(), net.edge_count(),
              net.IsConnected() ? "yes" : "no");

  const std::vector<int> homes = {0, 17, 42};
  const RoutingForest forest = MakeRoutingForest(net, homes);

  AsciiTable table({"home", "tree height", "leaves", "TLB max load",
                    "GLE feasible"});
  for (std::size_t i = 0; i < forest.trees.size(); ++i) {
    const RoutingTree& tree = forest.trees[i];
    std::vector<double> demand(static_cast<std::size_t>(tree.size()), 0.0);
    int leaves = 0;
    for (NodeId v = 0; v < tree.size(); ++v) {
      if (tree.is_leaf(v)) {
        demand[static_cast<std::size_t>(v)] = rng.NextDouble(20, 120);
        ++leaves;
      }
    }
    const WebFoldResult r = WebFold(tree, demand);
    double max_load = 0;
    for (const double l : r.load) max_load = std::max(max_load, l);
    table.AddRow({std::to_string(forest.homes[i]),
                  std::to_string(tree.height()), std::to_string(leaves),
                  AsciiTable::Num(max_load, 1),
                  GleIsFeasible(tree, demand) ? "yes" : "no"});
  }
  std::printf("%s\n", table.Render().c_str());

  const std::vector<int> mult = InteriorMultiplicity(forest);
  int shared = 0;
  for (const int m : mult) shared += m > 1;
  std::printf("%d of %d nodes are interior to more than one routing tree\n\n",
              shared, net.size());

  // Run the distributed protocol end-to-end on the first home's tree.
  const RoutingTree& tree = forest.trees[0];
  std::vector<double> demand(static_cast<std::size_t>(tree.size()), 0.0);
  for (NodeId v = 0; v < tree.size(); ++v)
    if (tree.is_leaf(v)) demand[static_cast<std::size_t>(v)] = rng.NextDouble(20, 120);
  const WebFoldResult tlb = WebFold(tree, demand);
  BatchWebWaveSimulator protocol(tree, {demand});
  const auto traj = protocol.RunUntil(0, tlb.load, 1e-6, 20000);
  std::printf(
      "WebWave on home %d's tree: converged to TLB in %zu iterations\n"
      "(initial distance %.1f, final %.2g; max TLB load %.1f vs GLE %.1f)\n",
      forest.homes[0], traj.size() - 1, traj.front(), traj.back(),
      tlb.load[tree.root()], TotalRate(demand) / tree.size());
  return 0;
}
