// Quickstart: the WebWave public API in five minutes.
//
//   1. Build a routing tree (here: by hand; topology/spt.h derives them
//      from network topologies).
//   2. Attach spontaneous request rates.
//   3. Compute the optimal assignment offline with WebFold.
//   4. Run the distributed WebWave protocol and watch it converge.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>
#include <string>

#include "core/load_model.h"
#include "core/webfold.h"
#include "core/webwave_batch.h"
#include "tree/builders.h"
#include "tree/render.h"
#include "util/ascii.h"

int main() {
  using namespace webwave;

  // A small content-distribution tree: the home server (0) feeds two
  // regional caches; one region has a hot pocket of clients.
  const RoutingTree tree =
      RoutingTree::FromParents({kNoNode, 0, 0, 1, 1, 2, 2});
  const std::vector<double> demand = {0, 10, 10, 120, 20, 15, 15};

  std::printf("Routing tree (requests flow from leaves toward 0):\n%s\n",
              RenderTree(tree, [&](NodeId v) {
                return "E=" + AsciiTable::Num(demand[v], 0);
              }).c_str());

  // Offline optimum: what is the best any on-path caching scheme can do?
  const WebFoldResult tlb = WebFold(tree, demand);
  std::printf("WebFold says the tree load balanced assignment is:\n");
  for (NodeId v = 0; v < tree.size(); ++v)
    std::printf("  node %d serves %6.2f req/s (fold %d)\n", v, tlb.load[v],
                tlb.fold_index[v]);
  std::printf("(GLE would be %.2f per node — %s here)\n\n",
              TotalRate(demand) / tree.size(),
              GleIsFeasible(tree, demand) ? "feasible" : "NOT feasible");

  // Distributed protocol: every node knows only its own load, its
  // children's forwarded streams, and gossiped neighbor loads.
  // One document is a one-lane batch; lane 0 is its load vector.
  BatchWebWaveSimulator protocol(tree, {demand});
  std::printf("WebWave protocol, distance to TLB per iteration:\n");
  const std::vector<double> trajectory =
      protocol.RunUntil(0, tlb.load, 1e-6, 10000);
  const int iterations = static_cast<int>(trajectory.size()) - 1;
  for (int t = 0; t < iterations; t += 10)
    std::printf("  t=%-4d  distance = %.6f\n", t, trajectory[t]);
  std::printf("  t=%-4d  distance = %.6f  <- converged\n\n", iterations,
              trajectory.back());

  std::printf("Final distributed assignment (vs offline optimum):\n");
  const std::vector<double> served = protocol.ServedLane(0);
  for (NodeId v = 0; v < tree.size(); ++v)
    std::printf("  node %d: %7.3f (TLB %7.3f)\n", v, served[v],
                tlb.load[v]);
  return 0;
}
