// webfold_explorer — an interactive-ish CLI for exploring TLB structure.
//
// Usage:
//   webfold_explorer [shape] [n] [pattern] [seed]
//     shape:   chain | star | binary | kary3 | caterpillar | random (default)
//     n:       node count (default 15)
//     pattern: uniform | leafy | hotleaf | zipfish | random (default)
//     seed:    RNG seed (default 1)
//
// Prints the tree with spontaneous rates, the folding trace, the fold
// structure, the TLB assignment, its sensitivity structure, and how many
// iterations the distributed protocol needs.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/load_model.h"
#include "core/sensitivity.h"
#include "core/webfold.h"
#include "core/webwave_batch.h"
#include "tree/builders.h"
#include "tree/render.h"
#include "util/ascii.h"

namespace webwave {
namespace {

RoutingTree MakeShape(const std::string& shape, int n, Rng& rng) {
  if (shape == "chain") return MakeChain(n);
  if (shape == "star") return MakeStar(n);
  if (shape == "binary") return MakeRandomBinaryTree(n, rng);
  if (shape == "kary3") {
    int depth = 0, total = 1;
    while (total < n) {
      ++depth;
      total = total * 3 + 1;
    }
    return MakeKaryTree(3, depth);
  }
  if (shape == "caterpillar") return MakeCaterpillar(std::max(1, n / 3), 2);
  return MakeRandomTree(n, rng);
}

std::vector<double> MakePattern(const std::string& pattern,
                                const RoutingTree& tree, Rng& rng) {
  std::vector<double> rates(static_cast<std::size_t>(tree.size()), 0.0);
  if (pattern == "uniform") {
    for (auto& r : rates) r = 10;
  } else if (pattern == "leafy") {
    for (NodeId v = 0; v < tree.size(); ++v)
      if (tree.is_leaf(v)) rates[static_cast<std::size_t>(v)] = 20;
  } else if (pattern == "hotleaf") {
    for (NodeId v = 0; v < tree.size(); ++v)
      rates[static_cast<std::size_t>(v)] = tree.is_leaf(v) ? 2 : 1;
    // Hottest at the deepest leaf.
    NodeId deepest = 0;
    for (NodeId v = 0; v < tree.size(); ++v)
      if (tree.depth(v) > tree.depth(deepest)) deepest = v;
    rates[static_cast<std::size_t>(deepest)] = 40.0 * tree.size();
  } else if (pattern == "zipfish") {
    for (NodeId v = 0; v < tree.size(); ++v)
      rates[static_cast<std::size_t>(v)] = 100.0 / (1 + v);
  } else {
    for (auto& r : rates) r = rng.NextDouble(0, 30);
  }
  return rates;
}

}  // namespace
}  // namespace webwave

int main(int argc, char** argv) {
  using namespace webwave;
  const std::string shape = argc > 1 ? argv[1] : "random";
  const int n = argc > 2 ? std::atoi(argv[2]) : 15;
  const std::string pattern = argc > 3 ? argv[3] : "random";
  const std::uint64_t seed = argc > 4 ? std::strtoull(argv[4], nullptr, 10) : 1;
  if (n < 1 || n > 100000) {
    std::fprintf(stderr, "n out of range\n");
    return 1;
  }

  Rng rng(seed);
  const RoutingTree tree = MakeShape(shape, n, rng);
  const std::vector<double> rates = MakePattern(pattern, tree, rng);
  std::printf("shape=%s n=%d pattern=%s seed=%llu\n\n", shape.c_str(),
              tree.size(), pattern.c_str(),
              static_cast<unsigned long long>(seed));

  const WebFoldResult r = WebFold(tree, rates);
  if (tree.size() <= 64) {
    std::printf("%s\n", RenderTree(tree, [&](NodeId v) {
                          return "E=" + AsciiTable::Num(rates[v], 1) +
                                 " L=" + AsciiTable::Num(r.load[v], 1) +
                                 " fold=" + std::to_string(r.fold_index[v]);
                        }).c_str());
  }
  std::printf("folding steps: %zu, final folds: %zu\n", r.trace.size(),
              r.folds.size());

  AsciiTable folds({"fold", "root", "size", "rate sum", "load per node"});
  for (std::size_t f = 0; f < r.folds.size() && f < 20; ++f)
    folds.AddRow({std::to_string(f), std::to_string(r.folds[f].root),
                  std::to_string(r.folds[f].members.size()),
                  AsciiTable::Num(r.folds[f].rate_sum, 1),
                  AsciiTable::Num(r.folds[f].per_node, 2)});
  std::printf("%s", folds.Render().c_str());
  if (r.folds.size() > 20)
    std::printf("... and %zu more folds\n", r.folds.size() - 20);

  const double total = TotalRate(rates);
  std::printf("\nGLE would be %.2f/node (%s); TLB max is %.2f.\n",
              total / tree.size(),
              GleIsFeasible(tree, rates) ? "feasible" : "infeasible",
              r.load[tree.root()]);
  const TlbSensitivity sens = ComputeTlbSensitivity(tree, rates);
  std::printf("smallest fold gap: %.3f (a unit of demand in a fold of size\n"
              "k moves every member by 1/k until folds restructure)\n",
              sens.min_fold_gap);

  BatchWebWaveSimulator sim(tree, {rates});
  const auto traj = sim.RunUntil(0, r.load, 1e-6 * (1 + total), 100000);
  std::printf("\nWebWave reaches the optimum in %zu iterations "
              "(initial distance %.2f).\n",
              traj.size() - 1, traj.front());
  return 0;
}
