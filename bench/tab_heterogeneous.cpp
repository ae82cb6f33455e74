// E14 (extension) — relaxing the uniform-capacity assumption.
//
// §5.1: "All servers are modeled with uniform capacity."  Real cache
// hierarchies are not uniform: core servers are provisioned far beyond
// edge boxes.  This bench compares, on a tree whose interior nodes have
// k x the capacity of its leaves, the *utilization* profile of (a) the
// paper's uniform TLB (capacity-blind) and (b) the capacity-weighted TLB
// (WebFoldWeighted), and verifies the weighted WebWave protocol reaches
// the weighted optimum distributively.
#include <algorithm>
#include <cstdio>
#include <string>

#include "core/load_model.h"
#include "core/webfold.h"
#include "core/webwave_batch.h"
#include "stats/summary.h"
#include "tree/builders.h"
#include "util/ascii.h"

int main() {
  using namespace webwave;
  std::printf(
      "E14 / extension — heterogeneous server capacities\n"
      "binary tree depth 4 (31 nodes); interior capacity = k x leaf "
      "capacity;\nZipf-free uniform leaf demand 60 req/s\n\n");

  const RoutingTree tree = MakeKaryTree(2, 4);
  std::vector<double> spont(static_cast<std::size_t>(tree.size()), 0.0);
  for (NodeId v = 0; v < tree.size(); ++v)
    if (tree.is_leaf(v)) spont[static_cast<std::size_t>(v)] = 60.0;

  AsciiTable table({"interior k", "policy", "max util", "util CoV",
                    "max load", "protocol steps to 1e-4"});
  for (const double k : {1.0, 2.0, 4.0, 8.0}) {
    std::vector<double> cap(static_cast<std::size_t>(tree.size()), 1.0);
    for (NodeId v = 0; v < tree.size(); ++v)
      if (!tree.is_leaf(v)) cap[static_cast<std::size_t>(v)] = k;

    auto utilization_stats = [&](const std::vector<double>& load) {
      std::vector<double> util(load.size());
      for (std::size_t i = 0; i < load.size(); ++i) util[i] = load[i] / cap[i];
      double mx = 0;
      for (const double u : util) mx = std::max(mx, u);
      return std::pair<double, double>(mx, CoefficientOfVariation(util));
    };

    const WebFoldResult uniform = WebFold(tree, spont);
    const WebFoldResult weighted = WebFoldWeighted(tree, spont, cap);

    for (const auto& [name, result] :
         {std::pair<const char*, const WebFoldResult*>{"uniform TLB",
                                                       &uniform},
          std::pair<const char*, const WebFoldResult*>{"weighted TLB",
                                                       &weighted}}) {
      const auto [max_util, cov] = utilization_stats(result->load);
      double max_load = 0;
      for (const double l : result->load) max_load = std::max(max_load, l);
      std::string steps = "-";
      if (result == &weighted) {
        WebWaveOptions opt;
        opt.capacities = cap;
        BatchWebWaveSimulator sim(tree, {spont}, opt);
        const auto traj = sim.RunUntil(0, result->load, 1e-4, 100000);
        steps = std::to_string(traj.size() - 1);
      }
      table.AddRow({AsciiTable::Num(k, 0), name, AsciiTable::Num(max_util, 3),
                    AsciiTable::Num(cov, 3), AsciiTable::Num(max_load, 1),
                    steps});
    }
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf(
      "Reading: the capacity-blind assignment leaves big interior servers\n"
      "half idle while edge boxes saturate; the weighted folds put load\n"
      "where capacity is, cutting max utilization, and the weighted\n"
      "protocol still converges with purely local rules.\n");
  return 0;
}
