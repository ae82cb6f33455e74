// E3 — Figure 6: WebWave converges to TLB exponentially fast.
//
// (a) A hand-crafted 14-node routing tree whose spontaneous rates force a
//     variety of folds (singletons, a chain fold, multi-child folds, a
//     non-GLE assignment) — reconstructed in the spirit of the paper's
//     figure, whose exact rates are not recoverable from the scan.
// (b) The Euclidean distance from WebWave's load vector to the WebFold
//     TLB assignment, per iteration, plus the fitted a·γ^t model that the
//     paper fits with S-PLUS.
#include <cstdio>
#include <string>

#include "core/load_model.h"
#include "core/webfold.h"
#include "core/webwave_batch.h"
#include "stats/fit.h"
#include "tree/render.h"
#include "tree/routing_tree.h"
#include "util/ascii.h"

int main() {
  using namespace webwave;
  // 0 <- {1,2,3}; 1 <- {4,5}; 2 <- {6}; 3 <- {7,8}; 4 <- {9};
  // 6 <- {10,11}; 8 <- {12,13}
  const RoutingTree tree = RoutingTree::FromParents(
      {kNoNode, 0, 0, 0, 1, 1, 2, 3, 3, 4, 6, 6, 8, 8});
  const std::vector<double> spont = {0, 2, 12, 30, 6, 4, 20,
                                     10, 1, 40, 16, 12, 9, 5};

  const WebFoldResult target = WebFold(tree, spont);
  std::printf("E3 / Figure 6(a) — routing tree, rates and TLB assignment\n\n");
  std::printf("%s\n", RenderTree(tree, [&](NodeId v) {
                        return "E=" + AsciiTable::Num(spont[v], 0) +
                               " TLB=" + AsciiTable::Num(target.load[v], 2) +
                               " fold=" + std::to_string(target.fold_index[v]);
                      }).c_str());
  std::printf("Folds: %zu; GLE would be %.2f per node; TLB max is %.2f.\n\n",
              target.folds.size(), TotalRate(spont) / tree.size(),
              target.load[tree.root()]);

  WebWaveOptions options;  // synchronous, fresh gossip: the paper's setup
  BatchWebWaveSimulator sim(tree, {spont}, options);
  const std::vector<double> trajectory =
      sim.RunUntil(0, target.load, 1e-7, 5000);

  std::printf("Figure 6(b) — Euclidean distance to TLB per iteration\n\n");
  std::vector<std::pair<std::string, double>> plot;
  for (std::size_t t = 0; t < trajectory.size(); ++t) {
    if (t <= 10 || (t <= 60 && t % 5 == 0) || t % 25 == 0 ||
        t + 1 == trajectory.size())
      plot.push_back({"t=" + std::to_string(t), trajectory[t]});
    if (plot.size() > 40) break;
  }
  std::printf("%s\n", AsciiBarChart(plot, 48).c_str());

  std::vector<double> fit_window(trajectory);
  if (fit_window.size() > 300) fit_window.resize(300);
  const ExponentialFit fit = FitExponential(fit_window);
  std::printf("Converged to within 1e-7 after %zu iterations.\n",
              trajectory.size() - 1);
  std::printf("Nonlinear fit d(t) = a * gamma^t  (cf. paper Section 5.1):\n");
  std::printf("  a     = %.4f  (SE %.4f)\n", fit.a, fit.stderr_a);
  std::printf("  gamma = %.6f (SE %.6f)\n", fit.gamma, fit.stderr_gamma);
  std::printf("\nFinal served rates vs TLB:\n");
  AsciiTable table({"node", "E_i", "WebWave L_i", "TLB L_i"});
  const std::vector<double> served = sim.ServedLane(0);
  for (NodeId v = 0; v < tree.size(); ++v)
    table.AddRow({std::to_string(v), AsciiTable::Num(spont[v], 0),
                  AsciiTable::Num(served[v], 3),
                  AsciiTable::Num(target.load[v], 3)});
  std::printf("%s", table.Render().c_str());
  return 0;
}
