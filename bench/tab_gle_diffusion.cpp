// E6 — §2: the diffusion method converges to GLE at rate γ (Cybenko), on
// the topologies the cited literature analyzes.
//
// Columns: spectral γ of the diffusion matrix, the measured per-step decay
// rate of ‖x(t) − u‖ (fitted a·γ^t), whether Cybenko's bound
// ‖D^t x − u‖ <= γ^t ‖x(0) − u‖ held at every step, and steps to 1e-6.
// Includes the k-ary n-cube with the Xu–Lau optimal α (paper ref. [29]).
#include <cstdio>
#include <functional>
#include <string>

#include "core/diffusion.h"
#include "stats/fit.h"
#include "tree/builders.h"
#include "util/ascii.h"
#include "util/rng.h"

int main() {
  using namespace webwave;
  std::printf("E6 / Section 2 — diffusion to global load equality (GLE)\n\n");

  struct Case {
    std::string name;
    std::function<UndirectedGraph()> make;
    double alpha;  // <= 0: degree-based
  };
  Rng tree_rng(7);
  const RoutingTree random_tree = MakeRandomTree(24, tree_rng);
  const std::vector<Case> cases = {
      {"ring n=16, a=0.25", [] { return MakeRingGraph(16); }, 0.25},
      {"path n=16, a=0.25", [] { return MakePathGraph(16); }, 0.25},
      {"torus 4x4, a=0.20", [] { return MakeTorusGraph(4, 4); }, 0.20},
      {"hypercube d=4, a=1/5", [] { return MakeHypercubeGraph(4); }, 0.2},
      {"4-ary 2-cube, XuLau a*",
       [] { return MakeKAryNCubeGraph(4, 2); },
       OptimalAlphaKAryNCube(4, 2)},
      {"8-ary 2-cube, XuLau a*",
       [] { return MakeKAryNCubeGraph(8, 2); },
       OptimalAlphaKAryNCube(8, 2)},
      {"random tree n=24, degree",
       [&] { return GraphFromTree(random_tree); },
       -1},
      {"complete n=8, a=1/8", [] { return MakeCompleteGraph(8); }, 0.125},
  };

  AsciiTable table({"graph", "n", "alpha", "spectral gamma",
                    "measured gamma", "Cybenko bound", "steps to 1e-6"});
  Rng rng(11);
  for (const Case& c : cases) {
    const UndirectedGraph g = c.make();
    const SparseDiffusionMatrix d =
        c.alpha > 0 ? SparseDiffusionMatrix::Uniform(g, c.alpha)
                    : SparseDiffusionMatrix::DegreeBased(g);
    std::vector<double> x0(static_cast<std::size_t>(g.size()));
    for (auto& v : x0) v = rng.NextDouble(0, 100);
    const DiffusionRun run = RunDiffusion(d, x0, 1e-6, 100000);
    const double gamma = d.SpectralGamma();
    std::vector<double> fit_window(run.distances);
    if (fit_window.size() > 400) fit_window.resize(400);
    const double measured = fit_window.size() >= 5
                                ? FitExponential(fit_window).gamma
                                : 0.0;
    table.AddRow({c.name, std::to_string(g.size()),
                  AsciiTable::Num(c.alpha > 0 ? c.alpha : -1, 4),
                  AsciiTable::Num(gamma, 6), AsciiTable::Num(measured, 6),
                  CybenkoBoundHolds(run, gamma, 1e-7) ? "holds" : "VIOLATED",
                  std::to_string(run.distances.size() - 1)});
  }
  std::printf("%s\n", table.Render().c_str());

  // The asynchronous side of §2 (Bertsekas–Tsitsiklis bounded delay):
  // convergence survives random activation and stale views, just slower.
  AsciiTable async_table(
      {"torus 4x4, a=0.20", "activation", "max delay", "steps to 1e-6"});
  {
    const UndirectedGraph g = MakeTorusGraph(4, 4);
    std::vector<double> x0(16);
    Rng arng(3);
    for (auto& v : x0) v = arng.NextDouble(0, 100);
    for (const auto& [act, delay] :
         std::vector<std::pair<double, int>>{
             {1.0, 0}, {0.7, 1}, {0.5, 2}, {0.25, 4}}) {
      AsyncDiffusionOptions aopt;
      aopt.activation = act;
      aopt.max_delay = delay;
      const DiffusionRun run = RunAsyncDiffusion(g, 0.2, x0, aopt, 1e-6, 100000);
      async_table.AddRow({"async", AsciiTable::Num(act, 2),
                          std::to_string(delay),
                          run.reached_tolerance
                              ? std::to_string(run.distances.size() - 1)
                              : "no convergence"});
    }
  }
  std::printf("asynchronous diffusion (edge-atomic transfers):\n%s\n",
              async_table.Render().c_str());
  std::printf(
      "Reading: measured decay tracks the spectral gamma and the bound\n"
      "holds on every topology; the Xu-Lau alpha* minimizes gamma for the\n"
      "k-ary n-cube (alpha = -1 means the degree-based policy); bounded\n"
      "staleness and random activation slow convergence but never break it.\n");
  return 0;
}
