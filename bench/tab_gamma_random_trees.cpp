// E4 — §5.1 in-text result: the convergence rate γ of WebWave on random
// trees, estimated by nonlinear least squares on d(t) = a·γ^t.
//
// The paper reports, "for a random tree with depth 9, γ = 0.830734 with a
// standard error of 0.005786" (fit with S-PLUS).  We sweep tree depth,
// fitting γ per trial with our Gauss–Newton estimator and aggregating over
// seeds.  The shapes to match: γ < 1 everywhere (exponential convergence)
// and γ growing with depth (deeper trees mix more slowly), with depth-9
// values in the paper's band.
#include <cstdio>
#include <string>

#include "core/webfold.h"
#include "core/webwave_batch.h"
#include "stats/fit.h"
#include "stats/summary.h"
#include "tree/builders.h"
#include "util/ascii.h"

int main() {
  using namespace webwave;
  std::printf("E4 / Section 5.1 — fitted convergence rate gamma, random trees\n");
  std::printf("model: d(t) = a * gamma^t, Gauss-Newton least squares\n");
  std::printf("paper reference point: depth 9 -> gamma = 0.830734 (SE 0.005786)\n\n");

  AsciiTable table({"depth", "nodes", "trials", "gamma (60 it)",
                    "gamma (full)", "fit SE (median)", "steps to 1e-6"});
  const int kTrials = 12;
  for (int depth = 1; depth <= 9; ++depth) {
    const int n = 10 * depth;  // keep shape roughly constant per level
    std::vector<double> gammas_early;  // the plotted-range fit (cf. Fig 6b)
    std::vector<double> gammas_full;   // asymptotic rate
    std::vector<double> fit_ses;
    std::vector<double> steps;
    for (int trial = 0; trial < kTrials; ++trial) {
      Rng rng(1000 * static_cast<unsigned>(depth) +
              static_cast<unsigned>(trial));
      const RoutingTree tree = MakeRandomTreeOfHeight(n, depth, rng);
      std::vector<double> spont(static_cast<std::size_t>(n));
      for (auto& e : spont) e = rng.NextDouble(0, 100);
      const WebFoldResult target = WebFold(tree, spont);
      WebWaveOptions opt;
      opt.seed = rng.Next();
      BatchWebWaveSimulator sim(tree, {spont}, opt);
      std::vector<double> traj = sim.RunUntil(0, target.load, 1e-6, 20000);
      steps.push_back(static_cast<double>(traj.size() - 1));
      if (traj.size() < 5) continue;
      std::vector<double> early(traj);
      if (early.size() > 60) early.resize(60);
      const ExponentialFit early_fit = FitExponential(early);
      gammas_early.push_back(early_fit.gamma);
      fit_ses.push_back(early_fit.stderr_gamma);
      if (traj.size() > 400) traj.resize(400);
      gammas_full.push_back(FitExponential(traj).gamma);
    }
    const Summary ge = Summarize(gammas_early);
    const Summary gf = Summarize(gammas_full);
    table.AddRow({std::to_string(depth), std::to_string(n),
                  std::to_string(gammas_early.size()),
                  AsciiTable::Num(ge.mean, 6), AsciiTable::Num(gf.mean, 6),
                  AsciiTable::Num(Quantile(fit_ses, 0.5), 6),
                  AsciiTable::Num(Summarize(steps).mean, 1)});
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf(
      "Reading: gamma < 1 at every depth (exponential convergence) and\n"
      "increases with depth — deeper trees diffuse load more slowly.  The\n"
      "paper's 0.830734 +- 0.005786 for one depth-9 tree was fitted over\n"
      "the short range its plot shows; the 60-iteration column is the\n"
      "comparable number, the full fit the (slower) asymptotic rate.\n"
      "Exact values depend on the unspecified tree size and alpha; the\n"
      "shape is what transfers.\n");
  return 0;
}
