// E9 — §5's protocol parameters, ablated.
//
// "In a realistic system, WebWave servers would have two parameters: the
// gossip period, and the diffusion period."  Figure 5 adds the diffusion
// parameter α ("other values of α_i are possible").  This bench sweeps:
//   (1) the fixed α on the Figure-6 tree (capped at the Cybenko-stable
//       value per edge) + the uncapped variant to show why the cap exists,
//   (2) the gossip period (estimates refresh every g diffusion steps),
//   (3) the gossip delay (estimates lag by d steps, Bertsekas-Tsitsiklis
//       bounded staleness),
//   (4) asynchronous activation probabilities.
// Metric: iterations to bring the distance to TLB below 1e-6, and the
// fitted per-step rate γ.
#include <cstdio>
#include <string>

#include "core/webfold.h"
#include "core/webwave_batch.h"
#include "stats/fit.h"
#include "tree/routing_tree.h"
#include "util/ascii.h"

namespace webwave {
namespace {

const RoutingTree& BenchTree() {
  static const RoutingTree tree = RoutingTree::FromParents(
      {kNoNode, 0, 0, 0, 1, 1, 2, 3, 3, 4, 6, 6, 8, 8});
  return tree;
}

const std::vector<double>& BenchRates() {
  static const std::vector<double> rates = {0, 2, 12, 30, 6, 4, 20,
                                            10, 1, 40, 16, 12, 9, 5};
  return rates;
}

struct RunResult {
  long steps;
  double gamma;
  bool converged;
};

RunResult RunOnce(WebWaveOptions opt, int max_steps = 30000) {
  const WebFoldResult target = WebFold(BenchTree(), BenchRates());
  BatchWebWaveSimulator sim(BenchTree(), {BenchRates()}, opt);
  std::vector<double> traj = sim.RunUntil(0, target.load, 1e-6, max_steps);
  RunResult r;
  r.converged = traj.back() <= 1e-6;
  r.steps = static_cast<long>(traj.size()) - 1;
  if (traj.size() > 300) traj.resize(300);
  r.gamma = traj.size() >= 5 ? FitExponential(traj).gamma : 0.0;
  return r;
}

}  // namespace
}  // namespace webwave

int main() {
  using namespace webwave;
  std::printf("E9 / Section 5 — ablation of WebWave's parameters "
              "(Figure-6 tree, distance target 1e-6)\n\n");

  {
    AsciiTable t({"alpha (capped)", "steps", "fitted gamma", "converged"});
    for (const double a : {0.05, 0.10, 0.15, 0.25, 0.35, 0.50}) {
      WebWaveOptions opt;
      opt.alpha_policy = AlphaPolicy::kFixed;
      opt.alpha = a;
      const RunResult r = RunOnce(opt);
      t.AddRow({AsciiTable::Num(a, 2), std::to_string(r.steps),
                AsciiTable::Num(r.gamma, 4), r.converged ? "yes" : "no"});
    }
    {
      WebWaveOptions opt;  // the default degree-based policy
      const RunResult r = RunOnce(opt);
      t.AddRow({"degree-based", std::to_string(r.steps),
                AsciiTable::Num(r.gamma, 4), r.converged ? "yes" : "no"});
    }
    {
      WebWaveOptions opt;
      opt.alpha_policy = AlphaPolicy::kFixedUncapped;
      opt.alpha = 0.5;
      const RunResult r = RunOnce(opt, 8000);
      t.AddRow({"0.50 UNCAPPED", std::to_string(r.steps),
                AsciiTable::Num(r.gamma, 4), r.converged ? "yes" : "no"});
    }
    std::printf("diffusion parameter:\n%s\n", t.Render().c_str());
  }

  {
    AsciiTable t({"gossip period", "steps", "fitted gamma", "converged"});
    for (const int g : {1, 2, 4, 8, 16}) {
      WebWaveOptions opt;
      opt.gossip_period = g;
      const RunResult r = RunOnce(opt);
      t.AddRow({std::to_string(g), std::to_string(r.steps),
                AsciiTable::Num(r.gamma, 4), r.converged ? "yes" : "no"});
    }
    std::printf("gossip period (diffusion periods per estimate refresh):\n%s\n",
                t.Render().c_str());
  }

  {
    AsciiTable t({"gossip delay", "steps", "fitted gamma", "converged"});
    for (const int d : {0, 1, 2, 4, 8}) {
      WebWaveOptions opt;
      opt.gossip_delay = d;
      const RunResult r = RunOnce(opt);
      t.AddRow({std::to_string(d), std::to_string(r.steps),
                AsciiTable::Num(r.gamma, 4), r.converged ? "yes" : "no"});
    }
    std::printf("gossip staleness (bounded delay):\n%s\n", t.Render().c_str());
  }

  {
    AsciiTable t({"activation prob", "steps", "fitted gamma", "converged"});
    for (const double p : {1.0, 0.75, 0.5, 0.25}) {
      WebWaveOptions opt;
      opt.asynchronous = p < 1.0;
      opt.activation_probability = p;
      opt.seed = 99;
      const RunResult r = RunOnce(opt, 60000);
      t.AddRow({AsciiTable::Num(p, 2), std::to_string(r.steps),
                AsciiTable::Num(r.gamma, 4), r.converged ? "yes" : "no"});
    }
    std::printf("asynchronous activation:\n%s\n", t.Render().c_str());
  }

  std::printf(
      "Reading: larger (stable) alpha converges faster; sparse or stale\n"
      "gossip and random activation slow convergence roughly in proportion\n"
      "but never break it — matching Bertsekas-Tsitsiklis; the uncapped\n"
      "alpha = 0.5 violates Cybenko's condition and fails to settle.\n");
  return 0;
}
