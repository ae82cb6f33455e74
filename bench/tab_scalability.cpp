// E8 — §1's motivation quantified: "minimal capacity goes idle in one part
// of the network when other parts have excess load."
//
// For growing system sizes and a hot-spot workload, compare the
// steady-state load distribution of:
//   no-cache      — home server serves everything (the pre-caching web),
//   self-cache    — demand-driven client caching (each node ends up
//                   serving its own demand),
//   en-route LRU  — hierarchical demand caching, finite capacity,
//   WebWave/TLB   — the paper's globally balanced assignment,
//   GLE-ideal     — uniform split ignoring NSS (unreachable bound).
// Metrics: max per-server load, coefficient of variation, Jain fairness,
// aggregate throughput and idle fraction when every server has capacity
// C = 2 x the GLE mean.
#include <chrono>
#include <cstdio>
#include <string>

#include "core/diffusion.h"
#include "core/load_model.h"
#include "core/webfold.h"
#include "core/webwave_batch.h"
#include "doc/catalog.h"
#include "proto/baselines.h"
#include "stats/summary.h"
#include "tree/builders.h"
#include "util/ascii.h"
#include "util/rng.h"

namespace webwave {
namespace {

void AddPolicyRow(AsciiTable& table, int n, const char* policy,
                  const std::vector<double>& load, double capacity) {
  double max_load = 0;
  for (const double l : load) max_load = std::max(max_load, l);
  table.AddRow({std::to_string(n), policy, AsciiTable::Num(max_load, 1),
                AsciiTable::Num(CoefficientOfVariation(load), 3),
                AsciiTable::Num(JainFairness(load), 3),
                AsciiTable::Num(CappedThroughput(load, capacity), 0),
                AsciiTable::Num(IdleFraction(load, capacity), 3)});
}

}  // namespace
}  // namespace webwave

int main() {
  using namespace webwave;
  std::printf(
      "E8 / Section 1 — scalability: throughput and idle capacity by policy\n"
      "workload: Zipf(1.0) document demand at the leaves, 12 docs, one hot\n"
      "subtree generating 4x the demand of the rest; capacity C = 2x GLE mean\n\n");

  AsciiTable table({"n", "policy", "max load", "CoV", "Jain", "thpt@C",
                    "idle@C"});
  for (const int depth : {3, 4, 5, 6, 7, 8}) {
    const RoutingTree tree = MakeKaryTree(2, depth);
    const int n = tree.size();
    Rng rng(static_cast<unsigned>(depth) * 97 + 5);
    DemandMatrix demand = LeafZipfDemand(tree, 12, 100.0, 1.0, rng);
    // Hot subtree: the first child of the root gets 4x demand.
    const NodeId hot = tree.children(tree.root()).front();
    for (const NodeId v : tree.subtree(hot))
      for (DocId d = 0; d < demand.doc_count(); ++d)
        demand.set(v, d, demand.at(v, d) * 4.0);

    const std::vector<double> spont = demand.NodeTotals();
    const double capacity = 2.0 * TotalRate(spont) / n;

    AddPolicyRow(table, n, "no-cache", NoCachingLoad(tree, spont), capacity);
    AddPolicyRow(table, n, "self-cache", SelfCachingLoad(spont), capacity);
    AddPolicyRow(table, n, "lru(cap=3)", EnRouteLruLoad(tree, demand, 3),
                 capacity);
    AddPolicyRow(table, n, "webwave/TLB", WebFold(tree, spont).load,
                 capacity);
    AddPolicyRow(table, n, "GLE-ideal", IdealGleLoad(tree, spont), capacity);
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf(
      "Reading: no-cache throughput is pinned at one server's capacity and\n"
      "idles everything else; demand-driven caching helps but keeps the hot\n"
      "subtree hot; WebWave/TLB tracks the GLE-ideal bound wherever NSS\n"
      "permits, with orders-of-magnitude lower max load at scale.\n\n");

  // Part 2: the engine itself at Internet-catalog node counts.  The SoA
  // WebWave step and the CSR diffusion sweep are both O(n); a million-node
  // tree advances one diffusion period in milliseconds, where the dense
  // n^2 matrix of the §2 baselines would not even fit in memory.
  std::printf(
      "Part 2 — diffusion engine scalability (SoA WebWave step, CSR sweep)\n"
      "workload: uniform random recursive tree, random spontaneous rates\n\n");
  using Clock = std::chrono::steady_clock;
  AsciiTable engine({"n", "webwave ms/step", "Medges/s", "csr ms/sweep",
                     "gamma(100 it) ms"});
  for (const int n : {10000, 100000, 1000000}) {
    Rng rng(static_cast<std::uint64_t>(n) * 13 + 1);
    const RoutingTree tree = MakeRandomTree(n, rng);
    std::vector<double> spont(static_cast<std::size_t>(n));
    for (auto& e : spont) e = rng.NextDouble(0, 100);

    BatchWebWaveSimulator sim(tree, {spont});
    const int steps = n >= 1000000 ? 20 : 100;
    auto t0 = Clock::now();
    for (int s = 0; s < steps; ++s) sim.Step();
    const double step_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count() /
        steps;

    const UndirectedGraph graph = GraphFromTree(tree);
    const SparseDiffusionMatrix csr = SparseDiffusionMatrix::DegreeBased(graph);
    std::vector<double> x = spont, y;
    t0 = Clock::now();
    for (int s = 0; s < steps; ++s) {
      csr.ApplyInto(x, y);
      std::swap(x, y);
    }
    const double sweep_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count() /
        steps;

    t0 = Clock::now();
    const double gamma = csr.SpectralGamma(100);
    const double gamma_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    (void)gamma;

    engine.AddRow({AsciiTable::Int(n), AsciiTable::Num(step_ms, 3),
                   AsciiTable::Num((n - 1) / (step_ms * 1e3), 1),
                   AsciiTable::Num(sweep_ms, 3),
                   AsciiTable::Num(gamma_ms, 1)});
  }
  std::printf("%s\n", engine.Render().c_str());
  return 0;
}
