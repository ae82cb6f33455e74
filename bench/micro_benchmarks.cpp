// E7 — micro-benchmarks (google-benchmark).
//
// The paper's architectural feasibility argument rests on cheap packet
// filtering (Engler & Kaashoek's DPF: 1.51 µs per packet on 1996
// hardware).  BM_PacketFilterIntercept measures our filter's per-packet
// decision cost; the rest measure the algorithmic building blocks so the
// simulator's own scalability is on record: WebFold (offline TLB),
// one WebWave diffusion step, a discrete-event simulator round-trip, and
// Zipf sampling.
//
// After the registered benchmarks, a hand-timed lane-block sweep writes
// BENCH_step_blocked.json; it is skipped when --benchmark_filter picks
// out benchmarks.  Settings (bench_util.h): WEBWAVE_SMOKE sweeps 10⁴ and
// 10⁵ nodes instead of 10⁵ and 10⁶.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "core/diffusion.h"
#include "core/tlb.h"
#include "core/webfold.h"
#include "core/webwave.h"
#include "core/webwave_batch.h"
#include "doc/catalog.h"
#include "net/simulator.h"
#include "proto/packet_filter.h"
#include "stats/zipf.h"
#include "tree/builders.h"
#include "util/bench_json.h"
#include "util/rng.h"

namespace webwave {
namespace {

// The pre-SoA WebWave step, kept verbatim as a measurement baseline: a
// per-node vector of (neighbor, estimate) pairs scanned linearly for
// every edge, a deque of full served-vector copies for gossip history,
// and a freshly allocated delta vector per step.  BM_WebWaveStepLegacy /
// BM_WebWaveStep records the speedup of the edge-indexed layout in
// BENCH_webwave.json.
class LegacyWebWaveStepper {
 public:
  LegacyWebWaveStepper(const RoutingTree& tree, std::vector<double> spont)
      : tree_(tree), served_(tree.size(), 0.0) {
    const int n = tree.size();
    double total = 0;
    for (const double e : spont) total += e;
    served_[static_cast<std::size_t>(tree.root())] = total;
    forwarded_.assign(static_cast<std::size_t>(n), 0.0);
    for (const NodeId v : tree.postorder()) {
      double arrive = spont[static_cast<std::size_t>(v)];
      for (const NodeId c : tree.children(v))
        arrive += forwarded_[static_cast<std::size_t>(c)];
      forwarded_[static_cast<std::size_t>(v)] =
          arrive - served_[static_cast<std::size_t>(v)];
    }
    for (NodeId v = 0; v < n; ++v) {
      if (tree.is_root(v)) continue;
      Edge e;
      e.parent = tree.parent(v);
      e.child = v;
      e.alpha = 1.0 / (1.0 + std::max(tree.degree(e.parent), tree.degree(v)));
      edges_.push_back(e);
    }
    estimates_.assign(static_cast<std::size_t>(n), {});
    for (const Edge& e : edges_) {
      estimates_[static_cast<std::size_t>(e.parent)].push_back({e.child, 0});
      estimates_[static_cast<std::size_t>(e.child)].push_back({e.parent, 0});
    }
    history_.push_back(served_);
    RefreshEstimates();
  }

  void Step() {
    std::vector<double> delta(edges_.size(), 0.0);
    for (std::size_t k = 0; k < edges_.size(); ++k) {
      const Edge& e = edges_[k];
      const double lp = served_[static_cast<std::size_t>(e.parent)];
      const double lc = served_[static_cast<std::size_t>(e.child)];
      const double parent_view = Estimate(e.parent, e.child);
      const double child_view = Estimate(e.child, e.parent);
      double d = 0;
      if (lp > parent_view) {
        d = std::min(e.alpha * (lp - parent_view),
                     forwarded_[static_cast<std::size_t>(e.child)]);
      } else if (lc > child_view) {
        d = -std::min(e.alpha * (lc - child_view), lc);
      }
      delta[k] = d;
    }
    for (std::size_t k = 0; k < edges_.size(); ++k) {
      const Edge& e = edges_[k];
      double d = delta[k];
      if (d == 0) continue;
      const std::size_t p = static_cast<std::size_t>(e.parent);
      const std::size_t c = static_cast<std::size_t>(e.child);
      if (d > 0) {
        d = std::min({d, forwarded_[c], served_[p]});
        if (d <= 0) continue;
        served_[p] -= d;
        served_[c] += d;
        forwarded_[c] -= d;
      } else {
        const double up = std::min(-d, served_[c]);
        if (up <= 0) continue;
        served_[c] -= up;
        served_[p] += up;
        forwarded_[c] += up;
      }
    }
    history_.push_back(served_);
    while (history_.size() > 1) history_.pop_front();
    RefreshEstimates();
  }

 private:
  struct Edge {
    NodeId parent;
    NodeId child;
    double alpha;
  };

  double Estimate(NodeId a, NodeId b) const {
    for (const auto& [node, load] : estimates_[static_cast<std::size_t>(a)])
      if (node == b) return load;
    return 0;
  }

  void RefreshEstimates() {
    const std::vector<double>& view = history_.back();
    for (auto& per_node : estimates_)
      for (auto& [neighbor, load] : per_node)
        load = view[static_cast<std::size_t>(neighbor)];
  }

  const RoutingTree& tree_;
  std::vector<double> served_;
  std::vector<double> forwarded_;
  std::vector<Edge> edges_;
  std::vector<std::vector<std::pair<NodeId, double>>> estimates_;
  std::deque<std::vector<double>> history_;
};

void BM_PacketFilterIntercept(benchmark::State& state) {
  const int docs = static_cast<int>(state.range(0));
  PacketFilter filter(docs);
  Rng rng(1);
  for (DocId d = 0; d < docs; d += 3) filter.Install(d, 0.5);
  DocId d = 0;
  double u = 0.25;
  for (auto _ : state) {
    benchmark::DoNotOptimize(filter.Intercept(d, u));
    d = (d + 7) % docs;
    u = u < 0.5 ? u + 0.3 : u - 0.5;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PacketFilterIntercept)->Arg(64)->Arg(4096)->Arg(262144);

void BM_WebFold(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(42);
  const RoutingTree tree = MakeRandomTree(n, rng);
  std::vector<double> spont(static_cast<std::size_t>(n));
  for (auto& e : spont) e = rng.NextDouble(0, 100);
  for (auto _ : state) {
    benchmark::DoNotOptimize(WebFold(tree, spont));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_WebFold)->Arg(100)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_TlbMaxMeanRegions(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(43);
  const RoutingTree tree = MakeRandomTree(n, rng);
  std::vector<double> spont(static_cast<std::size_t>(n));
  for (auto& e : spont) e = rng.NextDouble(0, 100);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SolveTlbByMaxMeanRegions(tree, spont));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_TlbMaxMeanRegions)->Arg(100)->Arg(1000)->Arg(10000);

void BM_WebWaveStep(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(44);
  const RoutingTree tree = MakeRandomTree(n, rng);
  std::vector<double> spont(static_cast<std::size_t>(n));
  for (auto& e : spont) e = rng.NextDouble(0, 100);
  WebWaveSimulator sim(tree, spont);
  for (auto _ : state) {
    sim.Step();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_WebWaveStep)
    ->Arg(100)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Arg(1000000);

void BM_WebWaveStepLegacy(benchmark::State& state) {
  // Identical workload to BM_WebWaveStep, pre-refactor data layout.
  const int n = static_cast<int>(state.range(0));
  Rng rng(44);
  const RoutingTree tree = MakeRandomTree(n, rng);
  std::vector<double> spont(static_cast<std::size_t>(n));
  for (auto& e : spont) e = rng.NextDouble(0, 100);
  LegacyWebWaveStepper sim(tree, spont);
  for (auto _ : state) {
    sim.Step();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_WebWaveStepLegacy)->Arg(10000)->Arg(100000);

void BM_BatchWebWaveStep(benchmark::State& state) {
  // Catalog of documents as batched lanes over one shared tree; items are
  // (node, document) lane entries per step.
  const int n = static_cast<int>(state.range(0));
  const int docs = static_cast<int>(state.range(1));
  Rng rng(46);
  const RoutingTree tree = MakeRandomTree(n, rng);
  std::vector<std::vector<double>> lanes(static_cast<std::size_t>(docs));
  for (auto& lane : lanes) {
    lane.resize(static_cast<std::size_t>(n));
    for (auto& e : lane) e = rng.NextDouble(0, 10);
  }
  BatchWebWaveSimulator batch(tree, std::move(lanes));
  for (auto _ : state) {
    batch.Step();
  }
  state.SetItemsProcessed(state.iterations() * n * docs);
}
BENCHMARK(BM_BatchWebWaveStep)
    ->Args({10000, 16})
    ->Args({100000, 16})
    ->Args({100000, 64});

// The document-block width sweep behind WebWaveOptions::lane_block's
// default: the same catalog stepped at B = 1 (the old document-major
// layout), 4, 8 and 16, one shared tree and one shared edge build across
// all engines.  Hand-timed (not google-benchmark) so the records land in
// BENCH_step_blocked.json with explicit fields CI and the ROADMAP can
// diff; per-lane results are bit-identical across B, so the timings are
// directly comparable.  `modeled_bytes_per_lane_step` is the streamed
// traffic the layout implies: 104 B of lane state (phase-1 reads + delta
// round trip + phase-2 read-modify-writes) plus 16 B of edge metadata
// (two int32 endpoints + one double alpha) amortized over B lanes.
void RunBlockedStepSweep(bool smoke) {
  const std::vector<int> node_counts =
      smoke ? std::vector<int>{10000, 100000}
            : std::vector<int>{100000, 1000000};
  const int docs = 16;
  BenchJson json("micro_step_blocked");
  std::printf("\nblocked-step sweep (docs=%d%s):\n", docs,
              smoke ? ", WEBWAVE_SMOKE shapes" : "");
  for (const int nodes : node_counts) {
    Rng rng(46);
    const RoutingTree tree = MakeRandomTree(nodes, rng);
    const internal::SharedEdgeArrays edges =
        internal::BuildSharedEdgeArrays(tree, WebWaveOptions{});
    std::vector<std::vector<double>> lanes(static_cast<std::size_t>(docs));
    for (auto& lane : lanes) {
      lane.resize(static_cast<std::size_t>(nodes));
      for (auto& e : lane) e = rng.NextDouble(0, 10);
    }
    const int steps = nodes >= 1000000 ? 4 : (nodes >= 100000 ? 20 : 50);
    double base_ms = 0;
    for (const int B : {1, 4, 8, 16}) {
      WebWaveOptions opt;
      opt.lane_block = B;
      BatchWebWaveSimulator batch(tree, lanes, opt, edges);
      batch.Step();  // touch everything once before timing
      const auto t0 = std::chrono::steady_clock::now();
      for (int s = 0; s < steps; ++s) batch.Step();
      const double ms = bench::MillisSince(t0) / steps;
      if (B == 1) base_ms = ms;
      const double lane_steps_per_sec =
          static_cast<double>(nodes) * docs / (ms / 1000.0);
      std::printf(
          "  n=%-8d B=%-3d %8.2f ms/step  %7.1f Mlane-steps/s  %5.2fx vs B=1\n",
          nodes, B, ms, lane_steps_per_sec / 1e6, base_ms / ms);
      json.BeginRun();
      json.Add("nodes", nodes);
      json.Add("docs", docs);
      json.Add("lane_block", B);
      json.Add("ms_per_step", ms);
      json.Add("lane_steps_per_sec", lane_steps_per_sec);
      json.Add("speedup_vs_doc_major", base_ms / ms);
      json.Add("modeled_bytes_per_lane_step", 104.0 + 16.0 / B);
    }
  }
  bench::WriteArtifact(json, "BENCH_step_blocked.json");
}

void BM_DiffusionApplyDense(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(47);
  const UndirectedGraph g = GraphFromTree(MakeRandomTree(n, rng));
  const DiffusionMatrix d = DiffusionMatrix::DegreeBased(g);
  std::vector<double> x(static_cast<std::size_t>(n));
  for (auto& v : x) v = rng.NextDouble(0, 100);
  for (auto _ : state) {
    x = d.Apply(x);
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_DiffusionApplyDense)->Arg(256)->Arg(1024)->Arg(4096);

void BM_DiffusionApplySparse(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(47);
  const UndirectedGraph g = GraphFromTree(MakeRandomTree(n, rng));
  const SparseDiffusionMatrix d = SparseDiffusionMatrix::DegreeBased(g);
  std::vector<double> x(static_cast<std::size_t>(n));
  for (auto& v : x) v = rng.NextDouble(0, 100);
  std::vector<double> y;
  for (auto _ : state) {
    d.ApplyInto(x, y);
    std::swap(x, y);
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_DiffusionApplySparse)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(4096)
    ->Arg(100000)
    ->Arg(1000000);

void BM_EventSimulatorRoundTrip(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    int counter = 0;
    for (int i = 0; i < 1000; ++i)
      sim.ScheduleIn(i, [&counter] { ++counter; });
    sim.RunAll();
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventSimulatorRoundTrip);

void BM_ZipfSample(benchmark::State& state) {
  const ZipfDistribution zipf(static_cast<int>(state.range(0)), 1.0);
  Rng rng(45);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Sample(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfSample)->Arg(1000)->Arg(1000000);

}  // namespace
}  // namespace webwave

// Custom main: unless the caller asks otherwise, append a JSON record of
// every run to BENCH_webwave.json so the perf trajectory of the hot paths
// is captured by default.
int main(int argc, char** argv) {
  using namespace webwave;
  const bool smoke = bench::ReadConfig(1).smoke;
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  bool has_filter = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--benchmark_out=", 0) == 0) has_out = true;
    if (arg.rfind("--benchmark_filter", 0) == 0) has_filter = true;
  }
  std::string out = "--benchmark_out=BENCH_webwave.json";
  std::string fmt = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out.data());
    args.push_back(fmt.data());
  }
  int argc2 = static_cast<int>(args.size());
  benchmark::Initialize(&argc2, args.data());
  if (benchmark::ReportUnrecognizedArguments(argc2, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  // The lane-block sweep runs after the registered benchmarks unless the
  // caller filtered for particular ones.
  if (!has_filter) RunBlockedStepSweep(smoke);
  return 0;
}
