// E9 — batched multi-document diffusion at scale.
//
// The paper's feasibility argument is per-server local work; the engine's
// feasibility argument is wall-clock per simulated period.  This table
// steps a whole catalog of hot documents as BatchWebWaveSimulator lanes
// over one shared random routing tree, up to 10⁶ nodes × 64 documents
// (64M load lanes per step), and records setup cost, per-step cost and
// lane throughput.  Per-lane behaviour is bit-identical to running one
// WebWaveSimulator per document (asserted by webwave_batch_test); only
// the memory layout is shared.
//
// Emits BENCH_batch_catalog.json (one record per configuration) so CI can
// archive the numbers per PR.  Settings (bench_util.h): WEBWAVE_THREADS
// workers (default 0 = one per hardware thread); WEBWAVE_SMOKE runs only
// the 10⁴-node × 8-document configuration — the CI smoke job's per-PR
// perf probe.  Every row uses the default document block width
// (WebWaveOptions::lane_block) except the last: the full run repeats the
// 10⁶ × 64 configuration at B = 1 — the old document-major layout — so
// the blocked kernel's speedup is measured side by side on identical
// (bit-identical, in fact) work.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "core/load_model.h"
#include "core/webwave_batch.h"
#include "tree/builders.h"
#include "util/ascii.h"
#include "util/bench_json.h"
#include "util/rng.h"

namespace webwave {
namespace {

std::vector<std::vector<double>> ZipfLanes(int nodes, int docs, Rng& rng) {
  // Document d's total demand follows a Zipf(1) catalog profile, spread
  // over random nodes — hot documents everywhere, cold ones sparse.
  std::vector<std::vector<double>> lanes(static_cast<std::size_t>(docs));
  for (int d = 0; d < docs; ++d) {
    auto& lane = lanes[static_cast<std::size_t>(d)];
    lane.assign(static_cast<std::size_t>(nodes), 0.0);
    const double doc_weight = 1000.0 / (1 + d);
    for (auto& e : lane)
      if (rng.NextBernoulli(0.5)) e = rng.NextDouble(0, doc_weight);
  }
  return lanes;
}

}  // namespace
}  // namespace webwave

int main() {
  using namespace webwave;
  using bench::MillisSince;
  using Clock = std::chrono::steady_clock;
  const auto [smoke, threads] = bench::ReadConfig(0);
  const int default_block = WebWaveOptions{}.lane_block;
  std::printf(
      "E9 — batched multi-document WebWave: one shared tree, one load lane\n"
      "per document, lanes interleaved in blocks of B documents; steps the\n"
      "whole catalog in a single pass per period.  lane-steps/s counts\n"
      "(node, document) pairs advanced per second.%s\n\n",
      smoke ? "\n(WEBWAVE_SMOKE: reduced configuration)" : "");

  AsciiTable table({"nodes", "docs", "B", "lanes", "setup ms", "ms/step",
                    "Mlane-steps/s", "max load after"});
  BenchJson json("tab_batch_catalog");
  struct Config {
    int nodes;
    int docs;
    int block;
  };
  // The trailing {1e6, 64, 1} row re-runs the flagship configuration in
  // the document-major layout for the blocked-vs-lane comparison.
  const std::vector<Config> configs =
      smoke ? std::vector<Config>{{10000, 8, default_block}}
            : std::vector<Config>{
                  {10000, 16, default_block},  {10000, 64, default_block},
                  {100000, 16, default_block}, {100000, 64, default_block},
                  {1000000, 16, default_block}, {1000000, 64, default_block},
                  {1000000, 64, 1},
              };
  for (const auto& [nodes, docs, block] : configs) {
    Rng rng(static_cast<std::uint64_t>(nodes) + docs);
    const RoutingTree tree = MakeRandomTree(nodes, rng);
    std::vector<std::vector<double>> lanes = ZipfLanes(nodes, docs, rng);

    WebWaveOptions opt;
    opt.threads = threads;
    opt.lane_block = block;
    const auto t_setup = Clock::now();
    BatchWebWaveSimulator batch(tree, std::move(lanes), opt);
    const double setup_ms = MillisSince(t_setup);

    const int steps = nodes >= 1000000 ? 5 : 20;
    const auto t_run = Clock::now();
    for (int s = 0; s < steps; ++s) batch.Step();
    const double run_ms = MillisSince(t_run);
    const double ms_per_step = run_ms / steps;
    const double lane_steps_per_sec =
        static_cast<double>(nodes) * docs * steps / (run_ms / 1000.0);
    const double max_load = batch.MaxNodeLoad();

    table.AddRow({AsciiTable::Int(nodes), AsciiTable::Int(docs),
                  AsciiTable::Int(batch.lane_block()),
                  AsciiTable::Int(static_cast<long long>(nodes) * docs),
                  AsciiTable::Num(setup_ms, 1), AsciiTable::Num(ms_per_step, 2),
                  AsciiTable::Num(lane_steps_per_sec / 1e6, 1),
                  AsciiTable::Num(max_load, 1)});
    json.BeginRun();
    json.Add("nodes", nodes);
    json.Add("docs", docs);
    json.Add("lane_block", batch.lane_block());
    json.Add("threads", batch.thread_count());
    json.Add("setup_ms", setup_ms);
    json.Add("ms_per_step", ms_per_step);
    json.Add("lane_steps_per_sec", lane_steps_per_sec);
    json.Add("max_node_load", max_load);
  }
  std::printf("%s\n", table.Render().c_str());

  bench::WriteArtifact(json, "BENCH_batch_catalog.json");
  std::printf(
      "\nReading: per-step cost scales linearly in lanes = nodes x docs; the\n"
      "shared edge arrays amortize topology across the catalog, so 64 hot\n"
      "documents on a million-node tree advance one diffusion period in\n"
      "seconds of wall clock, with no directory and no global state.\n");
  return 0;
}
