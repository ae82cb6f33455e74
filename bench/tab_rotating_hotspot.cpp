// E13 — a rotating hot spot over a million-node tree, full catalog.
//
// The load-balance claims of the paper (and of DistCache-style follow-up
// work) only matter under shifting multi-object demand: a hot region that
// moves around the edge of the network while a whole catalog of documents
// diffuses.  This bench runs that scenario at production scale — 10⁶
// nodes × 64 document lanes — with the demand window sliding one eighth
// of the leaf ring per epoch.  Each epoch applies a sparse batch of
// demand events through BatchWebWaveSimulator::ApplyDemandEvents (cost
// proportional to the *changed* leaves, not the tree) and then advances a
// few diffusion periods on the threaded batch step.
//
// Emits BENCH_churn_batch.json (one record per epoch plus a config
// record) so CI and later sessions can diff the measured costs.
//
// Settings (bench_util.h): WEBWAVE_THREADS workers (default 0 = one per
// hardware thread); WEBWAVE_SMOKE runs the CI smoke shape, 20000 nodes ×
// 8 documents × 4 epochs, instead of 10⁶ × 64 × 8 (one revolution).  Both
// take 3 diffusion steps per epoch at the default document block width.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "sim/churn.h"
#include "tree/builders.h"
#include "util/ascii.h"
#include "util/bench_json.h"
#include "util/rng.h"

int main() {
  using namespace webwave;
  using bench::MillisSince;
  using Clock = std::chrono::steady_clock;

  const auto [smoke, threads] = bench::ReadConfig(0);
  const int nodes = smoke ? 20000 : 1000000;
  const int docs = smoke ? 8 : 64;
  const int epochs = smoke ? 4 : 8;
  const int steps_per_epoch = 3;

  std::printf(
      "E13 — rotating hot spot at catalog scale: %d nodes x %d documents,\n"
      "hot window = 5%% of the leaves sliding 1/%d of the leaf ring per\n"
      "epoch; %d diffusion steps per epoch on the threaded batch engine.\n\n",
      nodes, docs, epochs, steps_per_epoch);

  Rng rng(static_cast<std::uint64_t>(nodes) + static_cast<std::uint64_t>(docs));
  const auto t_tree = Clock::now();
  const RoutingTree tree = MakeRandomTree(nodes, rng);
  const double tree_ms = MillisSince(t_tree);

  ChurnScheduleOptions sched_opt;
  sched_opt.pattern = ChurnPattern::kRotatingHotSpot;
  sched_opt.doc_count = docs;
  sched_opt.base_rate = 1.0;
  sched_opt.hot_rate = 100.0;
  sched_opt.hot_fraction = 0.05;
  sched_opt.rotation_epochs = epochs;
  sched_opt.seed = 17;
  ChurnSchedule schedule(tree, sched_opt);

  WebWaveOptions opt;
  opt.threads = threads;
  const auto t_setup = Clock::now();
  BatchWebWaveSimulator batch(tree, schedule.Lanes(), opt);
  const double setup_ms = MillisSince(t_setup);
  std::printf("tree build %.0f ms, batch setup %.0f ms, %d worker thread(s)\n\n",
              tree_ms, setup_ms, batch.thread_count());

  BenchJson json("tab_rotating_hotspot");
  json.BeginRun();
  json.Add("record", std::string("config"));
  json.Add("nodes", nodes);
  json.Add("docs", docs);
  json.Add("epochs", epochs);
  json.Add("steps_per_epoch", steps_per_epoch);
  json.Add("threads", batch.thread_count());
  json.Add("lane_block", batch.lane_block());
  json.Add("tree_ms", tree_ms);
  json.Add("setup_ms", setup_ms);

  AsciiTable table({"epoch", "events", "apply ms", "ms/step",
                    "Mlane-steps/s", "max node load"});
  for (int epoch = 0; epoch < epochs; ++epoch) {
    std::size_t events = 0;
    double apply_ms = 0;
    if (epoch > 0) {
      const auto t_events = Clock::now();
      const std::vector<DemandEvent> shift = schedule.NextEvents();
      events = shift.size();
      batch.ApplyDemandEvents(shift);
      apply_ms = MillisSince(t_events);
    }
    const auto t_run = Clock::now();
    for (int s = 0; s < steps_per_epoch; ++s) batch.Step();
    const double run_ms = MillisSince(t_run);
    const double ms_per_step = run_ms / steps_per_epoch;
    const double lane_steps_per_sec = static_cast<double>(nodes) * docs *
                                      steps_per_epoch / (run_ms / 1000.0);
    const double max_load = batch.MaxNodeLoad();

    table.AddRow({std::to_string(epoch),
                  AsciiTable::Int(static_cast<long long>(events)),
                  AsciiTable::Num(apply_ms, 1),
                  AsciiTable::Num(ms_per_step, 1),
                  AsciiTable::Num(lane_steps_per_sec / 1e6, 1),
                  AsciiTable::Num(max_load, 1)});
    json.BeginRun();
    json.Add("record", std::string("epoch"));
    json.Add("epoch", epoch);
    json.Add("events", static_cast<long long>(events));
    json.Add("apply_ms", apply_ms);
    json.Add("ms_per_step", ms_per_step);
    json.Add("lane_steps_per_sec", lane_steps_per_sec);
    json.Add("max_node_load", max_load);
  }
  std::printf("%s\n", table.Render().c_str());

  // One full invariant pass: every lane conserves its offered rate and
  // keeps NSS through a whole revolution of the hot window.
  batch.CheckInvariants(1e-5);
  std::printf("invariants hold across the full rotation (tol 1e-5)\n");

  bench::WriteArtifact(json, "BENCH_churn_batch.json");
  std::printf(
      "\nReading: an epoch's demand shift costs on the order of one or two\n"
      "diffusion steps (events touch only the leaves that changed, and only\n"
      "affected lanes re-project), and the catalog keeps advancing at the\n"
      "static benchmark's lane throughput — churn is on the fast path, not\n"
      "a rebuild.\n");
  return 0;
}
