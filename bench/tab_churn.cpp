// E12 (extension) — §5.1's ongoing study: WebWave under erratic request
// rates, on the batch engine.
//
// The paper's evaluation holds the spontaneous rates constant and notes
// that "the dynamics of WebWave under erratic request rates is the
// subject of an ongoing simulation study."  This bench runs that study at
// catalog scale: a ChurnSchedule drives a BatchWebWaveSimulator with
// sparse demand-event batches — a rotating hot spot sliding around the
// leaves, flash crowds igniting random subtrees, and Zipf popularity
// re-shuffles — and we measure how closely every document lane tracks its
// own moving TLB optimum (the time-averaged relative distance and the
// worst epoch-end distance).
//
// Settings (bench_util.h): WEBWAVE_THREADS workers (default 1).  The shape
// is already small, so WEBWAVE_SMOKE changes nothing.
#include <algorithm>
#include <cstdio>
#include <string>

#include "bench_util.h"
#include "sim/churn.h"
#include "stats/summary.h"
#include "tree/builders.h"
#include "util/ascii.h"

int main() {
  using namespace webwave;
  const int threads = bench::ReadConfig(1).threads;
  std::printf(
      "E12 / Section 5.1 (extension) — tracking moving TLB optima, batched\n"
      "random tree n=200, 8-document catalog stepped as one batch;\n"
      "all lanes tracked against their own instantaneous TLB\n\n");

  Rng tree_rng(9);
  const RoutingTree tree = MakeRandomTree(200, tree_rng);
  const int docs = 8;

  AsciiTable table({"pattern", "period (steps)", "events/epoch",
                    "mean rel dist", "worst end rel dist",
                    "max node load"});
  for (const ChurnPattern pattern :
       {ChurnPattern::kRotatingHotSpot, ChurnPattern::kFlashCrowd,
        ChurnPattern::kZipfReshuffle}) {
    for (const int period : {10, 30, 100}) {
      ChurnScheduleOptions sched_opt;
      sched_opt.pattern = pattern;
      sched_opt.doc_count = docs;
      sched_opt.base_rate = 2.0;
      sched_opt.hot_rate = 60.0;
      sched_opt.hot_fraction = 0.15;
      sched_opt.rotation_epochs = 8;
      sched_opt.seed = 42;
      ChurnSchedule schedule(tree, sched_opt);

      BatchChurnOptions opt;
      opt.epochs = 16;
      opt.period = period;
      opt.tlb_lanes = docs;
      opt.protocol.threads = threads;
      const BatchChurnRun run = RunBatchChurn(tree, schedule, opt);

      double events = 0, max_load = 0;
      for (std::size_t e = 1; e < run.epochs.size(); ++e)
        events += static_cast<double>(run.epochs[e].events);
      events /= static_cast<double>(run.epochs.size() - 1);
      for (const BatchChurnEpoch& e : run.epochs)
        max_load = std::max(max_load, e.max_node_load_end);

      table.AddRow({PatternName(pattern), std::to_string(period),
                    AsciiTable::Num(events, 0),
                    AsciiTable::Num(run.mean_relative_distance, 4),
                    AsciiTable::Num(run.worst_end_relative_distance, 4),
                    AsciiTable::Num(max_load, 1)});
    }
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf(
      "Reading: tracking error scales with how much demand each pattern\n"
      "moves per epoch and shrinks as the quiet period grows.  The rotating\n"
      "hot spot (sparse events, constant total demand) recovers fastest;\n"
      "Zipf re-shuffles move every lane at once and track worst at short\n"
      "periods.  The whole catalog advances as one batched sweep per step,\n"
      "so these scenarios run unchanged at millions of nodes\n"
      "(tab_rotating_hotspot).\n");
  return 0;
}
