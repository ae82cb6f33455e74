// E16 — serving through failures: the fault-plane sweep.
//
// Part 1 crashes 1–20% of the non-home nodes (plus one whole-subtree
// regional outage) under three placements — WebWave-TLB, home-only,
// greedy-by-popularity — at the 10⁶ x 64 scale.  Every placement's
// snapshot is re-homed through the FaultProjector (crashed copies
// vanish, their quota spills to the nearest live ancestor copy) and the
// same request stream is served with failover routing against the same
// down set, measuring what outages actually cost: degraded hit ratio,
// failovers, dropped requests, backoff and max-server load.
//
// Part 2 runs the closed loop through a rolling subtree outage: one
// diffusion engine learns rotating demand purely from folded arrivals
// while a subtree dies, stays dead for a few epochs, recovers, and a
// different subtree dies — quota re-homes around each transition via the
// event-proportional fault refresh and the loop keeps learning.
//
// Two properties are asserted, not just plotted (the process exits
// nonzero on violation):
//   * re-homing conserves total quota rate through every projection and
//     every crash/recover epoch, and
//   * with 10% of nodes crashed, WebWave-TLB's max server load stays at
//     least 5x below home-only's on the identical degraded stream.
//
// Emits BENCH_faults.json.  Settings (bench_util.h): WEBWAVE_THREADS
// workers (default 1); WEBWAVE_SMOKE runs the CI smoke shapes — part 1
// at 8000 nodes × 8 documents × 2·10⁵ requests, part 2 at 4000 × 8 × 5
// epochs of 10⁵-request windows — instead of 10⁶ × 64 × 4·10⁶ and
// 5·10⁴ × 16 × 9 × 10⁶.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/webwave_batch.h"
#include "fault/fault_projector.h"
#include "fault/fault_schedule.h"
#include "serve/closed_loop.h"
#include "serve/epoch_driver.h"
#include "serve/placement_policy.h"
#include "serve/quota_snapshot.h"
#include "serve/request_gen.h"
#include "serve/serving_plane.h"
#include "tree/builders.h"
#include "util/ascii.h"
#include "util/bench_json.h"
#include "util/rng.h"

int main() {
  using namespace webwave;
  using bench::MillisSince;
  using Clock = std::chrono::steady_clock;

  const auto [smoke, threads] = bench::ReadConfig(1);
  const int nodes = smoke ? 8000 : 1000000;
  const int docs = smoke ? 8 : 64;
  const long long requests = smoke ? 200000LL : 4000000LL;

  std::printf(
      "E16 — serving through failures: %d nodes x %d documents x %lld\n"
      "requests; crash fractions swept 1%%–20%% plus one subtree outage,\n"
      "every placement re-homed through the FaultProjector and served with\n"
      "failover routing.  %d worker thread(s).%s\n\n",
      nodes, docs, requests, threads,
      smoke ? "\n(WEBWAVE_SMOKE: reduced configuration)" : "");

  BenchJson json("tab_faults");
  json.BeginRun();
  json.Add("record", std::string("config"));
  json.Add("nodes", nodes);
  json.Add("docs", docs);
  json.Add("requests", requests);
  json.Add("threads", threads);

  Rng rng(static_cast<std::uint64_t>(nodes) + docs + 1);
  const RoutingTree tree = MakeRandomTree(nodes, rng);

  // Part 1 — crash sweep over static placements -------------------------
  RequestGenerator gen(
      tree, docs,
      {RotatingHotSpotComponent(tree, docs, 1.0, 50.0, 0.05, 1, 8)}, 3001);
  const std::vector<std::vector<double>> lanes = gen.ExpectedLanes();
  std::vector<Request> stream;
  gen.NextBatch(static_cast<std::size_t>(requests), &stream);

  // One deterministic down set per scenario, shared by every placement so
  // the comparison is apples to apples.
  struct Scenario {
    const char* label;
    FaultPattern pattern;
    double fraction;  // 0 = the all-live reference
  };
  const Scenario scenarios[] = {
      {"none", FaultPattern::kSingleNodes, 0.0},
      {"single 1%", FaultPattern::kSingleNodes, 0.01},
      {"single 2%", FaultPattern::kSingleNodes, 0.02},
      {"single 5%", FaultPattern::kSingleNodes, 0.05},
      {"single 10%", FaultPattern::kSingleNodes, 0.10},
      {"single 20%", FaultPattern::kSingleNodes, 0.20},
      {"subtree", FaultPattern::kSubtreeOutage, 0.0},
  };
  std::vector<std::vector<NodeId>> down_sets;
  for (const Scenario& sc : scenarios) {
    if (sc.pattern == FaultPattern::kSingleNodes && sc.fraction == 0.0) {
      down_sets.emplace_back();
      continue;
    }
    FaultScheduleOptions fopt;
    fopt.pattern = sc.pattern;
    fopt.crash_fraction = sc.fraction;
    fopt.max_subtree_fraction = 0.05;
    fopt.outage_epochs = 1;
    fopt.start_epoch = 1;
    fopt.seed = 77;
    FaultSchedule sched(tree, fopt);
    sched.NextEvents();
    down_sets.push_back(sched.down());
  }

  std::vector<std::unique_ptr<PlacementPolicy>> policies;
  policies.push_back(std::make_unique<HomeOnlyPolicy>());
  policies.push_back(std::make_unique<GreedyByPopularityPolicy>(2));
  policies.push_back(std::make_unique<WebWaveTlbPolicy>());

  AsciiTable table({"placement", "faults", "down", "rehomed", "hit %",
                    "failovers", "dropped", "max load", "serve Mreq/s"});
  std::uint64_t home_max_at_tenth = 0, ww_max_at_tenth = 0;
  for (const auto& policy : policies) {
    const QuotaSnapshot base = policy->Place(tree, lanes);
    ServingOptions opt;
    opt.threads = threads;
    opt.offered_rate = gen.total_rate();
    opt.block_size = std::max(65536, nodes);

    for (std::size_t s = 0; s < down_sets.size(); ++s) {
      const Scenario& sc = scenarios[s];
      const std::vector<NodeId>& down = down_sets[s];
      QuotaSnapshot serve_snap = base;
      std::int64_t rehomed = 0;
      double project_ms = 0;
      if (!down.empty()) {
        const auto t_project = Clock::now();
        FaultProjector projector(tree);
        projector.SetDown(Span<const NodeId>(down.data(), down.size()));
        projector.Project(base);
        project_ms = MillisSince(t_project);
        if (!projector.ConservesTotalRate(base)) {
          std::printf(
              "FATAL: re-homing failed to conserve total rate (%s, %s)\n",
              policy->name().c_str(), sc.label);
          return 1;
        }
        rehomed = projector.evicted_cells();
        serve_snap = projector.clamped();
      }
      ServingPlane plane(tree, std::move(serve_snap), opt);
      plane.SetDownNodes(Span<const NodeId>(down.data(), down.size()));
      const auto t_serve = Clock::now();
      plane.Serve(stream);
      const double serve_ms = MillisSince(t_serve);
      const ServingMetrics& m = plane.metrics();
      if (sc.pattern == FaultPattern::kSingleNodes && sc.fraction == 0.10) {
        if (policy->name() == "home-only") home_max_at_tenth = m.MaxServed();
        if (policy->name() == "webwave-tlb") ww_max_at_tenth = m.MaxServed();
      }

      table.AddRow({policy->name(), sc.label,
                    AsciiTable::Int(static_cast<long long>(down.size())),
                    AsciiTable::Int(rehomed),
                    AsciiTable::Num(100 * m.HitRatio(), 1),
                    AsciiTable::Int(static_cast<long long>(m.failovers)),
                    AsciiTable::Int(static_cast<long long>(m.dropped_requests)),
                    AsciiTable::Int(static_cast<long long>(m.MaxServed())),
                    AsciiTable::Num(static_cast<double>(requests) / serve_ms /
                                        1e3,
                                    2)});
      json.BeginRun();
      json.Add("record", std::string("crash_sweep"));
      json.Add("placement", policy->name());
      json.Add("pattern", std::string(FaultPatternName(sc.pattern)));
      json.Add("crash_fraction", sc.fraction);
      json.Add("down_nodes", static_cast<long long>(down.size()));
      json.Add("rehomed_cells", static_cast<long long>(rehomed));
      json.Add("project_ms", project_ms);
      json.Add("hit_ratio", m.HitRatio());
      json.Add("mean_hops", m.MeanHops());
      json.Add("max_load", static_cast<long long>(m.MaxServed()));
      json.Add("failed_attempts", static_cast<long long>(m.failed_attempts));
      json.Add("failovers", static_cast<long long>(m.failovers));
      json.Add("dropped_requests",
               static_cast<long long>(m.dropped_requests));
      json.Add("drop_ratio", m.DropRatio());
      json.Add("backoff_slots", static_cast<long long>(m.backoff_slots));
      json.Add("serve_ms", serve_ms);
      json.Add("req_per_sec", static_cast<double>(requests) / serve_ms * 1e3);
    }
  }
  std::printf("%s\n", table.Render().c_str());
  // The headline acceptance: with a tenth of the fleet dead, load-aware
  // placement plus re-homing still beats ship-it-all-home by 5x on the
  // hottest server.
  if (home_max_at_tenth == 0 ||
      5 * ww_max_at_tenth > home_max_at_tenth) {
    std::printf(
        "FATAL: WebWave-TLB max load not 5x below home-only with 10%% of\n"
        "nodes crashed (webwave %llu vs home %llu)\n",
        static_cast<unsigned long long>(ww_max_at_tenth),
        static_cast<unsigned long long>(home_max_at_tenth));
    return 1;
  }

  // Part 2 — the closed loop through a rolling subtree outage -----------
  const int loop_nodes = smoke ? 4000 : 50000;
  const int loop_docs = smoke ? 8 : 16;
  const int loop_epochs = smoke ? 5 : 9;
  const std::size_t loop_window = smoke ? 100000 : 1000000;
  const int rotation = 8;
  std::printf(
      "fault-plane closed loop: %d nodes x %d documents, %d epochs, %zu\n"
      "requests per window.  The engine learns from folded arrivals while\n"
      "whole subtrees crash, stay dead for three epochs and recover; quota\n"
      "re-homes via the event-proportional fault refresh each epoch.\n\n",
      loop_nodes, loop_docs, loop_epochs, loop_window);

  Rng loop_rng(101);
  const RoutingTree loop_tree = MakeRandomTree(loop_nodes, loop_rng);
  std::vector<std::vector<double>> guess(static_cast<std::size_t>(loop_docs));
  for (auto& lane : guess)
    lane.assign(static_cast<std::size_t>(loop_tree.size()), 1e-3);
  WebWaveOptions wopt;
  wopt.threads = threads;
  BatchWebWaveSimulator sim(loop_tree, std::move(guess), wopt);
  ArrivalFold fold(loop_tree.size(), loop_docs);

  FaultScheduleOptions lopt;
  lopt.pattern = FaultPattern::kSubtreeOutage;
  lopt.max_subtree_fraction = 0.05;
  lopt.outage_epochs = 3;
  lopt.start_epoch = 2;
  lopt.seed = 11;
  FaultSchedule faults(loop_tree, lopt);

  FaultProjector projector(loop_tree);
  EpochDriver driver(sim);  // default 12 diffusion steps per epoch
  driver.AttachFaults(&projector);

  AsciiTable loop_table({"epoch", "down", "events", "ww max", "home max",
                         "hit %", "failovers", "dropped"});
  std::vector<Request> window_buf;
  for (int epoch = 0; epoch < loop_epochs; ++epoch) {
    RequestGenerator wgen(
        loop_tree, loop_docs,
        {RotatingHotSpotComponent(loop_tree, loop_docs, 1.0, 50.0, 0.05,
                                  epoch, rotation)},
        500 + epoch);
    wgen.NextBatch(loop_window, &window_buf);
    const std::size_t half = loop_window / 2;
    ServingOptions sopt;
    sopt.threads = threads;
    sopt.offered_rate = wgen.total_rate();
    sopt.block_size = std::max(65536, loop_nodes);

    // First half from the stale copies (and last epoch's down set) feeds
    // the fold — arrivals keep flowing from clients under a dead subtree,
    // so the loop keeps learning straight through the outage.
    {
      ServingPlane stale(loop_tree, driver.serving(), sopt);
      driver.InstallDown(stale);
      stale.Serve(Span<Request>(window_buf.data(), half));
    }
    fold.Count(Span<Request>(window_buf.data(), half));

    // One call per control epoch: demand into the engine, diffusion,
    // snapshot re-sync, event-proportional re-homing (conservation
    // asserted inside the driver).
    std::vector<DemandEvent> churn =
        fold.Drain(static_cast<double>(half) / wgen.total_rate());
    const std::vector<FaultEvent> events = faults.NextEvents();
    driver.ApplyEpoch(Span<DemandEvent>(churn.data(), churn.size()),
                      Span<const FaultEvent>(events.data(), events.size()));

    const Span<Request> second(window_buf.data() + half, loop_window - half);
    ServingPlane wave(loop_tree, driver.serving(), sopt);
    driver.InstallDown(wave);
    const auto t_serve = Clock::now();
    wave.Serve(second);
    const double serve_ms = MillisSince(t_serve);
    ServingPlane home(
        loop_tree, HomeOnlyPolicy().Place(loop_tree, wgen.ExpectedLanes()),
        sopt);
    driver.InstallDown(home);
    home.Serve(second);

    if (wave.metrics().MaxServed() >= home.metrics().MaxServed()) {
      std::printf("FATAL: the fault-aware loop lost to home-only on max\n"
                  "load at epoch %d\n", epoch);
      return 1;
    }

    const ServingMetrics& m = wave.metrics();
    loop_table.AddRow(
        {std::to_string(epoch),
         AsciiTable::Int(static_cast<long long>(projector.down().size())),
         AsciiTable::Int(static_cast<long long>(events.size())),
         AsciiTable::Int(static_cast<long long>(m.MaxServed())),
         AsciiTable::Int(static_cast<long long>(home.metrics().MaxServed())),
         AsciiTable::Num(100 * m.HitRatio(), 1),
         AsciiTable::Int(static_cast<long long>(m.failovers)),
         AsciiTable::Int(static_cast<long long>(m.dropped_requests))});
    json.BeginRun();
    json.Add("record", std::string("fault_loop"));
    json.Add("epoch", epoch);
    json.Add("down_nodes", static_cast<long long>(projector.down().size()));
    json.Add("fault_events", static_cast<long long>(events.size()));
    json.Add("ww_max", static_cast<long long>(m.MaxServed()));
    json.Add("home_max",
             static_cast<long long>(home.metrics().MaxServed()));
    json.Add("hit_ratio", m.HitRatio());
    json.Add("failovers", static_cast<long long>(m.failovers));
    json.Add("dropped_requests", static_cast<long long>(m.dropped_requests));
    json.Add("drop_ratio", m.DropRatio());
    json.Add("serve_ms", serve_ms);
    json.Add("req_per_sec",
             static_cast<double>(loop_window - half) / serve_ms * 1e3);
  }
  std::printf("%s\n", loop_table.Render().c_str());

  bench::WriteArtifact(json, "BENCH_faults.json");
  std::printf(
      "\nReading: crashes move load, they do not destroy it — re-homing\n"
      "conserves the provisioned rate (asserted) while failover routing\n"
      "walks requests past the dead nodes.  Hit ratio degrades with the\n"
      "crash fraction and recovers with the fleet; load-aware placement\n"
      "keeps the hottest surviving server 5x below home-only even with a\n"
      "tenth of the fleet down, because spilled quota lands on the nearest\n"
      "surviving copies instead of the root.\n");
  return 0;
}
