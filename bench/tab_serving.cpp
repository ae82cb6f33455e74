// E14 — the serving data plane: replaying tens of millions of requests
// against WebWave and baseline placements, then closing the loop.
//
// Part 1 is the paper-style comparison the control-plane tables cannot
// show: the same rotating-hot-spot request stream (10⁷ records over a
// 10⁶-node tree, 64-document catalog) served under four placements —
// home-only, uniform top-k replication, greedy-by-popularity en-route
// caching, and WebWave's TLB-realizing quotas — measuring what servers
// actually experience: max/mean load, load CoV, Jain fairness, cache hit
// ratio, hops climbed, and raw serving throughput (req/s).
//
// Part 2 runs the closed loop at a reduced shape: the diffusion engine
// starts ignorant, each epoch serves half a demand window from its
// current diffused copies, folds the measured arrivals back through
// ApplyDemandEvents, re-diffuses, incrementally re-syncs one maintained
// QuotaSnapshot (RefreshFromBatch over the engine's dirty lanes), and
// serves the second half from the refreshed placement — head-to-head
// against home-only on the same stream while the hot spot rotates.
//
// Part 3 isolates the incremental snapshot *and* the incremental serving
// plane: a catalog where 95 % of the documents sit at their diffusion
// fixed point (they step clean) while 5 % take a rotating hot window,
// re-snapshotted both ways each epoch — full FromBatch versus
// RefreshFromBatch over the dirty lanes — with the results asserted
// cell-for-cell identical and both timings recorded; the same epochs
// also rebuild a ServingPlane from scratch versus ServingPlane::Refresh
// over the dirty documents, asserted table-identical.
//
// Part 4 is the capacity sweep at part-1 scale: the WebWave-TLB
// placement clamped through a CapacityProjector at a ladder of per-node
// byte budgets (lognormal document sizes), served against the part-1
// stream — the storage axis tab_capacity sweeps in full, here at 10⁶
// nodes.  Spill conservation and the >= 1x-budget no-op are asserted.
//
// Part 5 measures the observer effect of request tracing: the part-1
// WebWave-TLB placement served five times each way, alternating tracing
// off and on at the default 1/2^14 sampling, each replay on a fresh
// plane — with every traced run's serving metrics asserted bit-identical
// to the untraced ones (tracing reads decisions, never makes them) and
// the delta of the median replay times reported; the first traced walks
// are dumped to BENCH_trace_sample.jsonl.
//
// Emits BENCH_serving.json, BENCH_serving_timeline.jsonl (one record per
// closed-loop epoch from the part-2 EpochDriver timeline) and
// BENCH_trace_sample.jsonl.  Settings (bench_util.h): WEBWAVE_THREADS
// workers (default 1); WEBWAVE_SMOKE runs the CI smoke shapes — part 1
// at 10⁴ nodes × 8 documents × 2·10⁵ requests, part 2 at 5000 × 8 × 3
// epochs of 10⁵-request windows, part 3 at 5000 × 20 × 3 epochs —
// instead of 10⁶ × 64 × 10⁷, 2·10⁵ × 16 × 6 × 2·10⁶ and 2·10⁵ × 128 × 12.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/webwave_batch.h"
#include "obs/clock.h"
#include "obs/metric_registry.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "serve/closed_loop.h"
#include "serve/placement_policy.h"
#include "serve/epoch_driver.h"
#include "serve/quota_snapshot.h"
#include "serve/request_gen.h"
#include "serve/serving_plane.h"
#include "stats/summary.h"
#include "store/cache_store.h"
#include "store/capacity_projector.h"
#include "store/document_sizes.h"
#include "tree/builders.h"
#include "util/ascii.h"
#include "util/bench_json.h"
#include "util/rng.h"

int main() {
  using namespace webwave;
  using bench::MillisSince;
  using Clock = std::chrono::steady_clock;

  const auto [smoke, threads] = bench::ReadConfig(1);
  const int nodes = smoke ? 10000 : 1000000;
  const int docs = smoke ? 8 : 64;
  const long long requests = smoke ? 200000LL : 10000000LL;

  std::printf(
      "E14 — request-serving data plane over batch WebWave placements:\n"
      "%d nodes x %d documents x %lld requests (rotating hot spot),\n"
      "%d worker thread(s).%s\n\n",
      nodes, docs, requests, threads,
      smoke ? "\n(WEBWAVE_SMOKE: reduced configuration)" : "");

  BenchJson json("tab_serving");
  json.BeginRun();
  json.Add("record", std::string("config"));
  json.Add("nodes", nodes);
  json.Add("docs", docs);
  json.Add("requests", requests);
  json.Add("threads", threads);

  Rng rng(static_cast<std::uint64_t>(nodes) + docs);
  const auto t_tree = Clock::now();
  const RoutingTree tree = MakeRandomTree(nodes, rng);
  std::printf("tree build %.0f ms\n", MillisSince(t_tree));

  // Part 1 — one demand field, four placements, one request stream ------
  RequestGenerator gen(
      tree, docs,
      {RotatingHotSpotComponent(tree, docs, 1.0, 50.0, 0.05, 1, 8)}, 2024);
  const auto t_lanes = Clock::now();
  const std::vector<std::vector<double>> lanes = gen.ExpectedLanes();
  const auto t_gen = Clock::now();
  std::vector<Request> stream;
  gen.NextBatch(static_cast<std::size_t>(requests), &stream);
  const double gen_ms = MillisSince(t_gen);
  std::printf("demand lanes %.0f ms, stream generation %.0f ms (%.1f Mreq/s)\n\n",
              MillisSince(t_lanes) - gen_ms, gen_ms,
              static_cast<double>(requests) / gen_ms / 1e3);

  AsciiTable table({"placement", "copies", "place ms", "serve Mreq/s",
                    "hit %", "mean hops", "max load", "max/mean", "CoV",
                    "Jain"});
  const int top_k = std::max(2, docs / 4);
  const int replicas = std::max(8, nodes / 4000);
  const auto policies = StandardPolicies(top_k, replicas, 2, 7);
  for (const auto& policy : policies) {
    const auto t_place = Clock::now();
    QuotaSnapshot snap = policy->Place(tree, lanes);
    const double place_ms = MillisSince(t_place);
    const long long cells = snap.cell_count();

    ServingOptions opt;
    opt.threads = threads;
    opt.offered_rate = gen.total_rate();
    // Token windows sized so a typical server earns a few requests per
    // block — at 10⁶ servers a block must span a few million requests for
    // proportional quotas to be meaningful at request granularity.
    opt.block_size = std::max(65536, nodes);
    ServingPlane plane(tree, std::move(snap), opt);
    const auto t_serve = Clock::now();
    plane.Serve(stream);
    const double serve_ms = MillisSince(t_serve);

    const ServingMetrics& m = plane.metrics();
    const std::vector<double> loads = m.Loads();
    const double mean =
        static_cast<double>(requests) / static_cast<double>(nodes);
    const double mreq_s = static_cast<double>(requests) / serve_ms / 1e3;
    const double max_load = static_cast<double>(m.MaxServed());
    table.AddRow({policy->name(), AsciiTable::Int(cells),
                  AsciiTable::Num(place_ms, 0), AsciiTable::Num(mreq_s, 2),
                  AsciiTable::Num(100 * m.HitRatio(), 1),
                  AsciiTable::Num(m.MeanHops(), 2),
                  AsciiTable::Int(static_cast<long long>(m.MaxServed())),
                  AsciiTable::Num(max_load / mean, 1),
                  AsciiTable::Num(CoefficientOfVariation(loads), 2),
                  AsciiTable::Num(JainFairness(loads), 3)});
    json.BeginRun();
    json.Add("record", std::string("policy"));
    json.Add("placement", policy->name());
    json.Add("cells", cells);
    json.Add("place_ms", place_ms);
    json.Add("serve_ms", serve_ms);
    json.Add("req_per_sec", static_cast<double>(requests) / serve_ms * 1e3);
    json.Add("hit_ratio", m.HitRatio());
    json.Add("mean_hops", m.MeanHops());
    json.Add("max_load", static_cast<long long>(m.MaxServed()));
    json.Add("load_cov", CoefficientOfVariation(loads));
    json.Add("jain", JainFairness(loads));
  }
  std::printf("%s\n", table.Render().c_str());

  // Part 2 — the closed loop under a rotating hot spot ------------------
  const int loop_nodes = smoke ? 5000 : 200000;
  const int loop_docs = smoke ? 8 : 16;
  const int loop_epochs = smoke ? 3 : 6;
  const std::size_t loop_window = smoke ? 100000 : 2000000;
  const int rotation = 8;
  std::printf(
      "closed loop: %d nodes x %d documents, %d epochs, %zu requests per\n"
      "window; the engine starts ignorant and learns only from folded\n"
      "arrival measurements (serve half -> fold -> re-diffuse -> serve half).\n\n",
      loop_nodes, loop_docs, loop_epochs, loop_window);

  Rng loop_rng(99);
  const RoutingTree loop_tree = MakeRandomTree(loop_nodes, loop_rng);
  std::vector<std::vector<double>> guess(static_cast<std::size_t>(loop_docs));
  for (auto& lane : guess)
    lane.assign(static_cast<std::size_t>(loop_tree.size()), 1e-3);
  WebWaveOptions wopt;
  wopt.threads = threads;
  BatchWebWaveSimulator sim(loop_tree, std::move(guess), wopt);
  ArrivalFold fold(loop_tree.size(), loop_docs);

  AsciiTable loop_table({"epoch", "events", "webwave max", "home max",
                         "improvement", "hit %", "loop ms"});
  std::vector<Request> window_buf;
  // One maintained snapshot *and* one maintained serving plane for the
  // whole loop: the snapshot re-syncs from the engine's dirty lanes
  // (RefreshFromBatch), the plane re-syncs from the snapshot
  // (ServingPlane::Refresh) — nothing is rebuilt from scratch per epoch.
  EpochDriver driver(sim);  // default 12 diffusion steps per epoch
  // The telemetry plane rides the loop: the driver publishes per-epoch
  // gauges into a MetricRegistry and appends one JSON-lines record per
  // epoch (phase timings through the steady clock) to the timeline.
  MetricRegistry loop_registry;
  Timeline loop_timeline("serving_timeline");
  SteadyClock loop_clock;
  driver.AttachRegistry(&loop_registry);
  driver.AttachTimeline(&loop_timeline);
  driver.SetClock(&loop_clock);
  ServingOptions loop_sopt;
  loop_sopt.threads = threads;
  loop_sopt.block_size = std::max(65536, loop_nodes);
  // The generator total is epoch-invariant (the hot window only moves),
  // so one fixed scale serves every epoch.
  {
    RequestGenerator probe(
        loop_tree, loop_docs,
        {RotatingHotSpotComponent(loop_tree, loop_docs, 1.0, 50.0, 0.05, 0,
                                  rotation)},
        500);
    loop_sopt.offered_rate = probe.total_rate();
  }
  ServingPlane plane(loop_tree, driver.snapshot(), loop_sopt);
  plane.AttachRegistry(&loop_registry, "serve.");
  driver.AttachPlane(&plane);
  for (int epoch = 0; epoch < loop_epochs; ++epoch) {
    const auto t_epoch = Clock::now();
    RequestGenerator wgen(
        loop_tree, loop_docs,
        {RotatingHotSpotComponent(loop_tree, loop_docs, 1.0, 50.0, 0.05,
                                  epoch, rotation)},
        500 + epoch);
    wgen.NextBatch(loop_window, &window_buf);
    const std::size_t half = loop_window / 2;
    const double half_seconds =
        static_cast<double>(half) / wgen.total_rate();
    ServingOptions sopt = loop_sopt;

    // First half: stale copies; its measurements drive the re-balance.
    plane.ResetMetrics();
    plane.Serve(Span<Request>(window_buf.data(), half));
    fold.Count(Span<Request>(window_buf.data(), half));
    const std::vector<DemandEvent> events = fold.Drain(half_seconds);
    // One call per control epoch: demand into the engine, diffusion,
    // snapshot re-sync, attached-plane refresh.
    driver.ApplyEpoch(events, {});
    plane.ResetMetrics();
    plane.Serve(Span<Request>(window_buf.data() + half, loop_window - half));
    ServingPlane home(loop_tree,
                      HomeOnlyPolicy().Place(loop_tree, wgen.ExpectedLanes()),
                      sopt);
    home.Serve(Span<Request>(window_buf.data() + half, loop_window - half));

    const double loop_ms = MillisSince(t_epoch);
    const std::uint64_t ww_max = plane.metrics().MaxServed();
    const std::uint64_t home_max = home.metrics().MaxServed();
    loop_table.AddRow(
        {std::to_string(epoch),
         AsciiTable::Int(static_cast<long long>(events.size())),
         AsciiTable::Int(static_cast<long long>(ww_max)),
         AsciiTable::Int(static_cast<long long>(home_max)),
         AsciiTable::Num(static_cast<double>(home_max) /
                             static_cast<double>(std::max<std::uint64_t>(
                                 1, ww_max)),
                         1) +
             "x",
         AsciiTable::Num(100 * plane.metrics().HitRatio(), 1),
         AsciiTable::Num(loop_ms, 0)});
    json.BeginRun();
    json.Add("record", std::string("loop_epoch"));
    json.Add("epoch", epoch);
    json.Add("events", static_cast<long long>(events.size()));
    json.Add("webwave_max", static_cast<long long>(ww_max));
    json.Add("home_max", static_cast<long long>(home_max));
    json.Add("hit_ratio", plane.metrics().HitRatio());
    json.Add("loop_ms", loop_ms);
  }
  std::printf("%s\n", loop_table.Render().c_str());
  {
    const char* tl_out = "BENCH_serving_timeline.jsonl";
    std::printf("%s %s (%zu epoch records)\n",
                loop_timeline.WriteJsonLines(tl_out) ? "wrote"
                                                     : "FAILED to write",
                tl_out, loop_timeline.record_count());
    std::printf("registry after the loop: epochs %llu, serve.requests %llu\n\n",
                static_cast<unsigned long long>(
                    loop_registry.counter(loop_registry.Counter("epoch.count"))),
                static_cast<unsigned long long>(loop_registry.counter(
                    loop_registry.Counter("serve.requests"))));
  }

  // Part 3 — incremental vs full snapshot at 5 % lane churn --------------
  //
  // 95 % of the catalog sits at its diffusion fixed point (demand at the
  // home only — converged from the first step, so Step() leaves it
  // bit-identical and clean); the other 5 % are flash-crowd lanes: each
  // owns a fixed hot stretch of the leaf ring whose request intensity is
  // redrawn every epoch.  Early epochs grow the hot lanes' copy sets
  // (diffusion still filling their request paths), so the CSR shape
  // moves; once the paths are provisioned the copy sets freeze and the
  // shape holds (the "shape" column).  Each epoch re-snapshots both ways
  // and asserts the results identical cell for cell.
  const int snap_nodes = smoke ? 5000 : 200000;
  const int snap_docs = smoke ? 20 : 128;
  const int snap_epochs = smoke ? 3 : 12;
  const int hot_docs = std::max(1, snap_docs / 20);  // ~5 % of the lanes
  std::printf(
      "incremental snapshot: %d nodes x %d documents, %d flash-crowd\n"
      "lane(s) (~%.0f%%) re-shocked per epoch, the rest at their fixed\n"
      "point.\n\n",
      snap_nodes, snap_docs, hot_docs,
      100.0 * hot_docs / snap_docs);

  Rng snap_rng(7);
  const RoutingTree snap_tree = MakeRandomTree(snap_nodes, snap_rng);
  std::vector<std::vector<double>> snap_lanes(
      static_cast<std::size_t>(snap_docs));
  for (auto& lane : snap_lanes) {
    lane.assign(static_cast<std::size_t>(snap_tree.size()), 0.0);
    lane[static_cast<std::size_t>(snap_tree.root())] = 25.0;
  }
  WebWaveOptions snap_opt;
  snap_opt.threads = threads;
  BatchWebWaveSimulator snap_sim(snap_tree, std::move(snap_lanes), snap_opt);

  std::vector<NodeId> snap_leaves;
  for (NodeId v = 0; v < snap_tree.size(); ++v)
    if (snap_tree.is_leaf(v)) snap_leaves.push_back(v);
  const std::size_t hot_window = std::max<std::size_t>(
      1, snap_leaves.size() / 500);

  // At this floor a lane's copy set is "every path node diffusion has
  // ever provisioned" — it grows while the frontier sweeps the (fixed)
  // request paths, then freezes, which is what lets the snapshot's shape
  // (and with it the plane's in-place refresh) hold in the later epochs.
  const double snap_min_rate = 1e-12;
  QuotaSnapshot incr = QuotaSnapshot::FromBatch(snap_sim, snap_min_rate);
  snap_sim.ClearDirtyLanes();

  // The maintained serving plane refreshed per epoch, timed against a
  // from-scratch construction and asserted table-identical to it.
  ServingOptions snap_sopt;
  snap_sopt.threads = threads;
  snap_sopt.offered_rate = 25.0 * snap_docs;
  snap_sopt.block_size = std::max(65536, snap_nodes);
  ServingPlane inc_plane(snap_tree, incr, snap_sopt);

  AsciiTable snap_table({"epoch", "dirty lanes", "cells", "shape", "full ms",
                         "incremental ms", "speedup", "plane full ms",
                         "plane incr ms", "identical"});
  for (int epoch = 0; epoch < snap_epochs; ++epoch) {
    // Re-shock the flash-crowd lanes: each keeps its own fixed stretch of
    // the leaf ring, the per-leaf intensity is redrawn every epoch (well
    // above the quota floor, so the copy set freezes once diffusion has
    // provisioned the request paths).
    Rng shock(1000 + static_cast<std::uint64_t>(epoch));
    std::vector<DemandEvent> events;
    for (int h = 0; h < hot_docs; ++h) {
      const int d = snap_docs - 1 - h;  // hot lanes live at the catalog tail
      for (std::size_t i = 0; i < hot_window; ++i) {
        const std::size_t leaf =
            (static_cast<std::size_t>(h) * hot_window + i) %
            snap_leaves.size();
        events.push_back({d, snap_leaves[leaf], shock.NextDouble(20, 60)});
      }
    }
    snap_sim.ApplyDemandEvents(events);
    for (int s = 0; s < 8; ++s) snap_sim.Step();
    const int dirty = snap_sim.dirty_lane_count();

    const auto t_full = Clock::now();
    const QuotaSnapshot full = QuotaSnapshot::FromBatch(snap_sim,
                                                        snap_min_rate);
    const double full_ms = MillisSince(t_full);
    const auto t_incr = Clock::now();
    const bool in_place = incr.RefreshFromBatch(snap_sim);
    const double incr_ms = MillisSince(t_incr);
    snap_sim.ClearDirtyLanes();

    // The serving-plane analogue: rebuild from scratch vs Refresh in
    // place.
    const auto t_plane_full = Clock::now();
    const ServingPlane full_plane(snap_tree, full, snap_sopt);
    const double plane_full_ms = MillisSince(t_plane_full);
    const auto t_plane_incr = Clock::now();
    const bool plane_in_place = inc_plane.Refresh(incr);
    const double plane_incr_ms = MillisSince(t_plane_incr);
    if (!inc_plane.TablesEqual(full_plane)) {
      std::printf("FATAL: refreshed serving plane diverged from a fresh one\n");
      return 1;
    }

    bool identical = incr.cell_count() == full.cell_count();
    for (NodeId v = 0; identical && v < snap_tree.size(); ++v)
      identical = incr.row_begin(v) == full.row_begin(v) &&
                  incr.row_end(v) == full.row_end(v);
    for (std::int64_t c = 0; identical && c < full.cell_count(); ++c) {
      const std::size_t i = static_cast<std::size_t>(c);
      identical = incr.cell_docs()[i] == full.cell_docs()[i] &&
                  incr.cell_rates()[i] == full.cell_rates()[i] &&
                  incr.cell_fractions()[i] == full.cell_fractions()[i];
    }
    if (!identical) {
      std::printf("FATAL: incremental snapshot diverged from full rebuild\n");
      return 1;
    }

    snap_table.AddRow(
        {std::to_string(epoch), AsciiTable::Int(dirty),
         AsciiTable::Int(full.cell_count()), in_place ? "held" : "moved",
         AsciiTable::Num(full_ms, 2), AsciiTable::Num(incr_ms, 2),
         AsciiTable::Num(full_ms / std::max(1e-9, incr_ms), 1) + "x",
         AsciiTable::Num(plane_full_ms, 2), AsciiTable::Num(plane_incr_ms, 2),
         "yes"});
    json.BeginRun();
    json.Add("record", std::string("snapshot_epoch"));
    json.Add("epoch", epoch);
    json.Add("nodes", snap_nodes);
    json.Add("docs", snap_docs);
    json.Add("dirty_lanes", dirty);
    json.Add("cells", static_cast<long long>(full.cell_count()));
    json.Add("in_place", in_place ? 1 : 0);
    json.Add("full_ms", full_ms);
    json.Add("incremental_ms", incr_ms);
    json.Add("snapshot_speedup", full_ms / std::max(1e-9, incr_ms));
    json.Add("plane_full_ms", plane_full_ms);
    json.Add("plane_incremental_ms", plane_incr_ms);
    json.Add("plane_in_place", plane_in_place ? 1 : 0);
    json.Add("plane_speedup", plane_full_ms / std::max(1e-9, plane_incr_ms));
  }
  std::printf("%s\n", snap_table.Render().c_str());

  // Part 4 — capacity sweep at part-1 scale -----------------------------
  //
  // The part-1 WebWave-TLB placement clamped to finite per-node storage:
  // lognormal document sizes, budgets as working-set multiples, the
  // part-1 request stream replayed against each clamped snapshot.
  {
    std::printf(
        "capacity sweep: WebWave-TLB at %d nodes, budgets as multiples of\n"
        "the catalog working set (lognormal sizes, median 64 KB).\n\n",
        nodes);
    const DocumentSizes sizes = DocumentSizes::FromCatalog(
        Catalog::MakeLogNormal(docs, 64.0, 1.0, 2027));
    const QuotaSnapshot base = WebWaveTlbPolicy().Place(tree, lanes);
    ServingOptions copt;
    copt.threads = threads;
    copt.offered_rate = gen.total_rate();
    copt.block_size = std::max(65536, nodes);
    ServingMetrics uncap;
    AsciiTable cap_table({"budget x", "evicted", "spill %", "hit %",
                          "max load", "project ms"});
    for (const double multiple : {-1.0, 0.1, 0.25, 1.0}) {
      const bool capped = multiple >= 0;
      QuotaSnapshot serve_snap = base;
      std::int64_t evicted = 0;
      double spilled = 0, project_ms = 0;
      if (capped) {
        const auto t_project = Clock::now();
        CapacityProjector projector(
            tree, CacheStore::WorkingSetStore(tree, sizes, multiple));
        projector.Project(base);
        project_ms = MillisSince(t_project);
        if (!projector.ConservesTotalRate(base)) {
          std::printf("FATAL: spill failed to conserve total rate\n");
          return 1;
        }
        evicted = projector.evicted_cells();
        spilled = projector.spilled_rate();
        serve_snap = projector.clamped();
      }
      ServingPlane cap_plane(tree, std::move(serve_snap), copt);
      cap_plane.Serve(stream);
      const ServingMetrics& m = cap_plane.metrics();
      if (!capped) uncap = m;
      if (capped && multiple >= 1.0 && !(evicted == 0 && m == uncap)) {
        std::printf(
            "FATAL: >=1x working-set budget diverged from uncapacitated\n");
        return 1;
      }
      cap_table.AddRow(
          {capped ? AsciiTable::Num(multiple, 2) : "inf",
           AsciiTable::Int(evicted),
           AsciiTable::Num(100 * spilled / base.total_rate(), 1),
           AsciiTable::Num(100 * m.HitRatio(), 1),
           AsciiTable::Int(static_cast<long long>(m.MaxServed())),
           AsciiTable::Num(project_ms, 1)});
      json.BeginRun();
      json.Add("record", std::string("capacity"));
      json.Add("budget_x", multiple);
      json.Add("evicted_cells", static_cast<long long>(evicted));
      json.Add("spilled_rate", spilled);
      json.Add("hit_ratio", m.HitRatio());
      json.Add("max_load", static_cast<long long>(m.MaxServed()));
      json.Add("project_ms", project_ms);
    }
    std::printf("%s\n", cap_table.Render().c_str());
  }

  // Part 5 — the observer effect of sampled tracing ---------------------
  //
  // Tracing reads admission decisions but never makes them, so a traced
  // run must land on bit-identical serving metrics; the only acceptable
  // cost is throughput, measured here at the default 1/2^14 sampling.
  // A single timed replay per side reads host noise (±30 % at the smoke
  // shape), so the replays alternate, each on a fresh plane (block
  // numbering restarts), and the medians are compared.
  {
    constexpr int kReplays = 5;
    std::printf(
        "trace overhead: WebWave-TLB at %d nodes, the part-1 stream served\n"
        "%d times each untraced and traced at the default 1/2^%d sampling,\n"
        "alternating; medians compared.\n\n",
        nodes, kReplays, ServingOptions().trace_sample_shift);
    const QuotaSnapshot base = WebWaveTlbPolicy().Place(tree, lanes);
    ServingOptions topt;
    topt.threads = threads;
    topt.offered_rate = gen.total_rate();
    topt.block_size = std::max(65536, nodes);

    std::vector<double> plain_times, traced_times;
    ServingMetrics plain_metrics;
    std::unique_ptr<ServingPlane> traced;  // the last traced replay
    for (int rep = 0; rep < kReplays; ++rep) {
      for (const bool trace : {false, true}) {
        topt.trace = trace;  // default seed and sampling shift
        auto plane = std::make_unique<ServingPlane>(tree, base, topt);
        const auto t0 = Clock::now();
        plane->Serve(stream);
        (trace ? traced_times : plain_times).push_back(MillisSince(t0));
        if (!trace) {
          plain_metrics = plane->metrics();
        } else if (!(plane->metrics() == plain_metrics)) {
          std::printf("FATAL: tracing changed the serving outcome\n");
          return 1;
        } else {
          traced = std::move(plane);
        }
      }
    }
    const auto median = [](std::vector<double> v) {
      std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
      return v[v.size() / 2];
    };
    const double plain_ms = median(plain_times);
    const double traced_ms = median(traced_times);
    const double plain_rps = static_cast<double>(requests) / plain_ms * 1e3;
    const double traced_rps = static_cast<double>(requests) / traced_ms * 1e3;
    const double overhead_pct = 100.0 * (traced_ms - plain_ms) / plain_ms;
    std::printf(
        "untraced %.2f Mreq/s, traced %.2f Mreq/s (medians; %+.2f%% time,\n"
        "%zu trace records), metrics bit-identical.%s\n\n",
        plain_rps / 1e6, traced_rps / 1e6, overhead_pct,
        traced->trace().size(),
        overhead_pct > 3.0 ? "\nWARNING: median tracing overhead exceeds 3%"
                           : "");
    json.BeginRun();
    json.Add("record", std::string("trace_overhead"));
    json.Add("sample_shift", topt.trace_sample_shift);
    json.Add("untraced_req_per_sec", plain_rps);
    json.Add("traced_req_per_sec", traced_rps);
    json.Add("overhead_pct", overhead_pct);
    json.Add("trace_records",
             static_cast<long long>(traced->trace().size()));

    // The first traced walks, one JSON line per event — enough to read a
    // request's whole story (arrival, hops, admission draws, disposition)
    // straight out of the artifact.
    Timeline sample("trace_sample");
    const std::size_t dump =
        std::min<std::size_t>(200, traced->trace().size());
    for (std::size_t i = 0; i < dump; ++i) {
      const TraceEvent& ev = traced->trace()[i];
      sample.BeginRecord();
      sample.Add("req_id", ev.req_id);
      sample.Add("seq", static_cast<int>(ev.seq));
      sample.Add("kind", std::string(TraceEventKindName(ev.kind)));
      sample.Add("node", static_cast<long long>(ev.node));
      sample.Add("aux", static_cast<int>(ev.aux));
      sample.Add("detail", ev.detail);
    }
    const char* tr_out = "BENCH_trace_sample.jsonl";
    std::printf("%s %s (%zu of %zu trace events)\n\n",
                sample.WriteJsonLines(tr_out) ? "wrote" : "FAILED to write",
                tr_out, dump, traced->trace().size());
  }

  bench::WriteArtifact(json, "BENCH_serving.json");
  std::printf(
      "\nReading: the data plane turns the control plane's rate quotas into\n"
      "request-level reality — WebWave's placement cuts the home server's\n"
      "load by orders of magnitude at >90%% cache hit ratio, demand-blind\n"
      "uniform replication barely dents it, and the closed loop keeps the\n"
      "balance as the hot spot rotates, with no oracle demand knowledge\n"
      "anywhere in the loop.\n");
  return 0;
}
