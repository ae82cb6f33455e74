// E15 — serving under finite storage: the capacity sweep the infinite-
// storage benches could not run.
//
// Part 1 sweeps per-node byte budgets from 0.1× to 10× the catalog
// working set (plus the uncapacitated reference) across three placements
// — WebWave-TLB, home-only, greedy-by-popularity — over a lognormal
// document size field.  Every placement is clamped through the
// CapacityProjector (quota-weighted eviction, spill to the surviving
// ancestor) and the same request stream is served against the clamped
// copies, measuring what finite servers actually deliver: cache hit
// ratio, max-server load, hops, evicted cells and spilled rate.
//
// Part 2 runs the capacity-aware closed loop: one diffusion engine
// learns the rotating demand purely from folded arrivals (as in
// tab_serving part 2) while three storage variants serve each epoch from
// the same maintained snapshot — uncapacitated, a 1× working-set store
// and a 0.25× store, against home-only on the identical stream.
//
// Two properties are asserted, not just plotted (the process exits
// nonzero on violation):
//   * spill conserves total quota rate through every projection, and
//   * a >= 1× working-set budget evicts nothing, so the capacity-aware
//     loop's serving metrics equal the uncapacitated loop's exactly;
//     at 0.25× WebWave-TLB must still beat home-only on max load.
//
// Emits BENCH_capacity.json.  Settings (bench_util.h): WEBWAVE_THREADS
// workers (default 1); WEBWAVE_SMOKE runs the CI smoke shapes — part 1
// at 8000 nodes × 8 documents × 2·10⁵ requests, part 2 at 4000 × 8 × 3
// epochs of 10⁵-request windows — instead of 2·10⁵ × 64 × 4·10⁶ and
// 5·10⁴ × 16 × 6 × 10⁶.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/webwave_batch.h"
#include "serve/closed_loop.h"
#include "serve/placement_policy.h"
#include "serve/quota_snapshot.h"
#include "serve/request_gen.h"
#include "serve/serving_plane.h"
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
  const int nodes = smoke ? 8000 : 200000;
  const int docs = smoke ? 8 : 64;
  const long long requests = smoke ? 200000LL : 4000000LL;

  std::printf(
      "E15 — capacity-constrained serving: %d nodes x %d documents x %lld\n"
      "requests, lognormal document sizes, per-node budgets swept against\n"
      "the catalog working set.  %d worker thread(s).%s\n\n",
      nodes, docs, requests, threads,
      smoke ? "\n(WEBWAVE_SMOKE: reduced configuration)" : "");

  BenchJson json("tab_capacity");
  json.BeginRun();
  json.Add("record", std::string("config"));
  json.Add("nodes", nodes);
  json.Add("docs", docs);
  json.Add("requests", requests);
  json.Add("threads", threads);

  Rng rng(static_cast<std::uint64_t>(nodes) + docs);
  const RoutingTree tree = MakeRandomTree(nodes, rng);

  // The size field comes through the catalog, so the kilobyte view the
  // packet layer uses and the byte view the store accounts stay one draw.
  const Catalog catalog = Catalog::MakeLogNormal(docs, 64.0, 1.0, 2027);
  const DocumentSizes sizes = DocumentSizes::FromCatalog(catalog);
  json.BeginRun();
  json.Add("record", std::string("sizes"));
  json.Add("working_set_mb",
           static_cast<double>(sizes.total_bytes()) / (1024.0 * 1024.0));
  json.Add("max_doc_mb",
           static_cast<double>(sizes.max_bytes()) / (1024.0 * 1024.0));

  // Part 1 — budget sweep over static placements ------------------------
  RequestGenerator gen(
      tree, docs,
      {RotatingHotSpotComponent(tree, docs, 1.0, 50.0, 0.05, 1, 8)}, 2024);
  const std::vector<std::vector<double>> lanes = gen.ExpectedLanes();
  std::vector<Request> stream;
  gen.NextBatch(static_cast<std::size_t>(requests), &stream);

  const double sweep[] = {0.1, 0.25, 0.5, 1.0, 2.0, 10.0};
  std::vector<std::unique_ptr<PlacementPolicy>> policies;
  policies.push_back(std::make_unique<HomeOnlyPolicy>());
  policies.push_back(std::make_unique<GreedyByPopularityPolicy>(2));
  policies.push_back(std::make_unique<WebWaveTlbPolicy>());

  AsciiTable table({"placement", "budget x", "evicted", "spill %", "hit %",
                    "mean hops", "max load", "serve Mreq/s"});
  std::uint64_t home_max_at_quarter = 0, ww_max_at_quarter = 0;
  for (const auto& policy : policies) {
    const QuotaSnapshot base = policy->Place(tree, lanes);
    ServingOptions opt;
    opt.threads = threads;
    opt.offered_rate = gen.total_rate();
    opt.block_size = std::max(65536, nodes);

    // Uncapacitated reference first, then the budget ladder.
    ServingMetrics uncap;
    for (int step = -1; step < static_cast<int>(sizeof sweep / sizeof *sweep);
         ++step) {
      const bool capped = step >= 0;
      const double multiple = capped ? sweep[step] : -1.0;
      QuotaSnapshot serve_snap = base;
      std::int64_t evicted = 0;
      double spilled = 0;
      double project_ms = 0;
      if (capped) {
        const auto t_project = Clock::now();
        CapacityProjector projector(
            tree, CacheStore::WorkingSetStore(tree, sizes, multiple));
        projector.Project(base);
        project_ms = MillisSince(t_project);
        if (!projector.ConservesTotalRate(base)) {
          std::printf("FATAL: spill failed to conserve total rate (%s %.2fx)\n",
                      policy->name().c_str(), multiple);
          return 1;
        }
        evicted = projector.evicted_cells();
        spilled = projector.spilled_rate();
        serve_snap = projector.clamped();
      }
      ServingPlane plane(tree, std::move(serve_snap), opt);
      const auto t_serve = Clock::now();
      plane.Serve(stream);
      const double serve_ms = MillisSince(t_serve);
      const ServingMetrics& m = plane.metrics();
      if (!capped) uncap = m;
      // >= 1x working set: nothing fits worse than the catalog itself, so
      // eviction must not fire and serving must be bitwise the reference.
      if (capped && multiple >= 1.0 && !(evicted == 0 && m == uncap)) {
        std::printf("FATAL: %.2fx working-set budget diverged from the\n"
                    "uncapacitated reference (%s)\n",
                    multiple, policy->name().c_str());
        return 1;
      }
      if (capped && multiple == 0.25) {
        if (policy->name() == "home-only") home_max_at_quarter = m.MaxServed();
        if (policy->name() == "webwave-tlb") ww_max_at_quarter = m.MaxServed();
      }

      const double mreq_s = static_cast<double>(requests) / serve_ms / 1e3;
      table.AddRow(
          {policy->name(), capped ? AsciiTable::Num(multiple, 2) : "inf",
           AsciiTable::Int(evicted),
           AsciiTable::Num(100 * spilled / base.total_rate(), 1),
           AsciiTable::Num(100 * m.HitRatio(), 1),
           AsciiTable::Num(m.MeanHops(), 2),
           AsciiTable::Int(static_cast<long long>(m.MaxServed())),
           AsciiTable::Num(mreq_s, 2)});
      json.BeginRun();
      json.Add("record", std::string("sweep"));
      json.Add("placement", policy->name());
      json.Add("budget_x", multiple);
      json.Add("evicted_cells", static_cast<long long>(evicted));
      json.Add("spilled_rate", spilled);
      json.Add("project_ms", project_ms);
      json.Add("hit_ratio", m.HitRatio());
      json.Add("mean_hops", m.MeanHops());
      json.Add("max_load", static_cast<long long>(m.MaxServed()));
      json.Add("serve_ms", serve_ms);
      json.Add("req_per_sec", static_cast<double>(requests) / serve_ms * 1e3);
    }
  }
  std::printf("%s\n", table.Render().c_str());
  if (home_max_at_quarter == 0 ||
      ww_max_at_quarter >= home_max_at_quarter) {
    std::printf(
        "FATAL: WebWave-TLB lost to home-only on max load at 0.25x budget\n");
    return 1;
  }

  // Part 2 — the capacity-aware closed loop -----------------------------
  const int loop_nodes = smoke ? 4000 : 50000;
  const int loop_docs = smoke ? 8 : 16;
  const int loop_epochs = smoke ? 3 : 6;
  const std::size_t loop_window = smoke ? 100000 : 1000000;
  const int rotation = 8;
  std::printf(
      "capacity-aware closed loop: %d nodes x %d documents, %d epochs,\n"
      "%zu requests per window.  One engine learns from folded arrivals;\n"
      "uncapacitated, 1.0x and 0.25x working-set stores serve each epoch\n"
      "from the same maintained snapshot.\n\n",
      loop_nodes, loop_docs, loop_epochs, loop_window);

  Rng loop_rng(99);
  const RoutingTree loop_tree = MakeRandomTree(loop_nodes, loop_rng);
  const Catalog loop_catalog = Catalog::MakeLogNormal(loop_docs, 64.0, 1.0, 5);
  const DocumentSizes loop_sizes = DocumentSizes::FromCatalog(loop_catalog);
  std::vector<std::vector<double>> guess(static_cast<std::size_t>(loop_docs));
  for (auto& lane : guess)
    lane.assign(static_cast<std::size_t>(loop_tree.size()), 1e-3);
  WebWaveOptions wopt;
  wopt.threads = threads;
  BatchWebWaveSimulator sim(loop_tree, std::move(guess), wopt);
  ArrivalFold fold(loop_tree.size(), loop_docs);

  QuotaSnapshot base = QuotaSnapshot::FromBatch(sim, 1e-12);
  sim.ClearDirtyLanes();
  CapacityProjector full_store(
      loop_tree, CacheStore::WorkingSetStore(loop_tree, loop_sizes, 1.0));
  CapacityProjector quarter_store(
      loop_tree, CacheStore::WorkingSetStore(loop_tree, loop_sizes, 0.25));
  full_store.Project(base);
  quarter_store.Project(base);

  AsciiTable loop_table({"epoch", "uncap max", "1.0x max", "0.25x max",
                         "home max", "0.25x evicted", "0.25x hit %"});
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

    // First half from the stale copies feeds the fold (origins only —
    // where requests were *served* never enters the loop).
    {
      ServingPlane stale(loop_tree, quarter_store.clamped(), sopt);
      stale.Serve(Span<Request>(window_buf.data(), half));
    }
    fold.Count(Span<Request>(window_buf.data(), half));
    sim.ApplyDemandEvents(fold.Drain(
        static_cast<double>(half) / wgen.total_rate()));
    for (int s = 0; s < 12; ++s) sim.Step();

    const std::vector<int> dirty = sim.DirtyLanes();
    base.RefreshFromBatch(sim);
    full_store.Refresh(base, Span<const int>(dirty.data(), dirty.size()));
    quarter_store.Refresh(base, Span<const int>(dirty.data(), dirty.size()));
    sim.ClearDirtyLanes();
    if (!full_store.ConservesTotalRate(base) ||
        !quarter_store.ConservesTotalRate(base)) {
      std::printf("FATAL: loop projection failed to conserve total rate\n");
      return 1;
    }

    const Span<Request> second(window_buf.data() + half, loop_window - half);
    ServingPlane uncap(loop_tree, base, sopt);
    uncap.Serve(second);
    ServingPlane at_full(loop_tree, full_store.clamped(), sopt);
    at_full.Serve(second);
    ServingPlane at_quarter(loop_tree, quarter_store.clamped(), sopt);
    at_quarter.Serve(second);
    ServingPlane home(
        loop_tree, HomeOnlyPolicy().Place(loop_tree, wgen.ExpectedLanes()),
        sopt);
    home.Serve(second);

    // The acceptance assertions: 1x storage is the uncapacitated loop,
    // exactly; quarter storage still beats home-only on max load.
    if (!(at_full.metrics() == uncap.metrics())) {
      std::printf("FATAL: 1.0x working-set loop diverged from the\n"
                  "uncapacitated loop at epoch %d\n", epoch);
      return 1;
    }
    if (at_quarter.metrics().MaxServed() >= home.metrics().MaxServed()) {
      std::printf("FATAL: 0.25x working-set loop lost to home-only at\n"
                  "epoch %d\n", epoch);
      return 1;
    }

    loop_table.AddRow(
        {std::to_string(epoch),
         AsciiTable::Int(static_cast<long long>(uncap.metrics().MaxServed())),
         AsciiTable::Int(
             static_cast<long long>(at_full.metrics().MaxServed())),
         AsciiTable::Int(
             static_cast<long long>(at_quarter.metrics().MaxServed())),
         AsciiTable::Int(static_cast<long long>(home.metrics().MaxServed())),
         AsciiTable::Int(quarter_store.evicted_cells()),
         AsciiTable::Num(100 * at_quarter.metrics().HitRatio(), 1)});
    json.BeginRun();
    json.Add("record", std::string("capacity_loop"));
    json.Add("epoch", epoch);
    json.Add("uncap_max", static_cast<long long>(uncap.metrics().MaxServed()));
    json.Add("full_max",
             static_cast<long long>(at_full.metrics().MaxServed()));
    json.Add("quarter_max",
             static_cast<long long>(at_quarter.metrics().MaxServed()));
    json.Add("home_max", static_cast<long long>(home.metrics().MaxServed()));
    json.Add("quarter_evicted",
             static_cast<long long>(quarter_store.evicted_cells()));
    json.Add("quarter_spilled", quarter_store.spilled_rate());
    json.Add("quarter_hit_ratio", at_quarter.metrics().HitRatio());
  }
  std::printf("%s\n", loop_table.Render().c_str());

  bench::WriteArtifact(json, "BENCH_capacity.json");
  std::printf(
      "\nReading: finite storage is where placements differentiate — with a\n"
      "full working set per node the capacity machinery is invisible (and\n"
      "asserted invisible); as budgets shrink, quota-weighted eviction\n"
      "spills the thinnest copies up-tree, hit ratio and balance degrade\n"
      "gracefully, and WebWave keeps beating home-only down to a quarter\n"
      "of the working set per node.\n");
  return 0;
}
