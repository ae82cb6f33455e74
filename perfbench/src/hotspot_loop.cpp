// hotspot_loop — control-plane writes beside data-plane reads.
//
// A quarter of tab_serving's closed-loop shape (5·10⁴ nodes x 16
// documents) with an ignorant diffusion engine, run for whole 8-epoch
// hot-spot rotations.
// The EpochDriver carries a CapacityProjector at a 1x working-set budget
// (the zero-eviction clamp) and a FaultProjector fed by a leaf-cohort
// crash schedule, so failover runs on every epoch after the first.
// Each epoch: serve half -> ArrivalFold -> ApplyEpoch -> install -> serve
// half.  Demand apply, diffusion, snapshot and plane refresh, clamp and
// re-home all fall inside the timed region.
#include <algorithm>
#include <filesystem>
#include <memory>
#include <vector>

#include "common.h"
#include "core/webwave_batch.h"
#include "fault/fault_projector.h"
#include "fault/fault_schedule.h"
#include "serve/closed_loop.h"
#include "serve/epoch_driver.h"
#include "serve/quota_snapshot.h"
#include "serve/request_gen.h"
#include "serve/serving_plane.h"
#include "store/cache_store.h"
#include "store/capacity_projector.h"
#include "store/document_sizes.h"
#include "tree/builders.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace webwave;

constexpr std::uint64_t kTreeSeed = 99;
constexpr int kRotation = 8;
constexpr int kStepsPerEpoch = 12;

struct Shape {
  int nodes;
  int docs;
  std::size_t window;  // requests per epoch (two halves)
  int epochs;
};

Shape ShapeFor(const RunOptions& o) {
  if (o.small) return {5000, 8, 100000, kRotation};
  // One rotation per ten seconds of --seconds, at least one; a rotation
  // takes about a third of that on a 4-vCPU x86 host, and every setup
  // repetition runs one.
  const int rotations = std::max(1, (o.seconds + 5) / 10);
  return {50000, 16, 500000, kRotation * rotations};
}

struct State {
  std::unique_ptr<RoutingTree> tree;
  std::unique_ptr<BatchWebWaveSimulator> sim;
  std::unique_ptr<ArrivalFold> fold;
  std::unique_ptr<CapacityProjector> capacity;
  std::unique_ptr<FaultSchedule> schedule;
  std::unique_ptr<FaultProjector> faults;
  std::unique_ptr<EpochDriver> driver;
  std::unique_ptr<ServingPlane> plane;
  std::vector<std::vector<Request>> windows;  // one per epoch
  std::vector<double> half_seconds;           // per epoch, for Drain
  double tree_s = 0, gen_s = 0, plane_s = 0, clamp_s = 0;
};

std::uint64_t WindowSeed(std::uint64_t seed, int epoch) {
  std::uint64_t s = seed * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(epoch);
  return SplitMix64(s);
}

std::unique_ptr<State> Setup(const RunOptions& o, const Shape& shape,
                             Tracer& tracer) {
  auto st = std::make_unique<State>();
  std::uint64_t t = NowNs();
  {
    ScopedSpan span(tracer, "tree.build");
    Rng rng(kTreeSeed);
    st->tree = std::make_unique<RoutingTree>(MakeRandomTree(shape.nodes, rng));
  }
  st->tree_s = Seconds(NowNs() - t);
  const RoutingTree& tree = *st->tree;

  {
    ScopedSpan span(tracer, "core.build");
    std::vector<std::vector<double>> guess(static_cast<std::size_t>(shape.docs));
    for (auto& lane : guess)
      lane.assign(static_cast<std::size_t>(tree.size()), 1e-3);
    WebWaveOptions wopt;
    wopt.threads = o.threads;
    st->sim = std::make_unique<BatchWebWaveSimulator>(tree, std::move(guess),
                                                      wopt);
  }
  st->fold = std::make_unique<ArrivalFold>(tree.size(), shape.docs);

  FaultScheduleOptions fopt;
  // Leaf cohorts: a crashed leaf fails each request once and the walk
  // resumes at its live parent, so failover runs but nothing is dropped.
  fopt.pattern = FaultPattern::kLeafCohort;
  fopt.crash_fraction = 0.05;
  fopt.outage_epochs = 2;
  fopt.start_epoch = 1;
  fopt.seed = o.seed;
  st->schedule = std::make_unique<FaultSchedule>(tree, fopt);
  st->faults = std::make_unique<FaultProjector>(tree);

  EpochDriver::Options dopt;
  dopt.steps_per_epoch = kStepsPerEpoch;
  st->driver = std::make_unique<EpochDriver>(*st->sim, dopt);
  t = NowNs();
  {
    ScopedSpan span(tracer, "store.clamp");
    st->capacity = std::make_unique<CapacityProjector>(
        tree, CacheStore::WorkingSetStore(
                  tree, DocumentSizes::LogNormal(shape.docs, 64 * 1024, 1.0, 7),
                  1.0));
    st->driver->AttachCapacity(st->capacity.get());
  }
  st->clamp_s = Seconds(NowNs() - t);
  {
    ScopedSpan span(tracer, "fault.rehome");
    st->driver->AttachFaults(st->faults.get());
  }

  t = NowNs();
  {
    ScopedSpan span(tracer, "serve.gen");
    for (int e = 0; e < shape.epochs; ++e) {
      RequestGenerator gen(
          tree, shape.docs,
          {RotatingHotSpotComponent(tree, shape.docs, 1.0, 50.0, 0.05,
                                    e % kRotation, kRotation)},
          WindowSeed(o.seed, e));
      st->windows.emplace_back();
      gen.NextBatch(shape.window, &st->windows.back());
      st->half_seconds.push_back(static_cast<double>(shape.window / 2) /
                                 gen.total_rate());
    }
  }
  st->gen_s = Seconds(NowNs() - t);

  t = NowNs();
  {
    ScopedSpan span(tracer, "serve.plane_build");
    ServingOptions sopt;
    sopt.threads = o.threads;
    sopt.block_size = std::max(65536, shape.nodes);
    // The generator total is epoch-invariant (the hot window only moves).
    sopt.offered_rate = static_cast<double>(shape.window / 2) /
                        st->half_seconds.front();
    st->plane = std::make_unique<ServingPlane>(tree, st->driver->serving(),
                                               sopt);
    st->driver->InstallDown(*st->plane);
  }
  st->plane_s = Seconds(NowNs() - t);
  return st;
}

// Per-epoch observations of one loop run.
struct LoopStats {
  std::uint64_t requests = 0, cache = 0, home = 0, dropped = 0, hops = 0;
  std::uint64_t failed_attempts = 0, max_served_sum = 0;
  std::uint64_t demand_events = 0, dirty_lanes = 0, down_node_epochs = 0;
  int snapshot_in_place = 0, plane_in_place = 0;
  bool balanced = true;  // cache + home + dropped == requests every epoch
  bool conserved = true;
  double loop_s = 0;
  std::vector<double> epoch_ms, fold_ms, install_ms;
  std::vector<double> epoch_total_s;  // each whole epoch, serving included
  std::vector<double> phase_ms[EpochDriver::kPhaseCount];
};

LoopStats RunLoop(State& st, const Shape& shape, HostSpeed& host,
                  Tracer& tracer) {
  LoopStats ls;
  RecordingClock clock;
  if (tracer.on()) st.driver->SetClock(&clock);
  static const char* const kPhaseSpan[EpochDriver::kPhaseCount] = {
      "core.demand", "core.step", "serve.snapshot_refresh",
      "store.clamp_refresh", "fault.rehome", "serve.install_driver"};
  const std::uint64_t t_loop = NowNs();
  for (int e = 0; e < shape.epochs; ++e) {
    const std::uint64_t tag = static_cast<std::uint64_t>(e);
    host.Probe(tracer);
    // The timed region is the epochs themselves, probes excluded.
    ScopedSpan root(tracer, "timed", tag);
    const std::uint64_t t_epoch = NowNs();
    std::vector<Request>& w = st.windows[static_cast<std::size_t>(e)];
    const std::size_t half = w.size() / 2;
    st.plane->ResetMetrics();
    {
      ScopedSpan span(tracer, "serve.serve", tag);
      st.plane->Serve(Span<Request>(w.data(), half));
    }
    std::uint64_t t = NowNs();
    std::vector<DemandEvent> events;
    {
      ScopedSpan span(tracer, "serve.fold", tag);
      st.fold->Count(Span<Request>(w.data(), half));
      events = st.fold->Drain(st.half_seconds[static_cast<std::size_t>(e)]);
    }
    ls.fold_ms.push_back(Seconds(NowNs() - t) * 1e3);
    ls.demand_events += events.size();
    std::vector<FaultEvent> fault_events;
    {
      ScopedSpan span(tracer, "fault.schedule", tag);
      fault_events = st.schedule->NextEvents();
    }
    t = NowNs();
    EpochDriver::Report report;
    {
      ScopedSpan span(tracer, "serve.epoch", tag);
      clock.Clear();
      report = st.driver->ApplyEpoch(
          Span<DemandEvent>(events.data(), events.size()),
          Span<const FaultEvent>(fault_events.data(), fault_events.size()));
      const auto& marks = clock.marks();
      if (marks.size() == EpochDriver::kPhaseCount + 1)
        for (int p = 0; p < EpochDriver::kPhaseCount; ++p)
          tracer.Add(kPhaseSpan[p], marks[static_cast<std::size_t>(p)],
                     marks[static_cast<std::size_t>(p) + 1], tag);
    }
    ls.epoch_ms.push_back(Seconds(NowNs() - t) * 1e3);
    for (int p = 0; p < EpochDriver::kPhaseCount; ++p)
      ls.phase_ms[p].push_back(static_cast<double>(report.phase_ns[p]) * 1e-6);
    ls.dirty_lanes += report.dirty.size();
    ls.snapshot_in_place += report.snapshot_in_place ? 1 : 0;
    ls.conserved = ls.conserved &&
                   st.capacity->ConservesTotalRate(st.driver->snapshot()) &&
                   st.faults->ConservesTotalRate(st.capacity->clamped());
    t = NowNs();
    {
      // The install phase, run here rather than by an attached plane so
      // ServingPlane::Refresh's in-place outcome is observable.
      ScopedSpan span(tracer, "serve.install", tag);
      ls.plane_in_place += st.plane->Refresh(st.driver->serving()) ? 1 : 0;
      st.driver->InstallDown(*st.plane);
    }
    ls.install_ms.push_back(Seconds(NowNs() - t) * 1e3);
    ls.down_node_epochs += st.driver->down().size();
    {
      ScopedSpan span(tracer, "serve.serve", tag);
      st.plane->Serve(Span<Request>(w.data() + half, w.size() - half));
    }
    ls.epoch_total_s.push_back(Seconds(NowNs() - t_epoch));
    const ServingMetrics& m = st.plane->metrics();
    ls.requests += m.requests;
    ls.cache += m.cache_served;
    ls.home += m.home_served;
    ls.dropped += m.dropped_requests;
    ls.hops += m.hop_sum;
    ls.failed_attempts += m.failed_attempts;
    ls.max_served_sum += m.MaxServed();
    ls.balanced = ls.balanced && m.requests == w.size() &&
                  m.cache_served + m.home_served + m.dropped_requests ==
                      m.requests;
  }
  ls.loop_s = Seconds(NowNs() - t_loop);
  st.driver->SetClock(nullptr);
  return ls;
}

bool SnapshotsIdentical(const QuotaSnapshot& a, const QuotaSnapshot& b) {
  if (a.node_count() != b.node_count() || a.cell_count() != b.cell_count())
    return false;
  for (NodeId v = 0; v < a.node_count(); ++v)
    if (a.row_begin(v) != b.row_begin(v) || a.row_end(v) != b.row_end(v))
      return false;
  for (std::int64_t c = 0; c < a.cell_count(); ++c) {
    const std::size_t i = static_cast<std::size_t>(c);
    if (a.cell_docs()[i] != b.cell_docs()[i] ||
        a.cell_rates()[i] != b.cell_rates()[i] ||
        a.cell_fractions()[i] != b.cell_fractions()[i])
      return false;
  }
  return true;
}

// Sum over epochs of each epoch's median wall time across repetitions.
double MedianLoopSeconds(const std::vector<std::vector<double>>& epoch_s) {
  double total = 0;
  for (std::size_t e = 0; e < epoch_s.front().size(); ++e) {
    std::vector<double> across;
    for (const auto& rep : epoch_s) across.push_back(rep[e]);
    total += Median(across);
  }
  return total;
}

}  // namespace

void RunHotspotLoop(const RunOptions& o, RunResult* r) {
  const Shape shape = ShapeFor(o);
  Tracer tracer(o.trace);
  Tracer off(false);

  // Every repetition sets up from scratch (setup_s is their median) and
  // runs the whole loop on identical inputs.  Throughput is taken from a
  // median loop: epoch by epoch, the median of that epoch's wall time
  // across repetitions, so a slow spell in one repetition is outvoted.
  // In a traced run only the last repetition records spans, and the
  // earlier ones are its untraced twin for the tracing overhead.
  const int reps = o.setup_reps > 0 ? o.setup_reps : 3;
  std::vector<double> setup_s;
  std::vector<std::vector<double>> epoch_s, untraced_epoch_s;
  std::uint64_t requests = 0, cache = 0, dropped = 0, max_served_sum = 0;
  bool identical = true, conserved = true, balanced = true;
  std::unique_ptr<State> st;
  LoopStats ls;
  HostSpeed host;
  for (int rep = 0; rep < reps; ++rep) {
    Tracer& tr = rep + 1 == reps ? tracer : off;
    st.reset();
    host.Probe(off);
    const std::uint64_t t = NowNs();
    st = Setup(o, shape, tr);
    setup_s.push_back(Seconds(NowNs() - t));
    ls = RunLoop(*st, shape, host, tr);
    const double mreq_s =
        static_cast<double>(ls.requests) / ls.loop_s / 1e6;
    (o.trace && rep + 1 < reps ? untraced_epoch_s : epoch_s)
        .push_back(ls.epoch_total_s);
    const QuotaSnapshot fresh =
        QuotaSnapshot::FromBatch(*st->sim, EpochDriver::Options().min_rate);
    identical = identical && SnapshotsIdentical(st->driver->snapshot(), fresh);
    conserved = conserved && ls.conserved;
    balanced = balanced && ls.balanced;
    requests += ls.requests;
    cache += ls.cache;
    dropped += ls.dropped;
    max_served_sum += ls.max_served_sum;
    std::printf("  rep %d: setup %.3f s, loop %.3f s (%.3f Mreq/s), epoch "
                "p50 %.1f ms\n",
                rep, setup_s.back(), ls.loop_s, mreq_s, Median(ls.epoch_ms));
  }
  const double rotation_requests =
      static_cast<double>(shape.window) * shape.epochs;
  const double mreq_s = rotation_requests / MedianLoopSeconds(epoch_s) / 1e6;
  const double slowdown = host.Slowdown();

  r->Check(identical,
           "maintained snapshot cell-identical to QuotaSnapshot::FromBatch");
  r->Check(conserved, "per-epoch spill conservation (capacity, faults)");
  r->Check(balanced, "per-epoch cache + home + dropped == requests");
  const std::uint64_t expected = static_cast<std::uint64_t>(shape.window) *
                                 static_cast<std::uint64_t>(shape.epochs) *
                                 static_cast<std::uint64_t>(reps);
  r->Check(requests == expected, "every window request was counted");
  r->attempted = expected;
  r->failed = r->check_failures.empty() ? dropped : expected;

  const double req = static_cast<double>(requests);
  std::printf("hotspot_loop: %d nodes x %d docs, %d epochs of %zu requests x "
              "%d reps, setup %.3f s, %.3f Mreq/s, host slowdown %.4f, "
              "hit %.4f\n",
              shape.nodes, shape.docs, shape.epochs, shape.window, reps,
              Median(setup_s), mreq_s, slowdown,
              static_cast<double>(cache) / req);

  r->e2e["setup_s"] = Median(setup_s) / slowdown;
  r->e2e["peak_rss_mb"] = PeakRssMb();
  r->e2e["throughput_mreq_s"] = mreq_s * slowdown;
  r->e2e["hit_ratio"] = static_cast<double>(cache) / req;
  r->e2e["load_gain"] = req / static_cast<double>(max_served_sum);
  r->e2e["ok_ratio"] = 1.0 - static_cast<double>(r->failed) / req;

  if (o.trace) {
    const auto self = tracer.SelfSeconds();
    const auto at = [&](const char* n) {
      const auto it = self.find(n);
      return it == self.end() ? 0.0 : it->second;
    };
    // Per-layer figures describe the last (traced) repetition.
    const double requests = static_cast<double>(ls.requests);
    const double served = static_cast<double>(ls.cache + ls.home);
    std::vector<double> step_ms;
    for (const double d : ls.phase_ms[EpochDriver::kDiffusion])
      step_ms.push_back(d / kStepsPerEpoch);
    double diffusion_s = 0;
    for (const double d : ls.phase_ms[EpochDriver::kDiffusion])
      diffusion_s += d * 1e-3;
    r->layer["tree.build_s"] = st->tree_s;
    r->layer["serve.gen_mreq_s"] = requests / st->gen_s / 1e6;
    r->layer["store.clamp_s"] = st->clamp_s;
    r->layer["store.evicted_cells"] =
        static_cast<double>(st->capacity->evicted_cells());
    r->layer["store.spill_ratio"] =
        st->capacity->spilled_rate() / st->driver->snapshot().total_rate();
    r->layer["serve.plane_build_s"] = st->plane_s;
    r->layer["serve.ns_per_req"] = at("serve.serve") * 1e9 / requests;
    r->layer["serve.hops_per_req"] = static_cast<double>(ls.hops) / served;
    r->layer["serve.failovers_per_req"] =
        static_cast<double>(ls.failed_attempts) / requests;
    r->layer["serve.fold_ms"] = Median(ls.fold_ms);
    r->layer["serve.epochs"] = shape.epochs;
    r->layer["serve.epoch_p50_ms"] = Median(ls.epoch_ms);
    r->layer["serve.snapshot_refresh_ms"] =
        Median(ls.phase_ms[EpochDriver::kRefresh]);
    r->layer["serve.snapshot_in_place"] = ls.snapshot_in_place;
    r->layer["serve.install_ms"] = Median(ls.install_ms);
    r->layer["serve.plane_in_place"] = ls.plane_in_place;
    r->layer["store.clamp_refresh_ms"] =
        Median(ls.phase_ms[EpochDriver::kClamp]);
    r->layer["core.demand_apply_ms"] =
        Median(ls.phase_ms[EpochDriver::kDemand]);
    r->layer["core.demand_events"] = static_cast<double>(ls.demand_events);
    r->layer["core.step_ms"] = Median(step_ms);
    r->layer["core.lane_steps_per_s"] =
        static_cast<double>(shape.nodes) * shape.docs * kStepsPerEpoch *
        shape.epochs / diffusion_s;
    r->layer["core.dirty_lanes"] = static_cast<double>(ls.dirty_lanes);
    r->layer["core.step_decay"] = step_ms.back() / step_ms.front();
    r->layer["fault.rehome_ms"] = Median(ls.phase_ms[EpochDriver::kRehome]);
    r->layer["fault.down_nodes"] = static_cast<double>(ls.down_node_epochs);
    r->layer["host.probe_ms"] = host.MedianProbeS() * 1e3;
    ReportCoverage(tracer, "timed", r);
    r->layer["trace.overhead_mreq_s"] =
        untraced_epoch_s.empty()
            ? 0.0
            : mreq_s - rotation_requests /
                           MedianLoopSeconds(untraced_epoch_s) / 1e6;
    std::filesystem::create_directories(kTraceDir);
    tracer.WriteJsonLines(std::string(kTraceDir) + "/hotspot_loop-" +
                          std::to_string(o.seed) + ".jsonl");
  }
}

}  // namespace perfbench
