// tlb_replay — the read-only data plane.
//
// A fixed 5·10⁴-node random tree, a 64-document rotating-hot-spot demand
// with Zipf(1) per-leaf catalog draws, WebWave's TLB placement clamped
// to a 0.25x working-set store (eviction and spill really happen), then
// a multi-second ServingPlane::Serve replay of a seeded request stream.
// Placement and clamp land in setup_s; the diffusion engine is never
// called, so an engine change must show no movement here.
#include <filesystem>
#include <memory>
#include <vector>

#include "common.h"
#include "serve/placement_policy.h"
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

// The deployment (tree, catalog sizes) is fixed; the seed drives only the
// request stream, so exact metrics move by sampling noise across seeds.
constexpr std::uint64_t kTreeSeed = 0x7b1eULL;

struct Shape {
  int nodes;
  int docs;
  std::size_t stream;  // requests per replay pass
  int passes;
};

Shape ShapeFor(const RunOptions& o) {
  if (o.small) return {5000, 8, 200000, 2};
  // About 0.6 s per pass at ~5.5 Mreq/s on a 4-vCPU x86 host, 1.5
  // passes per second of --seconds.
  return {50000, 64, 3500000, o.seconds + o.seconds / 2};
}

struct State {
  std::unique_ptr<RoutingTree> tree;
  std::vector<Request> stream;
  double offered_rate = 0;
  QuotaSnapshot base;
  std::unique_ptr<CapacityProjector> projector;
  std::unique_ptr<ServingPlane> plane;
  bool conserves = false;
  // Setup stage timings, seconds.
  double tree_s = 0, gen_s = 0, place_s = 0, clamp_s = 0, plane_s = 0;
};

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

  RequestGenerator gen(
      *st->tree, shape.docs,
      {RotatingHotSpotComponent(*st->tree, shape.docs, 1.0, 50.0, 0.05, 1, 8)},
      o.seed);
  st->offered_rate = gen.total_rate();
  t = NowNs();
  {
    ScopedSpan span(tracer, "serve.gen");
    gen.NextBatch(shape.stream, &st->stream);
  }
  st->gen_s = Seconds(NowNs() - t);

  t = NowNs();
  {
    ScopedSpan span(tracer, "serve.place");
    st->base = WebWaveTlbPolicy().Place(*st->tree, gen.ExpectedLanes());
  }
  st->place_s = Seconds(NowNs() - t);

  t = NowNs();
  {
    ScopedSpan span(tracer, "store.clamp");
    st->projector = std::make_unique<CapacityProjector>(
        *st->tree,
        CacheStore::WorkingSetStore(
            *st->tree, DocumentSizes::LogNormal(shape.docs, 64 * 1024, 1.0, 7),
            0.25));
    st->projector->Project(st->base);
  }
  st->clamp_s = Seconds(NowNs() - t);
  st->conserves = st->projector->ConservesTotalRate(st->base);

  t = NowNs();
  {
    ScopedSpan span(tracer, "serve.plane_build");
    ServingOptions opt;
    opt.threads = o.threads;
    opt.offered_rate = st->offered_rate;
    // tab_serving's block size: a token window spanning the tree.
    opt.block_size = std::max(65536, shape.nodes);
    st->plane = std::make_unique<ServingPlane>(
        *st->tree, st->projector->clamped(), opt);
  }
  st->plane_s = Seconds(NowNs() - t);
  return st;
}

// Replays the stream `passes` times; returns each pass's wall seconds.
// Each pass is one span of the timed region; the probe before it is not.
std::vector<double> Replay(State& st, int passes, HostSpeed& host,
                           Tracer& tracer) {
  std::vector<double> pass_s;
  for (int p = 0; p < passes; ++p) {
    host.Probe(tracer);
    const std::uint64_t t = NowNs();
    {
      ScopedSpan root(tracer, "timed", static_cast<std::uint64_t>(p));
      ScopedSpan span(tracer, "serve.serve", static_cast<std::uint64_t>(p));
      st.plane->Serve(Span<Request>(st.stream.data(), st.stream.size()));
    }
    pass_s.push_back(Seconds(NowNs() - t));
  }
  return pass_s;
}

}  // namespace

void RunTlbReplay(const RunOptions& o, RunResult* r) {
  const Shape shape = ShapeFor(o);
  Tracer tracer(o.trace);
  Tracer off(false);

  // Every repetition sets up from scratch (setup_s is their median) and
  // then replays its share of the passes.  Each setup lands the plane's
  // tables at a different place in memory, and on a shared host one
  // layout can run a quarter slower than the next, so the median pass is
  // taken over five.  In a traced run only the last repetition records
  // spans, and the earlier ones are its untraced twin for the tracing
  // overhead.
  const int reps = o.setup_reps > 0 ? o.setup_reps : 5;
  const int passes_per_rep = (shape.passes + reps - 1) / reps;
  std::vector<double> setup_s, pass_s, untraced_pass_s;
  std::uint64_t requests = 0, cache = 0, home = 0, dropped = 0, hops = 0;
  std::uint64_t failed_attempts = 0, max_served_sum = 0;
  bool conserves = true, balanced = true;
  std::unique_ptr<State> st;
  HostSpeed host;
  for (int rep = 0; rep < reps; ++rep) {
    Tracer& tr = rep + 1 == reps ? tracer : off;
    st.reset();
    host.Probe(off);
    const std::uint64_t t = NowNs();
    st = Setup(o, shape, tr);
    setup_s.push_back(Seconds(NowNs() - t));
    const std::vector<double> rep_pass_s =
        Replay(*st, passes_per_rep, host, tr);
    std::vector<double>& sink =
        o.trace && rep + 1 < reps ? untraced_pass_s : pass_s;
    sink.insert(sink.end(), rep_pass_s.begin(), rep_pass_s.end());
    const ServingMetrics& m = st->plane->metrics();
    conserves = conserves && st->conserves;
    balanced = balanced &&
               m.requests == shape.stream * static_cast<std::uint64_t>(
                                                passes_per_rep) &&
               m.cache_served + m.home_served + m.dropped_requests ==
                   m.requests;
    requests += m.requests;
    cache += m.cache_served;
    home += m.home_served;
    dropped += m.dropped_requests;
    hops += m.hop_sum;
    failed_attempts += m.failed_attempts;
    max_served_sum += m.MaxServed();
    std::printf("  rep %d: setup %.3f s, passes", rep, setup_s.back());
    for (const double p : rep_pass_s) std::printf(" %.3f", p);
    std::printf(" s\n");
  }
  const double mreq_s =
      static_cast<double>(shape.stream) / Median(pass_s) / 1e6;
  const double slowdown = host.Slowdown();

  // Correctness.
  const std::uint64_t expected = shape.stream *
                                 static_cast<std::uint64_t>(passes_per_rep) *
                                 static_cast<std::uint64_t>(reps);
  r->Check(conserves, "CapacityProjector::ConservesTotalRate");
  r->Check(balanced, "every rep: requests counted, cache + home + dropped "
                     "== requests");
  r->Check(requests == expected, "every replayed request was counted");
  r->attempted = expected;
  r->failed = r->check_failures.empty() ? dropped : expected;

  const double req = static_cast<double>(requests);
  const double hit = static_cast<double>(cache) / req;
  std::printf("tlb_replay: %d nodes x %d docs, %zu requests x %d passes x %d "
              "reps, setup %.3f s, %.3f Mreq/s, host slowdown %.4f, hit %.4f, "
              "evicted %lld cells\n",
              shape.nodes, shape.docs, shape.stream, passes_per_rep, reps,
              Median(setup_s), mreq_s, slowdown, hit,
              static_cast<long long>(st->projector->evicted_cells()));

  r->e2e["setup_s"] = Median(setup_s) / slowdown;
  r->e2e["peak_rss_mb"] = PeakRssMb();
  r->e2e["throughput_mreq_s"] = mreq_s * slowdown;
  r->e2e["hit_ratio"] = hit;
  r->e2e["load_gain"] = req / static_cast<double>(max_served_sum);
  r->e2e["ok_ratio"] = 1.0 - static_cast<double>(r->failed) / req;

  if (o.trace) {
    const auto self = tracer.SelfSeconds();
    const auto at = [&](const char* n) {
      const auto it = self.find(n);
      return it == self.end() ? 0.0 : it->second;
    };
    const double traced_req = static_cast<double>(shape.stream) *
                              static_cast<double>(passes_per_rep);
    r->layer["tree.build_s"] = st->tree_s;
    r->layer["serve.gen_mreq_s"] =
        static_cast<double>(shape.stream) / st->gen_s / 1e6;
    r->layer["serve.place_s"] = st->place_s;
    r->layer["store.clamp_s"] = st->clamp_s;
    r->layer["store.evicted_cells"] =
        static_cast<double>(st->projector->evicted_cells());
    r->layer["store.spill_ratio"] =
        st->projector->spilled_rate() / st->base.total_rate();
    r->layer["serve.plane_build_s"] = st->plane_s;
    r->layer["serve.ns_per_req"] = at("serve.serve") * 1e9 / traced_req;
    r->layer["serve.hops_per_req"] =
        static_cast<double>(hops) / static_cast<double>(cache + home);
    r->layer["serve.failovers_per_req"] =
        static_cast<double>(failed_attempts) / req;
    r->layer["host.probe_ms"] = host.MedianProbeS() * 1e3;
    ReportCoverage(tracer, "timed", r);
    r->layer["trace.overhead_mreq_s"] =
        untraced_pass_s.empty()
            ? 0.0
            : mreq_s - static_cast<double>(shape.stream) /
                           Median(untraced_pass_s) / 1e6;
    std::filesystem::create_directories(kTraceDir);
    tracer.WriteJsonLines(std::string(kTraceDir) + "/tlb_replay-" +
                          std::to_string(o.seed) + ".jsonl");
  }
}

}  // namespace perfbench
