// E17 — one wire protocol, two transports: the netd fleet vs the oracle.
//
// Part 1 carves a serving subtree out of the 10⁶-node internet tree,
// stages it (StageNetdCluster) and runs a fleet of forked cache-server
// daemons over loopback, tracing and live-scraping, against the
// in-process oracle replaying the same (seed, i) stream, in each of
// NetdScenarios: all live, a crashed subtree root, a dead chain past the
// retry budget.  Part 2 is the survivable fleet: five epochs
// (BuildEpochPlan) under KillRestartFaults, daemons SIGKILLed at epoch
// boundaries and re-forked, rejoining via Hello and re-synced by
// kQuotaDelta.  Every run is held to FleetLawViolations (the laws in
// src/netd/README.md) and to what its scenario owes beyond them: part 1 a
// mid-run stats sample, part 2 clean-shutdown flight files that parse
// back.  Part 3 injects the daemon's encoded frames into a running
// PacketSim through a step hook: the simulator as the second transport.
// Latency values are wall-clock, reported and never asserted.
//
// Exits nonzero on any violation.  Emits BENCH_netd.json,
// BENCH_netd_stats.json (one record per live scrape),
// BENCH_netd_faults.json (part 2), BENCH_netd_latency.json,
// netd_stats.prom, and netd_flight_*.txt plus netd_trace.jsonl for
// tools/merge_flight.py.  Settings (bench_util.h): WEBWAVE_THREADS sets
// part 2's oracle replay workers (default 1); WEBWAVE_SMOKE carves ~1200
// of 60000 nodes with 8 documents and 120000 requests per scenario
// instead of ~4000 of 10⁶, 16 and 400000.  Both shapes run 4 daemons,
// scrape stats every 5 ms and trace ~1/1024 requests.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "bench_util.h"
#include "doc/catalog.h"
#include "fault/process_faults.h"
#include "netd/cluster.h"
#include "netd/epoch_plan.h"
#include "obs/exposition.h"
#include "obs/flight_recorder.h"
#include "obs/latency_histogram.h"
#include "proto/packet_sim.h"
#include "tree/builders.h"
#include "util/ascii.h"
#include "util/bench_json.h"
#include "util/rng.h"
#include "wire/codec.h"

namespace webwave {
namespace {

// Prints one latency line and adds its BENCH_netd_latency.json record:
// the client's send->reply and the fleet's serve-time percentiles for one
// epoch, or (epoch < 0) for a whole scenario, which adds the bounds, the
// loadgen's worst stall and the verdict, and exposes both histograms in
// `prom`.  Values are wall-clock: reported, never asserted.
void ReportLatency(BenchJson* json, PrometheusWriter* prom,
                   const std::string& scenario, int epoch,
                   const LatencyHistogram& client,
                   const LatencyHistogram& serve,
                   std::uint64_t loop_max_stall_ns, bool match) {
  std::printf("latency [%s%s]: client p50=%llu p99=%llu ns (%llu replies) | "
              "fleet serve p50=%llu p99=%llu ns (%llu frames)",
              scenario.c_str(),
              epoch < 0 ? "" : (" epoch " + std::to_string(epoch)).c_str(),
              static_cast<unsigned long long>(client.ValueAtQuantile(0.5)),
              static_cast<unsigned long long>(client.ValueAtQuantile(0.99)),
              static_cast<unsigned long long>(client.count()),
              static_cast<unsigned long long>(serve.ValueAtQuantile(0.5)),
              static_cast<unsigned long long>(serve.ValueAtQuantile(0.99)),
              static_cast<unsigned long long>(serve.count()));
  if (epoch < 0)
    std::printf(" | loadgen loop stall max %.2f ms",
                static_cast<double>(loop_max_stall_ns) / 1e6);
  std::printf("\n");
  json->BeginRun();
  json->Add("record", std::string(epoch < 0 ? "scenario" : "epoch"));
  json->Add("scenario", scenario);
  if (epoch >= 0) json->Add("epoch", epoch);
  json->Add("client_count", static_cast<long long>(client.count()));
  json->Add("client_p50_ns",
            static_cast<long long>(client.ValueAtQuantile(0.5)));
  json->Add("client_p99_ns",
            static_cast<long long>(client.ValueAtQuantile(0.99)));
  json->Add("client_max_bound_ns",
            static_cast<long long>(client.MaxValueBound()));
  json->Add("serve_count", static_cast<long long>(serve.count()));
  json->Add("serve_p50_ns", static_cast<long long>(serve.ValueAtQuantile(0.5)));
  json->Add("serve_p99_ns",
            static_cast<long long>(serve.ValueAtQuantile(0.99)));
  if (epoch >= 0) return;
  json->Add("serve_max_bound_ns",
            static_cast<long long>(serve.MaxValueBound()));
  json->Add("loop_max_stall_ns", static_cast<long long>(loop_max_stall_ns));
  json->Add("match", match ? 1 : 0);
  const PrometheusWriter::Labels labels = {{"scenario", scenario}};
  prom->AddHistogram("webwave.fleet.serve_time_ns", labels, serve);
  prom->AddHistogram("webwave.client.latency_ns", labels, client);
}

// Runs the fleet and then its oracle replay, timing each on its own,
// and prints every fleet law the run breaks; true when it breaks none.
// The fleet's time ends when the run has drained (NetdRunResult::
// fleet_ms), before the daemons' shutdown file writes.
bool RunAndCheck(const char* label, const NetdClusterConfig& config,
                 NetdRunResult* run, double* fleet_ms, double* oracle_ms) {
  *run = RunNetdCluster(config);
  *fleet_ms = run->fleet_ms;
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<TraceEvent> trace;
  std::vector<WireCounters> per_epoch;
  const ServingMetrics oracle = ReplayOracle(config, &trace, &per_epoch);
  *oracle_ms = bench::MillisSince(t0);
  const std::vector<std::string> broken =
      FleetLawViolations(config, *run, oracle, trace, per_epoch);
  for (const std::string& line : broken)
    std::printf("ASSERT FAILED [%s]: %s\n", label, line.c_str());
  return broken.empty();
}

}  // namespace
}  // namespace webwave

int main() {
  using namespace webwave;
  using bench::MillisSince;
  using Clock = std::chrono::steady_clock;

  const auto [smoke, oracle_threads] = bench::ReadConfig(1);
  const int big_nodes = smoke ? 60000 : 1000000;
  const int carve_target = smoke ? 1200 : 4000;
  const int docs = smoke ? 8 : 16;
  const int servers = 4;
  const long long requests = smoke ? 120000LL : 400000LL;

  std::printf(
      "E17 — one wire protocol, two transports: %d-node tree, a carved\n"
      "~%d-node serving subtree, %d forked daemons over loopback, %lld\n"
      "requests per scenario, every serving counter asserted equal to the\n"
      "in-process oracle replaying the identical (seed, i) stream.%s\n\n",
      big_nodes, carve_target, servers, requests,
      smoke ? "\n(WEBWAVE_SMOKE: reduced configuration)" : "");

  BenchJson json("tab_netd");
  json.BeginRun();
  json.Add("record", std::string("config"));
  json.Add("big_nodes", big_nodes);
  json.Add("carve_target", carve_target);
  json.Add("docs", docs);
  json.Add("servers", servers);
  json.Add("requests", requests);

  // Part 1 — the forked fleet vs the oracle ------------------------------
  Rng rng(static_cast<std::uint64_t>(big_nodes) + docs + 17);
  const auto t_tree = Clock::now();
  const RoutingTree big = MakeRandomTree(big_nodes, rng);
  const NodeId pivot = CarvePivot(big, carve_target, 4 * carve_target);
  const RoutingTree tree =
      RoutingTree::FromParents(CarveSubtree(big, pivot).parents);
  const double carve_ms = MillisSince(t_tree);
  std::printf("carved %d of %d nodes (subtree of node %d, height %d) in %.0f ms\n",
              tree.size(), big.size(), pivot, tree.height(), carve_ms);

  NetdClusterConfig config = StageNetdCluster(
      tree, docs, servers, 0x77aeULL + static_cast<std::uint64_t>(big_nodes),
      static_cast<std::uint64_t>(requests));
  config.serving.trace = true;
  config.serving.trace_sample_shift = 10;  // ~1/1024 requests
  config.stats_scrape_period_ms = 5;
  std::printf("quota blob: %zu bytes, %d serving nodes, %d documents\n\n",
              config.quota_blob.size(), tree.size(), docs);

  AsciiTable table({"scenario", "served", "dropped", "failovers", "hop sum",
                    "forwards", "gossip", "scrapes", "traced",
                    "fleet kreq/s", "oracle Mreq/s", "match"});
  BenchJson stats_json("tab_netd_stats");
  BenchJson latency_json("tab_netd_latency");
  PrometheusWriter prom;
  bool all_match = true;
  for (const NetdScenario& sc : NetdScenarios(tree)) {
    config.down = sc.down;
    config.serving.max_failover_attempts = sc.max_failover_attempts;

    NetdRunResult run;
    double fleet_ms = 0, oracle_ms = 0;
    bool match = RunAndCheck(sc.label, config, &run, &fleet_ms, &oracle_ms);
    // The fleet outlives one scrape period, so a mid-run sample exists.
    if (run.samples.size() < 2) {
      std::printf("ASSERT FAILED [%s]: no mid-run stats sample (%zu total)\n",
                  sc.label, run.samples.size());
      match = false;
    }
    all_match = all_match && match;
    const LatencyHistogram fleet_hist =
        LatencyHistogram::MergeOf(run.server_hist);
    const LatencyHistogram client_lat =
        LatencyHistogram::MergeOf(run.latency_per_server);

    ReportLatency(&latency_json, &prom, sc.label, -1, client_lat, fleet_hist,
                  run.loop_max_stall_ns, match);

    // One stats record per live scrape: the fleet's counter sums as the
    // scraper saw them mid-flight.
    for (std::size_t i = 0; i < run.samples.size(); ++i) {
      const WireCounters sum = SumCounters(run.samples[i].per_server);
      stats_json.BeginRun();
      stats_json.Add("scenario", std::string(sc.label));
      stats_json.Add("sample", static_cast<long long>(i));
      stats_json.Add("final", i + 1 == run.samples.size() ? 1 : 0);
      stats_json.Add("at_completed",
                     static_cast<long long>(run.samples[i].at_completed));
      stats_json.Add("requests", static_cast<long long>(sum.requests));
      stats_json.Add("cache_served", static_cast<long long>(sum.cache_served));
      stats_json.Add("home_served", static_cast<long long>(sum.home_served));
      stats_json.Add("hop_sum", static_cast<long long>(sum.hop_sum));
      stats_json.Add("failovers", static_cast<long long>(sum.failovers));
      stats_json.Add("dropped", static_cast<long long>(sum.dropped_requests));
      stats_json.Add("net_forwards", static_cast<long long>(sum.net_forwards));
      stats_json.Add("gossip_sent", static_cast<long long>(sum.gossip_sent));
      // The latency the scraper saw live at this sample, from the v4
      // histogram section of the very same kStatsReply round.
      const LatencyHistogram seen =
          LatencyHistogram::MergeOf(run.samples[i].hist_per_server);
      stats_json.Add("serve_count", static_cast<long long>(seen.count()));
      stats_json.Add("serve_p50_ns",
                     static_cast<long long>(seen.ValueAtQuantile(0.5)));
      stats_json.Add("serve_p99_ns",
                     static_cast<long long>(seen.ValueAtQuantile(0.99)));
    }

    // The exposition: final fleet counters, one label set per scenario.
    {
      const PrometheusWriter::Labels labels = {{"scenario", sc.label}};
      for (const ServingCounterField& f : kServingCounters)
        prom.AddCounter(std::string("webwave.fleet.") + f.name, labels,
                        run.fleet.*f.field);
      prom.AddCounter("webwave.fleet.net_forwards", labels,
                      run.fleet.net_forwards);
      prom.AddCounter("webwave.fleet.gossip_sent", labels,
                      run.fleet.gossip_sent);
      prom.AddGauge("webwave.fleet.samples", labels,
                    static_cast<double>(run.samples.size()));
      prom.AddGauge("webwave.fleet.trace_records", labels,
                    static_cast<double>(run.trace.size()));
      // The loadgen's event-loop health (ReportLatency exposes the serve
      // and client histograms).
      prom.AddHistogram("webwave.loadgen.loop_poll_iter_ns", labels,
                        run.loop_poll_iter);
      prom.AddHistogram("webwave.loadgen.loop_timer_lag_ns", labels,
                        run.loop_timer_lag);
      prom.AddGauge("webwave.loadgen.loop_max_stall_ns", labels,
                    static_cast<double>(run.loop_max_stall_ns));
    }

    table.AddRow({sc.label,
                  AsciiTable::Int(static_cast<long long>(run.client_served)),
                  AsciiTable::Int(static_cast<long long>(run.client_dropped)),
                  AsciiTable::Int(static_cast<long long>(run.fleet.failovers)),
                  AsciiTable::Int(static_cast<long long>(run.fleet.hop_sum)),
                  AsciiTable::Int(static_cast<long long>(run.fleet.net_forwards)),
                  AsciiTable::Int(static_cast<long long>(run.fleet.gossip_sent)),
                  AsciiTable::Int(static_cast<long long>(run.samples.size())),
                  AsciiTable::Int(static_cast<long long>(run.trace.size())),
                  AsciiTable::Num(static_cast<double>(requests) / fleet_ms, 1),
                  AsciiTable::Num(static_cast<double>(requests) / oracle_ms / 1e3,
                                  3),
                  match ? "EXACT" : "MISMATCH"});

    json.BeginRun();
    json.Add("record", std::string("fleet"));
    json.Add("scenario", std::string(sc.label));
    json.Add("servers", servers);
    json.Add("requests", requests);
    json.Add("down", static_cast<long long>(sc.down.size()));
    json.Add("served", static_cast<long long>(run.client_served));
    json.Add("dropped", static_cast<long long>(run.client_dropped));
    json.Add("failovers", static_cast<long long>(run.fleet.failovers));
    json.Add("hop_sum", static_cast<long long>(run.fleet.hop_sum));
    json.Add("net_forwards", static_cast<long long>(run.fleet.net_forwards));
    json.Add("gossip_sent", static_cast<long long>(run.fleet.gossip_sent));
    json.Add("fleet_ms", fleet_ms);
    json.Add("req_per_sec", static_cast<double>(requests) / fleet_ms * 1e3);
    json.Add("oracle_req_per_sec",
             static_cast<double>(requests) / oracle_ms * 1e3);
    json.Add("stats_samples", static_cast<long long>(run.samples.size()));
    json.Add("trace_records", static_cast<long long>(run.trace.size()));
    json.Add("match", match ? 1 : 0);
  }
  std::printf("%s\n", table.Render().c_str());

  // Part 2 — the survivable fleet: kill + restart mid-run ----------------
  {
    const int epochs = 5;
    NetdClusterConfig fc = config;
    fc.down.clear();
    fc.serving.max_failover_attempts = 8;
    fc.serving.threads = oracle_threads;
    // Live daemons dump their flight ring to flight_<index>.txt on clean
    // shutdown; victims never get there — their rings arrive over the
    // wire (kFlightRequest) at the quiesced boundary before the SIGKILL.
    fc.flight_dir = ".";

    const EpochPlanOptions eopt = KillRestartPlanOptions(
        servers, epochs,
        std::max<std::uint64_t>(
            fc.total_requests / static_cast<std::uint64_t>(epochs), 1000));
    const ProcessFaultPlan plan = BuildEpochPlan(&fc, eopt);
    const std::size_t kills = CountThrough(plan.kill_at, epochs - 1);
    const std::size_t restarts = CountThrough(plan.restart_at, epochs - 1);
    std::printf(
        "survivable fleet: %d epochs x %llu requests, fault seed %llu —\n"
        "%zu daemon kill(s), %zu restart(s) scheduled mid-run\n",
        epochs,
        static_cast<unsigned long long>(eopt.requests_per_epoch),
        static_cast<unsigned long long>(eopt.faults.seed), kills, restarts);

    NetdRunResult run;
    double fleet_ms = 0, oracle_ms = 0;
    bool match = RunAndCheck("faults", fc, &run, &fleet_ms, &oracle_ms);
    const std::uint64_t outbox_peak = run.fleet.outbox_peak_bytes;

    // Barrier sample i closes epoch i: its live counters plus the
    // victims retired through that transition, and its serve-time
    // histograms plus theirs, are the fleet's cumulative state.
    BenchJson faults_json("tab_netd_faults");
    for (std::size_t i = 0; i < run.epoch_samples.size(); ++i) {
      const NetdStatsSample& barrier = run.epoch_samples[i];
      const std::ptrdiff_t used = static_cast<std::ptrdiff_t>(
          std::min({CountThrough(plan.kill_at, static_cast<int>(i) + 1),
                    run.retired.size(), run.retired_hist.size()}));
      std::vector<WireCounters> parts = barrier.per_server;
      parts.insert(parts.end(), run.retired.begin(),
                   run.retired.begin() + used);
      std::vector<LatencyHistogram> hists = barrier.hist_per_server;
      hists.insert(hists.end(), run.retired_hist.begin(),
                   run.retired_hist.begin() + used);
      const WireCounters sum = SumCounters(parts);
      faults_json.BeginRun();
      faults_json.Add("record", std::string("epoch"));
      faults_json.Add("epoch", static_cast<long long>(i));
      faults_json.Add("servers", servers);
      faults_json.Add("kills_through", static_cast<long long>(used));
      faults_json.Add("at_completed",
                      static_cast<long long>(barrier.at_completed));
      faults_json.Add("requests", static_cast<long long>(sum.requests));
      faults_json.Add("failovers", static_cast<long long>(sum.failovers));
      faults_json.Add("dropped", static_cast<long long>(sum.dropped_requests));
      faults_json.Add("match", match ? 1 : 0);
      const LatencyHistogram cum = LatencyHistogram::MergeOf(hists);
      const LatencyHistogram ep_lat =
          i < run.latency_per_epoch.size() ? run.latency_per_epoch[i]
                                           : LatencyHistogram{};
      ReportLatency(&latency_json, &prom, "faults", static_cast<int>(i), ep_lat,
                    cum, 0, match);
    }

    std::vector<LatencyHistogram> final_hists = run.server_hist;
    final_hists.insert(final_hists.end(), run.retired_hist.begin(),
                       run.retired_hist.end());
    const LatencyHistogram fleet_hist = LatencyHistogram::MergeOf(final_hists);
    const LatencyHistogram client_lat =
        LatencyHistogram::MergeOf(run.latency_per_server);
    std::size_t victim_dumps = 0;
    std::size_t flight_events = 0;
    for (const NetdRunResult::FlightDump& d : run.flights) {
      if (d.victim) ++victim_dumps;
      flight_events += d.events.size();
    }

    // Dump every scraped ring to netd_flight_*.txt and the fleet trace
    // to netd_trace.jsonl — the inputs tools/merge_flight.py joins into
    // the cross-process per-request timeline.
    int flight_files = 0;
    for (std::size_t i = 0; i < run.flights.size(); ++i) {
      const NetdRunResult::FlightDump& d = run.flights[i];
      char name[64];
      std::snprintf(name, sizeof(name), "netd_flight_%02zu_s%d%s.txt", i,
                    d.server, d.victim ? "_victim" : "");
      std::ofstream out(name);
      out << FlightRecorder::Dump(d.events,
                                  static_cast<std::uint8_t>(d.server));
      if (out.good()) ++flight_files;
    }
    {
      std::ofstream out("netd_trace.jsonl");
      for (const TraceEvent& e : run.trace)
        out << "{\"req_id\":" << e.req_id << ",\"seq\":" << e.seq
            << ",\"node\":" << e.node << ",\"kind\":\""
            << TraceEventKindName(e.kind) << "\",\"detail\":" << e.detail
            << ",\"aux\":" << static_cast<int>(e.aux) << "}\n";
    }
    std::printf("flight plane: %zu ring dump(s) (%zu victim), %zu events, "
                "%d netd_flight_*.txt file(s) + netd_trace.jsonl written\n",
                run.flights.size(), victim_dumps, flight_events,
                flight_files);

    // The clean-shutdown file path: every live daemon wrote its ring to
    // flight_<index>.txt in flight_dir, and the text form parses back.
    int shutdown_dumps = 0;
    for (int s = 0; s < servers; ++s) {
      char name[32];
      std::snprintf(name, sizeof(name), "flight_%d.txt", s);
      std::ifstream in(name);
      if (!in.good()) continue;
      std::string text((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
      std::vector<FlightEvent> parsed;
      if (text.empty() || !FlightRecorder::Parse(text, &parsed) ||
          parsed.empty()) {
        std::printf("ASSERT FAILED [faults]: %s does not parse back\n",
                    name);
        match = false;
        continue;
      }
      ++shutdown_dumps;
    }
    if (shutdown_dumps == 0) {
      std::printf("ASSERT FAILED [faults]: no daemon wrote a clean-"
                  "shutdown flight dump\n");
      match = false;
    }
    all_match = all_match && match;

    ReportLatency(&latency_json, &prom, "faults", -1, client_lat, fleet_hist,
                  run.loop_max_stall_ns, match);

    prom.AddGauge("webwave.fleet.flight_events", {{"scenario", "faults"}},
                  static_cast<double>(flight_events));

    faults_json.BeginRun();
    faults_json.Add("record", std::string("fleet"));
    faults_json.Add("servers", servers);
    faults_json.Add("epochs", epochs);
    faults_json.Add("requests", static_cast<long long>(fc.total_requests));
    faults_json.Add("fault_seed", static_cast<long long>(eopt.faults.seed));
    faults_json.Add("kills", static_cast<long long>(kills));
    faults_json.Add("restarts", static_cast<long long>(restarts));
    faults_json.Add("reconnects", static_cast<long long>(run.fleet.reconnects));
    faults_json.Add("shed_forwards",
                    static_cast<long long>(run.fleet.shed_forwards));
    faults_json.Add("outbox_peak_bytes", static_cast<long long>(outbox_peak));
    faults_json.Add("flight_dumps", static_cast<long long>(run.flights.size()));
    faults_json.Add("flight_events", static_cast<long long>(flight_events));
    faults_json.Add("served", static_cast<long long>(run.client_served));
    faults_json.Add("dropped", static_cast<long long>(run.client_dropped));
    faults_json.Add("failovers", static_cast<long long>(run.fleet.failovers));
    faults_json.Add("oracle_threads", oracle_threads);
    faults_json.Add("fleet_ms", fleet_ms);
    faults_json.Add("req_per_sec",
                    static_cast<double>(fc.total_requests) / fleet_ms * 1e3);
    faults_json.Add("oracle_req_per_sec",
                    static_cast<double>(fc.total_requests) / oracle_ms * 1e3);
    faults_json.Add("match", match ? 1 : 0);
    bench::WriteArtifact(faults_json, "BENCH_netd_faults.json");

    std::printf(
        "survivable fleet: %llu served + %llu dropped, %llu failovers,\n"
        "%llu reconnects, outbox peak %llu B (watermark %zu), "
        "%.1f kreq/s — %s\n\n",
        static_cast<unsigned long long>(run.client_served),
        static_cast<unsigned long long>(run.client_dropped),
        static_cast<unsigned long long>(run.fleet.failovers),
        static_cast<unsigned long long>(run.fleet.reconnects),
        static_cast<unsigned long long>(outbox_peak),
        fc.outbox_watermark_bytes,
        static_cast<double>(fc.total_requests) / fleet_ms, match
            ? "EXACT across kill, restart and delta re-sync"
            : "MISMATCH");
  }

  // Part 3 — the simulator as the protocol's second transport ------------
  {
    const int sim_nodes = smoke ? 400 : 2000;
    const int sim_docs = 8;
    Rng srng(21);
    const RoutingTree sim_tree = MakeRandomTree(sim_nodes, srng);
    DemandMatrix sim_demand(sim_nodes, sim_docs);
    Rng sdr(5);
    for (NodeId v = 0; v < sim_tree.size(); ++v)
      if (sim_tree.is_leaf(v))
        for (DocId d = 0; d < sim_docs; ++d)
          sim_demand.set(v, d, sdr.NextDouble(0.5, 2.0));
    PacketSimOptions opt;
    opt.policy = CachePolicy::kWebWave;
    opt.duration = 6 * kMicrosPerSecond;
    opt.warmup = 1 * kMicrosPerSecond;
    opt.seed = 29;

    PacketSim sim(sim_tree, sim_demand, opt);
    std::uint64_t injected = 0;
    sim.set_step_hook([&](PacketSim& s) {
      // Inject daemon-format frames into the running simulation: the
      // codec's bytes, not a parallel in-sim vocabulary.
      GetRequest g;
      g.req_id = 1u << 20;
      g.doc = static_cast<DocId>(injected % sim_docs);
      g.origin_node = static_cast<NodeId>((injected * 37) %
                                          static_cast<std::uint64_t>(sim_nodes));
      std::vector<std::uint8_t> frame;
      MessageCodec::Encode(g, &frame);
      if (s.InjectFrame(frame.data(), frame.size())) ++injected;
      LoadGossip lg;
      lg.node = g.origin_node;
      lg.epoch = static_cast<std::uint32_t>(injected);
      lg.load = static_cast<double>(injected);
      s.InjectGossip(lg);
    });
    const auto t_sim = Clock::now();
    sim.Run();
    const double sim_ms = MillisSince(t_sim);
    const PacketSimReport report = sim.Report();
    std::printf(
        "packet_sim transport: %llu wire frames round-tripped in-sim,\n"
        "%llu injected via the step hook, %llu requests total (%.0f ms)\n\n",
        static_cast<unsigned long long>(report.wire_frames),
        static_cast<unsigned long long>(injected),
        static_cast<unsigned long long>(report.total_requests), sim_ms);

    json.BeginRun();
    json.Add("record", std::string("packet_wire"));
    json.Add("sim_nodes", sim_nodes);
    json.Add("wire_frames", static_cast<long long>(report.wire_frames));
    json.Add("injected", static_cast<long long>(injected));
    json.Add("sim_requests", static_cast<long long>(report.total_requests));
    json.Add("sim_ms", sim_ms);

    if (report.wire_frames == 0 || injected == 0) {
      std::printf("ASSERT FAILED: the simulator round-tripped no frames\n");
      all_match = false;
    }
  }

  bench::WriteArtifact(json, "BENCH_netd.json");
  bench::WriteArtifact(stats_json, "BENCH_netd_stats.json");
  bench::WriteArtifact(latency_json, "BENCH_netd_latency.json");
  const char* prom_out = "netd_stats.prom";
  std::printf("%s %s\n",
              prom.WriteFile(prom_out) ? "wrote" : "FAILED to write",
              prom_out);
  if (!all_match) {
    std::printf("\nASSERT FAILED: fleet and oracle disagree — the two\n"
                "transports are not running the same protocol.\n");
    return 1;
  }
  std::printf(
      "\nReading: the daemons and the oracle do not merely agree\n"
      "statistically — every counter is identical, because block_size = 1\n"
      "makes each admission decision a pure function of (req_id, cell) and\n"
      "both transports execute the same ServingPlane core on the same\n"
      "QuotaWireTable bytes.  The socket layer adds delivery, not policy.\n");
  return 0;
}
