// E17 — one wire protocol, two transports: the netd fleet vs the oracle.
//
// Part 1 carves a serving subtree out of the 10⁶-node internet tree,
// derives a WebWave placement for it, serializes the quotas to a
// QuotaWireTable blob and launches a fleet of forked cache-server
// daemons over loopback sockets — each owning a contiguous preorder
// shard, answering GETs from its quota table and forwarding misses
// up-tree to the owning peer's socket.  The same (seed, i) request
// stream is then replayed on one in-process ServingPlane built from the
// *same* blob, and every integer serving counter — hits, home serves,
// hops, failovers, backoff slots, drops — is asserted EQUAL, fleet sum
// vs oracle, across three scenarios: all-live, a crashed subtree root
// (failovers > 0), and a dead ancestor chain longer than the retry
// budget (drops > 0).  The process exits nonzero on any mismatch: the
// socket transport is not approximately right, it is the same protocol.
//
// Part 2 turns the simulator into the second transport of that protocol:
// a PacketSim step hook injects encoded GetRequest/LoadGossip frames —
// the daemon's own byte format, pushed through MessageCodec — into the
// running packet simulation, and the run reports how many wire frames
// the simulation itself round-tripped.
//
// Part 3 (riding inside part 1's runs): the live fleet stats scraper.
// While each scenario's stream is in flight, the loadgen polls every
// daemon's kStatsRequest on a timer; the samples must be monotone per
// daemon and the final sample's fleet sum must equal the oracle exactly.
// The fleet also runs with request tracing on, and the scraped trace
// records are asserted equal to the oracle's, record for record.
//
// Part 4 — the survivable fleet (PR 9).  A multi-epoch closed loop
// (BuildEpochPlan: one EpochDriver control node refreshing the quota
// table per epoch, FaultProjector re-homing around dead shards) runs
// against a fault-injected fleet: a scheduled daemon is SIGKILLed at an
// epoch boundary mid-run and re-forked later, rejoining via Hello and
// re-synced by kQuotaDelta.  Asserted, not observed: the fleet's summed
// counters (live finals + the victims' pre-kill scrapes) equal the
// multi-epoch oracle bit-for-bit; every quiesced barrier sample plus the
// retired counters equals the oracle's cumulative per-epoch counters —
// including the killed epochs AND the post-recovery epochs after the
// delta re-sync; no forward was shed; every daemon's outbox peak stayed
// under the watermark.  The oracle replay honors WEBWAVE_THREADS
// (order-free admission makes its counters thread-count invariant).
//
// Part 5 (riding inside parts 1 and 4): the latency plane (PR 10).
// Every kStatsReply carries the daemon's serve-time histogram in the v4
// section, so the scraper collects fleet-wide latency live; the merged
// fleet histogram is asserted equal to the naive per-bucket integer sum,
// and its total count is a structural identity (every request plus every
// forward arrives as exactly one kGetRequest frame).  The loadgen's own
// send->reply histograms obey a partition law: bucketed per epoch and
// per server, the two partitions merge to the same histogram.  Victims'
// flight-recorder rings are scraped before each SIGKILL and asserted
// non-empty; all rings are dumped as netd_flight_*.txt and the trace as
// netd_trace.jsonl — the inputs tools/merge_flight.py joins into a
// cross-process per-request timeline.  Bucket *values* are wall-clock
// and never enter any assertion; only counts and partition identities do.
//
// Emits BENCH_netd.json, BENCH_netd_stats.json (one record per live
// scrape), BENCH_netd_faults.json (the survivable-fleet scenario),
// BENCH_netd_latency.json (per-scenario and per-epoch latency shapes),
// netd_stats.prom (Prometheus text exposition, now with real histogram
// families), netd_flight_*.txt and netd_trace.jsonl.  Settings
// (bench_util.h): WEBWAVE_THREADS oracle replay workers in part 4
// (default 1); WEBWAVE_SMOKE runs the CI smoke shape — a ~1200-node
// subtree carved from a 60000-node tree, 8 documents, 120000 requests
// per scenario — instead of ~4000 of 10⁶, 16 documents and 400000.  Both
// shapes run 4 daemons, scrape stats every 5 ms, trace ~1/1024 requests
// and give the survivable fleet 5 epochs.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "doc/catalog.h"
#include "doc/placement.h"
#include "fault/process_faults.h"
#include "netd/cluster.h"
#include "netd/epoch_plan.h"
#include "obs/exposition.h"
#include "obs/flight_recorder.h"
#include "obs/latency_histogram.h"
#include "proto/packet_sim.h"
#include "serve/quota_snapshot.h"
#include "tree/builders.h"
#include "util/ascii.h"
#include "util/bench_json.h"
#include "util/rng.h"
#include "wire/codec.h"
#include "wire/quota_wire.h"

namespace {

webwave::LatencyHistogram MergeHists(
    const std::vector<webwave::LatencyHistogram>& parts) {
  webwave::LatencyHistogram merged;
  for (const auto& h : parts) merged.Merge(h);
  return merged;
}

// The merge law: LatencyHistogram::Merge must be exactly a per-bucket
// u64 add — checked against the naive sum, bucket for bucket, plus the
// count and sum totals.
bool MergeEqualsBucketSum(
    const webwave::LatencyHistogram& merged,
    const std::vector<webwave::LatencyHistogram>& parts) {
  std::uint64_t count = 0;
  for (int b = 0; b < webwave::LatencyHistogram::kBucketCount; ++b) {
    std::uint64_t want = 0;
    for (const auto& h : parts) want += h.bucket(b);
    if (merged.bucket(b) != want) return false;
    count += want;
  }
  std::uint64_t sum = 0;
  for (const auto& h : parts) sum += h.sum();
  return merged.count() == count && merged.sum() == sum;
}

}  // namespace

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
  NodeId pivot = big.root();
  for (const NodeId v : big.preorder())
    if (!big.is_root(v) && big.subtree_size(v) >= carve_target &&
        big.subtree_size(v) <= 4 * carve_target) {
      pivot = v;
      break;
    }
  if (big.is_root(pivot)) {
    // No subtree in range (tiny trees): take the largest proper subtree.
    for (const NodeId v : big.children(big.root())) {
      if (pivot == big.root() ||
          big.subtree_size(v) > big.subtree_size(pivot))
        pivot = v;
    }
  }
  const CarvedTree carved = CarveSubtree(big, pivot);
  const RoutingTree tree = RoutingTree::FromParents(carved.parents);
  const double carve_ms = MillisSince(t_tree);
  std::printf("carved %d of %d nodes (subtree of node %d, height %d) in %.0f ms\n",
              tree.size(), big.size(), pivot, tree.height(), carve_ms);

  DemandMatrix demand(tree.size(), docs);
  Rng drng(7);
  for (NodeId v = 0; v < tree.size(); ++v)
    if (tree.is_leaf(v))
      for (DocId d = 0; d < docs; ++d)
        demand.set(v, d, drng.NextDouble(0.1, 4.0));
  const PlacementResult placement = DerivePlacement(tree, demand);
  const QuotaSnapshot snapshot =
      QuotaSnapshot::FromPlacement(tree, placement, demand, 1e-9);

  NetdClusterConfig config;
  config.parents = tree.parents();
  config.owner = PartitionOwners(tree, servers);
  config.server_count = servers;
  QuotaWireTable::Serialize(snapshot, &config.quota_blob);
  config.serving.block_size = 1;
  config.serving.threads = 1;
  config.serving.trace = true;
  config.serving.trace_sample_shift = 10;  // ~1/1024 requests
  config.stats_scrape_period_ms = 5;
  config.docs = docs;
  config.stream_seed = 0x77aeULL + static_cast<std::uint64_t>(big_nodes);
  config.total_requests = static_cast<std::uint64_t>(requests);
  std::printf("quota blob: %zu bytes, %d serving nodes, %d documents\n\n",
              config.quota_blob.size(), tree.size(), docs);

  // The three scenarios: live, a crashed subtree root, a dead ancestor
  // chain longer than the retry budget.
  struct Scenario {
    const char* label;
    std::vector<NodeId> down;
    int max_failover_attempts;
  };
  std::vector<Scenario> scenarios;
  scenarios.push_back({"live", {}, 8});
  {
    std::vector<NodeId> down;
    for (const NodeId v : tree.preorder())
      if (!tree.is_root(v) && tree.subtree_size(v) >= tree.size() / 20) {
        down.push_back(v);
        break;
      }
    scenarios.push_back({"faulted", down, 8});
  }
  {
    NodeId deep = 0;
    for (const NodeId v : tree.preorder())
      if (tree.depth(v) > tree.depth(deep)) deep = v;
    std::vector<NodeId> chain;
    for (NodeId v = deep; !tree.is_root(v); v = tree.parent(v))
      chain.push_back(v);
    scenarios.push_back(
        {"drops", chain, std::max(1, static_cast<int>(chain.size()) - 1)});
  }

  AsciiTable table({"scenario", "served", "dropped", "failovers", "hop sum",
                    "forwards", "gossip", "scrapes", "traced",
                    "fleet kreq/s", "oracle Mreq/s", "match"});
  BenchJson stats_json("tab_netd_stats");
  BenchJson latency_json("tab_netd_latency");
  PrometheusWriter prom;
  bool all_match = true;
  for (const Scenario& sc : scenarios) {
    config.down = sc.down;
    config.serving.max_failover_attempts = sc.max_failover_attempts;

    const auto t_fleet = Clock::now();
    const NetdRunResult run = RunNetdCluster(config);
    const double fleet_ms = MillisSince(t_fleet);

    const auto t_oracle = Clock::now();
    std::vector<TraceEvent> oracle_trace;
    const ServingMetrics oracle = ReplayOracle(config, &oracle_trace);
    const double oracle_ms = MillisSince(t_oracle);

    bool match =
        run.ok && ServingCountersEqual(run.fleet, CountersFromMetrics(oracle)) &&
        run.client_served == oracle.requests - oracle.dropped_requests &&
        run.client_hop_sum == oracle.hop_sum;

    // The scraped trace equals the oracle's, record for record.
    if (run.trace != oracle_trace) {
      std::printf("ASSERT FAILED [%s]: fleet trace (%zu records) != oracle "
                  "trace (%zu records)\n",
                  sc.label, run.trace.size(), oracle_trace.size());
      match = false;
    }

    // Live scrapes: mid-run samples exist (the fleet outlives one scrape
    // period), per-daemon counters are monotone sample to sample, and
    // the final sample's fleet sum is exactly the oracle's totals — the
    // scraper reads the same truth the oracle computes.
    if (run.samples.size() < 2) {
      std::printf("ASSERT FAILED [%s]: no mid-run stats sample (%zu total)\n",
                  sc.label, run.samples.size());
      match = false;
    }
    for (std::size_t i = 1; i < run.samples.size(); ++i)
      for (std::size_t s = 0; s < run.samples[i].per_server.size(); ++s)
        if (!CountersMonotone(run.samples[i - 1].per_server[s],
                              run.samples[i].per_server[s])) {
          std::printf("ASSERT FAILED [%s]: non-monotone counters, sample "
                      "%zu server %zu\n",
                      sc.label, i, s);
          match = false;
        }
    if (run.samples.empty() ||
        !ServingCountersEqual(SumCounters(run.samples.back().per_server),
                              CountersFromMetrics(oracle))) {
      std::printf("ASSERT FAILED [%s]: final scraped sample != oracle\n",
                  sc.label);
      match = false;
    }

    // The latency plane.  The fleet's serve-time histograms arrive in
    // the same v4 kStatsReply the counters do; their merge must equal
    // the naive per-bucket sum, and the merged count is structural:
    // every request plus every forward is exactly one kGetRequest frame.
    const LatencyHistogram fleet_hist = MergeHists(run.server_hist);
    if (!MergeEqualsBucketSum(fleet_hist, run.server_hist)) {
      std::printf("ASSERT FAILED [%s]: serve histogram merge != "
                  "per-bucket sum\n", sc.label);
      match = false;
    }
    if (fleet_hist.count() !=
        config.total_requests + run.fleet.net_forwards) {
      std::printf("ASSERT FAILED [%s]: serve histogram count %llu != "
                  "requests + forwards %llu\n", sc.label,
                  static_cast<unsigned long long>(fleet_hist.count()),
                  static_cast<unsigned long long>(config.total_requests +
                                                  run.fleet.net_forwards));
      match = false;
    }
    // The loadgen's send->reply latency, partitioned two ways — per
    // epoch block and per replying server.  Same events, so the two
    // partitions must merge to the identical histogram, and every
    // request contributes exactly one reply.
    const LatencyHistogram client_lat = MergeHists(run.latency_per_server);
    if (MergeHists(run.latency_per_epoch) != client_lat ||
        client_lat.count() != config.total_requests) {
      std::printf("ASSERT FAILED [%s]: client latency partitions "
                  "disagree (%llu recorded, %llu requests)\n", sc.label,
                  static_cast<unsigned long long>(client_lat.count()),
                  static_cast<unsigned long long>(config.total_requests));
      match = false;
    }
    all_match = all_match && match;

    std::printf("latency [%s]: client p50=%llu p99=%llu max<%llu ns | "
                "fleet serve p50=%llu p99=%llu over %llu frames | loadgen "
                "loop stall max %.2f ms\n",
                sc.label,
                static_cast<unsigned long long>(client_lat.ValueAtQuantile(0.5)),
                static_cast<unsigned long long>(client_lat.ValueAtQuantile(0.99)),
                static_cast<unsigned long long>(client_lat.MaxValueBound()),
                static_cast<unsigned long long>(fleet_hist.ValueAtQuantile(0.5)),
                static_cast<unsigned long long>(fleet_hist.ValueAtQuantile(0.99)),
                static_cast<unsigned long long>(fleet_hist.count()),
                static_cast<double>(run.loop_max_stall_ns) / 1e6);

    latency_json.BeginRun();
    latency_json.Add("record", std::string("scenario"));
    latency_json.Add("scenario", std::string(sc.label));
    latency_json.Add("client_count",
                     static_cast<long long>(client_lat.count()));
    latency_json.Add("client_p50_ns",
                     static_cast<long long>(client_lat.ValueAtQuantile(0.5)));
    latency_json.Add("client_p99_ns",
                     static_cast<long long>(client_lat.ValueAtQuantile(0.99)));
    latency_json.Add("client_max_bound_ns",
                     static_cast<long long>(client_lat.MaxValueBound()));
    latency_json.Add("serve_count",
                     static_cast<long long>(fleet_hist.count()));
    latency_json.Add("serve_p50_ns",
                     static_cast<long long>(fleet_hist.ValueAtQuantile(0.5)));
    latency_json.Add("serve_p99_ns",
                     static_cast<long long>(fleet_hist.ValueAtQuantile(0.99)));
    latency_json.Add("serve_max_bound_ns",
                     static_cast<long long>(fleet_hist.MaxValueBound()));
    latency_json.Add("loop_max_stall_ns",
                     static_cast<long long>(run.loop_max_stall_ns));
    latency_json.Add("match", match ? 1 : 0);

    // One stats record per live scrape: the fleet's counter sums as the
    // scraper saw them mid-flight.
    for (std::size_t i = 0; i < run.samples.size(); ++i) {
      const WireCounters sum = SumCounters(run.samples[i].per_server);
      stats_json.BeginRun();
      stats_json.Add("scenario", std::string(sc.label));
      stats_json.Add("sample", static_cast<long long>(i));
      stats_json.Add("final",
                     i + 1 == run.samples.size() ? 1 : 0);
      stats_json.Add("at_completed",
                     static_cast<long long>(run.samples[i].at_completed));
      stats_json.Add("requests", static_cast<long long>(sum.requests));
      stats_json.Add("cache_served",
                     static_cast<long long>(sum.cache_served));
      stats_json.Add("home_served", static_cast<long long>(sum.home_served));
      stats_json.Add("hop_sum", static_cast<long long>(sum.hop_sum));
      stats_json.Add("failovers", static_cast<long long>(sum.failovers));
      stats_json.Add("dropped", static_cast<long long>(sum.dropped_requests));
      stats_json.Add("net_forwards",
                     static_cast<long long>(sum.net_forwards));
      stats_json.Add("gossip_sent", static_cast<long long>(sum.gossip_sent));
      // The latency the scraper saw live at this sample, from the v4
      // histogram section of the very same kStatsReply round.
      const LatencyHistogram seen = MergeHists(run.samples[i].hist_per_server);
      stats_json.Add("serve_count", static_cast<long long>(seen.count()));
      stats_json.Add("serve_p50_ns",
                     static_cast<long long>(seen.ValueAtQuantile(0.5)));
      stats_json.Add("serve_p99_ns",
                     static_cast<long long>(seen.ValueAtQuantile(0.99)));
    }

    // The exposition: final fleet counters, one label set per scenario.
    {
      const PrometheusWriter::Labels labels = {{"scenario", sc.label}};
      prom.AddCounter("webwave.fleet.requests", labels, run.fleet.requests);
      prom.AddCounter("webwave.fleet.cache_served", labels,
                      run.fleet.cache_served);
      prom.AddCounter("webwave.fleet.home_served", labels,
                      run.fleet.home_served);
      prom.AddCounter("webwave.fleet.hop_sum", labels, run.fleet.hop_sum);
      prom.AddCounter("webwave.fleet.failovers", labels, run.fleet.failovers);
      prom.AddCounter("webwave.fleet.dropped_requests", labels,
                      run.fleet.dropped_requests);
      prom.AddCounter("webwave.fleet.net_forwards", labels,
                      run.fleet.net_forwards);
      prom.AddCounter("webwave.fleet.gossip_sent", labels,
                      run.fleet.gossip_sent);
      prom.AddGauge("webwave.fleet.samples", labels,
                    static_cast<double>(run.samples.size()));
      prom.AddGauge("webwave.fleet.trace_records", labels,
                    static_cast<double>(run.trace.size()));
      // Real histogram families: the fleet's merged serve time, the
      // client's observed latency, and the loadgen's event-loop health.
      prom.AddHistogram("webwave.fleet.serve_time_ns", labels, fleet_hist);
      prom.AddHistogram("webwave.client.latency_ns", labels, client_lat);
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

  // Part 4 — the survivable fleet: kill + restart mid-run ----------------
  {
    const int epochs = 5;
    NetdClusterConfig fc = config;
    fc.down.clear();
    fc.serving.max_failover_attempts = 8;
    fc.serving.threads = oracle_threads;
    fc.load_window_factor = 4.0;
    // Live daemons dump their flight ring to flight_<index>.txt on clean
    // shutdown; victims never get there — their rings arrive over the
    // wire (kFlightRequest) at the quiesced boundary before the SIGKILL.
    fc.flight_dir = ".";

    EpochPlanOptions eopt;
    eopt.epochs = epochs;
    eopt.requests_per_epoch =
        std::max<std::uint64_t>(fc.total_requests /
                                    static_cast<std::uint64_t>(epochs),
                                1000);
    eopt.faults.pattern = FaultPattern::kSingleNodes;
    eopt.faults.crash_fraction = 0.4;
    eopt.faults.outage_epochs = 1;
    eopt.faults.start_epoch = 1;

    // Pin coverage: the first seed whose plan kills AND restarts a daemon.
    // (The oracle identity holds for any plan.)
    const std::uint64_t fseed =
        FirstKillRestartSeed(servers, epochs, eopt.faults);
    if (fseed == 0) {
      std::printf("ASSERT FAILED: no fault seed in 1..64 yields a kill "
                  "and a restart\n");
      return 1;
    }
    eopt.faults.seed = fseed;
    const ProcessFaultPlan plan = BuildEpochPlan(&fc, eopt);
    const std::size_t kills = CountThrough(plan.kill_at, epochs - 1);
    const std::size_t restarts = CountThrough(plan.restart_at, epochs - 1);
    std::printf(
        "survivable fleet: %d epochs x %llu requests, fault seed %llu —\n"
        "%zu daemon kill(s), %zu restart(s) scheduled mid-run\n",
        epochs,
        static_cast<unsigned long long>(eopt.requests_per_epoch),
        static_cast<unsigned long long>(fseed), kills, restarts);

    const auto t_fleet = Clock::now();
    const NetdRunResult run = RunNetdCluster(fc);
    const double fleet_ms = MillisSince(t_fleet);

    const auto t_oracle = Clock::now();
    std::vector<TraceEvent> oracle_trace;
    std::vector<WireCounters> per_epoch;
    const ServingMetrics oracle = ReplayOracle(fc, &oracle_trace, &per_epoch);
    const double oracle_ms = MillisSince(t_oracle);

    bool match = run.ok;
    if (!run.ok)
      std::printf("ASSERT FAILED [faults]: fleet run did not complete\n");

    // The sum law across faults: live finals + the victims' pre-kill
    // scrapes equal the multi-epoch oracle, every integer counter.
    if (!ServingCountersEqual(run.fleet, CountersFromMetrics(oracle))) {
      std::printf("ASSERT FAILED [faults]: fleet sum != oracle\n");
      match = false;
    }
    if (run.client_served + run.client_dropped != fc.total_requests ||
        run.client_served != oracle.requests - oracle.dropped_requests ||
        run.client_hop_sum != oracle.hop_sum) {
      std::printf("ASSERT FAILED [faults]: client tallies != oracle\n");
      match = false;
    }
    if (run.retired.size() != kills ||
        run.rejoin_hello_epochs.size() != restarts) {
      std::printf("ASSERT FAILED [faults]: %zu retired / %zu rejoins, "
                  "plan says %zu / %zu\n",
                  run.retired.size(), run.rejoin_hello_epochs.size(), kills,
                  restarts);
      match = false;
    }
    for (const std::uint32_t e : run.rejoin_hello_epochs)
      if (e != 0) {
        std::printf("ASSERT FAILED [faults]: a rejoin Hello announced "
                    "epoch %u (restart must boot fresh)\n", e);
        match = false;
      }
    if (run.trace != oracle_trace) {
      std::printf("ASSERT FAILED [faults]: fleet trace (%zu) != oracle "
                  "trace (%zu)\n",
                  run.trace.size(), oracle_trace.size());
      match = false;
    }

    // Backpressure stayed bounded: nothing shed, every outbox peak under
    // the watermark — in live daemons and in the killed ones alike.
    if (run.fleet.shed_forwards != 0) {
      std::printf("ASSERT FAILED [faults]: %llu forwards shed\n",
                  static_cast<unsigned long long>(run.fleet.shed_forwards));
      match = false;
    }
    std::uint64_t outbox_peak = 0;
    for (const WireCounters& s : run.per_server)
      outbox_peak = std::max(outbox_peak, s.outbox_peak_bytes);
    for (const WireCounters& s : run.retired)
      outbox_peak = std::max(outbox_peak, s.outbox_peak_bytes);
    if (outbox_peak > fc.outbox_watermark_bytes) {
      std::printf("ASSERT FAILED [faults]: outbox peak %llu > watermark "
                  "%zu\n",
                  static_cast<unsigned long long>(outbox_peak),
                  fc.outbox_watermark_bytes);
      match = false;
    }

    // Barrier sample i closes epoch i: its live counters plus every
    // retired scrape taken through that transition equal the oracle's
    // cumulative counters after epoch i — the killed epochs match the
    // down-set oracle, the post-restart epochs match the recovered one.
    BenchJson faults_json("tab_netd_faults");
    const bool epochs_ok =
        run.epoch_samples.size() == static_cast<std::size_t>(epochs - 1) &&
        per_epoch.size() == static_cast<std::size_t>(epochs);
    if (!epochs_ok) {
      std::printf("ASSERT FAILED [faults]: %zu barrier samples / %zu "
                  "oracle epochs (want %d / %d)\n",
                  run.epoch_samples.size(), per_epoch.size(), epochs - 1,
                  epochs);
      match = false;
    }
    for (std::size_t i = 0; epochs_ok && i < run.epoch_samples.size(); ++i) {
      std::vector<WireCounters> parts = run.epoch_samples[i].per_server;
      const std::size_t used =
          std::min(CountThrough(plan.kill_at, static_cast<int>(i) + 1),
                   run.retired.size());
      parts.insert(parts.end(), run.retired.begin(),
                   run.retired.begin() + static_cast<std::ptrdiff_t>(used));
      const WireCounters sum = SumCounters(parts);
      const bool ematch = ServingCountersEqual(sum, per_epoch[i]);
      if (!ematch) {
        std::printf("ASSERT FAILED [faults]: barrier sample %zu != "
                    "oracle cumulative epoch %zu\n", i, i);
        match = false;
      }
      faults_json.BeginRun();
      faults_json.Add("record", std::string("epoch"));
      faults_json.Add("epoch", static_cast<long long>(i));
      faults_json.Add("servers", servers);
      faults_json.Add("kills_through", static_cast<long long>(used));
      faults_json.Add("at_completed",
                      static_cast<long long>(run.epoch_samples[i].at_completed));
      faults_json.Add("requests", static_cast<long long>(sum.requests));
      faults_json.Add("failovers", static_cast<long long>(sum.failovers));
      faults_json.Add("dropped",
                      static_cast<long long>(sum.dropped_requests));
      faults_json.Add("match", ematch ? 1 : 0);

      // Per-epoch fleet latency, scraped live over wire v4: the barrier
      // sample's histograms plus the victims' pre-kill ones give the
      // cumulative serve-time distribution through this epoch.
      std::vector<LatencyHistogram> parts_hist =
          run.epoch_samples[i].hist_per_server;
      parts_hist.insert(
          parts_hist.end(), run.retired_hist.begin(),
          run.retired_hist.begin() +
              static_cast<std::ptrdiff_t>(
                  std::min(used, run.retired_hist.size())));
      const LatencyHistogram cum = MergeHists(parts_hist);
      const LatencyHistogram ep_lat =
          i < run.latency_per_epoch.size() ? run.latency_per_epoch[i]
                                           : LatencyHistogram{};
      latency_json.BeginRun();
      latency_json.Add("record", std::string("epoch"));
      latency_json.Add("scenario", std::string("faults"));
      latency_json.Add("epoch", static_cast<long long>(i));
      latency_json.Add("client_count",
                       static_cast<long long>(ep_lat.count()));
      latency_json.Add("client_p50_ns",
                       static_cast<long long>(ep_lat.ValueAtQuantile(0.5)));
      latency_json.Add("client_p99_ns",
                       static_cast<long long>(ep_lat.ValueAtQuantile(0.99)));
      latency_json.Add("client_max_bound_ns",
                       static_cast<long long>(ep_lat.MaxValueBound()));
      latency_json.Add("serve_count", static_cast<long long>(cum.count()));
      latency_json.Add("serve_p50_ns",
                       static_cast<long long>(cum.ValueAtQuantile(0.5)));
      latency_json.Add("serve_p99_ns",
                       static_cast<long long>(cum.ValueAtQuantile(0.99)));
      std::printf("epoch %zu latency: client p50=%llu p99=%llu ns "
                  "(%llu replies) | fleet serve p50=%llu p99=%llu "
                  "(%llu frames, scraped)\n",
                  i,
                  static_cast<unsigned long long>(ep_lat.ValueAtQuantile(0.5)),
                  static_cast<unsigned long long>(ep_lat.ValueAtQuantile(0.99)),
                  static_cast<unsigned long long>(ep_lat.count()),
                  static_cast<unsigned long long>(cum.ValueAtQuantile(0.5)),
                  static_cast<unsigned long long>(cum.ValueAtQuantile(0.99)),
                  static_cast<unsigned long long>(cum.count()));
    }

    // The latency plane across faults.  Live finals plus the victims'
    // pre-kill histograms partition every kGetRequest frame the fleet
    // ever dispatched (the boundary is quiesced, so no frame is lost to
    // a SIGKILL), and Merge must stay a per-bucket integer add.
    std::vector<LatencyHistogram> final_hists = run.server_hist;
    final_hists.insert(final_hists.end(), run.retired_hist.begin(),
                       run.retired_hist.end());
    const LatencyHistogram fleet_hist = MergeHists(final_hists);
    if (!MergeEqualsBucketSum(fleet_hist, final_hists)) {
      std::printf("ASSERT FAILED [faults]: serve histogram merge != "
                  "per-bucket sum\n");
      match = false;
    }
    if (fleet_hist.count() != fc.total_requests + run.fleet.net_forwards) {
      std::printf("ASSERT FAILED [faults]: serve histogram count %llu != "
                  "requests + forwards %llu\n",
                  static_cast<unsigned long long>(fleet_hist.count()),
                  static_cast<unsigned long long>(fc.total_requests +
                                                  run.fleet.net_forwards));
      match = false;
    }
    const LatencyHistogram client_lat = MergeHists(run.latency_per_server);
    if (MergeHists(run.latency_per_epoch) != client_lat ||
        client_lat.count() != fc.total_requests) {
      std::printf("ASSERT FAILED [faults]: client latency partitions "
                  "disagree (%llu recorded, %llu requests)\n",
                  static_cast<unsigned long long>(client_lat.count()),
                  static_cast<unsigned long long>(fc.total_requests));
      match = false;
    }

    // Flight recorder: killing a daemon must yield a non-empty flight
    // dump for the victim, scraped over the wire before the SIGKILL; the
    // end-of-run dump round covers every live daemon.
    std::size_t victim_dumps = 0;
    std::size_t flight_events = 0;
    for (const NetdRunResult::FlightDump& d : run.flights) {
      if (d.victim) ++victim_dumps;
      flight_events += d.events.size();
      if (d.events.empty()) {
        std::printf("ASSERT FAILED [faults]: empty flight ring from "
                    "server %d (%s)\n", d.server,
                    d.victim ? "victim" : "live");
        match = false;
      }
    }
    if (victim_dumps != kills) {
      std::printf("ASSERT FAILED [faults]: %zu victim flight dumps, "
                  "plan killed %zu\n", victim_dumps, kills);
      match = false;
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

    latency_json.BeginRun();
    latency_json.Add("record", std::string("scenario"));
    latency_json.Add("scenario", std::string("faults"));
    latency_json.Add("client_count",
                     static_cast<long long>(client_lat.count()));
    latency_json.Add("client_p50_ns",
                     static_cast<long long>(client_lat.ValueAtQuantile(0.5)));
    latency_json.Add("client_p99_ns",
                     static_cast<long long>(client_lat.ValueAtQuantile(0.99)));
    latency_json.Add("client_max_bound_ns",
                     static_cast<long long>(client_lat.MaxValueBound()));
    latency_json.Add("serve_count",
                     static_cast<long long>(fleet_hist.count()));
    latency_json.Add("serve_p50_ns",
                     static_cast<long long>(fleet_hist.ValueAtQuantile(0.5)));
    latency_json.Add("serve_p99_ns",
                     static_cast<long long>(fleet_hist.ValueAtQuantile(0.99)));
    latency_json.Add("serve_max_bound_ns",
                     static_cast<long long>(fleet_hist.MaxValueBound()));
    latency_json.Add("loop_max_stall_ns",
                     static_cast<long long>(run.loop_max_stall_ns));
    latency_json.Add("match", match ? 1 : 0);

    {
      const PrometheusWriter::Labels labels = {{"scenario", "faults"}};
      prom.AddHistogram("webwave.fleet.serve_time_ns", labels, fleet_hist);
      prom.AddHistogram("webwave.client.latency_ns", labels, client_lat);
      prom.AddGauge("webwave.fleet.flight_events", labels,
                    static_cast<double>(flight_events));
    }

    faults_json.BeginRun();
    faults_json.Add("record", std::string("fleet"));
    faults_json.Add("servers", servers);
    faults_json.Add("epochs", epochs);
    faults_json.Add("requests", static_cast<long long>(fc.total_requests));
    faults_json.Add("fault_seed", static_cast<long long>(fseed));
    faults_json.Add("kills", static_cast<long long>(kills));
    faults_json.Add("restarts", static_cast<long long>(restarts));
    faults_json.Add("reconnects",
                    static_cast<long long>(run.fleet.reconnects));
    faults_json.Add("shed_forwards",
                    static_cast<long long>(run.fleet.shed_forwards));
    faults_json.Add("outbox_peak_bytes",
                    static_cast<long long>(outbox_peak));
    faults_json.Add("flight_dumps",
                    static_cast<long long>(run.flights.size()));
    faults_json.Add("flight_events",
                    static_cast<long long>(flight_events));
    faults_json.Add("served", static_cast<long long>(run.client_served));
    faults_json.Add("dropped", static_cast<long long>(run.client_dropped));
    faults_json.Add("failovers",
                    static_cast<long long>(run.fleet.failovers));
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

  // Part 2 — the simulator as the protocol's second transport ------------
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
