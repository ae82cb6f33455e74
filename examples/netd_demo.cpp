// The netd fleet in one page: carve a serving subtree out of a large
// internet tree, hand its WebWave quotas to four forked cache-server
// daemons as one QuotaWireTable byte blob, drive them over loopback
// sockets with the deterministic loadgen, and check the fleet's summed
// counters against an in-process ServingPlane replaying the identical
// (seed, i) request stream.  The counters are not close — they are
// EQUAL, because block_size = 1 makes every admission decision a pure
// function of (req_id, cell) and both transports run the same
// ServingPlane core on the same quota bytes.  The demo then crashes a
// subtree root and shows the equality holding through failover routing.
//
// The telemetry plane rides along: sampled request tracing is on (the
// fleet's merged trace must equal the oracle's record for record), the
// loadgen scrapes live kStatsRequest rounds mid-run, and the final
// counters are dumped as a Prometheus-style exposition to
// netd_demo_stats.prom.
//
// The last act is the survivable fleet (PR 9): a multi-epoch run where a
// scheduled daemon is SIGKILLed at an epoch boundary and later re-forked,
// rejoining via Hello and re-synced by a kQuotaDelta diff — and the
// summed counters (live finals + the victim's pre-kill scrape) still
// equal the multi-epoch oracle bit for bit.
//
// The latency plane (PR 10) rides along too: every kStatsReply carries
// the daemon's serve-time histogram, so the demo prints fleet latency
// percentiles scraped over the wire, exposes real Prometheus histogram
// families, and shows each SIGKILL victim's flight-recorder ring —
// scraped at the quiesced boundary just before the kill.
#include <cstdio>
#include <string>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/latency_histogram.h"

#include "doc/catalog.h"
#include "doc/placement.h"
#include "fault/process_faults.h"
#include "netd/cluster.h"
#include "netd/epoch_plan.h"
#include "obs/exposition.h"
#include "obs/trace.h"
#include "serve/quota_snapshot.h"
#include "tree/builders.h"
#include "util/ascii.h"
#include "util/rng.h"
#include "wire/quota_wire.h"

int main() {
  using namespace webwave;
  const int big_nodes = 120000, docs = 8, servers = 4;
  const std::uint64_t requests = 120000;

  std::printf(
      "netd demo: %d-node tree, a carved serving subtree, %d forked\n"
      "daemons on loopback, %llu requests — every serving counter checked\n"
      "for exact equality against the in-process oracle.\n\n",
      big_nodes, servers, static_cast<unsigned long long>(requests));

  Rng rng(33);
  const RoutingTree big = MakeRandomTree(big_nodes, rng);
  NodeId pivot = big.root();
  for (const NodeId v : big.preorder())
    if (!big.is_root(v) && big.subtree_size(v) >= 1500 &&
        big.subtree_size(v) <= 8000) {
      pivot = v;
      break;
    }
  const CarvedTree carved = CarveSubtree(big, pivot);
  const RoutingTree tree = RoutingTree::FromParents(carved.parents);
  std::printf("carved the %d-node subtree under node %d (height %d)\n",
              tree.size(), pivot, tree.height());

  DemandMatrix demand(tree.size(), docs);
  Rng drng(7);
  for (NodeId v = 0; v < tree.size(); ++v)
    if (tree.is_leaf(v))
      for (DocId d = 0; d < docs; ++d) demand.set(v, d, drng.NextDouble(0.1, 4.0));
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
  config.docs = docs;
  config.stream_seed = 0xfeedULL;
  config.total_requests = requests;
  config.serving.trace = true;
  config.serving.trace_sample_shift = 8;  // ~1/256 requests traced
  config.stats_scrape_period_ms = 2;      // live mid-run stats rounds
  std::printf("quota blob: %zu bytes shared by all %d daemons and the oracle\n\n",
              config.quota_blob.size(), servers);

  bool all_exact = true;
  PrometheusWriter prom;
  for (const bool faulted : {false, true}) {
    config.down.clear();
    if (faulted)
      for (const NodeId v : tree.preorder())
        if (!tree.is_root(v) && tree.subtree_size(v) >= tree.size() / 20) {
          config.down.push_back(v);
          break;
        }

    const NetdRunResult run = RunNetdCluster(config);
    std::vector<TraceEvent> oracle_trace;
    const ServingMetrics oracle = ReplayOracle(config, &oracle_trace);
    const WireCounters want = CountersFromMetrics(oracle);
    const bool exact = run.ok && ServingCountersEqual(run.fleet, want) &&
                       run.client_hop_sum == oracle.hop_sum &&
                       run.trace == oracle_trace;
    all_exact = all_exact && exact;

    std::printf("--- %s fleet (%zu down) ---\n",
                faulted ? "faulted" : "all-live", config.down.size());
    AsciiTable table({"side", "requests", "cache", "home", "hop sum",
                      "failovers", "dropped", "forwards"});
    auto row = [&](const char* label, const WireCounters& c,
                   unsigned long long fw) {
      table.AddRow({label, AsciiTable::Int(static_cast<long long>(c.requests)),
                    AsciiTable::Int(static_cast<long long>(c.cache_served)),
                    AsciiTable::Int(static_cast<long long>(c.home_served)),
                    AsciiTable::Int(static_cast<long long>(c.hop_sum)),
                    AsciiTable::Int(static_cast<long long>(c.failovers)),
                    AsciiTable::Int(static_cast<long long>(c.dropped_requests)),
                    AsciiTable::Int(static_cast<long long>(fw))});
    };
    for (int s = 0; s < servers; ++s)
      row(("daemon " + std::to_string(s)).c_str(),
          run.per_server[static_cast<std::size_t>(s)],
          run.per_server[static_cast<std::size_t>(s)].net_forwards);
    row("fleet sum", run.fleet, run.fleet.net_forwards);
    row("oracle", want, 0);
    std::printf("%s%s\n", table.Render().c_str(),
                exact ? "counters EXACTLY equal" : "COUNTER MISMATCH");
    std::printf(
        "%zu live scrape round(s) mid-run, %zu trace records "
        "(fleet == oracle record for record: %s)\n\n",
        run.samples.empty() ? 0 : run.samples.size() - 1, run.trace.size(),
        run.trace == oracle_trace ? "yes" : "NO");

    const char* phase = faulted ? "faulted" : "live";
    for (int s = 0; s < servers; ++s) {
      const WireCounters& c = run.per_server[static_cast<std::size_t>(s)];
      const PrometheusWriter::Labels labels = {
          {"phase", phase}, {"server", std::to_string(s)}};
      prom.AddCounter("webwave.netd.requests", labels, c.requests);
      prom.AddCounter("webwave.netd.cache_served", labels, c.cache_served);
      prom.AddCounter("webwave.netd.home_served", labels, c.home_served);
      prom.AddCounter("webwave.netd.hop_sum", labels, c.hop_sum);
      prom.AddCounter("webwave.netd.failovers", labels, c.failovers);
      prom.AddCounter("webwave.netd.dropped_requests", labels,
                      c.dropped_requests);
      prom.AddCounter("webwave.netd.net_forwards", labels, c.net_forwards);
      prom.AddCounter("webwave.netd.gossip_sent", labels, c.gossip_sent);
    }
    prom.AddGauge("webwave.netd.scrape_rounds", {{"phase", phase}},
                  static_cast<double>(
                      run.samples.empty() ? 0 : run.samples.size() - 1));
    prom.AddGauge("webwave.netd.trace_records", {{"phase", phase}},
                  static_cast<double>(run.trace.size()));

    // The latency plane: the fleet's serve-time histograms arrive in the
    // same v4 kStatsReply as the counters; the loadgen buckets its own
    // send->reply times.  Timing is reported, never asserted.
    LatencyHistogram serve, client_lat;
    for (const LatencyHistogram& h : run.server_hist) serve.Merge(h);
    for (const LatencyHistogram& h : run.latency_per_server)
      client_lat.Merge(h);
    std::printf(
        "latency (wire-scraped): fleet serve p50=%llu p99=%llu ns over "
        "%llu frames;\nclient send->reply p50=%llu p99=%llu ns; loadgen "
        "loop stall max %.2f ms\n\n",
        static_cast<unsigned long long>(serve.ValueAtQuantile(0.5)),
        static_cast<unsigned long long>(serve.ValueAtQuantile(0.99)),
        static_cast<unsigned long long>(serve.count()),
        static_cast<unsigned long long>(client_lat.ValueAtQuantile(0.5)),
        static_cast<unsigned long long>(client_lat.ValueAtQuantile(0.99)),
        static_cast<double>(run.loop_max_stall_ns) / 1e6);
    prom.AddHistogram("webwave.netd.serve_time_ns", {{"phase", phase}},
                      serve);
    prom.AddHistogram("webwave.netd.client_latency_ns", {{"phase", phase}},
                      client_lat);
  }

  // --- The survivable fleet: kill + restart mid-run -------------------
  {
    NetdClusterConfig fc = config;
    fc.down.clear();
    fc.load_window_factor = 4.0;

    EpochPlanOptions eopt;
    eopt.epochs = 5;
    eopt.requests_per_epoch = requests / 5;
    eopt.faults.pattern = FaultPattern::kSingleNodes;
    eopt.faults.crash_fraction = 0.4;
    eopt.faults.outage_epochs = 1;
    eopt.faults.start_epoch = 1;
    // The identity holds for any plan; the first seed that kills AND
    // restarts a daemon guarantees the demo demonstrates one.
    eopt.faults.seed = FirstKillRestartSeed(servers, eopt.epochs, eopt.faults);
    if (eopt.faults.seed == 0) {
      std::printf("FAILED: no fault seed in 1..64 yields a kill and a "
                  "restart\n");
      return 1;
    }
    const ProcessFaultPlan plan = BuildEpochPlan(&fc, eopt);

    std::printf("--- survivable fleet (5 epochs, faults injected) ---\n");
    for (int e = 0; e < eopt.epochs; ++e) {
      const auto& kills = plan.kill_at[static_cast<std::size_t>(e)];
      const auto& restarts = plan.restart_at[static_cast<std::size_t>(e)];
      if (kills.empty() && restarts.empty()) continue;
      std::printf("entering epoch %d:", e);
      for (const int s : kills) std::printf(" SIGKILL daemon %d", s);
      for (const int s : restarts) std::printf(" re-fork daemon %d", s);
      std::printf("\n");
    }

    const NetdRunResult run = RunNetdCluster(fc);
    std::vector<TraceEvent> oracle_trace;
    std::vector<WireCounters> per_epoch;
    const ServingMetrics oracle = ReplayOracle(fc, &oracle_trace, &per_epoch);
    bool exact = run.ok &&
                 ServingCountersEqual(run.fleet, CountersFromMetrics(oracle)) &&
                 run.trace == oracle_trace;
    // Each quiesced barrier sample (plus the victims retired through that
    // transition) must equal the oracle's cumulative counters after the
    // epoch it closes — through the kill AND after the delta re-sync.
    std::size_t retired_used = 0;
    for (std::size_t i = 0; i < run.epoch_samples.size(); ++i) {
      retired_used +=
          fc.epochs[i + 1].kill_servers.size();
      std::vector<WireCounters> parts = run.epoch_samples[i].per_server;
      parts.insert(parts.end(), run.retired.begin(),
                   run.retired.begin() +
                       static_cast<std::ptrdiff_t>(retired_used));
      const bool ok = i < per_epoch.size() &&
                      ServingCountersEqual(SumCounters(parts), per_epoch[i]);
      std::printf("barrier closing epoch %zu: %s\n", i,
                  ok ? "== oracle cumulative (bit-exact)" : "MISMATCH");
      exact = exact && ok;
    }
    all_exact = all_exact && exact;
    std::printf(
        "end of run: %zu daemon(s) retired mid-run, %zu rejoined (Hello\n"
        "epoch 0, brought current by kQuotaDelta), %llu reconnects,\n"
        "outbox peak under the %zu-byte watermark, 0 forwards shed.\n"
        "fleet sum vs multi-epoch oracle: %s\n\n",
        run.retired.size(), run.rejoin_hello_epochs.size(),
        static_cast<unsigned long long>(run.fleet.reconnects),
        fc.outbox_watermark_bytes,
        exact ? "EXACT through kill, restart and re-sync"
              : "COUNTER MISMATCH");

    // The flight recorder: each victim's ring was scraped over the wire
    // (kFlightRequest) at the quiesced boundary before its SIGKILL — the
    // crash-surviving "what was it doing" record.  Show the tail.
    for (const NetdRunResult::FlightDump& d : run.flights) {
      if (!d.victim) continue;
      std::printf("flight ring of SIGKILL victim daemon %d (%zu events, "
                  "last 5):\n", d.server, d.events.size());
      const std::size_t from = d.events.size() > 5 ? d.events.size() - 5 : 0;
      const std::vector<FlightEvent> tail(d.events.begin() +
                                              static_cast<std::ptrdiff_t>(from),
                                          d.events.end());
      std::printf("%s", FlightRecorder::Dump(
                            tail, static_cast<std::uint8_t>(d.server))
                            .c_str());
    }

    prom.AddGauge("webwave.netd.retired", {{"phase", "survivable"}},
                  static_cast<double>(run.retired.size()));
    prom.AddGauge("webwave.netd.rejoins", {{"phase", "survivable"}},
                  static_cast<double>(run.rejoin_hello_epochs.size()));
    prom.AddCounter("webwave.netd.reconnects", {{"phase", "survivable"}},
                    run.fleet.reconnects);
    prom.AddCounter("webwave.netd.shed_forwards", {{"phase", "survivable"}},
                    run.fleet.shed_forwards);
  }

  const char* prom_out = "netd_demo_stats.prom";
  std::printf("--- Prometheus exposition (%s) ---\n%s\n",
              prom.WriteFile(prom_out) ? "written to netd_demo_stats.prom"
                                       : "FAILED to write",
              prom.Render().c_str());

  if (!all_exact) {
    std::printf("demo FAILED: fleet and oracle disagree\n");
    return 1;
  }
  std::printf(
      "The socket fleet and the in-process plane are the same protocol on\n"
      "two transports: the wire layer moves the decisions, it never makes\n"
      "them.\n");
  return 0;
}
