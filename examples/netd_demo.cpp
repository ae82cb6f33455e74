// The netd fleet in one page: carve a serving subtree out of a large
// internet tree, stage it (StageNetdCluster) for four forked cache-server
// daemons, drive them over loopback with the deterministic loadgen, and
// hold every run to the laws a fleet run owes the in-process oracle
// (FleetLawViolations, src/netd/README.md).  The counters are EQUAL, not
// close: at block_size = 1 every admission decision is a pure function
// of (req_id, cell), and both transports run the same ServingPlane core
// on the same quota bytes.  The demo runs NetdScenarios (live, faulted,
// drops), then the survivable fleet — daemons SIGKILLed and re-forked at
// epoch boundaries — and prints wire-scraped latency, each victim's
// flight-ring tail and the netd_demo_stats.prom exposition.
#include <cstdio>
#include <string>
#include <vector>

#include "netd/cluster.h"
#include "netd/epoch_plan.h"
#include "obs/exposition.h"
#include "obs/flight_recorder.h"
#include "obs/latency_histogram.h"
#include "obs/trace.h"
#include "tree/builders.h"
#include "util/ascii.h"
#include "util/rng.h"

namespace webwave {
namespace {

// Replays the oracle for `config` into *oracle and prints every fleet law
// `run` breaks; true when it breaks none.
bool LawsHold(const NetdClusterConfig& config, const NetdRunResult& run,
              ServingMetrics* oracle) {
  std::vector<TraceEvent> trace;
  std::vector<WireCounters> per_epoch;
  *oracle = ReplayOracle(config, &trace, &per_epoch);
  const std::vector<std::string> broken =
      FleetLawViolations(config, run, *oracle, trace, per_epoch);
  for (const std::string& line : broken)
    std::printf("LAW BROKEN: %s\n", line.c_str());
  return broken.empty();
}

}  // namespace
}  // namespace webwave

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
  const NodeId pivot = CarvePivot(big, 1500, 8000);
  const RoutingTree tree =
      RoutingTree::FromParents(CarveSubtree(big, pivot).parents);
  std::printf("carved the %d-node subtree under node %d (height %d)\n",
              tree.size(), pivot, tree.height());

  NetdClusterConfig config =
      StageNetdCluster(tree, docs, servers, 0xfeedULL, requests);
  config.serving.trace = true;
  config.serving.trace_sample_shift = 8;  // ~1/256 requests traced
  config.stats_scrape_period_ms = 2;      // live mid-run stats rounds
  std::printf("quota blob: %zu bytes shared by all %d daemons and the oracle\n\n",
              config.quota_blob.size(), servers);

  bool all_exact = true;
  PrometheusWriter prom;
  for (const NetdScenario& sc : NetdScenarios(tree)) {
    config.down = sc.down;
    config.serving.max_failover_attempts = sc.max_failover_attempts;

    const NetdRunResult run = RunNetdCluster(config);
    ServingMetrics oracle;
    const bool exact = LawsHold(config, run, &oracle);
    all_exact = all_exact && exact;

    std::printf("--- %s fleet (%zu down) ---\n", sc.label, config.down.size());
    // Every serving counter, then the socket forwards (0 for the oracle).
    std::vector<std::string> head = {"side"};
    for (const ServingCounterField& f : kServingCounters)
      head.push_back(f.name);
    head.push_back("net_forwards");
    AsciiTable table(head);
    const auto row = [&](const std::string& label, const WireCounters& c) {
      std::vector<std::string> cells = {label};
      for (const ServingCounterField& f : kServingCounters)
        cells.push_back(AsciiTable::Int(static_cast<long long>(c.*f.field)));
      cells.push_back(AsciiTable::Int(static_cast<long long>(c.net_forwards)));
      table.AddRow(cells);
    };
    for (int s = 0; s < servers; ++s)
      row("daemon " + std::to_string(s),
          run.per_server[static_cast<std::size_t>(s)]);
    row("fleet sum", run.fleet);
    row("oracle", CountersFromMetrics(oracle));
    std::printf("%s%s\n", table.Render().c_str(),
                exact ? "every fleet law holds: counters, trace and scrapes "
                        "EXACTLY equal"
                      : "FLEET LAW BROKEN");
    std::printf("%zu live scrape round(s) mid-run, %zu trace records\n\n",
                run.samples.empty() ? 0 : run.samples.size() - 1,
                run.trace.size());

    for (int s = 0; s < servers; ++s) {
      const WireCounters& c = run.per_server[static_cast<std::size_t>(s)];
      const PrometheusWriter::Labels labels = {
          {"phase", sc.label}, {"server", std::to_string(s)}};
      for (const ServingCounterField& f : kServingCounters)
        prom.AddCounter(std::string("webwave.netd.") + f.name, labels,
                        c.*f.field);
      prom.AddCounter("webwave.netd.net_forwards", labels, c.net_forwards);
      prom.AddCounter("webwave.netd.gossip_sent", labels, c.gossip_sent);
    }
    prom.AddGauge("webwave.netd.scrape_rounds", {{"phase", sc.label}},
                  static_cast<double>(
                      run.samples.empty() ? 0 : run.samples.size() - 1));
    prom.AddGauge("webwave.netd.trace_records", {{"phase", sc.label}},
                  static_cast<double>(run.trace.size()));

    // The latency plane: the fleet's serve-time histograms arrive in the
    // same v4 kStatsReply as the counters; the loadgen buckets its own
    // send->reply times.  Timing is reported, never asserted.
    const LatencyHistogram serve = LatencyHistogram::MergeOf(run.server_hist);
    const LatencyHistogram client_lat =
        LatencyHistogram::MergeOf(run.latency_per_server);
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
    prom.AddHistogram("webwave.netd.serve_time_ns", {{"phase", sc.label}},
                      serve);
    prom.AddHistogram("webwave.netd.client_latency_ns", {{"phase", sc.label}},
                      client_lat);
  }

  // --- The survivable fleet: kill + restart mid-run -------------------
  {
    NetdClusterConfig fc = config;
    fc.down.clear();
    fc.serving.max_failover_attempts = 8;
    const EpochPlanOptions eopt =
        KillRestartPlanOptions(servers, 5, requests / 5);
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
    ServingMetrics oracle;
    const bool exact = LawsHold(fc, run, &oracle);
    all_exact = all_exact && exact;
    std::printf(
        "end of run: %zu daemon(s) retired mid-run, %zu rejoined (Hello\n"
        "epoch 0, brought current by kQuotaDelta), %llu reconnects;\n"
        "%zu barrier samples, each plus the victims retired through it\n"
        "equal to the oracle's cumulative counters.\n"
        "fleet vs multi-epoch oracle: %s\n\n",
        run.retired.size(), run.rejoin_hello_epochs.size(),
        static_cast<unsigned long long>(run.fleet.reconnects),
        run.epoch_samples.size(),
        exact ? "EXACT through kill, restart and re-sync"
              : "FLEET LAW BROKEN");

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
