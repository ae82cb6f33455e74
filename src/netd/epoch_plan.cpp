#include "netd/epoch_plan.h"

#include <algorithm>

#include "core/webwave_batch.h"
#include "fault/fault_projector.h"
#include "serve/closed_loop.h"
#include "serve/request_gen.h"
#include "util/check.h"
#include "wire/quota_wire.h"

namespace webwave {

ProcessFaultPlan BuildEpochPlan(NetdClusterConfig* config,
                                const EpochPlanOptions& options) {
  WEBWAVE_REQUIRE(options.epochs >= 1 && options.requests_per_epoch > 0,
                  "an epoch plan needs epochs and a block length");
  const RoutingTree tree = RoutingTree::FromParents(config->parents);
  const int servers = config->server_count;

  ProcessFaultPlan plan;
  if (options.inject_faults) {
    plan = BuildProcessFaultPlan(servers, options.epochs, options.faults);
  } else {
    plan.kill_at.resize(static_cast<std::size_t>(options.epochs));
    plan.restart_at.resize(static_cast<std::size_t>(options.epochs));
    plan.dead_at.assign(
        static_cast<std::size_t>(options.epochs),
        std::vector<bool>(static_cast<std::size_t>(servers), false));
  }

  // The dead servers' shards under the *base* map are what crashes at
  // the node level: re-homed adopters own those nodes but serve them as
  // down, burning failover attempts exactly like the oracle.
  std::vector<std::vector<NodeId>> shard(static_cast<std::size_t>(servers));
  for (NodeId v = 0; v < tree.size(); ++v)
    shard[static_cast<std::size_t>(
              config->owner[static_cast<std::size_t>(v)])]
        .push_back(v);

  // The control node's engine: a flat guess that learns purely from the
  // folded request stream, one control epoch per served block.
  std::vector<std::vector<double>> guess(
      static_cast<std::size_t>(config->docs));
  for (auto& lane : guess)
    lane.assign(static_cast<std::size_t>(tree.size()), 1e-3);
  WebWaveOptions wopt;
  wopt.threads = 1;
  BatchWebWaveSimulator sim(tree, std::move(guess), wopt);
  FaultProjector projector(tree);
  EpochDriver driver(sim, options.driver);
  driver.AttachFaults(&projector);
  ArrivalFold fold(tree.size(), config->docs);

  config->epochs.clear();
  std::vector<Request> block(
      static_cast<std::size_t>(options.requests_per_epoch));
  std::uint64_t pos = 0;
  for (int e = 0; e < options.epochs; ++e) {
    // Node-level transitions entering this epoch: every killed server's
    // shard crashes, every restarted one's recovers.  Shards are
    // disjoint, so one sort by node gives the ascending order the
    // projector's event-proportional refresh expects.
    std::vector<FaultEvent> events;
    for (const int s : plan.kill_at[static_cast<std::size_t>(e)])
      for (const NodeId v : shard[static_cast<std::size_t>(s)])
        events.push_back(FaultEvent{FaultKind::kCrash, v});
    for (const int s : plan.restart_at[static_cast<std::size_t>(e)])
      for (const NodeId v : shard[static_cast<std::size_t>(s)])
        events.push_back(FaultEvent{FaultKind::kRecover, v});
    std::sort(events.begin(), events.end(),
              [](const FaultEvent& a, const FaultEvent& b) {
                return a.node < b.node;
              });

    // The closed loop learns from the stream it is about to serve: fold
    // the epoch's own block into demand churn.
    for (std::uint64_t i = 0; i < options.requests_per_epoch; ++i)
      block[i] =
          NetdRequestAt(config->stream_seed, pos + i, tree.size(),
                        config->docs);
    fold.Count(Span<Request>(block.data(), block.size()));
    std::vector<DemandEvent> churn =
        fold.Drain(static_cast<double>(options.requests_per_epoch));
    driver.ApplyEpoch(Span<DemandEvent>(churn.data(), churn.size()),
                      Span<const FaultEvent>(events.data(), events.size()));

    NetdEpoch ep;
    ep.requests = options.requests_per_epoch;
    ep.down.assign(driver.down().begin(), driver.down().end());
    QuotaWireTable::Serialize(driver.serving(), &ep.quota_blob);
    ep.owner = ReassignOwners(tree, config->owner,
                              plan.dead_at[static_cast<std::size_t>(e)]);
    ep.kill_servers = plan.kill_at[static_cast<std::size_t>(e)];
    ep.restart_servers = plan.restart_at[static_cast<std::size_t>(e)];
    config->epochs.push_back(std::move(ep));
    pos += options.requests_per_epoch;
  }

  // Boot state = epoch 0 (fault-free by construction).
  config->quota_blob = config->epochs[0].quota_blob;
  config->down = config->epochs[0].down;
  config->total_requests = pos;
  return plan;
}

FaultScheduleOptions KillRestartFaults() {
  FaultScheduleOptions faults;
  faults.pattern = FaultPattern::kSingleNodes;
  faults.crash_fraction = 0.4;
  faults.outage_epochs = 1;
  faults.start_epoch = 1;
  return faults;
}

EpochPlanOptions KillRestartPlanOptions(int server_count, int epochs,
                                        std::uint64_t requests_per_epoch) {
  EpochPlanOptions opt;
  opt.epochs = epochs;
  opt.requests_per_epoch = requests_per_epoch;
  opt.faults = KillRestartFaults();
  opt.faults.seed = FirstKillRestartSeed(server_count, epochs, opt.faults);
  WEBWAVE_REQUIRE(opt.faults.seed != 0,
                  "no fault seed in 1..64 yields a kill and a restart");
  return opt;
}

std::uint64_t FirstKillRestartSeed(int server_count, int epochs,
                                   FaultScheduleOptions faults) {
  for (faults.seed = 1; faults.seed <= 64; ++faults.seed) {
    const ProcessFaultPlan p =
        BuildProcessFaultPlan(server_count, epochs, faults);
    if (CountThrough(p.kill_at, epochs - 1) >= 1 &&
        CountThrough(p.restart_at, epochs - 1) >= 1)
      return faults.seed;
  }
  return 0;
}

}  // namespace webwave
