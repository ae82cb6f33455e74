#include "fault/process_faults.h"

#include "util/check.h"

namespace webwave {

ProcessFaultPlan BuildProcessFaultPlan(int server_count, int epochs,
                                       const FaultScheduleOptions& options) {
  WEBWAVE_REQUIRE(server_count >= 1 && epochs >= 1,
                  "a fault plan needs a fleet and at least one epoch");
  WEBWAVE_REQUIRE(options.start_epoch >= 1,
                  "epoch 0 must be fault-free: daemons boot into it");
  // The fleet star: node s = server s, everyone a child of server 0.
  std::vector<NodeId> parents(static_cast<std::size_t>(server_count),
                              kNoNode);
  for (int s = 1; s < server_count; ++s)
    parents[static_cast<std::size_t>(s)] = 0;
  const RoutingTree star = RoutingTree::FromParents(parents);
  const FaultSchedule schedule(star, options);

  ProcessFaultPlan plan;
  plan.kill_at.resize(static_cast<std::size_t>(epochs));
  plan.restart_at.resize(static_cast<std::size_t>(epochs));
  plan.dead_at.assign(static_cast<std::size_t>(epochs),
                      std::vector<bool>(
                          static_cast<std::size_t>(server_count), false));
  std::vector<bool> prev(static_cast<std::size_t>(server_count), false);
  for (int e = 0; e < epochs; ++e) {
    for (const NodeId v : schedule.DownSet(e))
      plan.dead_at[static_cast<std::size_t>(e)][static_cast<std::size_t>(
          v)] = true;
    for (int s = 0; s < server_count; ++s) {
      const bool now =
          plan.dead_at[static_cast<std::size_t>(e)][static_cast<std::size_t>(
              s)];
      if (now && !prev[static_cast<std::size_t>(s)]) {
        plan.kill_at[static_cast<std::size_t>(e)].push_back(s);
        plan.any = true;
      } else if (!now && prev[static_cast<std::size_t>(s)]) {
        plan.restart_at[static_cast<std::size_t>(e)].push_back(s);
      }
      prev[static_cast<std::size_t>(s)] = now;
    }
  }
  WEBWAVE_REQUIRE(plan.kill_at[0].empty() && plan.restart_at[0].empty(),
                  "epoch 0 must be fault-free");
  return plan;
}

}  // namespace webwave
