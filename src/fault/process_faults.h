// Process-level fault plans: FaultSchedule mapped onto a server fleet.
//
// fault/fault_schedule.h decides which *tree nodes* are down per epoch.
// The netd fleet needs the same decisions one level up: which *daemon
// processes* are dead during which epochs, and at which epoch boundaries
// a process must be SIGKILLed or re-forked.  BuildProcessFaultPlan
// evaluates a FaultSchedule over the "fleet star" — a synthetic tree
// with one node per server, every server a child of server 0 — so the
// schedule's node space *is* the server space: the root (server 0, which
// owns the carved tree's root) is never down, the fault-free prefix
// before start_epoch gives every run a clean baseline, and whether
// server s is dead during epoch e is the same pure (seed, s, e) function
// as every other fault decision in the repo.
//
// The plan is pure data (no live schedule state), so the cluster
// harness, the oracle builder and the tests can all consume the same
// plan object and agree on every transition by construction.
#pragma once

#include <cstddef>
#include <vector>

#include "fault/fault_schedule.h"

namespace webwave {

struct ProcessFaultPlan {
  // Index = epoch.  kill_at[e] / restart_at[e] are the servers killed /
  // re-forked at the boundary *entering* epoch e (ascending, disjoint);
  // dead_at[e][s] says whether server s is dead while epoch e serves.
  std::vector<std::vector<int>> kill_at;
  std::vector<std::vector<int>> restart_at;
  std::vector<std::vector<bool>> dead_at;
  bool any = false;  // at least one kill somewhere in the plan

  // The dead set of `epoch`, ascending — convenience for re-homing.
  std::vector<int> DeadServers(int epoch) const;
};

// Servers listed in kill_at or restart_at (`at`) at the boundaries
// entering epochs 0..e: CountThrough(plan.kill_at, e) is the kills so far.
inline std::size_t CountThrough(const std::vector<std::vector<int>>& at,
                                int e) {
  std::size_t n = 0;
  for (int k = 0; k <= e; ++k) n += at[static_cast<std::size_t>(k)].size();
  return n;
}

// Evaluates `options` over the fleet star of `server_count` servers for
// `epochs` epochs.  Requires server_count >= 1 and options.start_epoch
// >= 1 (epoch 0 must be fault-free: daemons boot into it).
ProcessFaultPlan BuildProcessFaultPlan(int server_count, int epochs,
                                       const FaultScheduleOptions& options);

}  // namespace webwave
