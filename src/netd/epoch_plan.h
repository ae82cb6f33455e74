// BuildEpochPlan — the closed-loop control plane behind a multi-epoch
// netd run.
//
// One diffusion engine (BatchWebWaveSimulator + EpochDriver +
// FaultProjector) plays the control node: per epoch it folds the epoch's
// own request block into demand churn (the fleet learns from the stream
// it serves), applies the process-fault plan's crash/recover transitions
// as node-level fault events over the dead servers' shards (quota
// re-homes to the nearest live ancestor copy, conservation asserted
// inside the driver), and snapshots the resulting serving table.  Each
// NetdEpoch then carries exactly what the loadgen ships at the boundary:
// the full table (the loadgen diffs consecutive blobs into kQuotaDelta
// frames), the projector's down set, and the ReassignOwners-re-homed
// ownership map, plus the plan's kill/restart lists.
//
// Everything here is a pure function of (config, options): the fleet and
// the in-process oracle both replay the same plan, which is what makes
// the cross-fault counter comparison bit-exact.
#pragma once

#include <cstdint>

#include "fault/process_faults.h"
#include "netd/cluster.h"
#include "serve/epoch_driver.h"

namespace webwave {

struct EpochPlanOptions {
  int epochs = 4;
  std::uint64_t requests_per_epoch = 0;  // required > 0
  EpochDriver::Options driver;
  // Evaluated over the fleet star (see fault/process_faults.h); only
  // used when inject_faults is set.
  FaultScheduleOptions faults;
  bool inject_faults = true;
};

// Fills config->epochs (and the derived boot state: quota_blob, down,
// total_requests) from the closed loop described above.  Requires
// config->parents/owner/server_count/docs/stream_seed to be set.
// Returns the process-fault plan the epochs were built from, so callers
// can assert against the same schedule.
ProcessFaultPlan BuildEpochPlan(NetdClusterConfig* config,
                                const EpochPlanOptions& options);

// The kill/restart schedule every netd harness runs: single daemons
// crash (crash fraction 0.4) for one epoch at a time, from epoch 1 on.
// The seed is left for FirstKillRestartSeed to pick.
FaultScheduleOptions KillRestartFaults();

// `epochs` blocks of `requests_per_epoch` under KillRestartFaults(), at
// the first seed whose plan kills and restarts a daemon over
// `server_count` servers.  Throws when no seed in 1..64 does.
EpochPlanOptions KillRestartPlanOptions(int server_count, int epochs,
                                        std::uint64_t requests_per_epoch);

// The first seed in 1..64 whose process-fault plan (`faults` with that
// seed, over `server_count` servers and `epochs` epochs) kills at least
// one daemon and restarts at least one, or 0 if none does.  The schedule
// is a pure (seed, server, epoch) hash, so a kill/restart scenario probes
// for its seed instead of hoping one draws it.
std::uint64_t FirstKillRestartSeed(int server_count, int epochs,
                                   FaultScheduleOptions faults);

}  // namespace webwave
