// The netd cluster harness: carve a serving subtree out of a big tree,
// partition it into per-process shards, fork one CacheServerDaemon per
// shard over loopback sockets, drive the fleet with the deterministic
// loadgen, and validate every integer serving counter against the
// in-process ServingPlane oracle replaying the identical request stream.
//
// Why the counters can match *exactly* across async processes: the fleet
// runs block_size = 1, the order-free admission regime, where every
// token grant, thinning draw and backoff slot is a pure function of
// (req_id, cell).  Arrival order across sockets then cannot change any
// decision, so the sum of the daemons' counters equals one oracle plane's
// metrics bit for bit — hits, forwards, failovers, drops, backoff slots,
// per-request hops, everything.
//
// Process hygiene: the parent creates every listen socket *before*
// forking (children inherit their own, the kernel queues connections
// until the child polls — no port races, no startup handshakes), and no
// thread exists anywhere at fork time (daemon planes run threads = 1;
// the oracle replays only after the fleet is done).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/latency_histogram.h"
#include "obs/trace.h"
#include "serve/request_gen.h"
#include "serve/serving_plane.h"
#include "tree/routing_tree.h"
#include "util/rng.h"
#include "wire/message.h"

namespace webwave {

// One epoch of a multi-epoch fleet run: a block of the request stream
// served under one quota table, down set and ownership map.  Process
// faults happen at epoch *boundaries*: the loadgen drains in-flight to
// zero, scrapes any victim's counters, trace and flight ring, then
// kills / restarts the listed daemons, ships every live daemon its
// kQuotaDelta + kEpochUpdate pair, runs a full kStatsRequest barrier
// round, and only then resumes the stream — so each block is served
// under exactly one fleet state and the bit-exact oracle comparison
// extends across faults.
struct NetdEpoch {
  std::uint64_t requests = 0;           // stream block length
  std::vector<NodeId> down;             // ascending; installed fleet-wide
  std::vector<std::uint8_t> quota_blob; // full table at this epoch
  std::vector<int> owner;               // re-homed node -> server map
  std::vector<int> kill_servers;        // SIGKILLed entering this epoch
  std::vector<int> restart_servers;     // re-forked entering this epoch
};

struct NetdClusterConfig {
  // The carved tree, as a parent array (RoutingTree::FromParents form).
  std::vector<NodeId> parents;
  // node -> owning server index, in [0, server_count).
  std::vector<int> owner;
  int server_count = 0;
  // The admission state every process is handed: QuotaWireTable bytes.
  // Each daemon AND the oracle deserialize this same blob, so they build
  // identical planes by construction.
  std::vector<std::uint8_t> quota_blob;
  // Globally known crashed nodes (never the root).
  std::vector<NodeId> down;
  // Plane options; block_size must be 1 (enforced by the daemon).
  ServingOptions serving;
  // The (seed, i) request stream: loadgen and oracle both generate it
  // with NetdRequestAt over parents.size() nodes and `docs` documents.
  int docs = 0;
  std::uint64_t stream_seed = 1;
  std::uint64_t total_requests = 0;
  // Live fleet stats scraping: the loadgen polls every daemon's
  // kStatsRequest on this cadence *while the stream is in flight* and
  // records the replies as NetdStatsSamples (0 = final sample only).
  int stats_scrape_period_ms = 0;
  // Multi-epoch closed loop: when non-empty, the stream is served in
  // epoch blocks (sum of requests must equal total_requests) and epoch 0
  // must match the boot state (quota_blob, owner, down) since daemons
  // construct from it and no transition into epoch 0 is ever sent.
  std::vector<NetdEpoch> epochs;
  // Bounded backpressure: a forward that would push a peer connection's
  // outbox past this many queued bytes is shed (the origin gets a
  // kDropped reply and netd.shed_forwards counts it) instead of
  // buffering unboundedly behind a slow or dead peer.
  std::size_t outbox_watermark_bytes = std::size_t{1} << 20;
  // Loadgen load-reactive window: when > 0, a GetReply whose piggybacked
  // load exceeds factor x (completed / server_count) halves the live
  // window (additive +1 recovery up to the loadgen's fixed window).
  // Pacing only — the stream content and every admission decision are
  // unaffected.
  double load_window_factor = 0;
  // Where, when non-empty, a daemon dumps its flight-recorder ring on
  // *clean* shutdown ("flight_<index>.txt"); victims never reach that
  // path — their rings are scraped over the wire (kFlightRequest) at the
  // quiesced boundary before the SIGKILL.
  std::string flight_dir;
};

// Request i of stream `seed` — a pure counter function, evaluated
// identically by the loadgen (to send) and the oracle (to replay).
inline Request NetdRequestAt(std::uint64_t seed, std::uint64_t i, int nodes,
                             int docs) {
  std::uint64_t s1 = seed + i * 0x9e3779b97f4a7c15ULL;
  std::uint64_t s2 = s1 + 0x6a09e667f3bcc909ULL;
  Request r;
  r.node = static_cast<NodeId>(SplitMix64(s1) %
                               static_cast<std::uint64_t>(nodes));
  r.doc = static_cast<std::int32_t>(SplitMix64(s2) %
                                    static_cast<std::uint64_t>(docs));
  return r;
}

// The subtree of `big` rooted at `r`, re-indexed to its own compact tree
// (new ids are preorder positions, so the carved root is node 0).
struct CarvedTree {
  std::vector<NodeId> parents;  // carved tree, FromParents form
  std::vector<NodeId> big_ids;  // carved id -> original id in `big`
};
CarvedTree CarveSubtree(const RoutingTree& big, NodeId r);

// Where a harness carves its serving tree: the first non-root node in
// preorder whose subtree holds min_size..max_size nodes, else the root's
// largest child.
NodeId CarvePivot(const RoutingTree& big, int min_size, int max_size);

// node -> server: contiguous preorder blocks via WorkerPool::Partition,
// so shards are deterministic, balanced within one node, and mostly
// connected (preorder keeps subtrees together).
std::vector<int> PartitionOwners(const RoutingTree& tree, int servers);

// Re-homes ownership around dead servers: every node owned by a dead
// server is adopted by its parent's (already re-homed) owner, walking
// preorder so parents resolve first.  Preserves the up-the-tree owner
// monotonicity that terminates forward chains (new[v] <= base[v]
// everywhere).  The root's owner (server 0) must be alive.
std::vector<int> ReassignOwners(const RoutingTree& tree,
                                const std::vector<int>& base,
                                const std::vector<bool>& server_dead);

// The sparse (node, owner) pairs where `now` differs from `base`,
// ascending by node — the kEpochUpdate payload.  Stateless by design:
// a daemon applies them to a fresh copy of the base map, so a rejoining
// process that missed epochs is current after one update.
std::vector<OwnerDelta> OwnerDiff(const std::vector<int>& base,
                                  const std::vector<int>& now);

// The fleet every netd harness stages on `tree`: leaf demand
// U(0.1, 4.0) for each document, drawn from Rng(7); the DerivePlacement
// quotas (FromPlacement, 1e-9 floor) as the boot blob; PartitionOwners
// over `servers`; block size 1 and one serving thread.  Tracing,
// scraping, down sets and epochs are the caller's.
NetdClusterConfig StageNetdCluster(const RoutingTree& tree, int docs,
                                   int servers, std::uint64_t stream_seed,
                                   std::uint64_t total_requests);

// The fixed-stream scenarios tab_netd and netd_demo run on a staged tree,
// each a down set and the retry budget it runs under: "live" (nothing
// down), "faulted" (the first subtree root in preorder holding at least
// 1/20 of the tree, so walks fail over past it) and "drops" (the deepest
// node's root path, one node longer than the budget, so some requests
// exhaust it).
struct NetdScenario {
  const char* label;
  std::vector<NodeId> down;
  int max_failover_attempts;
};
std::vector<NetdScenario> NetdScenarios(const RoutingTree& tree);

// Replays the config's stream on one all-owning plane built from the
// same quota blob — the oracle the fleet is compared against.  When
// `trace` is non-null and config.serving.trace is set, the oracle's
// sampled TraceEvent stream is copied out (already canonical order) —
// the record-for-record reference for the fleet's scraped traces.
// With config.epochs set, each epoch's block is replayed under that
// epoch's table + down set (Refresh between blocks), and
// `epoch_counters` (if non-null) receives the cumulative counter set
// after each epoch — the reference for the fleet's quiesced barrier
// samples.  Runs config.serving.threads workers (order-free admission
// makes the counters thread-count invariant).
ServingMetrics ReplayOracle(const NetdClusterConfig& config,
                            std::vector<TraceEvent>* trace = nullptr,
                            std::vector<WireCounters>* epoch_counters =
                                nullptr);

// The scalar counters of a ServingMetrics, in WireCounters form (the
// transport-level fields net_forwards/gossip_sent stay 0 — the oracle
// has no sockets).  Compare with ServingCountersEqual (wire/message.h).
WireCounters CountersFromMetrics(const ServingMetrics& m);

// The total of a counter set: every field summed, except a `maxed`
// transport counter (outbox_peak_bytes), which takes the largest.
WireCounters SumCounters(const std::vector<WireCounters>& all);

// One stats round over the whole fleet: each live daemon's kStatsReply
// counters, stamped with how many requests the client had completed
// when the round was sent.  Dead servers' slots stay zero.
struct NetdStatsSample {
  std::uint64_t at_completed = 0;
  std::vector<WireCounters> per_server;
  // Each daemon's request service-time histogram from the same
  // kStatsReply (empty for dead slots).  Timing payload — never part of
  // the oracle identity assertions.
  std::vector<LatencyHistogram> hist_per_server;
};

struct NetdRunResult {
  bool ok = false;  // fleet launched, drained and exited cleanly
  std::vector<WireCounters> per_server;
  // per_server and `retired` totalled by SumCounters: outbox_peak_bytes
  // is the largest daemon's.
  WireCounters fleet;
  // Client-side tallies from the replies themselves.
  std::uint64_t client_served = 0;
  std::uint64_t client_dropped = 0;
  std::uint64_t client_hop_sum = 0;  // over served replies
  // Every mid-run scrape (stats_scrape_period_ms > 0) in start order,
  // then the end-of-run round's sample — so samples.back() is the
  // fleet's end-of-run counter set, at_completed == total_requests.
  // Barrier rounds go to epoch_samples, victim scrapes to `retired`.
  std::vector<NetdStatsSample> samples;
  // The fleet's sampled trace records (config.serving.trace), merged
  // across daemons and canonicalized to (req_id, seq) order.
  std::vector<TraceEvent> trace;
  // Final counters of daemons killed mid-run, scraped at the quiesced
  // boundary just before each SIGKILL.  `fleet` includes them, so the
  // sum law holds across faults: fleet = live finals + retired.
  std::vector<WireCounters> retired;
  // One quiesced barrier sample per epoch *transition* (epochs 1..E-1):
  // every live daemon's counters after its delta + epoch update landed.
  // Dead slots stay zero — their final counters are in `retired` — so
  // SumCounters(sample) + retired-so-far equals the oracle's cumulative
  // counters after the preceding epoch.
  std::vector<NetdStatsSample> epoch_samples;
  // The epoch each restarted daemon announced in its rejoin Hello —
  // always 0 (a fresh boot serves the base table until its delta lands).
  std::vector<std::uint32_t> rejoin_hello_epochs;

  // --- Latency plane (PR 10) — observability payload, never identity ---
  // Loadgen-observed send->reply latency, bucketed per epoch block and
  // per replying server.
  std::vector<LatencyHistogram> latency_per_epoch;
  std::vector<LatencyHistogram> latency_per_server;
  // Each live daemon's final request service-time histogram (from the
  // end-of-run round), and the victims' pre-kill ones (aligned
  // index-for-index with `retired`).
  std::vector<LatencyHistogram> server_hist;
  std::vector<LatencyHistogram> retired_hist;
  // Flight-recorder rings: victims' rings scraped at the quiesced
  // boundary before each SIGKILL, then every live daemon's ring at end
  // of run.  Events carry the recording daemon's index in `node`.
  struct FlightDump {
    int server = -1;
    bool victim = false;  // scraped ahead of a SIGKILL
    std::vector<FlightEvent> events;
  };
  std::vector<FlightDump> flights;
  // The loadgen's own event-loop stall tracking.
  LatencyHistogram loop_poll_iter;
  LatencyHistogram loop_timer_lag;
  std::uint64_t loop_max_stall_ns = 0;
};

// Every law a finished fleet run owes the oracle that replayed its
// config (ReplayOracle's metrics, trace and per-epoch counters): one line
// per violated law, led by the law's name, and none when all hold.  The
// laws (src/netd/README.md, "What a fleet run owes the oracle"): run,
// counters, trace, scrapes, quiesced, membership, backpressure,
// serve histogram, client latency, flight.  Checks that depend on timing
// or on the scenario (how many samples, failovers, reconnects) stay with
// the caller.
std::vector<std::string> FleetLawViolations(
    const NetdClusterConfig& config, const NetdRunResult& run,
    const ServingMetrics& oracle, const std::vector<TraceEvent>& oracle_trace,
    const std::vector<WireCounters>& oracle_per_epoch);

// Forks config.server_count daemons, runs the loadgen against them,
// collects every daemon's counters, shuts the fleet down and reaps it.
// A run that fails (timeout, unscheduled EOF, or an exception, which is
// rethrown) SIGKILLs and reaps every daemon still running: no daemon
// outlives the call.
NetdRunResult RunNetdCluster(const NetdClusterConfig& config);

}  // namespace webwave
