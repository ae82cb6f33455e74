// Packet-level WebWave: the protocol running on the discrete-event
// simulator with real messages, latencies and measured (EWMA) rates.
//
// This validates what §5.1 assumes away: gossip takes time, load estimates
// are stale, rates are measured from discrete arrivals, and load can only
// be shifted in document-sized quota grants.  It also hosts the protocol
// baselines the paper argues against:
//   * kNoCaching   — every request travels to the home server.
//   * kEnRouteLru  — demand-driven hierarchical caching: every node caches
//                    the documents of responses passing through it (LRU,
//                    finite capacity), serves anything it holds, no load
//                    awareness.
//   * kIcpLike     — on a local miss, the origin first queries its tree
//                    neighbors (one round trip) and fetches from a nearby
//                    copy if any — the discovery-protocol cost the paper
//                    rejects, measured in messages and latency.
//   * kWebWave     — filters + gossip + diffusion quota exchange +
//                    tunneling; no discovery traffic at all.
//
// Every request forward, response and gossip sample travels as a
// wire/message.h struct through the wire/codec.h round-trip (encode,
// decode, assert identity) — the simulator and the socket daemons in
// src/netd/ speak literally the same protocol vocabulary.  The codec is
// pure, so the rewiring leaves the draw sequence untouched
// (proto_golden_test pins the counters of all four policies).
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <unordered_map>
#include <vector>

#include "doc/barrier.h"
#include "doc/catalog.h"
#include "net/simulator.h"
#include "proto/cache_server.h"
#include "tree/routing_tree.h"
#include "util/rng.h"
#include "wire/message.h"

namespace webwave {

enum class CachePolicy { kNoCaching, kEnRouteLru, kIcpLike, kWebWave };

const char* PolicyName(CachePolicy policy);

// Fixed protocol timing (packet_sim.cpp): a link hop takes 5 ms, and the
// control plane runs one diffusion period (window roll, quota exchange,
// tunneling) every 200 ms of simulated time.
struct PacketSimOptions {
  CachePolicy policy = CachePolicy::kWebWave;
  SimTime gossip_period = 100 * kMicrosPerMilli;
  SimTime duration = 60 * kMicrosPerSecond;
  SimTime warmup = 5 * kMicrosPerSecond;   // excluded from averages
  int lru_capacity = 4;                    // copies per node, LRU policies
  // Failure injection: each gossip message is lost independently with
  // this probability (the estimate simply stays stale).
  double gossip_loss = 0.0;
  std::uint64_t seed = 1;
};

struct PacketSimReport {
  // Served requests/sec per node, measured after warmup.
  std::vector<double> measured_loads;
  // Mean number of hops a request travelled before being served.
  double mean_hit_depth = 0;
  // Mean request->response latency in milliseconds.
  double mean_response_ms = 0;
  std::uint64_t total_requests = 0;
  std::uint64_t served_requests = 0;
  // Control-plane traffic: gossip + quota/replication + discovery queries.
  std::uint64_t control_messages = 0;
  std::uint64_t doc_transfers = 0;
  std::uint64_t tunnel_events = 0;
  // Euclidean distance from the per-window load vector to `target_loads`
  // (one sample per diffusion period; empty when no target given).
  std::vector<double> distance_trajectory;
  double control_messages_per_request = 0;
  // Network traffic: link traversals of request packets and responses,
  // and total bytes moved (requests up + document payloads down +
  // replication transfers), per §7's traffic question.
  std::uint64_t link_traversals = 0;
  double network_kb = 0;
  double network_kb_per_request = 0;
  // Per-edge data traffic in KB, indexed by the edge's child node (the
  // root's slot stays 0).  Sums to network_kb minus gossip (gossip is
  // control-plane and not byte-accounted).
  std::vector<double> edge_traffic_kb;
  // Cache copies per document at the end of the run (WebWave policy; for
  // LRU policies this reflects the LRU contents, home always included).
  std::vector<int> copies_per_doc;
  // Wire frames encoded/decoded by the message layer during the run
  // (request forwards + responses + gossip samples + injected frames).
  std::uint64_t wire_frames = 0;
};

// The packet-level simulation as an object: construct, optionally install
// a step hook, then either Run() to completion or drive it in slices with
// RunUntil() and read counters with Report().  `demand` gives per-(node,
// doc) Poisson request rates (requests/sec); `target_loads` (optional)
// is the TLB assignment used for the distance trajectory.  The tree and
// demand references must outlive the object (a temporary
// `PacketSim(t, d, opt).Run()` is fine — they live for the full
// expression).
//
// Throws std::invalid_argument on mismatched demand/tree sizes or
// duration <= warmup.
class PacketSim {
 public:
  PacketSim(const RoutingTree& tree, const DemandMatrix& demand,
            const PacketSimOptions& options,
            std::vector<double> target_loads = {});

  // Whole-run convenience: RunUntil(options.duration) + Report().
  PacketSimReport Run();

  // Step interface ---------------------------------------------------------
  // Advances the event loop to simulated time t (monotone across calls;
  // the workload/control chains are scheduled on first use).
  void RunUntil(SimTime t);
  SimTime now() const { return sim_.now(); }
  // Counters so far.  Load rates are scaled by the configured measurement
  // window (duration - warmup), so mid-run snapshots under-report rates.
  PacketSimReport Report() const;

  // Installs a hook invoked every diffusion period (any policy),
  // before that tick's control-plane work — the seam where tab_netd
  // interleaves wire-message injection without copying the driver loop.
  // Install before the first Run/RunUntil call.
  void set_step_hook(std::function<void(PacketSim&)> hook) {
    step_hook_ = std::move(hook);
  }

  // Wire-message injection -------------------------------------------------
  // Feeds one encoded frame into the simulation at the current time.
  // kGetRequest starts a request walk at the message's origin_node;
  // kLoadGossip delivers the sample to the node's tree neighbors after
  // one link latency.  Returns false (and injects nothing) for malformed
  // frames or other message types.  Injection consumes RNG draws like any
  // organic request, so injected runs are not draw-comparable to
  // uninjected ones — by design: injection *is* extra traffic.
  bool InjectFrame(const std::uint8_t* data, std::size_t len);
  void InjectRequest(const GetRequest& m);
  void InjectGossip(const LoadGossip& m);

 private:
  // LRU bookkeeping for the demand-driven baselines.
  class LruCache {
   public:
    explicit LruCache(int capacity) : capacity_(capacity) {}

    bool Contains(DocId d) const { return index_.count(d) > 0; }

    void Touch(DocId d) {
      const auto it = index_.find(d);
      if (it == index_.end()) return;
      order_.splice(order_.begin(), order_, it->second);
    }

    // Inserts d; returns the evicted document, or -1.
    DocId Insert(DocId d);

   private:
    int capacity_;
    std::list<DocId> order_;
    std::unordered_map<DocId, std::list<DocId>::iterator> index_;
  };

  void Start();

  // Workload.
  void ScheduleClientArrivals();
  void ScheduleNextArrival(NodeId v, double rate);
  DocId SampleDoc(NodeId v);

  // Data plane (req_id threads the wire identity through the walk).
  void StartRequest(NodeId origin, DocId d);
  void ForwardRequest(std::uint64_t req_id, NodeId origin, DocId d,
                      NodeId node, NodeId from_child, int hops);
  bool DecideServe(NodeId node, DocId d, NodeId from_child);
  void CompleteRequest(std::uint64_t req_id, NodeId origin, DocId d,
                       NodeId server, int hops);
  void RecordServed(NodeId server, NodeId origin, int hops, SimTime rtt);
  void StartIcpRequest(std::uint64_t req_id, NodeId origin, DocId d);

  // Control plane (WebWave only).
  void ScheduleGossip();
  void GossipTick();
  void ScheduleDiffusion();
  void DiffusionTick();
  void ScheduleStepHook();
  // Fetches the most-forwarded uncached document across k's barrier
  // parent; false when k forwards nothing it lacks.
  bool Tunnel(NodeId k);

  // Wire round-trips: encode, decode, assert identity, return the decoded
  // copy the continuation acts on.
  GetRequest RoundTrip(const GetRequest& m);
  GetReply RoundTrip(const GetReply& m);
  LoadGossip RoundTrip(const LoadGossip& m);

  const RoutingTree& tree_;
  const DemandMatrix& demand_;
  PacketSimOptions options_;
  std::vector<double> target_;
  Rng rng_;
  int docs_;

  Simulator sim_;
  std::vector<CacheServer> servers_;
  std::vector<LruCache> lru_;
  BarrierMonitor barrier_monitor_;
  std::function<void(PacketSim&)> step_hook_;
  bool started_ = false;

  std::vector<std::uint8_t> wire_buf_;
  std::uint64_t wire_frames_ = 0;
  std::uint32_t gossip_epoch_ = 0;
  std::uint32_t quota_version_ = 0;  // diffusion ticks completed

  std::vector<std::uint64_t> post_warmup_served_;
  std::vector<double> distance_trajectory_;
  std::uint64_t total_requests_ = 0;
  std::uint64_t served_requests_ = 0;
  std::uint64_t control_messages_ = 0;
  std::uint64_t doc_transfers_ = 0;
  std::uint64_t tunnel_events_ = 0;
  std::uint64_t post_warmup_count_ = 0;
  std::uint64_t link_traversals_ = 0;
  double network_kb_ = 0;
  std::vector<double> edge_kb_;
  double hit_depth_sum_ = 0;
  double response_us_sum_ = 0;
};

}  // namespace webwave
