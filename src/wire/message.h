// The WebWave data-plane message vocabulary — one protocol, two
// transports.
//
// The paper's cache servers are network daemons exchanging request,
// reply and load-gossip messages over a real internet tree (§3, §6).
// This header is the single definition of those messages, shared by
// every transport in the repo:
//
//   * proto/packet_sim carries them through the discrete-event
//     simulator (latencies and losses simulated, payloads real),
//   * netd/ carries them over non-blocking loopback/UDP-style stream
//     sockets between real processes,
//   * serve/ServingPlane consumes and produces them directly as the
//     in-process oracle (ServeWireSegment).
//
// A simulated deployment and a socket deployment therefore exercise
// identical protocol code; diverging them now requires editing the same
// struct, which is the point.
//
// Replies carry the serving node's current load and its quota-table
// version — the DistCache-style piggyback that lets clients and
// downstream caches learn load without a discovery protocol, exactly
// the "no query traffic" stance the paper takes against ICP.
//
// The encoding (fixed-width, explicitly little-endian) lives in
// wire/codec.h; this header is pure vocabulary with no I/O.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/latency_histogram.h"
#include "obs/trace.h"
#include "tree/routing_tree.h"

namespace webwave {

enum class MsgType : std::uint8_t {
  // Data plane ----------------------------------------------------------
  kGetRequest = 1,
  kGetReply = 2,
  kLoadGossip = 3,
  // Control plane (netd process management) ------------------------------
  kHello = 16,
  kStatsRequest = 17,
  kStatsReply = 18,
  kShutdown = 19,
  kTraceRequest = 20,
  kTraceReply = 21,
  // Epoch control plane (multi-epoch closed loop) ------------------------
  kQuotaDelta = 22,
  kEpochUpdate = 23,
  // Latency plane (v4): flight-recorder scrape -----------------------------
  kFlightRequest = 24,
  kFlightReply = 25,
};

enum class GetResult : std::uint8_t {
  kServed = 0,   // serving_node answered with the document
  kDropped = 1,  // retry budget exhausted mid-outage; never served
};

// GetRequest.flags bits.  kGetFlagTrace marks a request the loadgen's
// sampling law (obs/trace.h TraceSampled) selected for tracing; every
// daemon the walk crosses records its TraceEvents, so the fleet's merged
// trace equals the in-process oracle's record-for-record.
inline constexpr std::uint16_t kGetFlagTrace = 0x1;

// A request for `doc`, (re)starting its up-tree walk at `origin_node`:
// the client's origin on first transmission, the resume node when a
// server forwards the miss toward the home.  `ttl_hops` counts the edges
// climbed so far and doubles as the loop guard, enforced by
// ServingPlane::ServeWireSegment: a request whose ttl_hops plus the depth
// of origin_node exceeds the tree height throws before anything is
// accounted.  `failed` counts failover attempts burned at crashed nodes,
// so the retry budget survives process hops.
// `trace_seq` is the next trace sequence number when kGetFlagTrace is
// set — like `failed`, walk state that must survive a forward.
struct GetRequest {
  std::uint64_t req_id = 0;  // stream-global request index (seed, i)
  std::int32_t doc = 0;
  NodeId origin_node = kNoNode;
  std::uint16_t ttl_hops = 0;
  std::uint16_t failed = 0;
  std::uint16_t flags = 0;
  std::uint16_t trace_seq = 0;

  bool operator==(const GetRequest& o) const {
    return req_id == o.req_id && doc == o.doc &&
           origin_node == o.origin_node && ttl_hops == o.ttl_hops &&
           failed == o.failed && flags == o.flags && trace_seq == o.trace_seq;
  }
};

// The answer travelling back down the request's path.  `load` is the
// serving node's current measured load and `version` its quota-table
// epoch — piggybacked state every reply carries for free.
struct GetReply {
  std::uint64_t req_id = 0;
  std::int32_t doc = 0;
  NodeId serving_node = kNoNode;
  GetResult result = GetResult::kServed;
  std::uint16_t hops = 0;  // edges the request climbed before service
  double load = 0;
  std::uint32_t version = 0;

  bool operator==(const GetReply& o) const {
    return req_id == o.req_id && doc == o.doc &&
           serving_node == o.serving_node && result == o.result &&
           hops == o.hops && load == o.load && version == o.version;
  }
};

// One neighbor-load sample of the gossip plane: `node`'s load as of
// gossip round `epoch`.  The diffusion control plane acts on these
// estimates, never on queried state.
struct LoadGossip {
  NodeId node = kNoNode;
  std::uint32_t epoch = 0;
  double load = 0;

  bool operator==(const LoadGossip& o) const {
    return node == o.node && epoch == o.epoch && load == o.load;
  }
};

// netd control plane ------------------------------------------------------

enum class PeerKind : std::uint8_t {
  kServer = 0,
  kLoadgen = 1,
};

// First frame on every new connection: who is calling, and — since v3 —
// which quota-table epoch the caller is at.  A restarted daemon rejoins
// by sending Hello with its boot epoch (0: it only has the base blob);
// the control node replies with the kQuotaDelta/kEpochUpdate pair that
// brings it current.  The epoch in a server's Hello *reply* is the
// rejoin handshake's "how stale am I" disclosure.
struct Hello {
  PeerKind kind = PeerKind::kServer;
  std::uint32_t sender = 0;  // server index or loadgen id
  std::uint32_t epoch = 0;   // quota-table epoch the sender is at

  bool operator==(const Hello& o) const {
    return kind == o.kind && sender == o.sender && epoch == o.epoch;
  }
};

// The eight integer serving counters: ServingMetrics' scalars and the
// head of every kStatsReply.  Two runs, or a fleet and its oracle, agree
// exactly iff these agree exactly.
struct ServingCounters {
  std::uint64_t requests = 0;
  std::uint64_t cache_served = 0;  // served strictly below the home
  std::uint64_t home_served = 0;   // served at the root
  std::uint64_t hop_sum = 0;       // total edges climbed by served requests
  // Fault-plane counters (all zero while every node is live):
  std::uint64_t failed_attempts = 0;   // arrivals at down nodes
  std::uint64_t failovers = 0;         // served requests that failed ≥ once
  std::uint64_t dropped_requests = 0;  // retry budget exhausted, never served
  std::uint64_t backoff_slots = 0;     // dither-phased backoff, in slots
};

// The same eight, listed once for every loop over them: merges, sums,
// equality and the registry names ServingPlane publishes them under.
struct ServingCounterField {
  const char* name;
  std::uint64_t ServingCounters::*field;
};
inline constexpr std::array<ServingCounterField, 8> kServingCounters = {{
    {"requests", &ServingCounters::requests},
    {"cache_served", &ServingCounters::cache_served},
    {"home_served", &ServingCounters::home_served},
    {"hop_sum", &ServingCounters::hop_sum},
    {"failed_attempts", &ServingCounters::failed_attempts},
    {"failovers", &ServingCounters::failovers},
    {"dropped_requests", &ServingCounters::dropped_requests},
    {"backoff_slots", &ServingCounters::backoff_slots},
}};

// True iff the serving counters agree (fields of a derived type ignored).
inline bool ServingCountersEqual(const ServingCounters& a,
                                 const ServingCounters& b) {
  for (const ServingCounterField& c : kServingCounters)
    if (a.*c.field != b.*c.field) return false;
  return true;
}

// A server's counters as a kStatsReply carries them: the serving
// counters (netd sums these across processes and diffs the sums against
// the in-process oracle) plus transport-level extras the oracle has no
// analogue for: socket messages depend on how the tree is carved into
// processes, counters must not.
struct WireCounters : ServingCounters {
  std::uint64_t net_forwards = 0;  // GetRequests forwarded over a socket
  std::uint64_t gossip_sent = 0;   // LoadGossip frames emitted
  // Survivability extras (v3): like net_forwards/gossip_sent these are
  // transport-level — the oracle has no analogue, and the fault-scenario
  // assertions pin shed_forwards to zero and outbox_peak_bytes under the
  // watermark rather than diffing them against anything.
  std::uint64_t shed_forwards = 0;     // forwards shed at the outbox watermark
  std::uint64_t reconnects = 0;        // peer reconnect attempts made
  std::uint64_t outbox_peak_bytes = 0; // high-water mark across all conns

  bool operator==(const WireCounters& o) const;
};

// The five transport counters, listed once in kStatsReply wire order
// (after the eight serving counters) for every loop over them: the codec,
// fleet totals, equality and scrape monotonicity.  A fleet total adds a
// counter across daemons, except a `maxed` one: a per-daemon high-water
// mark, whose fleet value is the largest daemon's.
struct TransportCounterField {
  const char* name;
  std::uint64_t WireCounters::*field;
  bool maxed;
};
inline constexpr std::array<TransportCounterField, 5> kTransportCounters = {{
    {"net_forwards", &WireCounters::net_forwards, false},
    {"gossip_sent", &WireCounters::gossip_sent, false},
    {"shed_forwards", &WireCounters::shed_forwards, false},
    {"reconnects", &WireCounters::reconnects, false},
    {"outbox_peak_bytes", &WireCounters::outbox_peak_bytes, true},
}};

inline bool WireCounters::operator==(const WireCounters& o) const {
  if (!ServingCountersEqual(*this, o)) return false;
  for (const TransportCounterField& f : kTransportCounters)
    if (this->*f.field != o.*f.field) return false;
  return true;
}

// The histogram section of a kStatsReply: one latency histogram in
// LatencyHistogram's exact sparse form (strictly ascending bucket
// indices, non-zero u64 counts) plus the u64 sum of recorded values.
struct WireHistogram {
  std::uint64_t sum = 0;
  std::vector<LatencyHistogram::SparseEntry> buckets;

  bool operator==(const WireHistogram& o) const {
    return sum == o.sum && buckets == o.buckets;
  }

  LatencyHistogram ToHistogram() const {
    return LatencyHistogram::FromSparse(buckets, sum);
  }
  static WireHistogram From(const LatencyHistogram& h) {
    WireHistogram w;
    w.sum = h.sum();
    w.buckets = h.ToSparse();
    return w;
  }
};

// kStatsReply, the one stats shape since v4: counters plus the daemon's
// request service-time histogram (an empty histogram encodes as a
// zero-entry section).
struct StatsReply {
  WireCounters counters;
  WireHistogram hist;

  bool operator==(const StatsReply& o) const {
    return counters == o.counters && hist == o.hist;
  }
};

// kFlightReply — a daemon's flight-recorder ring, oldest to newest, as a
// flat array of fixed-width FlightEvent records (obs/flight_recorder.h).
// A wrapper struct rather than a bare vector so the Encode overload set
// stays unambiguous next to kTraceReply's std::vector<TraceEvent>.
struct FlightReply {
  std::vector<FlightEvent> events;

  bool operator==(const FlightReply& o) const { return events == o.events; }
};

// One changed cell of a quota-table delta: the (doc, rate, frac) triple
// exactly as it appears in the target snapshot's CSR row.
struct QuotaDeltaCell {
  std::int32_t doc = 0;
  double rate = 0;
  double frac = 0;

  bool operator==(const QuotaDeltaCell& o) const {
    return doc == o.doc && rate == o.rate && frac == o.frac;
  }
};

// One replaced CSR row: node's full new cell list (documents strictly
// ascending, possibly empty).  Deltas carry whole rows, not cell edits —
// a row either changed (ship its new contents) or it did not.
struct QuotaDeltaRow {
  NodeId node = kNoNode;
  std::vector<QuotaDeltaCell> cells;

  bool operator==(const QuotaDeltaRow& o) const {
    return node == o.node && cells == o.cells;
  }
};

// kQuotaDelta — the epoch re-sync frame: the rows whose cells differ
// between a daemon's current table and the control node's epoch-`epoch`
// table, plus the new total rate (bit-exact; admission thresholds depend
// on it).  Applying a delta to the table it was diffed from reproduces
// the target snapshot byte-for-byte (QuotaWireTable::ApplyDelta).
struct QuotaDelta {
  std::uint32_t epoch = 0;
  double total_rate = 0;
  std::vector<QuotaDeltaRow> rows;  // nodes strictly ascending

  bool operator==(const QuotaDelta& o) const {
    return epoch == o.epoch && total_rate == o.total_rate && rows == o.rows;
  }
};

// One ownership reassignment relative to the BASE owner map: `node` is
// now owned by server `owner`.  Diffing against the base (not the
// previous epoch) makes EpochUpdate stateless — a rejoining daemon that
// missed epochs applies the latest one to a fresh copy of the base map
// and is current.
struct OwnerDelta {
  NodeId node = kNoNode;
  std::uint32_t owner = 0;

  bool operator==(const OwnerDelta& o) const {
    return node == o.node && owner == o.owner;
  }
};

// kEpochUpdate — the epoch's serving window: the down set every daemon
// must install (SetDownNodes) and the ownership reassignments re-homing
// dead daemons' shards, both relative to a clean slate (empty down set,
// base owner map).
struct EpochUpdate {
  std::uint32_t epoch = 0;
  std::vector<NodeId> down;           // strictly ascending
  std::vector<OwnerDelta> reassign;   // nodes strictly ascending

  bool operator==(const EpochUpdate& o) const {
    return epoch == o.epoch && down == o.down && reassign == o.reassign;
  }
};

// A decoded frame: `type` selects which member is meaningful.  (A tagged
// struct rather than std::variant: every payload is a few dozen bytes
// and the dispatch sites switch on the type anyway.)
struct WireMessage {
  MsgType type = MsgType::kGetRequest;
  GetRequest get;
  GetReply reply;
  LoadGossip gossip;
  Hello hello;
  WireCounters stats;                // kStatsReply
  WireHistogram stats_hist;          // kStatsReply
  std::vector<TraceEvent> trace;     // kTraceReply
  QuotaDelta delta;                  // kQuotaDelta
  EpochUpdate epoch_update;          // kEpochUpdate
  FlightReply flight;                // kFlightReply
};

}  // namespace webwave
