// Deterministic sampled request tracing.
//
// A trace answers "what happened to request N": where it arrived, every
// up-tree hop, each admission decision (token-bucket grant or Poisson
// thinning draw), failover attempts with their backoff slots, and the
// final disposition.  Recording every request would perturb the serving
// hot path, so requests are *sampled* — but by a counter hash of
// (trace_seed, req_id), never by a rate limiter or clock, so the sampled
// set is a pure function of the stream.  The same request is traced (or
// not) at any thread count, any lane block, and on either transport: the
// in-process oracle evaluates TraceSampled itself, while the socket
// loadgen evaluates it once and sets the trace flag bit in the GetRequest
// frame, so the forked fleet records the identical event chain.
//
// Events carry a per-request sequence number assigned in walk order.  The
// canonical order of a trace stream is (req_id, seq); CanonicalizeTrace
// restores it after any merge (per-worker buffers, per-daemon shards), so
// "bit-identical traces" is a plain vector equality.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "tree/routing_tree.h"
#include "util/rng.h"

namespace webwave {

enum class TraceEventKind : std::uint8_t {
  kArrival = 1,     // request entered the system; detail = doc id
  kHop = 2,         // moved to the parent node; detail = hops so far
  kFailover = 3,    // node was down, retrying above; detail = backoff slots
  kTokenGrant = 4,  // token-bucket decision at a copy; aux = admitted
  kThinning = 5,    // Poisson-thinning decision at a copy; aux = admitted
  kServed = 6,      // served here; aux = failed over, detail = hops
  kDropped = 7,     // failover budget exhausted; detail = hops
};

inline const char* TraceEventKindName(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kArrival: return "arrival";
    case TraceEventKind::kHop: return "hop";
    case TraceEventKind::kFailover: return "failover";
    case TraceEventKind::kTokenGrant: return "token_grant";
    case TraceEventKind::kThinning: return "thinning";
    case TraceEventKind::kServed: return "served";
    case TraceEventKind::kDropped: return "dropped";
  }
  return "?";
}

// One step of a traced request's walk.  24 bytes on the wire
// (MessageCodec::kTraceEventSize): req_id u64, detail u64, node u32,
// seq u16, kind u8, aux u8, little-endian.
struct TraceEvent {
  std::uint64_t req_id = 0;
  std::uint64_t detail = 0;
  NodeId node = kNoNode;
  std::uint16_t seq = 0;
  TraceEventKind kind = TraceEventKind::kArrival;
  std::uint8_t aux = 0;

  friend bool operator==(const TraceEvent& a, const TraceEvent& b) {
    return a.req_id == b.req_id && a.detail == b.detail && a.node == b.node &&
           a.seq == b.seq && a.kind == b.kind && a.aux == b.aux;
  }
  friend bool operator!=(const TraceEvent& a, const TraceEvent& b) {
    return !(a == b);
  }
};

// The sampling law: request req_id is traced iff the low `sample_shift`
// bits of the (seed, req_id) counter hash are zero — an expected 1 in
// 2^sample_shift requests, selected with no state and no coordination.
// shift <= 0 traces everything (tests), shift 14 is the default (~0.006%).
// Both transports sample with kTraceSeed, so they trace the same requests.
inline constexpr std::uint64_t kTraceSeed = 0x7ace5eedULL;
inline bool TraceSampled(std::uint64_t trace_seed, std::uint64_t req_id,
                         int sample_shift) {
  if (sample_shift <= 0) return true;
  if (sample_shift >= 64) return false;
  std::uint64_t counter = trace_seed + req_id * 0x9e3779b97f4a7c15ULL;
  const std::uint64_t mask = (std::uint64_t{1} << sample_shift) - 1;
  return (SplitMix64(counter) & mask) == 0;
}

// Restores the canonical (req_id, seq) order after any merge.  (req_id,
// seq) is unique within a stream, so the result is fully determined.
inline void CanonicalizeTrace(std::vector<TraceEvent>* events) {
  std::sort(events->begin(), events->end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.req_id != b.req_id ? a.req_id < b.req_id
                                          : a.seq < b.seq;
            });
}

}  // namespace webwave
