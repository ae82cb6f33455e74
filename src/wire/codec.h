// MessageCodec — the fixed-width, explicitly little-endian framing of
// the wire/message.h vocabulary.
//
// Every frame is an 8-byte header followed by a payload whose length the
// header states:
//
//   offset  size  field
//   0       2     magic 0x5741 ("WA", little-endian)
//   2       1     protocol version (kVersion; bumped on any layout change)
//   3       1     MsgType
//   4       4     payload length in bytes (u32)
//
// Data-plane payloads are fixed width per type (24 B GetRequest, 32 B
// GetReply, 16 B LoadGossip); a length that disagrees with the type is
// garbage, not a negotiation.  The one variable-length frame is
// kTraceReply — a u32 record count followed by count 24 B TraceEvent
// records, the stated length validated against the count.  All multi-byte fields are little-endian
// byte by byte — the codec's output is identical on any host, and a
// big-endian peer would interoperate unmodified.  Doubles travel as
// their IEEE-754 bit pattern in a u64, so round-trips are bit-exact
// (NaN payloads included), which is what lets the socket deployment be
// validated counter-for-counter against the in-process oracle.
//
// Encode appends one frame to a byte vector and returns its size; Decode
// consumes the first complete frame of a buffer.  Both are pure
// functions — no state, no allocation beyond the caller's vector — so
// the packet simulator can encode/decode every simulated message without
// perturbing its RNG draw sequence (asserted by wire_test's packet-sim
// cross-check).
//
// Decode distinguishes "incomplete" from "wrong": a prefix of a valid
// frame is kNeedMore (stream transports read more bytes), while a bad
// magic, unknown version or type, or a type/length mismatch is kError
// (the connection is byte-garbage and must be dropped).  wire_test
// asserts every strict prefix of every encoded frame is kNeedMore and
// every header corruption is kError.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "wire/message.h"

namespace webwave {

// Little-endian primitives (byte-by-byte: host-endianness-independent).
inline void PutU16(std::uint8_t* p, std::uint16_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
}
inline void PutU32(std::uint8_t* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}
inline void PutU64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}
inline void PutF64(std::uint8_t* p, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  PutU64(p, bits);
}
inline std::uint16_t GetU16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}
inline std::uint32_t GetU32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}
inline std::uint64_t GetU64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}
inline double GetF64(const std::uint8_t* p) {
  const std::uint64_t bits = GetU64(p);
  double v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

class MessageCodec {
 public:
  static constexpr std::uint16_t kMagic = 0x5741;
  // v2: GetRequest grew flags/trace_seq (20 -> 24 B) and the kTraceRequest
  // / kTraceReply control frames were added.
  // v3: Hello grew the sender's quota-table epoch (8 -> 12 B),
  // WireCounters grew shed_forwards/reconnects/outbox_peak_bytes
  // (80 -> 104 B), and the kQuotaDelta / kEpochUpdate epoch-control
  // frames were added.
  // v4: kStatsReply became variable length — the 104 B counters are
  // followed by a latency-histogram section (u32 entry count, u64 sum,
  // then (u32 bucket index, u64 count) pairs, indices strictly
  // ascending, counts non-zero), so a bare 104 B payload is kError — and
  // the kFlightRequest / kFlightReply flight-recorder scrape frames were
  // added.
  static constexpr std::uint8_t kVersion = 4;
  static constexpr std::size_t kHeaderSize = 8;

  // Fixed payload widths of the data-plane messages.
  static constexpr std::size_t kGetRequestSize = 24;
  static constexpr std::size_t kGetReplySize = 32;
  static constexpr std::size_t kLoadGossipSize = 16;
  static constexpr std::size_t kHelloSize = 12;
  static constexpr std::size_t kCountersSize = 104;
  // kTraceReply is the one variable-length frame: a u32 record count
  // followed by count fixed-width TraceEvent records.
  static constexpr std::size_t kTraceEventSize = 24;
  static constexpr std::size_t kMaxTraceRecords = 1u << 20;
  // kQuotaDelta framing: a 16 B prologue (epoch, row count, total rate),
  // then per row an 8 B row header (node, cell count) and 20 B cells.
  static constexpr std::size_t kDeltaPrologueSize = 16;
  static constexpr std::size_t kDeltaRowHeaderSize = 8;
  static constexpr std::size_t kDeltaCellSize = 20;
  static constexpr std::size_t kMaxDeltaRows = 1u << 22;
  static constexpr std::size_t kMaxDeltaCellsPerRow = 1u << 20;
  // kEpochUpdate framing: a 16 B prologue (epoch, down count, reassign
  // count, reserved), then down nodes (4 B) and (node, owner) pairs (8 B).
  static constexpr std::size_t kEpochUpdatePrologueSize = 16;
  static constexpr std::size_t kMaxEpochUpdateNodes = 1u << 22;
  // kStatsReply histogram section: a 12 B prologue (u32 sparse entry
  // count, u64 sum of recorded values) then 12 B (u32 index, u64 count)
  // entries.  The cap is comfortably above LatencyHistogram::kBucketCount
  // (976) — a count above it is garbage, not a bigger histogram.
  static constexpr std::size_t kHistPrologueSize = 12;
  static constexpr std::size_t kHistEntrySize = 12;
  static constexpr std::size_t kMaxHistEntries = 1u << 12;
  // kFlightReply: a u32 record count followed by count fixed-width
  // FlightEvent records, like kTraceReply.
  static constexpr std::size_t kFlightEventSize = 24;
  static constexpr std::size_t kMaxFlightRecords = 1u << 20;

  // Appends one frame (header + payload) to *out; returns bytes appended.
  static std::size_t Encode(const GetRequest& m, std::vector<std::uint8_t>* out);
  static std::size_t Encode(const GetReply& m, std::vector<std::uint8_t>* out);
  static std::size_t Encode(const LoadGossip& m, std::vector<std::uint8_t>* out);
  static std::size_t Encode(const Hello& m, std::vector<std::uint8_t>* out);
  // kStatsReply: the counters, then the histogram section.
  static std::size_t Encode(const StatsReply& m,
                            std::vector<std::uint8_t>* out);
  // kFlightReply: the daemon's flight-recorder ring.
  static std::size_t Encode(const FlightReply& m,
                            std::vector<std::uint8_t>* out);
  // kTraceReply: the daemon's accumulated TraceEvent records.
  static std::size_t Encode(const std::vector<TraceEvent>& m,
                            std::vector<std::uint8_t>* out);
  // The epoch control frames.
  static std::size_t Encode(const QuotaDelta& m,
                            std::vector<std::uint8_t>* out);
  static std::size_t Encode(const EpochUpdate& m,
                            std::vector<std::uint8_t>* out);
  // The empty-payload control frames.
  static std::size_t EncodeControl(MsgType type,
                                   std::vector<std::uint8_t>* out);

  enum class DecodeStatus {
    kOk,        // *out holds the frame, *consumed its total size
    kNeedMore,  // a valid prefix of a frame; read more bytes
    kError,     // garbage: bad magic/version/type or type-length mismatch
  };

  // Decodes the first complete frame of [data, data+len).
  static DecodeStatus Decode(const std::uint8_t* data, std::size_t len,
                             WireMessage* out, std::size_t* consumed);
};

const char* MsgTypeName(MsgType type);

}  // namespace webwave
