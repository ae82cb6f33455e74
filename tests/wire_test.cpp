// Property tests for the wire layer: round-trip identity over
// counter-seeded random messages, every strict prefix rejected as
// kNeedMore (never kOk, never a bogus decode), header corruption
// rejected as kError, and byte-exact QuotaWireTable round-trips.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <vector>

#include "doc/catalog.h"
#include "doc/placement.h"
#include "serve/quota_snapshot.h"
#include "tree/builders.h"
#include "util/rng.h"
#include "wire/codec.h"
#include "wire/quota_wire.h"

namespace webwave {
namespace {

using DecodeStatus = MessageCodec::DecodeStatus;

// Counter-seeded field draws: message i's fields are pure functions of
// (seed, i), matching the repo-wide determinism discipline.
std::uint64_t Draw(std::uint64_t seed, std::uint64_t i, std::uint64_t lane) {
  std::uint64_t state = seed + i * 0x9e3779b97f4a7c15ULL + lane;
  return SplitMix64(state);
}

double DrawLoad(std::uint64_t seed, std::uint64_t i, std::uint64_t lane) {
  return CounterUnitDouble(Draw(seed, i, lane)) * 1e6;
}

GetRequest RandomGetRequest(std::uint64_t seed, std::uint64_t i) {
  GetRequest m;
  m.req_id = Draw(seed, i, 1);
  m.doc = static_cast<std::int32_t>(Draw(seed, i, 2) & 0x7fffffff);
  m.origin_node = static_cast<NodeId>(Draw(seed, i, 3) & 0x7fffffff);
  m.ttl_hops = static_cast<std::uint16_t>(Draw(seed, i, 4));
  m.failed = static_cast<std::uint16_t>(Draw(seed, i, 5));
  m.flags = static_cast<std::uint16_t>(Draw(seed, i, 6));
  m.trace_seq = static_cast<std::uint16_t>(Draw(seed, i, 7));
  return m;
}

TraceEvent RandomTraceEvent(std::uint64_t seed, std::uint64_t i) {
  TraceEvent e;
  e.req_id = Draw(seed, i, 1);
  e.detail = Draw(seed, i, 2);
  e.node = static_cast<NodeId>(Draw(seed, i, 3) & 0x7fffffff);
  e.seq = static_cast<std::uint16_t>(Draw(seed, i, 4));
  e.kind = static_cast<TraceEventKind>(1 + (Draw(seed, i, 5) % 7));
  e.aux = static_cast<std::uint8_t>(Draw(seed, i, 6));
  return e;
}

GetReply RandomGetReply(std::uint64_t seed, std::uint64_t i) {
  GetReply m;
  m.req_id = Draw(seed, i, 1);
  m.doc = static_cast<std::int32_t>(Draw(seed, i, 2) & 0x7fffffff);
  m.serving_node = static_cast<NodeId>(Draw(seed, i, 3) & 0x7fffffff);
  m.result = (Draw(seed, i, 4) & 1) ? GetResult::kDropped : GetResult::kServed;
  m.hops = static_cast<std::uint16_t>(Draw(seed, i, 5));
  m.load = DrawLoad(seed, i, 6);
  m.version = static_cast<std::uint32_t>(Draw(seed, i, 7));
  return m;
}

LoadGossip RandomLoadGossip(std::uint64_t seed, std::uint64_t i) {
  LoadGossip m;
  m.node = static_cast<NodeId>(Draw(seed, i, 1) & 0x7fffffff);
  m.epoch = static_cast<std::uint32_t>(Draw(seed, i, 2));
  m.load = DrawLoad(seed, i, 3);
  return m;
}

WireCounters RandomCounters(std::uint64_t seed, std::uint64_t i) {
  WireCounters c;
  c.requests = Draw(seed, i, 1);
  c.cache_served = Draw(seed, i, 2);
  c.home_served = Draw(seed, i, 3);
  c.hop_sum = Draw(seed, i, 4);
  c.failed_attempts = Draw(seed, i, 5);
  c.failovers = Draw(seed, i, 6);
  c.dropped_requests = Draw(seed, i, 7);
  c.backoff_slots = Draw(seed, i, 8);
  c.net_forwards = Draw(seed, i, 9);
  c.gossip_sent = Draw(seed, i, 10);
  c.shed_forwards = Draw(seed, i, 11);
  c.reconnects = Draw(seed, i, 12);
  c.outbox_peak_bytes = Draw(seed, i, 13);
  return c;
}

// Rows ascend by node and documents ascend within a row, as the decoder
// demands; row 0 (when present) gets an empty cell list so the empty-row
// encoding is always exercised.
QuotaDelta RandomQuotaDelta(std::uint64_t seed, std::uint64_t i,
                            std::size_t row_count) {
  QuotaDelta d;
  d.epoch = static_cast<std::uint32_t>(Draw(seed, i, 1));
  d.total_rate = DrawLoad(seed, i, 2);
  NodeId node = -1;
  for (std::size_t r = 0; r < row_count; ++r) {
    QuotaDeltaRow row;
    node += 1 + static_cast<NodeId>(Draw(seed, i, 10 + r) % 5);
    row.node = node;
    const std::size_t cells = r == 0 ? 0 : 1 + Draw(seed, i, 50 + r) % 3;
    std::int32_t doc = -1;
    for (std::size_t c = 0; c < cells; ++c) {
      QuotaDeltaCell cell;
      doc += 1 + static_cast<std::int32_t>(Draw(seed, i, 100 + 8 * r + c) % 7);
      cell.doc = doc;
      cell.rate = DrawLoad(seed, i, 200 + 8 * r + c);
      cell.frac = CounterUnitDouble(Draw(seed, i, 300 + 8 * r + c));
      row.cells.push_back(cell);
    }
    d.rows.push_back(std::move(row));
  }
  return d;
}

EpochUpdate RandomEpochUpdate(std::uint64_t seed, std::uint64_t i,
                              std::size_t down_count,
                              std::size_t reassign_count) {
  EpochUpdate u;
  u.epoch = static_cast<std::uint32_t>(Draw(seed, i, 1));
  NodeId v = -1;
  for (std::size_t k = 0; k < down_count; ++k) {
    v += 1 + static_cast<NodeId>(Draw(seed, i, 10 + k) % 9);
    u.down.push_back(v);
  }
  v = -1;
  for (std::size_t k = 0; k < reassign_count; ++k) {
    OwnerDelta d;
    v += 1 + static_cast<NodeId>(Draw(seed, i, 60 + k) % 9);
    d.node = v;
    d.owner = static_cast<std::uint32_t>(Draw(seed, i, 110 + k) % 64);
    u.reassign.push_back(d);
  }
  return u;
}

// A bare header claiming `stated` payload bytes for `type` — for probing
// the stated-length plausibility checks with no payload attached.
std::vector<std::uint8_t> RawHeader(MsgType type, std::uint32_t stated) {
  std::vector<std::uint8_t> h(MessageCodec::kHeaderSize);
  PutU16(h.data(), MessageCodec::kMagic);
  h[2] = MessageCodec::kVersion;
  h[3] = static_cast<std::uint8_t>(type);
  PutU32(h.data() + 4, stated);
  return h;
}

TEST(WireCodec, GetRequestRoundTripsOverRandomMessages) {
  for (std::uint64_t i = 0; i < 500; ++i) {
    const GetRequest m = RandomGetRequest(11, i);
    std::vector<std::uint8_t> buf;
    const std::size_t n = MessageCodec::Encode(m, &buf);
    ASSERT_EQ(n, buf.size());
    ASSERT_EQ(n, MessageCodec::kHeaderSize + MessageCodec::kGetRequestSize);
    WireMessage out;
    std::size_t consumed = 0;
    ASSERT_EQ(MessageCodec::Decode(buf.data(), buf.size(), &out, &consumed),
              DecodeStatus::kOk);
    EXPECT_EQ(consumed, n);
    EXPECT_EQ(out.type, MsgType::kGetRequest);
    EXPECT_EQ(out.get, m);
  }
}

TEST(WireCodec, GetReplyRoundTripsOverRandomMessages) {
  for (std::uint64_t i = 0; i < 500; ++i) {
    const GetReply m = RandomGetReply(12, i);
    std::vector<std::uint8_t> buf;
    const std::size_t n = MessageCodec::Encode(m, &buf);
    ASSERT_EQ(n, MessageCodec::kHeaderSize + MessageCodec::kGetReplySize);
    WireMessage out;
    std::size_t consumed = 0;
    ASSERT_EQ(MessageCodec::Decode(buf.data(), buf.size(), &out, &consumed),
              DecodeStatus::kOk);
    EXPECT_EQ(out.type, MsgType::kGetReply);
    EXPECT_EQ(out.reply, m);
  }
}

TEST(WireCodec, LoadGossipRoundTripsOverRandomMessages) {
  for (std::uint64_t i = 0; i < 500; ++i) {
    const LoadGossip m = RandomLoadGossip(13, i);
    std::vector<std::uint8_t> buf;
    const std::size_t n = MessageCodec::Encode(m, &buf);
    ASSERT_EQ(n, MessageCodec::kHeaderSize + MessageCodec::kLoadGossipSize);
    WireMessage out;
    std::size_t consumed = 0;
    ASSERT_EQ(MessageCodec::Decode(buf.data(), buf.size(), &out, &consumed),
              DecodeStatus::kOk);
    EXPECT_EQ(out.type, MsgType::kLoadGossip);
    EXPECT_EQ(out.gossip, m);
  }
}

TEST(WireCodec, HelloAndCountersAndControlRoundTrip) {
  std::vector<std::uint8_t> buf;
  Hello h;
  h.kind = PeerKind::kLoadgen;
  h.sender = 42;
  MessageCodec::Encode(h, &buf);
  StatsReply stats;
  stats.counters = RandomCounters(14, 7);
  MessageCodec::Encode(stats, &buf);
  MessageCodec::EncodeControl(MsgType::kStatsRequest, &buf);
  MessageCodec::EncodeControl(MsgType::kShutdown, &buf);

  // Stream decode of the concatenated frames.
  std::size_t at = 0;
  WireMessage out;
  std::size_t consumed = 0;
  ASSERT_EQ(
      MessageCodec::Decode(buf.data() + at, buf.size() - at, &out, &consumed),
      DecodeStatus::kOk);
  EXPECT_EQ(out.type, MsgType::kHello);
  EXPECT_EQ(out.hello, h);
  at += consumed;
  ASSERT_EQ(
      MessageCodec::Decode(buf.data() + at, buf.size() - at, &out, &consumed),
      DecodeStatus::kOk);
  EXPECT_EQ(out.type, MsgType::kStatsReply);
  EXPECT_EQ(out.stats, stats.counters);
  EXPECT_EQ(out.stats_hist, stats.hist);
  EXPECT_TRUE(out.stats_hist.buckets.empty());
  at += consumed;
  ASSERT_EQ(
      MessageCodec::Decode(buf.data() + at, buf.size() - at, &out, &consumed),
      DecodeStatus::kOk);
  EXPECT_EQ(out.type, MsgType::kStatsRequest);
  at += consumed;
  ASSERT_EQ(
      MessageCodec::Decode(buf.data() + at, buf.size() - at, &out, &consumed),
      DecodeStatus::kOk);
  EXPECT_EQ(out.type, MsgType::kShutdown);
  at += consumed;
  EXPECT_EQ(at, buf.size());
}

TEST(WireCodec, TraceReplyRoundTripsIncludingEmpty) {
  for (const std::size_t count : {std::size_t{0}, std::size_t{1},
                                  std::size_t{17}, std::size_t{300}}) {
    std::vector<TraceEvent> events;
    for (std::size_t i = 0; i < count; ++i)
      events.push_back(RandomTraceEvent(44, i));
    std::vector<std::uint8_t> buf;
    const std::size_t n = MessageCodec::Encode(events, &buf);
    ASSERT_EQ(n, buf.size());
    ASSERT_EQ(n, MessageCodec::kHeaderSize + 4 +
                     count * MessageCodec::kTraceEventSize);
    WireMessage out;
    std::size_t consumed = 0;
    ASSERT_EQ(MessageCodec::Decode(buf.data(), buf.size(), &out, &consumed),
              DecodeStatus::kOk);
    EXPECT_EQ(consumed, n);
    EXPECT_EQ(out.type, MsgType::kTraceReply);
    ASSERT_EQ(out.trace.size(), count);
    for (std::size_t i = 0; i < count; ++i)
      EXPECT_EQ(out.trace[i], events[i]) << "record " << i;
  }
}

TEST(WireCodec, TraceReplyPrefixesNeedMoreAndCorruptionErrors) {
  std::vector<TraceEvent> events;
  for (std::size_t i = 0; i < 5; ++i) events.push_back(RandomTraceEvent(45, i));
  std::vector<std::uint8_t> frame;
  MessageCodec::Encode(events, &frame);

  // Every strict prefix of the variable-length frame is kNeedMore.
  for (std::size_t cut = 0; cut < frame.size(); ++cut) {
    WireMessage out;
    std::size_t consumed = 1;
    EXPECT_EQ(MessageCodec::Decode(frame.data(), cut, &out, &consumed),
              DecodeStatus::kNeedMore)
        << "cut at " << cut;
    EXPECT_EQ(consumed, 0u);
  }

  // A record count disagreeing with the stated payload length is kError.
  auto bad = frame;
  bad[MessageCodec::kHeaderSize] ^= 0x01;
  WireMessage out;
  std::size_t consumed = 0;
  EXPECT_EQ(MessageCodec::Decode(bad.data(), bad.size(), &out, &consumed),
            DecodeStatus::kError);

  // An out-of-range event kind inside a record is kError.
  bad = frame;
  bad[MessageCodec::kHeaderSize + 4 + 22] = 0;  // record 0's kind byte
  EXPECT_EQ(MessageCodec::Decode(bad.data(), bad.size(), &out, &consumed),
            DecodeStatus::kError);
  bad[MessageCodec::kHeaderSize + 4 + 22] = 8;
  EXPECT_EQ(MessageCodec::Decode(bad.data(), bad.size(), &out, &consumed),
            DecodeStatus::kError);
}

// The v3 rejoin handshake: Hello carries the sender's quota-table epoch,
// and a stale daemon's nonzero disclosure survives the round trip.
TEST(WireCodec, HelloRejoinRoundTripsEpoch) {
  for (const std::uint32_t epoch : {0u, 1u, 0xdeadbeefu}) {
    Hello h;
    h.kind = PeerKind::kServer;
    h.sender = 3;
    h.epoch = epoch;
    std::vector<std::uint8_t> buf;
    const std::size_t n = MessageCodec::Encode(h, &buf);
    ASSERT_EQ(n, MessageCodec::kHeaderSize + MessageCodec::kHelloSize);
    WireMessage out;
    std::size_t consumed = 0;
    ASSERT_EQ(MessageCodec::Decode(buf.data(), buf.size(), &out, &consumed),
              DecodeStatus::kOk);
    EXPECT_EQ(out.type, MsgType::kHello);
    EXPECT_EQ(out.hello, h);
  }
}

TEST(WireCodec, QuotaDeltaRoundTripsIncludingEmpty) {
  for (const std::size_t rows :
       {std::size_t{0}, std::size_t{1}, std::size_t{6}, std::size_t{40}}) {
    const QuotaDelta d = RandomQuotaDelta(46, rows, rows);
    std::vector<std::uint8_t> buf;
    const std::size_t n = MessageCodec::Encode(d, &buf);
    ASSERT_EQ(n, buf.size());
    WireMessage out;
    std::size_t consumed = 0;
    ASSERT_EQ(MessageCodec::Decode(buf.data(), buf.size(), &out, &consumed),
              DecodeStatus::kOk);
    EXPECT_EQ(consumed, n);
    EXPECT_EQ(out.type, MsgType::kQuotaDelta);
    EXPECT_EQ(out.delta, d);
  }
}

TEST(WireCodec, EpochUpdateRoundTripsIncludingEmpty) {
  const std::size_t shapes[][2] = {{0, 0}, {1, 0}, {0, 1}, {5, 9}};
  for (const auto& s : shapes) {
    const EpochUpdate u = RandomEpochUpdate(47, s[0] * 16 + s[1], s[0], s[1]);
    std::vector<std::uint8_t> buf;
    const std::size_t n = MessageCodec::Encode(u, &buf);
    ASSERT_EQ(n, MessageCodec::kHeaderSize +
                     MessageCodec::kEpochUpdatePrologueSize + s[0] * 4 +
                     s[1] * 8);
    WireMessage out;
    std::size_t consumed = 0;
    ASSERT_EQ(MessageCodec::Decode(buf.data(), buf.size(), &out, &consumed),
              DecodeStatus::kOk);
    EXPECT_EQ(consumed, n);
    EXPECT_EQ(out.type, MsgType::kEpochUpdate);
    EXPECT_EQ(out.epoch_update, u);
  }
}

TEST(WireCodec, QuotaDeltaPrefixesNeedMoreAndCorruptionErrors) {
  const QuotaDelta d = RandomQuotaDelta(48, 0, 6);
  std::vector<std::uint8_t> frame;
  MessageCodec::Encode(d, &frame);

  // Every strict prefix of the variable-length frame is kNeedMore.
  for (std::size_t cut = 0; cut < frame.size(); ++cut) {
    WireMessage out;
    std::size_t consumed = 1;
    EXPECT_EQ(MessageCodec::Decode(frame.data(), cut, &out, &consumed),
              DecodeStatus::kNeedMore)
        << "cut at " << cut;
    EXPECT_EQ(consumed, 0u);
  }

  WireMessage out;
  std::size_t consumed = 0;
  const std::size_t prologue = MessageCodec::kHeaderSize;

  // A row count disagreeing with the stated payload length is kError.
  auto bad = frame;
  bad[prologue + 4] ^= 0x01;
  EXPECT_EQ(MessageCodec::Decode(bad.data(), bad.size(), &out, &consumed),
            DecodeStatus::kError);

  // A row count past the anti-DoS cap is kError before any row parses.
  bad = frame;
  PutU32(bad.data() + prologue + 4, 0xffffffffu);
  EXPECT_EQ(MessageCodec::Decode(bad.data(), bad.size(), &out, &consumed),
            DecodeStatus::kError);

  // Rows must ascend strictly by node: copy row 0's node over row 1's.
  // Row 0 has no cells (RandomQuotaDelta forces it), so row 1's header
  // sits one bare row header past the prologue.
  bad = frame;
  const std::size_t row0 = prologue + MessageCodec::kDeltaPrologueSize;
  const std::size_t row1 = row0 + MessageCodec::kDeltaRowHeaderSize;
  std::memcpy(bad.data() + row1, bad.data() + row0, 4);
  EXPECT_EQ(MessageCodec::Decode(bad.data(), bad.size(), &out, &consumed),
            DecodeStatus::kError);

  // A negative row node is kError.
  bad = frame;
  PutU32(bad.data() + row0, 0xffffffffu);
  EXPECT_EQ(MessageCodec::Decode(bad.data(), bad.size(), &out, &consumed),
            DecodeStatus::kError);

  // A cell count that overruns the stated payload is kError.
  bad = frame;
  PutU32(bad.data() + row0 + 4, 1000);  // row 0 claims cells it doesn't carry
  EXPECT_EQ(MessageCodec::Decode(bad.data(), bad.size(), &out, &consumed),
            DecodeStatus::kError);

  // Documents must ascend strictly within a row.
  QuotaDelta two;
  two.epoch = 9;
  two.total_rate = 1.5;
  QuotaDeltaRow row;
  row.node = 4;
  row.cells.push_back(QuotaDeltaCell{2, 1.0, 0.5});
  row.cells.push_back(QuotaDeltaCell{5, 2.0, 0.25});
  two.rows.push_back(row);
  std::vector<std::uint8_t> tframe;
  MessageCodec::Encode(two, &tframe);
  const std::size_t cell1 = prologue + MessageCodec::kDeltaPrologueSize +
                            MessageCodec::kDeltaRowHeaderSize +
                            MessageCodec::kDeltaCellSize;
  PutU32(tframe.data() + cell1, 2);  // second doc == first: not ascending
  EXPECT_EQ(MessageCodec::Decode(tframe.data(), tframe.size(), &out,
                                 &consumed),
            DecodeStatus::kError);

  // Stated lengths outside [prologue, anti-DoS cap] are garbage the
  // moment the header completes — no payload bytes needed.
  for (const std::uint32_t stated : {8u, (1u << 27) + 1u}) {
    const auto h = RawHeader(MsgType::kQuotaDelta, stated);
    EXPECT_EQ(MessageCodec::Decode(h.data(), h.size(), &out, &consumed),
              DecodeStatus::kError)
        << "stated " << stated;
  }
}

TEST(WireCodec, EpochUpdatePrefixesNeedMoreAndCorruptionErrors) {
  const EpochUpdate u = RandomEpochUpdate(49, 0, 3, 3);
  std::vector<std::uint8_t> frame;
  MessageCodec::Encode(u, &frame);

  for (std::size_t cut = 0; cut < frame.size(); ++cut) {
    WireMessage out;
    std::size_t consumed = 1;
    EXPECT_EQ(MessageCodec::Decode(frame.data(), cut, &out, &consumed),
              DecodeStatus::kNeedMore)
        << "cut at " << cut;
    EXPECT_EQ(consumed, 0u);
  }

  WireMessage out;
  std::size_t consumed = 0;
  const std::size_t body =
      MessageCodec::kHeaderSize + MessageCodec::kEpochUpdatePrologueSize;

  // Counts disagreeing with the stated payload length are kError.
  auto bad = frame;
  bad[MessageCodec::kHeaderSize + 4] ^= 0x01;  // down count
  EXPECT_EQ(MessageCodec::Decode(bad.data(), bad.size(), &out, &consumed),
            DecodeStatus::kError);
  bad = frame;
  PutU32(bad.data() + MessageCodec::kHeaderSize + 4, 0xffffffffu);
  EXPECT_EQ(MessageCodec::Decode(bad.data(), bad.size(), &out, &consumed),
            DecodeStatus::kError);

  // Down nodes must ascend strictly: duplicate the first into the second.
  bad = frame;
  std::memcpy(bad.data() + body + 4, bad.data() + body, 4);
  EXPECT_EQ(MessageCodec::Decode(bad.data(), bad.size(), &out, &consumed),
            DecodeStatus::kError);

  // Reassignment nodes must ascend strictly too; pairs start after the
  // three down nodes.
  bad = frame;
  const std::size_t pairs = body + 3 * 4;
  std::memcpy(bad.data() + pairs + 8, bad.data() + pairs, 4);
  EXPECT_EQ(MessageCodec::Decode(bad.data(), bad.size(), &out, &consumed),
            DecodeStatus::kError);

  // A negative down node is kError.
  bad = frame;
  PutU32(bad.data() + body, 0xffffffffu);
  EXPECT_EQ(MessageCodec::Decode(bad.data(), bad.size(), &out, &consumed),
            DecodeStatus::kError);

  // Stated lengths outside the plausible band die on the bare header.
  const std::uint32_t over = static_cast<std::uint32_t>(
      MessageCodec::kEpochUpdatePrologueSize +
      MessageCodec::kMaxEpochUpdateNodes * 12 + 1);
  for (const std::uint32_t stated : {8u, over}) {
    const auto h = RawHeader(MsgType::kEpochUpdate, stated);
    EXPECT_EQ(MessageCodec::Decode(h.data(), h.size(), &out, &consumed),
              DecodeStatus::kError)
        << "stated " << stated;
  }
}

TEST(WireCodec, DoubleFieldsRoundTripBitExactly) {
  const double specials[] = {0.0, -0.0, 1.0 / 3.0,
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::denorm_min(),
                             std::numeric_limits<double>::max()};
  for (double v : specials) {
    LoadGossip m;
    m.node = 1;
    m.epoch = 2;
    m.load = v;
    std::vector<std::uint8_t> buf;
    MessageCodec::Encode(m, &buf);
    WireMessage out;
    std::size_t consumed = 0;
    ASSERT_EQ(MessageCodec::Decode(buf.data(), buf.size(), &out, &consumed),
              DecodeStatus::kOk);
    std::uint64_t want, got;
    std::memcpy(&want, &v, sizeof want);
    std::memcpy(&got, &out.gossip.load, sizeof got);
    EXPECT_EQ(got, want);  // bit pattern, so NaN payloads survive too
  }
}

// Counter-seeded latency histogram: n recorded values spanning the
// linear buckets through the high octaves.
LatencyHistogram RandomHistogram(std::uint64_t seed, std::size_t n) {
  LatencyHistogram h;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t shift = Draw(seed, i, 1) % 48;
    h.Record(Draw(seed, i, 2) >> shift);
  }
  return h;
}

FlightEvent RandomFlightEvent(std::uint64_t seed, std::uint64_t i) {
  FlightEvent e;
  e.t_ns = Draw(seed, i, 1);
  e.detail = Draw(seed, i, 2);
  e.arg = static_cast<std::uint32_t>(Draw(seed, i, 3));
  e.seq = static_cast<std::uint16_t>(Draw(seed, i, 4));
  e.kind = static_cast<std::uint8_t>(1 + Draw(seed, i, 5) % 8);
  e.node = static_cast<std::uint8_t>(Draw(seed, i, 6));
  return e;
}

// The v4 kStatsReply: counters plus the sparse histogram section
// round-trip byte-exactly, and the decoded section reconstructs the
// recorded histogram bucket-for-bucket.
TEST(WireCodec, StatsReplyWithHistogramRoundTripsByteExactly) {
  for (const std::size_t n : {std::size_t{0}, std::size_t{1},
                              std::size_t{37}, std::size_t{800}}) {
    const LatencyHistogram h = RandomHistogram(51, n);
    StatsReply m;
    m.counters = RandomCounters(52, n);
    m.hist = WireHistogram::From(h);
    std::vector<std::uint8_t> buf;
    const std::size_t len = MessageCodec::Encode(m, &buf);
    ASSERT_EQ(len, buf.size());
    ASSERT_EQ(len, MessageCodec::kHeaderSize + MessageCodec::kCountersSize +
                       MessageCodec::kHistPrologueSize +
                       m.hist.buckets.size() * MessageCodec::kHistEntrySize);
    WireMessage out;
    std::size_t consumed = 0;
    ASSERT_EQ(MessageCodec::Decode(buf.data(), buf.size(), &out, &consumed),
              DecodeStatus::kOk);
    EXPECT_EQ(consumed, len);
    EXPECT_EQ(out.type, MsgType::kStatsReply);
    EXPECT_EQ(out.stats, m.counters);
    EXPECT_EQ(out.stats_hist, m.hist);
    EXPECT_TRUE(out.stats_hist.ToHistogram() == h);
    // Re-encoding the decode reproduces the exact byte string.
    StatsReply again;
    again.counters = out.stats;
    again.hist = out.stats_hist;
    std::vector<std::uint8_t> buf2;
    MessageCodec::Encode(again, &buf2);
    EXPECT_EQ(buf2, buf);
  }
}

// kStatsReply has one shape: the bare 104 B counters frame, with no
// histogram section, is garbage — rejected once its header is complete.
TEST(WireCodec, BareCountersStatsReplyIsRejected) {
  StatsReply m;
  m.counters = RandomCounters(53, 3);
  std::vector<std::uint8_t> frame;
  MessageCodec::Encode(m, &frame);
  ASSERT_EQ(frame.size(), MessageCodec::kHeaderSize +
                              MessageCodec::kCountersSize +
                              MessageCodec::kHistPrologueSize);
  // Drop the (empty) section and state the bare counters' length.
  frame.resize(MessageCodec::kHeaderSize + MessageCodec::kCountersSize);
  PutU32(frame.data() + 4,
         static_cast<std::uint32_t>(MessageCodec::kCountersSize));
  WireMessage out;
  std::size_t consumed = 0;
  EXPECT_EQ(MessageCodec::Decode(frame.data(), frame.size(), &out, &consumed),
            DecodeStatus::kError);
  EXPECT_EQ(MessageCodec::Decode(frame.data(), MessageCodec::kHeaderSize,
                                 &out, &consumed),
            DecodeStatus::kError);
}

TEST(WireCodec, StatsReplyHistogramPrefixesNeedMoreAndCorruptionErrors) {
  StatsReply m;
  m.counters = RandomCounters(54, 0);
  m.hist = WireHistogram::From(RandomHistogram(54, 40));
  ASSERT_GE(m.hist.buckets.size(), 2u);
  std::vector<std::uint8_t> frame;
  MessageCodec::Encode(m, &frame);

  // Every strict prefix of the variable-length frame is kNeedMore.
  for (std::size_t cut = 0; cut < frame.size(); ++cut) {
    WireMessage out;
    std::size_t consumed = 1;
    EXPECT_EQ(MessageCodec::Decode(frame.data(), cut, &out, &consumed),
              DecodeStatus::kNeedMore)
        << "cut at " << cut;
    EXPECT_EQ(consumed, 0u);
  }

  WireMessage out;
  std::size_t consumed = 0;
  const std::size_t sect = MessageCodec::kHeaderSize +
                           MessageCodec::kCountersSize;
  const std::size_t entry0 = sect + MessageCodec::kHistPrologueSize;

  // An entry count disagreeing with the stated payload length is kError.
  auto bad = frame;
  bad[sect] ^= 0x01;
  EXPECT_EQ(MessageCodec::Decode(bad.data(), bad.size(), &out, &consumed),
            DecodeStatus::kError);

  // Indices must ascend strictly: copy entry 0's index over entry 1's.
  bad = frame;
  std::memcpy(bad.data() + entry0 + MessageCodec::kHistEntrySize,
              bad.data() + entry0, 4);
  EXPECT_EQ(MessageCodec::Decode(bad.data(), bad.size(), &out, &consumed),
            DecodeStatus::kError);

  // An index outside the fixed bucket layout is kError.
  bad = frame;
  PutU32(bad.data() + entry0,
         static_cast<std::uint32_t>(LatencyHistogram::kBucketCount));
  EXPECT_EQ(MessageCodec::Decode(bad.data(), bad.size(), &out, &consumed),
            DecodeStatus::kError);

  // A zero count is a non-canonical encoding, hence kError.
  bad = frame;
  std::memset(bad.data() + entry0 + 4, 0, 8);
  EXPECT_EQ(MessageCodec::Decode(bad.data(), bad.size(), &out, &consumed),
            DecodeStatus::kError);

  // Stated lengths that are not a whole histogram section within the
  // cap, the bare 104 B counters included, die on the bare header.
  const std::uint32_t cap_over = static_cast<std::uint32_t>(
      MessageCodec::kCountersSize + MessageCodec::kHistPrologueSize +
      (MessageCodec::kMaxHistEntries + 1) * MessageCodec::kHistEntrySize);
  for (const std::uint32_t stated :
       {103u, 104u, 105u, 115u, 117u, cap_over}) {
    const auto h = RawHeader(MsgType::kStatsReply, stated);
    EXPECT_EQ(MessageCodec::Decode(h.data(), h.size(), &out, &consumed),
              DecodeStatus::kError)
        << "stated " << stated;
  }
}

TEST(WireCodec, FlightReplyRoundTripsIncludingEmpty) {
  for (const std::size_t count : {std::size_t{0}, std::size_t{1},
                                  std::size_t{17}, std::size_t{300}}) {
    FlightReply m;
    for (std::size_t i = 0; i < count; ++i)
      m.events.push_back(RandomFlightEvent(55, i));
    std::vector<std::uint8_t> buf;
    const std::size_t len = MessageCodec::Encode(m, &buf);
    ASSERT_EQ(len, buf.size());
    ASSERT_EQ(len, MessageCodec::kHeaderSize + 4 +
                       count * MessageCodec::kFlightEventSize);
    WireMessage out;
    std::size_t consumed = 0;
    ASSERT_EQ(MessageCodec::Decode(buf.data(), buf.size(), &out, &consumed),
              DecodeStatus::kOk);
    EXPECT_EQ(consumed, len);
    EXPECT_EQ(out.type, MsgType::kFlightReply);
    ASSERT_EQ(out.flight.events.size(), count);
    for (std::size_t i = 0; i < count; ++i)
      EXPECT_EQ(out.flight.events[i], m.events[i]) << "record " << i;
  }
}

TEST(WireCodec, FlightReplyPrefixesNeedMoreAndCorruptionErrors) {
  FlightReply m;
  for (std::size_t i = 0; i < 5; ++i)
    m.events.push_back(RandomFlightEvent(56, i));
  std::vector<std::uint8_t> frame;
  MessageCodec::Encode(m, &frame);

  for (std::size_t cut = 0; cut < frame.size(); ++cut) {
    WireMessage out;
    std::size_t consumed = 1;
    EXPECT_EQ(MessageCodec::Decode(frame.data(), cut, &out, &consumed),
              DecodeStatus::kNeedMore)
        << "cut at " << cut;
    EXPECT_EQ(consumed, 0u);
  }

  // A record count disagreeing with the stated payload length is kError.
  auto bad = frame;
  bad[MessageCodec::kHeaderSize] ^= 0x01;
  WireMessage out;
  std::size_t consumed = 0;
  EXPECT_EQ(MessageCodec::Decode(bad.data(), bad.size(), &out, &consumed),
            DecodeStatus::kError);

  // An out-of-range event kind inside a record is kError.
  bad = frame;
  bad[MessageCodec::kHeaderSize + 4 + 22] = 0;  // record 0's kind byte
  EXPECT_EQ(MessageCodec::Decode(bad.data(), bad.size(), &out, &consumed),
            DecodeStatus::kError);
  bad[MessageCodec::kHeaderSize + 4 + 22] = 9;
  EXPECT_EQ(MessageCodec::Decode(bad.data(), bad.size(), &out, &consumed),
            DecodeStatus::kError);
}

// Every strict prefix of every frame type must be kNeedMore or kError —
// never kOk, and in particular never a short frame accepted as complete.
TEST(WireCodec, EveryOneByteTruncationIsRejected) {
  std::vector<std::vector<std::uint8_t>> frames;
  for (std::uint64_t i = 0; i < 20; ++i) {
    frames.emplace_back();
    MessageCodec::Encode(RandomGetRequest(21, i), &frames.back());
    frames.emplace_back();
    MessageCodec::Encode(RandomGetReply(22, i), &frames.back());
    frames.emplace_back();
    MessageCodec::Encode(RandomLoadGossip(23, i), &frames.back());
  }
  StatsReply no_hist;
  no_hist.counters = RandomCounters(24, 0);
  frames.emplace_back();
  MessageCodec::Encode(no_hist, &frames.back());
  frames.emplace_back();
  MessageCodec::Encode(std::vector<TraceEvent>{RandomTraceEvent(25, 0),
                                               RandomTraceEvent(25, 1)},
                       &frames.back());
  frames.emplace_back();
  MessageCodec::EncodeControl(MsgType::kShutdown, &frames.back());
  Hello rejoin;
  rejoin.kind = PeerKind::kServer;
  rejoin.sender = 2;
  rejoin.epoch = 5;
  frames.emplace_back();
  MessageCodec::Encode(rejoin, &frames.back());
  frames.emplace_back();
  MessageCodec::Encode(RandomQuotaDelta(26, 0, 4), &frames.back());
  frames.emplace_back();
  MessageCodec::Encode(RandomEpochUpdate(27, 0, 2, 3), &frames.back());
  StatsReply v4;
  v4.counters = RandomCounters(28, 0);
  v4.hist = WireHistogram::From(RandomHistogram(28, 25));
  frames.emplace_back();
  MessageCodec::Encode(v4, &frames.back());
  FlightReply flight;
  flight.events.push_back(RandomFlightEvent(29, 0));
  flight.events.push_back(RandomFlightEvent(29, 1));
  frames.emplace_back();
  MessageCodec::Encode(flight, &frames.back());

  for (const auto& frame : frames) {
    for (std::size_t cut = 0; cut < frame.size(); ++cut) {
      WireMessage out;
      std::size_t consumed = 1;
      const DecodeStatus st =
          MessageCodec::Decode(frame.data(), cut, &out, &consumed);
      EXPECT_EQ(st, DecodeStatus::kNeedMore)
          << "prefix of " << frame.size() << " cut at " << cut;
      EXPECT_EQ(consumed, 0u);
    }
  }
}

TEST(WireCodec, HeaderCorruptionIsError) {
  std::vector<std::uint8_t> frame;
  MessageCodec::Encode(RandomGetRequest(31, 0), &frame);

  // Every single-byte corruption of the 8-byte header is kError (bad
  // magic/version/type) or a type/length mismatch.
  for (std::size_t at = 0; at < MessageCodec::kHeaderSize; ++at) {
    auto bad = frame;
    bad[at] ^= 0xff;
    WireMessage out;
    std::size_t consumed = 0;
    EXPECT_EQ(MessageCodec::Decode(bad.data(), bad.size(), &out, &consumed),
              DecodeStatus::kError)
        << "header byte " << at;
  }

  // Bad leading bytes are reported as garbage immediately, even before a
  // full header has arrived — a stream transport must not wait for more
  // bytes of a frame that can never become valid.
  const std::uint8_t garbage[2] = {0x00, 0x99};
  WireMessage out;
  std::size_t consumed = 0;
  EXPECT_EQ(MessageCodec::Decode(garbage, 1, &out, &consumed),
            DecodeStatus::kError);

  // A type whose payload size disagrees with the stated length.
  auto mismatched = frame;
  mismatched[3] = static_cast<std::uint8_t>(MsgType::kLoadGossip);
  EXPECT_EQ(MessageCodec::Decode(mismatched.data(), mismatched.size(), &out,
                                 &consumed),
            DecodeStatus::kError);

  // An out-of-range GetResult in an otherwise valid reply.
  std::vector<std::uint8_t> reply;
  MessageCodec::Encode(RandomGetReply(31, 1), &reply);
  reply[MessageCodec::kHeaderSize + 30] = 9;
  EXPECT_EQ(MessageCodec::Decode(reply.data(), reply.size(), &out, &consumed),
            DecodeStatus::kError);
}

TEST(WireCodec, EncodingIsExplicitlyLittleEndian) {
  GetRequest m;
  m.req_id = 0x0102030405060708ULL;
  m.doc = 0x0a0b0c0d;
  m.origin_node = 5;
  m.ttl_hops = 0x1122;
  m.failed = 0;
  m.flags = 0x3344;
  m.trace_seq = 0x5566;
  std::vector<std::uint8_t> buf;
  MessageCodec::Encode(m, &buf);
  // Header: magic 0x5741 is "A" then "W" in little-endian byte order.
  EXPECT_EQ(buf[0], 0x41);
  EXPECT_EQ(buf[1], 0x57);
  EXPECT_EQ(buf[2], MessageCodec::kVersion);
  EXPECT_EQ(buf[3], static_cast<std::uint8_t>(MsgType::kGetRequest));
  // req_id low byte first.
  EXPECT_EQ(buf[MessageCodec::kHeaderSize + 0], 0x08);
  EXPECT_EQ(buf[MessageCodec::kHeaderSize + 7], 0x01);
  // doc at offset 8, LE.
  EXPECT_EQ(buf[MessageCodec::kHeaderSize + 8], 0x0d);
  EXPECT_EQ(buf[MessageCodec::kHeaderSize + 11], 0x0a);
  // ttl_hops at offset 16, LE.
  EXPECT_EQ(buf[MessageCodec::kHeaderSize + 16], 0x22);
  EXPECT_EQ(buf[MessageCodec::kHeaderSize + 17], 0x11);
  // flags at offset 20, trace_seq at 22, LE.
  EXPECT_EQ(buf[MessageCodec::kHeaderSize + 20], 0x44);
  EXPECT_EQ(buf[MessageCodec::kHeaderSize + 21], 0x33);
  EXPECT_EQ(buf[MessageCodec::kHeaderSize + 22], 0x66);
  EXPECT_EQ(buf[MessageCodec::kHeaderSize + 23], 0x55);
}

QuotaSnapshot MakeSnapshotWithDemand(std::uint64_t demand_seed) {
  Rng rng(42);
  const RoutingTree tree = MakeRandomTree(200, rng);
  DemandMatrix demand(200, 8);
  Rng drng(demand_seed);
  for (NodeId v = 0; v < 200; ++v)
    if (tree.children(v).empty())
      for (std::int32_t d = 0; d < 8; ++d)
        demand.set(v, d, drng.NextDouble(0.1, 4.0));
  const PlacementResult placement = DerivePlacement(tree, demand);
  return QuotaSnapshot::FromPlacement(tree, placement, demand, 1e-9);
}

QuotaSnapshot MakeSnapshot() { return MakeSnapshotWithDemand(7); }

TEST(QuotaWire, RoundTripIsByteExact) {
  const QuotaSnapshot s = MakeSnapshot();
  ASSERT_GT(s.cell_count(), 0);

  std::vector<std::uint8_t> bytes;
  const std::size_t n = QuotaWireTable::Serialize(s, &bytes);
  ASSERT_EQ(n, bytes.size());

  QuotaSnapshot back;
  ASSERT_TRUE(QuotaWireTable::Deserialize(bytes.data(), bytes.size(), &back));

  ASSERT_EQ(back.node_count(), s.node_count());
  ASSERT_EQ(back.doc_count(), s.doc_count());
  ASSERT_EQ(back.cell_count(), s.cell_count());
  // total_rate survives with the exact bit pattern, not a re-sum.
  std::uint64_t want, got;
  double wd = s.total_rate(), gd = back.total_rate();
  std::memcpy(&want, &wd, sizeof want);
  std::memcpy(&got, &gd, sizeof got);
  EXPECT_EQ(got, want);
  for (NodeId v = 0; v < s.node_count(); ++v) {
    ASSERT_EQ(back.row_begin(v), s.row_begin(v));
    ASSERT_EQ(back.row_end(v), s.row_end(v));
  }
  for (std::int64_t c = 0; c < s.cell_count(); ++c) {
    ASSERT_EQ(back.cell_docs()[c], s.cell_docs()[c]);
    ASSERT_EQ(back.cell_rates()[c], s.cell_rates()[c]);
    ASSERT_EQ(back.cell_fractions()[c], s.cell_fractions()[c]);
  }

  // Serializing the reconstruction reproduces the exact byte string.
  std::vector<std::uint8_t> again;
  QuotaWireTable::Serialize(back, &again);
  EXPECT_EQ(again, bytes);
}

TEST(QuotaWire, CorruptTablesAreRejected) {
  const QuotaSnapshot s = MakeSnapshot();
  std::vector<std::uint8_t> bytes;
  QuotaWireTable::Serialize(s, &bytes);

  QuotaSnapshot out;
  // Truncations at a sample of cut points (every prefix would be O(n²)).
  for (std::size_t cut = 0; cut < bytes.size();
       cut += 1 + bytes.size() / 64)
    EXPECT_FALSE(QuotaWireTable::Deserialize(bytes.data(), cut, &out));
  // Bad magic / version.
  auto bad = bytes;
  bad[0] ^= 0xff;
  EXPECT_FALSE(QuotaWireTable::Deserialize(bad.data(), bad.size(), &out));
  bad = bytes;
  bad[4] ^= 0xff;
  EXPECT_FALSE(QuotaWireTable::Deserialize(bad.data(), bad.size(), &out));
  // Non-monotone row offsets.
  bad = bytes;
  bad[32] = 0xff;  // row_off[0] becomes nonzero
  EXPECT_FALSE(QuotaWireTable::Deserialize(bad.data(), bad.size(), &out));
}

TEST(QuotaWire, FileRoundTrip) {
  const QuotaSnapshot s = MakeSnapshot();
  const std::string path = ::testing::TempDir() + "/quota_wire_test.bin";
  ASSERT_TRUE(QuotaWireTable::WriteFile(s, path));
  QuotaSnapshot back;
  ASSERT_TRUE(QuotaWireTable::ReadFile(path, &back));
  EXPECT_EQ(back.cell_count(), s.cell_count());
  EXPECT_EQ(back.total_rate(), s.total_rate());
  std::remove(path.c_str());
}

// The delta law the rejoin protocol rests on: applying the diff of two
// same-shaped tables to the first reproduces the second byte-for-byte.
TEST(QuotaWire, DiffApplyLawReproducesTargetByteExactly) {
  const QuotaSnapshot a = MakeSnapshotWithDemand(7);
  const QuotaSnapshot b = MakeSnapshotWithDemand(8);

  QuotaDelta d;
  ASSERT_TRUE(QuotaWireTable::DiffSnapshots(a, b, &d));
  ASSERT_GT(d.rows.size(), 0u);  // different demand must move some rows

  QuotaSnapshot patched = a;
  ASSERT_TRUE(QuotaWireTable::ApplyDelta(d, &patched));
  std::vector<std::uint8_t> want, got;
  QuotaWireTable::Serialize(b, &want);
  QuotaWireTable::Serialize(patched, &got);
  EXPECT_EQ(got, want);

  // Identical tables diff to an empty delta that applies as a no-op.
  QuotaDelta none;
  ASSERT_TRUE(QuotaWireTable::DiffSnapshots(a, a, &none));
  EXPECT_TRUE(none.rows.empty());
  QuotaSnapshot same = a;
  ASSERT_TRUE(QuotaWireTable::ApplyDelta(none, &same));
  std::vector<std::uint8_t> base, after;
  QuotaWireTable::Serialize(a, &base);
  QuotaWireTable::Serialize(same, &after);
  EXPECT_EQ(after, base);
}

TEST(QuotaWire, DiffRejectsShapeMismatch) {
  const QuotaSnapshot big = MakeSnapshot();
  Rng rng(43);
  const RoutingTree small_tree = MakeRandomTree(50, rng);
  DemandMatrix demand(50, 8);
  Rng drng(9);
  for (NodeId v = 0; v < 50; ++v)
    if (small_tree.children(v).empty())
      for (std::int32_t d = 0; d < 8; ++d)
        demand.set(v, d, drng.NextDouble(0.1, 4.0));
  const QuotaSnapshot small = QuotaSnapshot::FromPlacement(
      small_tree, DerivePlacement(small_tree, demand), demand, 1e-9);

  QuotaDelta d;
  EXPECT_FALSE(QuotaWireTable::DiffSnapshots(big, small, &d));
  EXPECT_FALSE(QuotaWireTable::DiffSnapshots(small, big, &d));
}

}  // namespace
}  // namespace webwave
