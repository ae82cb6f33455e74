#include "wire/codec.h"

namespace webwave {

namespace {

// Reserves a frame in *out and writes its header; returns the payload
// offset.
std::size_t BeginFrame(MsgType type, std::size_t payload,
                       std::vector<std::uint8_t>* out) {
  const std::size_t base = out->size();
  out->resize(base + MessageCodec::kHeaderSize + payload);
  std::uint8_t* p = out->data() + base;
  PutU16(p, MessageCodec::kMagic);
  p[2] = MessageCodec::kVersion;
  p[3] = static_cast<std::uint8_t>(type);
  PutU32(p + 4, static_cast<std::uint32_t>(payload));
  return base + MessageCodec::kHeaderSize;
}

// kTraceReply / kQuotaDelta / kEpochUpdate payloads are variable length
// (count-prefixed records).
constexpr std::size_t kVariablePayload = static_cast<std::size_t>(-2);

// Anti-DoS ceiling on a kQuotaDelta payload a peer will buffer: enough
// for every row of the largest table the repo ships changing at once,
// far below anything that could exhaust a daemon.
constexpr std::size_t kMaxDeltaPayload = std::size_t{1} << 27;

// The payload width a type requires, kVariablePayload for count-prefixed
// types, or SIZE_MAX for unknown types.
std::size_t PayloadSizeOf(MsgType type) {
  switch (type) {
    case MsgType::kGetRequest:
      return MessageCodec::kGetRequestSize;
    case MsgType::kGetReply:
      return MessageCodec::kGetReplySize;
    case MsgType::kLoadGossip:
      return MessageCodec::kLoadGossipSize;
    case MsgType::kHello:
      return MessageCodec::kHelloSize;
    case MsgType::kStatsRequest:
    case MsgType::kShutdown:
    case MsgType::kTraceRequest:
    case MsgType::kFlightRequest:
      return 0;
    case MsgType::kStatsReply:  // counters + histogram section
    case MsgType::kTraceReply:
    case MsgType::kQuotaDelta:
    case MsgType::kEpochUpdate:
    case MsgType::kFlightReply:
      return kVariablePayload;
  }
  return static_cast<std::size_t>(-1);
}

// A kTraceReply stated length is valid iff it holds a whole number of
// records after the count word, within the anti-DoS cap.
bool ValidTracePayload(std::uint32_t stated) {
  if (stated < 4) return false;
  const std::uint32_t body = stated - 4;
  return body % MessageCodec::kTraceEventSize == 0 &&
         body / MessageCodec::kTraceEventSize <= MessageCodec::kMaxTraceRecords;
}

// The stated-length plausibility checks for the epoch control frames:
// row geometry can only be validated once the payload arrives, but a
// length below the prologue or above the anti-DoS cap is garbage the
// moment the header is complete.
bool ValidDeltaPayload(std::uint32_t stated) {
  return stated >= MessageCodec::kDeltaPrologueSize &&
         stated <= kMaxDeltaPayload;
}

bool ValidEpochUpdatePayload(std::uint32_t stated) {
  constexpr std::size_t kMax =
      MessageCodec::kEpochUpdatePrologueSize +
      MessageCodec::kMaxEpochUpdateNodes * (4 + 8);
  return stated >= MessageCodec::kEpochUpdatePrologueSize && stated <= kMax;
}

// A kStatsReply is the counters plus a histogram section holding a
// whole number of entries within the cap.
bool ValidStatsPayload(std::uint32_t stated) {
  const std::size_t prologue_end =
      MessageCodec::kCountersSize + MessageCodec::kHistPrologueSize;
  if (stated < prologue_end) return false;
  const std::size_t body = stated - prologue_end;
  return body % MessageCodec::kHistEntrySize == 0 &&
         body / MessageCodec::kHistEntrySize <= MessageCodec::kMaxHistEntries;
}

// A kFlightReply stated length is valid iff it holds a whole number of
// records after the count word, within the anti-DoS cap (same shape as
// kTraceReply).
bool ValidFlightPayload(std::uint32_t stated) {
  if (stated < 4) return false;
  const std::uint32_t body = stated - 4;
  return body % MessageCodec::kFlightEventSize == 0 &&
         body / MessageCodec::kFlightEventSize <=
             MessageCodec::kMaxFlightRecords;
}

}  // namespace

std::size_t MessageCodec::Encode(const GetRequest& m,
                                 std::vector<std::uint8_t>* out) {
  const std::size_t at =
      BeginFrame(MsgType::kGetRequest, kGetRequestSize, out);
  std::uint8_t* p = out->data() + at;
  PutU64(p, m.req_id);
  PutU32(p + 8, static_cast<std::uint32_t>(m.doc));
  PutU32(p + 12, static_cast<std::uint32_t>(m.origin_node));
  PutU16(p + 16, m.ttl_hops);
  PutU16(p + 18, m.failed);
  PutU16(p + 20, m.flags);
  PutU16(p + 22, m.trace_seq);
  return kHeaderSize + kGetRequestSize;
}

std::size_t MessageCodec::Encode(const GetReply& m,
                                 std::vector<std::uint8_t>* out) {
  const std::size_t at = BeginFrame(MsgType::kGetReply, kGetReplySize, out);
  std::uint8_t* p = out->data() + at;
  PutU64(p, m.req_id);
  PutU32(p + 8, static_cast<std::uint32_t>(m.doc));
  PutU32(p + 12, static_cast<std::uint32_t>(m.serving_node));
  PutF64(p + 16, m.load);
  PutU32(p + 24, m.version);
  PutU16(p + 28, m.hops);
  p[30] = static_cast<std::uint8_t>(m.result);
  p[31] = 0;  // reserved
  return kHeaderSize + kGetReplySize;
}

std::size_t MessageCodec::Encode(const LoadGossip& m,
                                 std::vector<std::uint8_t>* out) {
  const std::size_t at =
      BeginFrame(MsgType::kLoadGossip, kLoadGossipSize, out);
  std::uint8_t* p = out->data() + at;
  PutU32(p, static_cast<std::uint32_t>(m.node));
  PutU32(p + 4, m.epoch);
  PutF64(p + 8, m.load);
  return kHeaderSize + kLoadGossipSize;
}

std::size_t MessageCodec::Encode(const Hello& m,
                                 std::vector<std::uint8_t>* out) {
  const std::size_t at = BeginFrame(MsgType::kHello, kHelloSize, out);
  std::uint8_t* p = out->data() + at;
  p[0] = static_cast<std::uint8_t>(m.kind);
  p[1] = p[2] = p[3] = 0;  // reserved
  PutU32(p + 4, m.sender);
  PutU32(p + 8, m.epoch);
  return kHeaderSize + kHelloSize;
}

std::size_t MessageCodec::Encode(const StatsReply& m,
                                 std::vector<std::uint8_t>* out) {
  const std::size_t payload = kCountersSize + kHistPrologueSize +
                              m.hist.buckets.size() * kHistEntrySize;
  const std::size_t at = BeginFrame(MsgType::kStatsReply, payload, out);
  std::uint8_t* p = out->data() + at;
  const WireCounters& c = m.counters;
  for (const ServingCounterField& f : kServingCounters) {
    PutU64(p, c.*f.field);
    p += 8;
  }
  for (const TransportCounterField& f : kTransportCounters) {
    PutU64(p, c.*f.field);
    p += 8;
  }
  PutU32(p, static_cast<std::uint32_t>(m.hist.buckets.size()));
  PutU64(p + 4, m.hist.sum);
  p += kHistPrologueSize;
  for (const LatencyHistogram::SparseEntry& e : m.hist.buckets) {
    PutU32(p, e.index);
    PutU64(p + 4, e.count);
    p += kHistEntrySize;
  }
  return kHeaderSize + payload;
}

std::size_t MessageCodec::Encode(const FlightReply& m,
                                 std::vector<std::uint8_t>* out) {
  const std::size_t payload = 4 + m.events.size() * kFlightEventSize;
  const std::size_t at = BeginFrame(MsgType::kFlightReply, payload, out);
  std::uint8_t* p = out->data() + at;
  PutU32(p, static_cast<std::uint32_t>(m.events.size()));
  p += 4;
  for (const FlightEvent& e : m.events) {
    PutU64(p, e.t_ns);
    PutU64(p + 8, e.detail);
    PutU32(p + 16, e.arg);
    PutU16(p + 20, e.seq);
    p[22] = e.kind;
    p[23] = e.node;
    p += kFlightEventSize;
  }
  return kHeaderSize + payload;
}

std::size_t MessageCodec::Encode(const std::vector<TraceEvent>& m,
                                 std::vector<std::uint8_t>* out) {
  const std::size_t payload = 4 + m.size() * kTraceEventSize;
  const std::size_t at = BeginFrame(MsgType::kTraceReply, payload, out);
  std::uint8_t* p = out->data() + at;
  PutU32(p, static_cast<std::uint32_t>(m.size()));
  p += 4;
  for (const TraceEvent& e : m) {
    PutU64(p, e.req_id);
    PutU64(p + 8, e.detail);
    PutU32(p + 16, static_cast<std::uint32_t>(e.node));
    PutU16(p + 20, e.seq);
    p[22] = static_cast<std::uint8_t>(e.kind);
    p[23] = e.aux;
    p += kTraceEventSize;
  }
  return kHeaderSize + payload;
}

std::size_t MessageCodec::Encode(const QuotaDelta& m,
                                 std::vector<std::uint8_t>* out) {
  std::size_t payload = kDeltaPrologueSize;
  for (const QuotaDeltaRow& row : m.rows)
    payload += kDeltaRowHeaderSize + row.cells.size() * kDeltaCellSize;
  const std::size_t at = BeginFrame(MsgType::kQuotaDelta, payload, out);
  std::uint8_t* p = out->data() + at;
  PutU32(p, m.epoch);
  PutU32(p + 4, static_cast<std::uint32_t>(m.rows.size()));
  PutF64(p + 8, m.total_rate);
  p += kDeltaPrologueSize;
  for (const QuotaDeltaRow& row : m.rows) {
    PutU32(p, static_cast<std::uint32_t>(row.node));
    PutU32(p + 4, static_cast<std::uint32_t>(row.cells.size()));
    p += kDeltaRowHeaderSize;
    for (const QuotaDeltaCell& cell : row.cells) {
      PutU32(p, static_cast<std::uint32_t>(cell.doc));
      PutF64(p + 4, cell.rate);
      PutF64(p + 12, cell.frac);
      p += kDeltaCellSize;
    }
  }
  return kHeaderSize + payload;
}

std::size_t MessageCodec::Encode(const EpochUpdate& m,
                                 std::vector<std::uint8_t>* out) {
  const std::size_t payload =
      kEpochUpdatePrologueSize + m.down.size() * 4 + m.reassign.size() * 8;
  const std::size_t at = BeginFrame(MsgType::kEpochUpdate, payload, out);
  std::uint8_t* p = out->data() + at;
  PutU32(p, m.epoch);
  PutU32(p + 4, static_cast<std::uint32_t>(m.down.size()));
  PutU32(p + 8, static_cast<std::uint32_t>(m.reassign.size()));
  PutU32(p + 12, 0);  // reserved
  p += kEpochUpdatePrologueSize;
  for (const NodeId v : m.down) {
    PutU32(p, static_cast<std::uint32_t>(v));
    p += 4;
  }
  for (const OwnerDelta& d : m.reassign) {
    PutU32(p, static_cast<std::uint32_t>(d.node));
    PutU32(p + 4, d.owner);
    p += 8;
  }
  return kHeaderSize + payload;
}

std::size_t MessageCodec::EncodeControl(MsgType type,
                                        std::vector<std::uint8_t>* out) {
  BeginFrame(type, 0, out);
  return kHeaderSize;
}

MessageCodec::DecodeStatus MessageCodec::Decode(const std::uint8_t* data,
                                                std::size_t len,
                                                WireMessage* out,
                                                std::size_t* consumed) {
  *consumed = 0;
  // Header bytes are validated as they become available, so garbage is
  // reported as soon as it is distinguishable from a short read.
  if (len >= 1 && data[0] != static_cast<std::uint8_t>(kMagic & 0xff))
    return DecodeStatus::kError;
  if (len >= 2 && data[1] != static_cast<std::uint8_t>(kMagic >> 8))
    return DecodeStatus::kError;
  if (len >= 3 && data[2] != kVersion) return DecodeStatus::kError;
  const std::size_t want_payload =
      len >= 4 ? PayloadSizeOf(static_cast<MsgType>(data[3]))
               : static_cast<std::size_t>(-1);
  if (len >= 4 && want_payload == static_cast<std::size_t>(-1))
    return DecodeStatus::kError;
  if (len < kHeaderSize) return DecodeStatus::kNeedMore;
  const std::uint32_t stated = GetU32(data + 4);
  if (want_payload == kVariablePayload) {
    const MsgType t = static_cast<MsgType>(data[3]);
    const bool plausible =
        t == MsgType::kTraceReply    ? ValidTracePayload(stated)
        : t == MsgType::kQuotaDelta  ? ValidDeltaPayload(stated)
        : t == MsgType::kStatsReply  ? ValidStatsPayload(stated)
        : t == MsgType::kFlightReply ? ValidFlightPayload(stated)
                                     : ValidEpochUpdatePayload(stated);
    if (!plausible) return DecodeStatus::kError;
  } else if (stated != want_payload) {
    return DecodeStatus::kError;
  }
  if (len < kHeaderSize + stated) return DecodeStatus::kNeedMore;

  const std::uint8_t* p = data + kHeaderSize;
  out->type = static_cast<MsgType>(data[3]);
  switch (out->type) {
    case MsgType::kGetRequest:
      out->get.req_id = GetU64(p);
      out->get.doc = static_cast<std::int32_t>(GetU32(p + 8));
      out->get.origin_node = static_cast<NodeId>(GetU32(p + 12));
      out->get.ttl_hops = GetU16(p + 16);
      out->get.failed = GetU16(p + 18);
      out->get.flags = GetU16(p + 20);
      out->get.trace_seq = GetU16(p + 22);
      break;
    case MsgType::kGetReply:
      out->reply.req_id = GetU64(p);
      out->reply.doc = static_cast<std::int32_t>(GetU32(p + 8));
      out->reply.serving_node = static_cast<NodeId>(GetU32(p + 12));
      out->reply.load = GetF64(p + 16);
      out->reply.version = GetU32(p + 24);
      out->reply.hops = GetU16(p + 28);
      if (p[30] > static_cast<std::uint8_t>(GetResult::kDropped))
        return DecodeStatus::kError;
      out->reply.result = static_cast<GetResult>(p[30]);
      break;
    case MsgType::kLoadGossip:
      out->gossip.node = static_cast<NodeId>(GetU32(p));
      out->gossip.epoch = GetU32(p + 4);
      out->gossip.load = GetF64(p + 8);
      break;
    case MsgType::kHello:
      if (p[0] > static_cast<std::uint8_t>(PeerKind::kLoadgen))
        return DecodeStatus::kError;
      out->hello.kind = static_cast<PeerKind>(p[0]);
      out->hello.sender = GetU32(p + 4);
      out->hello.epoch = GetU32(p + 8);
      break;
    case MsgType::kStatsReply: {
      const std::uint8_t* q = p;
      for (const ServingCounterField& f : kServingCounters) {
        out->stats.*f.field = GetU64(q);
        q += 8;
      }
      for (const TransportCounterField& f : kTransportCounters) {
        out->stats.*f.field = GetU64(q);
        q += 8;
      }
      // The histogram section: entry count + sum, then strictly
      // ascending (index, count) pairs — hardened like kQuotaDelta.
      const std::uint8_t* h = p + kCountersSize;
      const std::uint32_t count = GetU32(h);
      if (count > kMaxHistEntries) return DecodeStatus::kError;
      if (kCountersSize + kHistPrologueSize +
              static_cast<std::size_t>(count) * kHistEntrySize != stated)
        return DecodeStatus::kError;
      out->stats_hist.sum = GetU64(h + 4);
      out->stats_hist.buckets.clear();
      out->stats_hist.buckets.reserve(count);
      const std::uint8_t* r = h + kHistPrologueSize;
      std::int64_t prev = -1;
      for (std::uint32_t i = 0; i < count; ++i, r += kHistEntrySize) {
        LatencyHistogram::SparseEntry e;
        e.index = GetU32(r);
        e.count = GetU64(r + 4);
        // Indices strictly ascending within the fixed bucket layout;
        // a zero count is a non-canonical encoding.
        if (static_cast<std::int64_t>(e.index) <= prev ||
            e.index >= static_cast<std::uint32_t>(
                           LatencyHistogram::kBucketCount) ||
            e.count == 0)
          return DecodeStatus::kError;
        prev = static_cast<std::int64_t>(e.index);
        out->stats_hist.buckets.push_back(e);
      }
      break;
    }
    case MsgType::kFlightReply: {
      const std::uint32_t count = GetU32(p);
      if (4 + static_cast<std::size_t>(count) * kFlightEventSize != stated)
        return DecodeStatus::kError;
      out->flight.events.clear();
      out->flight.events.reserve(count);
      const std::uint8_t* r = p + 4;
      for (std::uint32_t i = 0; i < count; ++i, r += kFlightEventSize) {
        FlightEvent e;
        e.t_ns = GetU64(r);
        e.detail = GetU64(r + 8);
        e.arg = GetU32(r + 16);
        e.seq = GetU16(r + 20);
        if (r[22] < static_cast<std::uint8_t>(FlightEventKind::kFrameIn) ||
            r[22] > static_cast<std::uint8_t>(FlightEventKind::kShutdown))
          return DecodeStatus::kError;
        e.kind = r[22];
        e.node = r[23];
        out->flight.events.push_back(e);
      }
      break;
    }
    case MsgType::kTraceReply: {
      const std::uint32_t count = GetU32(p);
      if (4 + static_cast<std::size_t>(count) * kTraceEventSize != stated)
        return DecodeStatus::kError;
      out->trace.clear();
      out->trace.reserve(count);
      const std::uint8_t* r = p + 4;
      for (std::uint32_t i = 0; i < count; ++i, r += kTraceEventSize) {
        TraceEvent e;
        e.req_id = GetU64(r);
        e.detail = GetU64(r + 8);
        e.node = static_cast<NodeId>(GetU32(r + 16));
        e.seq = GetU16(r + 20);
        if (r[22] < static_cast<std::uint8_t>(TraceEventKind::kArrival) ||
            r[22] > static_cast<std::uint8_t>(TraceEventKind::kDropped))
          return DecodeStatus::kError;
        e.kind = static_cast<TraceEventKind>(r[22]);
        e.aux = r[23];
        out->trace.push_back(e);
      }
      break;
    }
    case MsgType::kQuotaDelta: {
      out->delta.epoch = GetU32(p);
      const std::uint32_t row_count = GetU32(p + 4);
      if (row_count > kMaxDeltaRows) return DecodeStatus::kError;
      out->delta.total_rate = GetF64(p + 8);
      out->delta.rows.clear();
      out->delta.rows.reserve(row_count);
      const std::uint8_t* r = p + kDeltaPrologueSize;
      std::size_t remaining = stated - kDeltaPrologueSize;
      NodeId prev_node = kNoNode;
      for (std::uint32_t i = 0; i < row_count; ++i) {
        if (remaining < kDeltaRowHeaderSize) return DecodeStatus::kError;
        QuotaDeltaRow row;
        row.node = static_cast<NodeId>(GetU32(r));
        const std::uint32_t cell_count = GetU32(r + 4);
        r += kDeltaRowHeaderSize;
        remaining -= kDeltaRowHeaderSize;
        // Rows strictly ascending by node (kNoNode == -1 precedes all).
        if (i > 0 && row.node <= prev_node) return DecodeStatus::kError;
        if (row.node < 0) return DecodeStatus::kError;
        prev_node = row.node;
        if (cell_count > kMaxDeltaCellsPerRow) return DecodeStatus::kError;
        if (remaining < static_cast<std::size_t>(cell_count) * kDeltaCellSize)
          return DecodeStatus::kError;
        row.cells.reserve(cell_count);
        std::int32_t prev_doc = -1;
        for (std::uint32_t c = 0; c < cell_count; ++c, r += kDeltaCellSize) {
          QuotaDeltaCell cell;
          cell.doc = static_cast<std::int32_t>(GetU32(r));
          // Documents strictly ascending within a row (CellOf's binary
          // search depends on it after splicing).
          if (cell.doc < 0 || cell.doc <= prev_doc)
            return DecodeStatus::kError;
          prev_doc = cell.doc;
          cell.rate = GetF64(r + 4);
          cell.frac = GetF64(r + 12);
          row.cells.push_back(cell);
        }
        remaining -= static_cast<std::size_t>(cell_count) * kDeltaCellSize;
        out->delta.rows.push_back(std::move(row));
      }
      if (remaining != 0) return DecodeStatus::kError;
      break;
    }
    case MsgType::kEpochUpdate: {
      out->epoch_update.epoch = GetU32(p);
      const std::uint32_t down_count = GetU32(p + 4);
      const std::uint32_t reassign_count = GetU32(p + 8);
      if (down_count > kMaxEpochUpdateNodes ||
          reassign_count > kMaxEpochUpdateNodes)
        return DecodeStatus::kError;
      if (stated != kEpochUpdatePrologueSize +
                        static_cast<std::size_t>(down_count) * 4 +
                        static_cast<std::size_t>(reassign_count) * 8)
        return DecodeStatus::kError;
      const std::uint8_t* r = p + kEpochUpdatePrologueSize;
      out->epoch_update.down.clear();
      out->epoch_update.down.reserve(down_count);
      for (std::uint32_t i = 0; i < down_count; ++i, r += 4) {
        const NodeId v = static_cast<NodeId>(GetU32(r));
        if (v < 0 ||
            (i > 0 && v <= out->epoch_update.down.back()))
          return DecodeStatus::kError;
        out->epoch_update.down.push_back(v);
      }
      out->epoch_update.reassign.clear();
      out->epoch_update.reassign.reserve(reassign_count);
      for (std::uint32_t i = 0; i < reassign_count; ++i, r += 8) {
        OwnerDelta d;
        d.node = static_cast<NodeId>(GetU32(r));
        d.owner = GetU32(r + 4);
        if (d.node < 0 ||
            (i > 0 && d.node <= out->epoch_update.reassign.back().node))
          return DecodeStatus::kError;
        out->epoch_update.reassign.push_back(d);
      }
      break;
    }
    case MsgType::kStatsRequest:
    case MsgType::kShutdown:
    case MsgType::kTraceRequest:
    case MsgType::kFlightRequest:
      break;
  }
  *consumed = kHeaderSize + stated;
  return DecodeStatus::kOk;
}

}  // namespace webwave
