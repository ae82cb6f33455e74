#include "serve/serving_plane.h"

#include <algorithm>
#include <cmath>
#include <thread>
#include <utility>

#include "util/bits.h"
#include "util/check.h"
#include "util/rng.h"

namespace webwave {

namespace {

// Adds each serving counter's growth since `base`, then `trace_events`,
// to the attached registry (ids in AttachRegistry's order).
void Publish(MetricRegistry* registry,
             const std::vector<MetricRegistry::Id>& ids,
             const ServingCounters& now, const ServingCounters& base,
             std::uint64_t trace_events) {
  if (registry == nullptr) return;
  for (std::size_t i = 0; i < kServingCounters.size(); ++i)
    registry->Add(ids[i], now.*kServingCounters[i].field -
                              base.*kServingCounters[i].field);
  registry->Add(ids.back(), trace_events);
}

}  // namespace

double ServingMetrics::HitRatio() const {
  return requests > 0
             ? static_cast<double>(cache_served) / static_cast<double>(requests)
             : 0.0;
}

double ServingMetrics::MeanHops() const {
  return requests > 0
             ? static_cast<double>(hop_sum) / static_cast<double>(requests)
             : 0.0;
}

double ServingMetrics::DropRatio() const {
  return requests > 0 ? static_cast<double>(dropped_requests) /
                            static_cast<double>(requests)
                      : 0.0;
}

std::uint64_t ServingMetrics::MaxServed() const {
  std::uint64_t mx = 0;
  for (const std::uint64_t s : served_per_node) mx = std::max(mx, s);
  return mx;
}

std::vector<double> ServingMetrics::Loads() const {
  return std::vector<double>(served_per_node.begin(), served_per_node.end());
}

bool ServingMetrics::operator==(const ServingMetrics& other) const {
  return ServingCountersEqual(*this, other) &&
         served_per_node == other.served_per_node && hops == other.hops;
}

ServingPlane::ServingPlane(const RoutingTree& tree, QuotaSnapshot snapshot,
                           ServingOptions options)
    : snapshot_(std::move(snapshot)),
      options_(options),
      root_(tree.root()),
      depth_(tree.depths()) {
  WEBWAVE_REQUIRE(snapshot_.node_count() == tree.size(),
                  "snapshot does not match the tree");
  WEBWAVE_REQUIRE(options_.block_size >= 1, "block size must be positive");
  WEBWAVE_REQUIRE(options_.offered_rate >= 0,
                  "offered rate must be non-negative");
  WEBWAVE_REQUIRE(options_.budget_slack > 0, "budget slack must be positive");
  WEBWAVE_REQUIRE(options_.max_failover_attempts >= 1,
                  "a request needs at least one failover attempt");

  const int requested =
      options_.threads > 0
          ? options_.threads
          : static_cast<int>(
                std::max(1u, std::thread::hardware_concurrency()));
  pool_ = std::make_unique<WorkerPool>(requested);

  const std::size_t nn = static_cast<std::size_t>(tree.size());
  const std::size_t hop_bins = static_cast<std::size_t>(tree.height()) + 1;
  metrics_.served_per_node.assign(nn, 0);
  metrics_.hops.assign(hop_bins, 0);
  workers_.resize(static_cast<std::size_t>(pool_->thread_count()));
  for (WorkerState& ws : workers_) {
    ws.local.served_per_node.assign(nn, 0);
    ws.local.hops.assign(hop_bins, 0);
  }
  // Records are sized once: the header plus the bitmap words, rounded up
  // to a power of two while that fits a cache line, to whole lines past.
  const std::size_t words =
      kHeaderWords + (static_cast<std::size_t>(snapshot_.doc_count()) + 63) / 64;
  stride_ = 1;
  while (stride_ < words) stride_ *= 2;
  if (stride_ > 8) stride_ = (words + 7) / 8 * 8;
  const std::size_t line_words = 8;
  nodes_.assign(nn * stride_ + line_words - 1, 0);
  records_ = nodes_.data() +
             (line_words - reinterpret_cast<std::uintptr_t>(nodes_.data()) /
                               sizeof(std::uint64_t) % line_words) %
                 line_words;
  for (std::size_t v = 0; v < nn; ++v) {
    const NodeId parent = static_cast<NodeId>(v) == root_
                              ? root_
                              : tree.parent(static_cast<NodeId>(v));
    records_[v * stride_] = static_cast<std::uint32_t>(parent);
  }
  BuildTables();
}

void ServingPlane::BuildTables() {
  const double scale_rate = options_.offered_rate > 0
                                ? options_.offered_rate
                                : snapshot_.total_rate();
  WEBWAVE_REQUIRE(scale_rate > 0, "cannot scale budgets to a zero rate");

  // Split the cells by admission regime: coarse cells (≥ 1 token per
  // block) get compact token slots, the rest their thinning threshold.
  const std::size_t cells = static_cast<std::size_t>(snapshot_.cell_count());
  admission_.resize(cells);
  tokens_.clear();
  per_block_ = options_.budget_slack *
               static_cast<double>(options_.block_size) / scale_rate;
  for (std::size_t c = 0; c < cells; ++c) {
    const double r = snapshot_.cell_rates()[c] * per_block_;
    if (r >= 1.0) {
      admission_[c] = kTokenCell | tokens_.size();
      tokens_.push_back(TokenSlot{r, CounterUnitDouble(c)});
    } else {
      admission_[c] = UnitThreshold(
          std::min(1.0, options_.budget_slack * snapshot_.cell_fractions()[c]));
    }
  }
  for (WorkerState& ws : workers_) ws.budget.assign(tokens_.size(), {});

  // Each record's row start and document bitmap (its flags stay).  A
  // cell's rank among its row's set bits is its offset in the row only
  // while rows are strictly ascending, so that is checked here, not
  // assumed.
  const std::int32_t docs = snapshot_.doc_count();
  const std::int32_t* cell_docs = snapshot_.cell_docs();
  for (NodeId v = 0; v < snapshot_.node_count(); ++v) {
    std::uint64_t* rec = records_ + static_cast<std::size_t>(v) * stride_;
    const std::int64_t begin = snapshot_.row_begin(v);
    const std::int64_t end = snapshot_.row_end(v);
    rec[1] = static_cast<std::uint64_t>(begin);
    std::fill(rec + kHeaderWords, rec + stride_, 0);
    std::int32_t prev = -1;
    for (std::int64_t c = begin; c < end; ++c) {
      WEBWAVE_REQUIRE(cell_docs[c] > prev && cell_docs[c] < docs,
                      "snapshot rows must hold strictly ascending documents");
      prev = cell_docs[c];
      rec[kHeaderWords + (static_cast<std::size_t>(prev) >> 6)] |=
          std::uint64_t{1} << (prev & 63);
    }
  }
}

template <typename Snapshot>
bool ServingPlane::RefreshImpl(Snapshot&& snapshot) {
  WEBWAVE_REQUIRE(snapshot.node_count() == snapshot_.node_count() &&
                      snapshot.doc_count() == snapshot_.doc_count(),
                  "a refresh cannot change the tree or the catalog");
  // Shape check: same rows, same documents per row.  O(cells) integer
  // compares — cheap next to recomputing the tables, and it is what
  // makes the in-place path trustworthy rather than assumed.
  bool same_shape = snapshot.cell_count() == snapshot_.cell_count();
  for (NodeId v = 0; same_shape && v < snapshot_.node_count(); ++v)
    same_shape = snapshot.row_begin(v) == snapshot_.row_begin(v);
  const std::size_t cells = static_cast<std::size_t>(snapshot.cell_count());
  for (std::size_t c = 0; same_shape && c < cells; ++c)
    same_shape = snapshot.cell_docs()[c] == snapshot_.cell_docs()[c];

  const double scale_rate = options_.offered_rate > 0
                                ? options_.offered_rate
                                : snapshot.total_rate();
  WEBWAVE_REQUIRE(scale_rate > 0, "cannot scale budgets to a zero rate");
  const double per_block = options_.budget_slack *
                           static_cast<double>(options_.block_size) /
                           scale_rate;
  snapshot_ = std::forward<Snapshot>(snapshot);  // copy- or move-assigned
  if (!same_shape) {
    BuildTables();
    return false;
  }

  // In-place: rewrite every cell's admission word.  The node records
  // depend on the row offsets and cell documents alone, which the shape
  // check just proved unchanged, so they are kept as is.
  per_block_ = per_block;
  const double* rates = snapshot_.cell_rates();
  const double* fracs = snapshot_.cell_fractions();
  for (std::size_t c = 0; c < cells; ++c) {
    const double r = rates[c] * per_block_;
    const std::uint64_t word = admission_[c];
    const bool token = (word & kTokenCell) != 0;
    if ((r >= 1.0) != token) {
      // A cell crossed the token/thinning boundary: the compact token
      // numbering shifts, so rebuild everything (the partial updates
      // above are overwritten).
      BuildTables();
      return false;
    }
    if (token)
      tokens_[static_cast<std::uint32_t>(word)].rate = r;
    else
      admission_[c] =
          UnitThreshold(std::min(1.0, options_.budget_slack * fracs[c]));
  }
  return true;
}

bool ServingPlane::Refresh(const QuotaSnapshot& snapshot) {
  return RefreshImpl(snapshot);
}

bool ServingPlane::Refresh(QuotaSnapshot&& snapshot) {
  return RefreshImpl(std::move(snapshot));
}

void ServingPlane::MarkNodes(std::uint64_t flag, Span<const NodeId> nodes,
                             bool rest) {
  for (const NodeId v : nodes)
    WEBWAVE_REQUIRE(v >= 0 && v < snapshot_.node_count(), "node out of range");
  const std::size_t words =
      static_cast<std::size_t>(snapshot_.node_count()) * stride_;
  for (std::size_t i = 0; i < words; i += stride_)
    records_[i] = rest ? records_[i] | flag : records_[i] & ~flag;
  for (const NodeId v : nodes) {
    std::uint64_t& w = records_[static_cast<std::size_t>(v) * stride_];
    w = rest ? w & ~flag : w | flag;
  }
}

void ServingPlane::SetDownNodes(Span<const NodeId> down) {
  for (const NodeId v : down)
    WEBWAVE_REQUIRE(v != root_, "the home never crashes");
  MarkNodes(kDown, Span<const NodeId>(down.data(), down.size()), false);
}

bool ServingPlane::TablesEqual(const ServingPlane& other) const {
  if (snapshot_.node_count() != other.snapshot_.node_count() ||
      snapshot_.cell_count() != other.snapshot_.cell_count() ||
      root_ != other.root_ || per_block_ != other.per_block_ ||
      options_.block_size != other.options_.block_size ||
      options_.budget_slack != other.options_.budget_slack ||
      options_.max_failover_attempts != other.options_.max_failover_attempts)
    return false;
  const std::size_t cells = static_cast<std::size_t>(snapshot_.cell_count());
  for (std::size_t c = 0; c < cells; ++c)
    if (snapshot_.cell_docs()[c] != other.snapshot_.cell_docs()[c] ||
        snapshot_.cell_rates()[c] != other.snapshot_.cell_rates()[c] ||
        snapshot_.cell_fractions()[c] != other.snapshot_.cell_fractions()[c])
      return false;
  const std::size_t words =
      static_cast<std::size_t>(snapshot_.node_count()) * stride_;
  return stride_ == other.stride_ &&
         std::equal(records_, records_ + words, other.records_) &&
         admission_ == other.admission_ && tokens_ == other.tokens_;
}

void ServingPlane::AttachRegistry(MetricRegistry* registry,
                                  const std::string& prefix) {
  registry_ = registry;
  reg_ids_.clear();
  if (registry_ == nullptr) return;
  for (const ServingCounterField& c : kServingCounters)
    reg_ids_.push_back(registry_->Counter(prefix + c.name));
  reg_ids_.push_back(registry_->Counter(prefix + "trace_events"));
}

void ServingPlane::ResetMetrics() {
  static_cast<ServingCounters&>(metrics_) = ServingCounters{};
  std::fill(metrics_.served_per_node.begin(), metrics_.served_per_node.end(),
            0);
  std::fill(metrics_.hops.begin(), metrics_.hops.end(), 0);
  trace_.clear();
}

// Per-request trace emitter: a null sink (the untraced 99.994%) makes
// Emit a no-op, so the hot loop's only tracing cost is the sampling hash.
struct ServingPlane::TraceSink {
  std::vector<TraceEvent>* out = nullptr;
  std::uint64_t req_id = 0;
  std::uint16_t seq = 0;

  void Emit(TraceEventKind kind, NodeId node, std::uint32_t aux,
            std::uint64_t detail) {
    if (out == nullptr) return;
    out->push_back(TraceEvent{req_id, detail, node, seq++, kind,
                              static_cast<std::uint8_t>(aux)});
  }
};

// --- the admission core ------------------------------------------------
// Reached only through Walk, the one climb behind Serve() (the batch hot
// loop) and ServeWireSegment (the netd entry point): both transports
// must make identical decisions, so the decision code exists once.

// Whether a node holds d is one bit of its record's bitmap; the cell is
// the row start plus the rank of that bit (the set bits below it),
// because BuildTables proved each row strictly doc-ascending.  One code
// path for every row length, and no branch on the row's contents.
std::int64_t ServingPlane::FindCell(const std::uint64_t* rec,
                                    std::int32_t d) {
  const std::uint64_t* row = rec + kHeaderWords;
  const std::size_t w = static_cast<std::size_t>(d) >> 6;
  const std::uint64_t bit = std::uint64_t{1} << (d & 63);
  if ((row[w] & bit) == 0) return -1;
  std::int64_t rank = PopCount64(row[w] & (bit - 1));
  for (std::size_t i = 0; i < w; ++i) rank += PopCount64(row[i]);
  return static_cast<std::int64_t>(rec[1]) + rank;
}

// Token bucket: block k's grant is floor(r·(k+1)+u) − floor(r·k+u), a
// pure function of (cell, block index) — thread-invariant; the per-cell
// hash dither phase u keeps the quantization unbiased.
std::int32_t ServingPlane::TokenGrant(std::int32_t tok,
                                      std::uint64_t block_id) const {
  const TokenSlot& slot = tokens_[static_cast<std::size_t>(tok)];
  const double k = static_cast<double>(block_id - 1);
  return static_cast<std::int32_t>(std::floor(slot.rate * (k + 1) + slot.phase) -
                                   std::floor(slot.rate * k + slot.phase));
}

// Dither-phased exponential failover backoff — floor(u·2^min(a,16))
// slots, u a pure hash of (request, attempt), so sums are invariant to
// threads and to which process performed the attempt.
std::uint64_t ServingPlane::BackoffSlots(std::uint64_t req_id,
                                         std::uint32_t failed) {
  const double u = CounterUnitDouble(req_id + 0xd1342543de82ef95ULL * failed);
  return static_cast<std::uint64_t>(
      std::floor(std::ldexp(u, static_cast<int>(std::min(failed, 16u)))));
}

template <typename TokenAdmit>
ServingPlane::WireServe ServingPlane::Walk(Climb& at, std::int32_t d,
                                           std::uint64_t req_id,
                                           TraceSink& tc, ServingMetrics& m,
                                           std::uint64_t stops,
                                           TokenAdmit&& token_admit) const {
  const std::uint32_t max_attempts =
      static_cast<std::uint32_t>(options_.max_failover_attempts);
  NodeId v = at.v;
  std::uint64_t hops = at.hops;
  std::uint32_t failed = at.failed;
  for (;;) {
    const std::uint64_t* rec = Record(v);
    const std::uint64_t flags = rec[0] & stops;
    if ((flags & kForeign) != 0) {
      // The walk left this plane's segment: the owning process finishes
      // it with identical decisions, so nothing terminal is accounted.
      at = Climb{v, hops, failed};
      return WireServe::kForwarded;
    }
    if (flags != 0) {
      // Crashed node: the request cannot query it.  Burn an attempt,
      // account the backoff, and retry at the parent.  The root is
      // never down, so a surviving request always terminates.
      ++failed;
      ++m.failed_attempts;
      if (failed > max_attempts) {
        // Retry budget exhausted mid-outage: counted, never served — no
        // node, hop or hit bookkeeping for a request that went nowhere.
        tc.Emit(TraceEventKind::kDropped, v, failed, hops);
        at = Climb{v, hops, failed};
        ++m.requests;
        ++m.dropped_requests;
        return WireServe::kDropped;
      }
      const std::uint64_t slots = BackoffSlots(req_id, failed);
      m.backoff_slots += slots;
      tc.Emit(TraceEventKind::kFailover, v, failed, slots);
    } else {
      const std::int64_t cell = FindCell(rec, d);
      if (cell >= 0) {
        // Poisson thinning serves with the copy's flow share, drawn as a
        // pure function of (request index, cell), so it is identical
        // under any threading, batching or process partition; a copy
        // that owns its whole passing flow admits without a draw.
        const std::uint64_t word = admission_[static_cast<std::size_t>(cell)];
        const bool token = (word & kTokenCell) != 0;
        const bool admit =
            token ? token_admit(static_cast<std::int32_t>(
                        static_cast<std::uint32_t>(word)))
                  : CounterBelow(req_id + 0x9e3779b97f4a7c15ULL *
                                              (static_cast<std::uint64_t>(cell) + 1),
                                 word);
        tc.Emit(token ? TraceEventKind::kTokenGrant : TraceEventKind::kThinning,
                v, admit ? 1 : 0, 0);
        if (admit) break;
      }
      if (v == root_) break;  // the home serves whatever reaches it
    }
    v = Parent(rec);
    ++hops;
    tc.Emit(TraceEventKind::kHop, v, failed, hops);
  }
  at = Climb{v, hops, failed};
  tc.Emit(TraceEventKind::kServed, v, failed > 0 ? 1 : 0, hops);
  ++m.requests;
  if (failed > 0) ++m.failovers;
  ++m.served_per_node[static_cast<std::size_t>(v)];
  ++m.hops[static_cast<std::size_t>(hops)];
  m.hop_sum += hops;
  if (v == root_)
    ++m.home_served;
  else
    ++m.cache_served;
  return WireServe::kServed;
}

void ServingPlane::ProcessBlock(WorkerState& ws, std::uint64_t block_id,
                                const Request* reqs, std::size_t count) {
  // Serve()'s token policy: per-worker grant scratch keyed by block id —
  // each block's budget is cut once and consumed within the block.
  const auto block_budget = [&ws, block_id, this](std::int32_t tok) {
    TokenBudget& b = ws.budget[static_cast<std::size_t>(tok)];
    if (b.stamp != block_id) {
      b.stamp = block_id;
      b.avail = TokenGrant(tok, block_id);
    }
    if (b.avail <= 0) return false;
    --b.avail;
    return true;
  };
  // The lookahead: request i + kFar's origin record is fetched; request
  // i + kNear's record (fetched kFar - kNear requests ago) is read, and
  // the admission word it points at and its parent's record are fetched.
  // Prefetches change no state, and the walks below still run and commit
  // strictly in request order, so token consumption, traces and counters
  // are those of the plain loop.  Every address formed is in range: the
  // batch was validated, a cell is formed only for a held document, and
  // the root's recorded parent is itself.
  constexpr std::size_t kFar = 16, kNear = 8;
  for (std::size_t i = 0; i < count; ++i) {
    if (i + kFar < count) __builtin_prefetch(Record(reqs[i + kFar].node));
    if (i + kNear < count) {
      const Request& ahead = reqs[i + kNear];
      const std::uint64_t* rec = Record(ahead.node);
      const std::int64_t cell = FindCell(rec, ahead.doc);
      if (cell >= 0)
        __builtin_prefetch(admission_.data() + static_cast<std::size_t>(cell));
      __builtin_prefetch(Record(Parent(rec)));
    }
    // The stream-global request index: blocks are numbered for the
    // plane's lifetime, so this is unique and batching-invariant — the
    // thinning draws depend only on (request, cell).
    const std::uint64_t req_id =
        (block_id - 1) * static_cast<std::uint64_t>(options_.block_size) + i;
    TraceSink tc;
    if (options_.trace &&
        TraceSampled(kTraceSeed, req_id, options_.trace_sample_shift)) {
      tc.out = &ws.trace;
      tc.req_id = req_id;
      tc.Emit(TraceEventKind::kArrival, reqs[i].node, 0,
              static_cast<std::uint64_t>(reqs[i].doc));
    }
    Climb at{reqs[i].node, 0, 0};
    Walk(at, reqs[i].doc, req_id, tc, ws.local, kDown, block_budget);
  }
}

void ServingPlane::Serve(Span<Request> batch) {
  if (batch.empty()) return;
  // Validate outside the parallel region: the hot loop does no bounds
  // checks, and a full-batch sweep here is cheaper than per-request
  // checks inside it.
  for (const Request& r : batch) {
    WEBWAVE_REQUIRE(r.node >= 0 && r.node < snapshot_.node_count(),
                    "request origin out of range");
    WEBWAVE_REQUIRE(r.doc >= 0 && r.doc < snapshot_.doc_count(),
                    "request document out of range");
  }
  const std::size_t block_size = static_cast<std::size_t>(options_.block_size);
  const std::size_t blocks = (batch.size() + block_size - 1) / block_size;
  const std::uint64_t base = next_block_id_;
  next_block_id_ += blocks;

  pool_->ParallelFor(blocks, [&](int worker, std::size_t b0, std::size_t b1) {
    WorkerState& ws = workers_[static_cast<std::size_t>(worker)];
    for (std::size_t b = b0; b < b1; ++b) {
      const std::size_t begin = b * block_size;
      const std::size_t end = std::min(batch.size(), begin + block_size);
      ProcessBlock(ws, base + b, batch.data() + begin, end - begin);
    }
  });

  // Deterministic merge: integer sums over workers (order-independent).
  for (WorkerState& ws : workers_) {
    Publish(registry_, reg_ids_, ws.local, ServingCounters{},
            ws.trace.size());
    for (const ServingCounterField& c : kServingCounters)
      metrics_.*c.field += std::exchange(ws.local.*c.field, 0);
    for (std::size_t v = 0; v < metrics_.served_per_node.size(); ++v)
      metrics_.served_per_node[v] +=
          std::exchange(ws.local.served_per_node[v], 0);
    for (std::size_t h = 0; h < metrics_.hops.size(); ++h)
      metrics_.hops[h] += std::exchange(ws.local.hops[h], 0);
  }

  // Drain the per-worker trace buffers into the canonical (req_id, seq)
  // order — worker assignment leaks nothing into the stream, so the
  // sorted result is bit-identical at any thread count.
  std::size_t traced = 0;
  for (const WorkerState& ws : workers_) traced += ws.trace.size();
  if (traced > 0) {
    std::vector<TraceEvent> merged;
    merged.reserve(traced);
    for (WorkerState& ws : workers_) {
      merged.insert(merged.end(), ws.trace.begin(), ws.trace.end());
      ws.trace.clear();
    }
    CanonicalizeTrace(&merged);
    trace_.insert(trace_.end(), merged.begin(), merged.end());
  }
}

void ServingPlane::SetSegmentNodes(Span<const NodeId> owned) {
  MarkNodes(kForeign, Span<const NodeId>(owned.data(), owned.size()),
            !owned.empty());
}

ServingPlane::WireServe ServingPlane::ServeWireSegment(const GetRequest& in,
                                                       GetRequest* forward,
                                                       GetReply* reply) {
  WEBWAVE_REQUIRE(options_.block_size == 1,
                  "wire serving requires block_size 1 (order-free admission)");
  WEBWAVE_REQUIRE(in.origin_node >= 0 && in.origin_node < snapshot_.node_count(),
                  "wire request outside the tree");
  WEBWAVE_REQUIRE(in.doc >= 0 && in.doc < snapshot_.doc_count(),
                  "wire request for an unknown document");
  // The loop guard: from origin_node the climb adds at most its depth in
  // edges, so a ttl_hops that came off the socket must leave the total
  // inside the hop histogram's height + 1 bins.
  const int depth = depth_[static_cast<std::size_t>(in.origin_node)];
  WEBWAVE_REQUIRE(in.ttl_hops + static_cast<std::size_t>(depth) <
                      metrics_.hops.size(),
                  "wire request climbed past the tree height");
  const ServingCounters before = metrics_;
  const std::size_t traced_before = trace_.size();
  // Tracing state rides the frame: the loadgen's sampling law set the
  // flag, trace_seq is the walk's next sequence number (nonzero after a
  // forward).  Walk emits exactly what it emits for Serve(), so the
  // fleet's merged trace equals the oracle's record-for-record.
  TraceSink tc;
  if (options_.trace && (in.flags & kGetFlagTrace) != 0) {
    tc.out = &trace_;
    tc.req_id = in.req_id;
    tc.seq = in.trace_seq;
    if (tc.seq == 0)
      tc.Emit(TraceEventKind::kArrival, in.origin_node, 0,
              static_cast<std::uint64_t>(in.doc));
  }
  // block_size == 1: every request is its own block (block ids are
  // req_id + 1 — Serve's numbering starts at 1), so the grant is
  // stateless and order-free.  A token cell has r >= 1, so in exact
  // arithmetic floor(r(k+1)+u) - floor(rk+u) >= floor(r) >= 1 and every
  // token decision admits; the grant is still computed, so the wire
  // rounds exactly as Serve() does.
  const auto stateless_grant = [&in, this](std::int32_t tok) {
    return TokenGrant(tok, in.req_id + 1) > 0;
  };
  Climb at{in.origin_node, in.ttl_hops, in.failed};
  const WireServe end = Walk(at, in.doc, in.req_id, tc, metrics_,
                             kDown | kForeign, stateless_grant);
  Publish(registry_, reg_ids_, metrics_, before, trace_.size() - traced_before);
  if (end == WireServe::kForwarded) {
    *forward = in;
    forward->origin_node = at.v;
    forward->ttl_hops = static_cast<std::uint16_t>(at.hops);
    forward->failed = static_cast<std::uint16_t>(at.failed);
    forward->trace_seq = tc.seq;
    return end;
  }
  const bool served = end == WireServe::kServed;
  *reply = GetReply{
      in.req_id, in.doc, served ? at.v : kNoNode,
      served ? GetResult::kServed : GetResult::kDropped,
      static_cast<std::uint16_t>(at.hops),
      served ? static_cast<double>(
                   metrics_.served_per_node[static_cast<std::size_t>(at.v)])
             : 0.0,
      table_version_};
  return end;
}

}  // namespace webwave
