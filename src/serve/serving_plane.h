// The request-serving data plane: replays (origin, document) request
// streams against a frozen QuotaSnapshot over the routing tree.
//
// Routing follows the paper's §3 semantics: a request travels from its
// origin up the tree toward the home server and is served by the *first*
// node on the path that holds a copy of the document with remaining
// service quota; the home (root) serves anything that reaches it — it
// holds the authoritative copy of the whole catalog.  Quotas are enforced
// by two admission mechanisms, chosen per cell by its granularity:
//
//   * Token bucket — a cell with quota rate q earns r = slack · q /
//     offered_rate · block_size tokens per block of block_size requests,
//     granted as floor(r·(k+1)+u) − floor(r·k+u) whole requests in block
//     k (u a per-cell hash dither phase, so quantization is unbiased).
//     A hard proportional cap; used when r >= 1, i.e. when the share is
//     coarse enough for counting to mean anything.
//   * Poisson thinning — a cell thinner than one token per block serves
//     each arriving request with probability min(1, slack · fraction),
//     where fraction is the snapshot's per-copy share of passing flow.
//     Thinning a Poisson arrival stream by the flow fraction reproduces
//     the rate model exactly in distribution (the served stream has rate
//     q, the forwarded remainder recurses up the tree), which is the
//     only faithful realization when a copy's whole-run share is below
//     one request — the common regime at 10⁶ servers.
//
// `slack` provides admission headroom over the strict share so Poisson
// burstiness is absorbed at the copies instead of overflowing to the
// home.
//
// The hot loop is allocation-free, and each node a request visits costs
// one cache line of node table: a fixed-stride record holds the node's
// parent, its snapshot row start, its document bitmap (bit d set iff it
// holds a copy of d; the copy's cell is the row start plus the bit's
// rank) and its down / outside-the-segment flags.  A copy's admission
// state is one 64-bit word per cell — a token flag plus the compact
// token index, or the thinning threshold ⌈p·2⁵³⌉ its integer draw is
// compared with.  Serve() walks each block's requests strictly in order
// while it prefetches the node records and admission words of the
// requests 8 and 16 ahead, so the lookahead never reorders a decision.
// Serve() sweeps request blocks on a WorkerPool with the repo's
// deterministic static partition; every block is processed
// start-to-finish by exactly one worker against per-worker budget
// scratch keyed by block id, and all metrics are integer counts merged
// per worker — so serving results are bit-identical at every thread
// count, the same guarantee the batch simulator gives (asserted at 1/2/8
// threads by serving_test).
//
// Failover (the fault plane's data-plane half): SetDownNodes marks a set
// of crashed nodes.  A request reaching a down node cannot query it — it
// burns a failed attempt, waits a deterministic dither-phased exponential
// backoff (an accounting counter, not wall time: floor(u · 2^min(a,16))
// slots with u a pure hash of (request, attempt)), and retries at the
// parent.  A request that exhausts max_failover_attempts is dropped —
// counted, never served, modelling a client whose retry budget ran out
// mid-outage.  The home never crashes, so every surviving request still
// terminates.  All failover metrics are integer counters folded into the
// same per-worker merge, hence bit-identical at every thread count and
// block partition (asserted by fault_test at 1/2/8 threads × lane_block
// 1/4/8).  Pair SetDownNodes with a FaultProjector-clamped snapshot: the
// projector moves the dead copies' quota to live ancestors (control
// plane), the down mask makes the walk skip the dead nodes (data plane).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/metric_registry.h"
#include "obs/trace.h"
#include "serve/quota_snapshot.h"
#include "serve/request_gen.h"
#include "tree/routing_tree.h"
#include "util/span.h"
#include "util/worker_pool.h"
#include "wire/message.h"

namespace webwave {

struct ServingOptions {
  // Worker threads for block sweeps; 0 picks one per hardware thread.
  int threads = 1;
  // Requests per quota-refresh block (the token-bucket window).  Larger
  // blocks enforce quotas more faithfully when per-copy shares are small
  // (many servers, few requests each); smaller blocks model tighter
  // refresh intervals but overflow more burst traffic to the home.
  int block_size = 65536;
  // The request rate budgets are scaled against — normally the
  // generator's total_rate().  0 uses the snapshot's total quota rate.
  double offered_rate = 0;
  // Admission headroom: a copy may serve up to slack times its strict
  // proportional share of a block before traffic spills upward.  1.0
  // enforces the placement exactly; the default absorbs the Poisson
  // burstiness of real request streams at the copies themselves.
  double budget_slack = 2.0;
  // Failed attempts at down nodes a request may burn before it is
  // dropped.  8 lets a request climb past any realistic dead chain (tree
  // heights here are ~log n) while still modelling a finite client
  // retry budget.
  int max_failover_attempts = 8;
  // Deterministic sampled request tracing (obs/trace.h).  When enabled,
  // requests selected by TraceSampled(kTraceSeed, req_id,
  // trace_sample_shift) record their full walk as TraceEvents — an
  // expected 1 in 2^trace_sample_shift requests.  Tracing never perturbs
  // an admission decision: traced and untraced runs produce identical
  // metrics (asserted by obs_test and tab_serving).
  bool trace = false;
  int trace_sample_shift = 14;
};

// Integer serving counters — the eight scalars (wire/message.h) plus two
// histograms; everything derived (ratios, loads) comes from these, so two
// runs agree exactly iff the counters agree exactly.
struct ServingMetrics : ServingCounters {
  std::vector<std::uint64_t> served_per_node;
  std::vector<std::uint64_t> hops;  // hops[h]: requests served h hops up

  // Fraction of requests a cache copy (not the home) absorbed.
  double HitRatio() const;
  double MeanHops() const;
  // Fraction of requests dropped after exhausting the retry budget.
  double DropRatio() const;
  std::uint64_t MaxServed() const;
  // served_per_node as doubles, for the stats/ helpers.
  std::vector<double> Loads() const;

  bool operator==(const ServingMetrics& other) const;
};

class ServingPlane {
 public:
  ServingPlane(const RoutingTree& tree, QuotaSnapshot snapshot,
               ServingOptions options = {});

  int thread_count() const { return pool_->thread_count(); }
  const QuotaSnapshot& snapshot() const { return snapshot_; }

  // Installs the set of crashed nodes (ascending not required; the root
  // must be live) as record flags.  Takes effect from the next Serve
  // call; an empty span marks every node live.  Typically driven by
  // FaultProjector::down() right after the projector refreshed the
  // snapshot this plane serves.
  void SetDownNodes(Span<const NodeId> down);

  // Serves a batch of requests, accumulating into metrics().  Block
  // numbering continues across calls, so a stream serves identically
  // whether it arrives in one batch or many (given block-aligned batch
  // sizes) and budgets never leak between blocks.
  void Serve(Span<Request> batch);

  // --- wire entry point (src/netd/) ---------------------------------------
  // Restricts ServeWireSegment's walk to `owned` nodes: the walk returns
  // kForwarded when it reaches a node outside the set instead of
  // processing it there.  Empty = every node owned (never forwards) —
  // that is the oracle configuration; a daemon installs its shard.
  void SetSegmentNodes(Span<const NodeId> owned);

  // The quota-table epoch stamped into every GetReply.version — the
  // DistCache-style piggyback that lets clients learn how current the
  // serving daemon's table is without a query protocol.  A daemon bumps
  // it after applying each kQuotaDelta; the oracle leaves it 0.
  void SetTableVersion(std::uint32_t version) { table_version_ = version; }

  enum class WireServe { kServed, kForwarded, kDropped };

  // Serves one wire GetRequest through Walk, the climb Serve() runs, but
  // resumable across processes: the walk starts at in.origin_node with
  // in.ttl_hops edges already climbed and in.failed attempts already
  // burned.  The ttl_hops loop guard is enforced here: a request whose
  // in.ttl_hops plus the depth of in.origin_node exceeds the tree height
  // throws before anything is accounted.
  //
  //   kServed, kDropped → *reply filled; the request's terminal counters
  //                       (requests, served_per_node, hops, ...) are
  //                       accounted here.
  //   kForwarded        → *forward holds the message for the next
  //                       process's socket (origin_node = the first node
  //                       this plane does not own); nothing terminal is
  //                       accounted.
  //
  // failed_attempts and backoff_slots account where incurred, so counters
  // *summed across a fleet of segment planes* equal one all-owning oracle
  // plane's metrics exactly.  What the call added to metrics() and trace()
  // reaches the attached registry before it returns.
  //
  // Requires block_size == 1 — the order-free admission regime, where
  // every token grant and thinning draw is a pure function of (req_id,
  // cell).  That is what makes N async processes bit-comparable to a
  // single oracle replaying the same stream in any order.
  WireServe ServeWireSegment(const GetRequest& in, GetRequest* forward,
                             GetReply* reply);

  // Installs a new snapshot without tearing the plane down — the
  // data-plane analogue of QuotaSnapshot::RefreshFromBatch.  When the
  // CSR shape is unchanged, the node records are kept and every cell's
  // admission word is re-derived from the new rates and fractions, in
  // place.  A shape change, or a cell crossing the token/thinning regime
  // boundary (which renumbers the compact token slots), falls back to a
  // full table rebuild.  Either way the admission tables end up
  // byte-identical to constructing a fresh plane from the snapshot
  // (asserted by serving_test via TablesEqual); accumulated metrics and
  // block numbering continue.  Returns true when the in-place path
  // sufficed.  The tree and catalog shape cannot change.  The const&
  // overload copy-assigns into the plane's existing snapshot storage;
  // the && overload takes the caller's arrays.
  bool Refresh(const QuotaSnapshot& snapshot);
  bool Refresh(QuotaSnapshot&& snapshot);

  // True iff the two planes would admit any request stream identically
  // from the same block position: same snapshot cells, admission tables
  // and budget scale.  The test hook behind the refresh-equals-fresh
  // assertions.
  bool TablesEqual(const ServingPlane& other) const;

  const ServingMetrics& metrics() const { return metrics_; }
  void ResetMetrics();

  // --- telemetry (src/obs/) ----------------------------------------------
  // Publishes the serving counters into `registry` under
  // "<prefix>requests", "<prefix>cache_served", ... "<prefix>trace_events"
  // — deltas are added at Serve()'s per-worker merge (a block boundary)
  // and after every ServeWireSegment call, so the registry totals track
  // metrics() and trace().size() exactly and are bit-identical at any
  // thread count.  Pass nullptr to detach.
  void AttachRegistry(MetricRegistry* registry, const std::string& prefix);

  // Trace events accumulated so far, in canonical (req_id, seq) order for
  // Serve() batches; ServeWireSegment appends in completion order and the
  // caller canonicalizes after merging daemon shards.  Cleared by
  // ResetMetrics.
  const std::vector<TraceEvent>& trace() const { return trace_; }

 private:
  // A token cell's budget scratch: the block id its grant was cut in,
  // next to the tokens left — one slot read per token decision.
  struct TokenBudget {
    std::uint64_t stamp = 0;
    std::int32_t avail = 0;
  };
  struct WorkerState {
    std::vector<TokenBudget> budget;  // indexed by compact token id
    ServingMetrics local;
    std::vector<TraceEvent> trace;  // sampled events, drained at the merge
  };
  // A token cell's per-block rate (slack · quota share · block_size) next
  // to its dither phase u = CounterUnitDouble(cell).
  struct TokenSlot {
    double rate;
    double phase;
    bool operator==(const TokenSlot& o) const {
      return rate == o.rate && phase == o.phase;
    }
  };
  // Per-request trace emitter; a null sink records nothing.  Defined in
  // the .cpp.
  struct TraceSink;
  // Where a request stands on its climb: the node, the edges climbed and
  // the failed attempts burned so far.
  struct Climb {
    NodeId v;
    std::uint64_t hops;
    std::uint32_t failed;
  };

  void ProcessBlock(WorkerState& ws, std::uint64_t block_id,
                    const Request* reqs, std::size_t count);
  // The serve walk, the one climb both transports run (paper §3): from
  // `at`, each node is segment exit → down check → FindCell → token or
  // thinning admission → parent, and the root serves whatever reaches
  // it.  Returns kServed or kDropped with the terminal counters added to
  // `m`, or kForwarded with `at` at the first node outside the segment;
  // failed_attempts and backoff_slots land in `m` per attempt, and `tc`
  // records the walk.  The transports differ only in what they pass:
  //   stops          — the record flags the walk obeys: kDown for
  //                    Serve(), kDown | kForeign for the wire;
  //   token_admit(t) — Serve()'s per-block budget or the wire's
  //                    stateless block-size-1 grant, inlined;
  //   m              — the worker's counters, published at Serve()'s
  //                    merge, or metrics_ itself.
  template <typename TokenAdmit>
  WireServe Walk(Climb& at, std::int32_t d, std::uint64_t req_id,
                 TraceSink& tc, ServingMetrics& m, std::uint64_t stops,
                 TokenAdmit&& token_admit) const;
  // The admission core, defined in the .cpp: FindCell and BackoffSlots
  // serve Walk (FindCell also the lookahead), TokenGrant the two token
  // policies.
  const std::uint64_t* Record(NodeId v) const {
    return records_ + static_cast<std::size_t>(v) * stride_;
  }
  static NodeId Parent(const std::uint64_t* rec) {
    return static_cast<NodeId>(static_cast<std::uint32_t>(rec[0]));
  }
  static std::int64_t FindCell(const std::uint64_t* rec, std::int32_t d);
  std::int32_t TokenGrant(std::int32_t tok, std::uint64_t block_id) const;
  static std::uint64_t BackoffSlots(std::uint64_t req_id,
                                    std::uint32_t failed);
  // Recomputes admission_ / tokens_ (and the per-worker token scratch)
  // and every record's row start and bitmap from snapshot_, keeping the
  // record flags — the constructor's table build, shared with Refresh's
  // full-rebuild path.
  void BuildTables();
  // Sets `flag` to `rest` on every record, then to !rest on `nodes`.
  void MarkNodes(std::uint64_t flag, Span<const NodeId> nodes, bool rest);
  // Both Refresh overloads: `snapshot` is a const QuotaSnapshot& (copied
  // in) or a QuotaSnapshot&& (moved in).  Defined and instantiated in the
  // .cpp only.
  template <typename Snapshot>
  bool RefreshImpl(Snapshot&& snapshot);

  QuotaSnapshot snapshot_;
  ServingOptions options_;
  std::uint32_t table_version_ = 0;  // stamped into GetReply.version
  NodeId root_;
  std::vector<int> depth_;  // per node, for the wire's ttl_hops bound
  // Node records, stride_ words each (a power of two up to a cache line,
  // whole lines beyond): word 0 = parent (low half; the root's is
  // itself, so the lookahead's addresses stay in range) | flags (high
  // half), word 1 = the node's first snapshot cell, then the ⌈D/64⌉
  // bitmap words.  Refresh's in-place path keeps them (it proved the
  // rows unchanged); every full rebuild rewrites the rows and bitmaps.
  // Flags: crashed; outside this plane's wire segment.
  static constexpr std::uint64_t kDown = std::uint64_t{1} << 32;
  static constexpr std::uint64_t kForeign = std::uint64_t{1} << 33;
  static constexpr std::size_t kHeaderWords = 2;
  // records_ is nodes_'s first cache-line-aligned word, so a record
  // whose stride divides 64 B never straddles two lines.
  std::size_t stride_ = 0;
  std::vector<std::uint64_t> nodes_;
  std::uint64_t* records_ = nullptr;
  // Per cell, one admission word: kTokenCell | compact token index for
  // cells coarse enough to count (≥ 1 token per block), else the
  // thinning threshold UnitThreshold(min(1, slack · fraction)).  Worker
  // scratch is sized by token cells only — at 10⁶ servers the vast
  // majority of copies are sub-token.
  static constexpr std::uint64_t kTokenCell = std::uint64_t{1} << 63;
  std::vector<std::uint64_t> admission_;
  std::vector<TokenSlot> tokens_;
  double per_block_ = 0;  // slack · block_size / scale rate, cached by
                          // BuildTables so Refresh can detect scale moves
  std::uint64_t next_block_id_ = 1;  // 0 is the never-used stamp value
  ServingMetrics metrics_;
  std::vector<TraceEvent> trace_;
  std::vector<WorkerState> workers_;
  std::unique_ptr<WorkerPool> pool_;
  // Registered counter ids when a registry is attached (AttachRegistry):
  // one per kServingCounters entry, then trace_events.
  MetricRegistry* registry_ = nullptr;
  std::vector<MetricRegistry::Id> reg_ids_;
};

}  // namespace webwave
