#include "proto/packet_sim.h"

#include <algorithm>

#include "doc/quota_exchange.h"
#include "stats/summary.h"
#include "util/check.h"
#include "wire/codec.h"

namespace webwave {

namespace {

constexpr SimTime kLinkLatency = 5 * kMicrosPerMilli;
constexpr SimTime kDiffusionPeriod = 200 * kMicrosPerMilli;
// Measured rates are smoothed per diffusion period with this EWMA weight.
constexpr double kEwmaAlpha = 0.3;
// Payload sizes for the network-traffic accounting (§7): a request packet
// and a document transfer, in KB per link traversal.
constexpr double kRequestKb = 0.5;
constexpr double kDocSizeKb = 8.0;

}  // namespace

const char* PolicyName(CachePolicy policy) {
  switch (policy) {
    case CachePolicy::kNoCaching:
      return "no-caching";
    case CachePolicy::kEnRouteLru:
      return "en-route-lru";
    case CachePolicy::kIcpLike:
      return "icp-like";
    case CachePolicy::kWebWave:
      return "webwave";
  }
  return "?";
}

DocId PacketSim::LruCache::Insert(DocId d) {
  if (Contains(d)) {
    Touch(d);
    return -1;
  }
  DocId evicted = -1;
  if (capacity_ > 0 && static_cast<int>(order_.size()) >= capacity_) {
    evicted = order_.back();
    index_.erase(evicted);
    order_.pop_back();
  }
  if (capacity_ > 0) {
    order_.push_front(d);
    index_[d] = order_.begin();
  }
  return evicted;
}

PacketSim::PacketSim(const RoutingTree& tree, const DemandMatrix& demand,
                     const PacketSimOptions& options,
                     std::vector<double> target_loads)
    : tree_(tree),
      demand_(demand),
      options_(options),
      target_(std::move(target_loads)),
      rng_(options.seed),
      docs_(demand.doc_count()),
      barrier_monitor_(tree.size()) {
  WEBWAVE_REQUIRE(demand.node_count() == tree.size(),
                  "demand matrix does not match tree");
  WEBWAVE_REQUIRE(options.duration > options.warmup,
                  "duration must exceed warmup");
  servers_.reserve(static_cast<std::size_t>(tree.size()));
  for (NodeId v = 0; v < tree_.size(); ++v) {
    servers_.emplace_back(v, docs_, tree_.is_root(v));
    lru_.emplace_back(options_.lru_capacity);
  }
  post_warmup_served_.assign(static_cast<std::size_t>(tree_.size()), 0);
  edge_kb_.assign(static_cast<std::size_t>(tree_.size()), 0.0);
}

void PacketSim::Start() {
  if (started_) return;
  started_ = true;
  ScheduleClientArrivals();
  ScheduleGossip();
  ScheduleDiffusion();
  ScheduleStepHook();
}

PacketSimReport PacketSim::Run() {
  RunUntil(options_.duration);
  return Report();
}

void PacketSim::RunUntil(SimTime t) {
  Start();
  sim_.RunUntil(t);
}

// --- wire round-trips ------------------------------------------------------
// Each simulated message is encoded and decoded through the shared codec;
// the continuation acts on the decoded copy.  The codec is pure, so the
// RNG draw sequence is exactly what it was before the rewiring.

GetRequest PacketSim::RoundTrip(const GetRequest& m) {
  wire_buf_.clear();
  MessageCodec::Encode(m, &wire_buf_);
  WireMessage out;
  std::size_t consumed = 0;
  const auto st =
      MessageCodec::Decode(wire_buf_.data(), wire_buf_.size(), &out, &consumed);
  WEBWAVE_ASSERT(st == MessageCodec::DecodeStatus::kOk &&
                     consumed == wire_buf_.size() && out.get == m,
                 "GetRequest wire round-trip");
  ++wire_frames_;
  return out.get;
}

GetReply PacketSim::RoundTrip(const GetReply& m) {
  wire_buf_.clear();
  MessageCodec::Encode(m, &wire_buf_);
  WireMessage out;
  std::size_t consumed = 0;
  const auto st =
      MessageCodec::Decode(wire_buf_.data(), wire_buf_.size(), &out, &consumed);
  WEBWAVE_ASSERT(st == MessageCodec::DecodeStatus::kOk &&
                     consumed == wire_buf_.size() && out.reply == m,
                 "GetReply wire round-trip");
  ++wire_frames_;
  return out.reply;
}

LoadGossip PacketSim::RoundTrip(const LoadGossip& m) {
  wire_buf_.clear();
  MessageCodec::Encode(m, &wire_buf_);
  WireMessage out;
  std::size_t consumed = 0;
  const auto st =
      MessageCodec::Decode(wire_buf_.data(), wire_buf_.size(), &out, &consumed);
  WEBWAVE_ASSERT(st == MessageCodec::DecodeStatus::kOk &&
                     consumed == wire_buf_.size() && out.gossip == m,
                 "LoadGossip wire round-trip");
  ++wire_frames_;
  return out.gossip;
}

// --- injection -------------------------------------------------------------

bool PacketSim::InjectFrame(const std::uint8_t* data, std::size_t len) {
  WireMessage out;
  std::size_t consumed = 0;
  if (MessageCodec::Decode(data, len, &out, &consumed) !=
          MessageCodec::DecodeStatus::kOk ||
      consumed != len)
    return false;
  switch (out.type) {
    case MsgType::kGetRequest:
      InjectRequest(out.get);
      return true;
    case MsgType::kLoadGossip:
      InjectGossip(out.gossip);
      return true;
    default:
      return false;
  }
}

void PacketSim::InjectRequest(const GetRequest& m) {
  WEBWAVE_REQUIRE(m.origin_node >= 0 && m.origin_node < tree_.size(),
                  "injected request at unknown node");
  WEBWAVE_REQUIRE(m.doc >= 0 && m.doc < docs_, "injected request for unknown doc");
  ++total_requests_;
  ++wire_frames_;
  ForwardRequest(m.req_id, m.origin_node, m.doc, m.origin_node, kNoNode,
                 m.ttl_hops);
}

void PacketSim::InjectGossip(const LoadGossip& m) {
  WEBWAVE_REQUIRE(m.node >= 0 && m.node < tree_.size(),
                  "injected gossip from unknown node");
  ++wire_frames_;
  std::vector<NodeId> neighbors = tree_.children(m.node);
  if (!tree_.is_root(m.node)) neighbors.push_back(tree_.parent(m.node));
  for (const NodeId nb : neighbors) {
    ++control_messages_;
    ++link_traversals_;
    sim_.ScheduleIn(kLinkLatency, [this, nb, g = m] {
      servers_[static_cast<std::size_t>(nb)].RecordNeighborLoad(g.node, g.load);
    });
  }
}

// --- workload --------------------------------------------------------------

void PacketSim::ScheduleClientArrivals() {
  for (NodeId v = 0; v < tree_.size(); ++v) {
    const double rate = demand_.NodeTotal(v);
    if (rate <= 0) continue;
    ScheduleNextArrival(v, rate);
  }
}

void PacketSim::ScheduleNextArrival(NodeId v, double rate) {
  const SimTime gap =
      static_cast<SimTime>(rng_.NextExponential(rate) * kMicrosPerSecond);
  sim_.ScheduleIn(std::max<SimTime>(gap, 1), [this, v, rate] {
    const DocId d = SampleDoc(v);
    StartRequest(v, d);
    ScheduleNextArrival(v, rate);
  });
}

DocId PacketSim::SampleDoc(NodeId v) {
  const double total = demand_.NodeTotal(v);
  double u = rng_.NextDouble() * total;
  for (DocId d = 0; d < docs_; ++d) {
    u -= demand_.at(v, d);
    if (u <= 0) return d;
  }
  return docs_ - 1;
}

// --- data plane ------------------------------------------------------------

void PacketSim::StartRequest(NodeId origin, DocId d) {
  ++total_requests_;
  const std::uint64_t req_id = total_requests_;
  if (options_.policy == CachePolicy::kIcpLike) {
    StartIcpRequest(req_id, origin, d);
    return;
  }
  ForwardRequest(req_id, origin, d, origin, kNoNode, /*hops=*/0);
}

// A request for d, at `node`, arrived from `from_child` (kNoNode when it
// originated here).  Serve or pass to the parent after one link delay;
// the forward travels as an encoded GetRequest whose origin_node is the
// resume point — exactly what a netd daemon puts on its parent's socket.
void PacketSim::ForwardRequest(std::uint64_t req_id, NodeId origin, DocId d,
                               NodeId node, NodeId from_child, int hops) {
  const bool serve = DecideServe(node, d, from_child);
  if (serve) {
    CompleteRequest(req_id, origin, d, node, hops);
    return;
  }
  WEBWAVE_ASSERT(!tree_.is_root(node), "home server must always serve");
  edge_kb_[static_cast<std::size_t>(node)] += kRequestKb;
  GetRequest fwd;
  fwd.req_id = req_id;
  fwd.doc = d;
  fwd.origin_node = node;
  fwd.ttl_hops = static_cast<std::uint16_t>(hops + 1);
  sim_.ScheduleIn(kLinkLatency, [this, origin, g = RoundTrip(fwd)] {
    ForwardRequest(g.req_id, origin, g.doc, tree_.parent(g.origin_node),
                   g.origin_node, g.ttl_hops);
  });
}

bool PacketSim::DecideServe(NodeId node, DocId d, NodeId from_child) {
  CacheServer& server = servers_[static_cast<std::size_t>(node)];
  switch (options_.policy) {
    case CachePolicy::kNoCaching:
      // Only the home intercepts; still record arrivals for metrics.
      return server.AcceptRequest(d, from_child, 1.0) && server.is_home();
    case CachePolicy::kEnRouteLru:
    case CachePolicy::kIcpLike: {
      // Serve anything held; LRU recency on hit.
      const bool cached = server.is_home() ||
                          lru_[static_cast<std::size_t>(node)].Contains(d);
      server.AcceptRequest(d, from_child, cached ? 0.0 : 1.0);
      if (cached && !server.is_home())
        lru_[static_cast<std::size_t>(node)].Touch(d);
      return cached;
    }
    case CachePolicy::kWebWave:
      return server.AcceptRequest(d, from_child, rng_.NextDouble());
  }
  return false;
}

void PacketSim::CompleteRequest(std::uint64_t req_id, NodeId origin, DocId d,
                                NodeId server, int hops) {
  // Response travels back down the same path, as an encoded GetReply
  // piggybacking the server's measured load and quota epoch.
  GetReply reply;
  reply.req_id = req_id;
  reply.doc = d;
  reply.serving_node = server;
  reply.result = GetResult::kServed;
  reply.hops = static_cast<std::uint16_t>(hops);
  reply.load = servers_[static_cast<std::size_t>(server)].load();
  reply.version = quota_version_;
  const SimTime rtt = 2 * hops * kLinkLatency;
  sim_.ScheduleIn(rtt / 2 == 0 ? 0 : rtt / 2,
                  [this, origin, r = RoundTrip(reply)] {
    RecordServed(r.serving_node, origin, r.hops, 2 * r.hops * kLinkLatency);
    if (options_.policy == CachePolicy::kEnRouteLru && r.hops > 0) {
      // En-route caching: every node on the response path inserts a copy.
      NodeId v = origin;
      for (int i = 0; i < r.hops; ++i) {
        if (!tree_.is_root(v)) lru_[static_cast<std::size_t>(v)].Insert(r.doc);
        v = tree_.parent(v);
      }
      ++doc_transfers_;
    }
  });
}

void PacketSim::RecordServed(NodeId server, NodeId origin, int hops,
                             SimTime rtt) {
  ++served_requests_;
  // Traffic: the request crossed `hops` links up (accounted per edge in
  // ForwardRequest); the document payload crosses them back down.
  link_traversals_ += static_cast<std::uint64_t>(2 * hops);
  network_kb_ += hops * (kRequestKb + kDocSizeKb);
  NodeId v = origin;
  for (int i = 0; i < hops; ++i) {
    edge_kb_[static_cast<std::size_t>(v)] += kDocSizeKb;
    v = tree_.parent(v);
  }
  if (sim_.now() >= options_.warmup) {
    ++post_warmup_served_[static_cast<std::size_t>(server)];
    ++post_warmup_count_;
    hit_depth_sum_ += hops;
    response_us_sum_ += static_cast<double>(rtt);
  }
}

// ICP-like: query all tree neighbors first (control messages + one RTT),
// then fetch from a neighbor copy or fall back to the normal path.
void PacketSim::StartIcpRequest(std::uint64_t req_id, NodeId origin, DocId d) {
  CacheServer& server = servers_[static_cast<std::size_t>(origin)];
  const bool local = server.is_home() ||
                     lru_[static_cast<std::size_t>(origin)].Contains(d);
  server.AcceptRequest(d, kNoNode, local ? 0.0 : 1.0);
  if (local) {
    if (!server.is_home()) lru_[static_cast<std::size_t>(origin)].Touch(d);
    CompleteRequest(req_id, origin, d, origin, 0);
    return;
  }
  // Query round: one message to each neighbor, replies after one RTT.
  std::vector<NodeId> neighbors = tree_.children(origin);
  if (!tree_.is_root(origin)) neighbors.push_back(tree_.parent(origin));
  control_messages_ += 2 * neighbors.size();  // query + reply
  sim_.ScheduleIn(2 * kLinkLatency, [this, req_id, origin, d, neighbors] {
    NodeId hit = kNoNode;
    for (const NodeId nb : neighbors) {
      const bool cached = servers_[static_cast<std::size_t>(nb)].is_home() ||
                          lru_[static_cast<std::size_t>(nb)].Contains(d);
      if (cached) {
        hit = nb;
        break;
      }
    }
    if (hit != kNoNode) {
      servers_[static_cast<std::size_t>(hit)].AcceptRequest(d, kNoNode, 0.0);
      lru_[static_cast<std::size_t>(origin)].Insert(d);
      ++doc_transfers_;
      CompleteRequest(req_id, origin, d, hit, 1);
    } else if (tree_.is_root(origin)) {
      CompleteRequest(req_id, origin, d, origin, 0);
    } else {
      lru_[static_cast<std::size_t>(origin)].Insert(d);
      ++doc_transfers_;
      ForwardRequest(req_id, origin, d, tree_.parent(origin), origin, 1);
    }
  });
}

// --- control plane (WebWave only) ------------------------------------------

void PacketSim::ScheduleGossip() {
  if (options_.policy != CachePolicy::kWebWave) return;
  sim_.ScheduleIn(options_.gossip_period, [this] { GossipTick(); });
}

void PacketSim::GossipTick() {
  // Every server sends its current load to its tree neighbors; the
  // message lands after one link latency.
  ++gossip_epoch_;
  const double loss = options_.gossip_loss;
  for (NodeId v = 0; v < tree_.size(); ++v) {
    LoadGossip sample;
    sample.node = v;
    sample.epoch = gossip_epoch_;
    sample.load = servers_[static_cast<std::size_t>(v)].load();
    std::vector<NodeId> neighbors = tree_.children(v);
    if (!tree_.is_root(v)) neighbors.push_back(tree_.parent(v));
    for (const NodeId nb : neighbors) {
      ++control_messages_;
      ++link_traversals_;
      if (loss > 0 && rng_.NextBernoulli(loss))
        continue;  // lost in transit; the neighbor's estimate stays stale
      sim_.ScheduleIn(kLinkLatency, [this, nb, g = RoundTrip(sample)] {
        servers_[static_cast<std::size_t>(nb)].RecordNeighborLoad(g.node,
                                                                  g.load);
      });
    }
  }
  sim_.ScheduleIn(options_.gossip_period, [this] { GossipTick(); });
}

void PacketSim::ScheduleDiffusion() {
  if (options_.policy != CachePolicy::kWebWave) return;
  sim_.ScheduleIn(kDiffusionPeriod, [this] { DiffusionTick(); });
}

void PacketSim::ScheduleStepHook() {
  if (!step_hook_) return;
  sim_.ScheduleIn(kDiffusionPeriod, [this] {
    step_hook_(*this);
    ScheduleStepHook();
  });
}

void PacketSim::DiffusionTick() {
  ++quota_version_;
  const double window_s =
      static_cast<double>(kDiffusionPeriod) / kMicrosPerSecond;
  for (NodeId v = 0; v < tree_.size(); ++v)
    servers_[static_cast<std::size_t>(v)].RollWindow(window_s,
                                                     kEwmaAlpha);

  // The exchange reads each server's own EWMA rates and its gossiped
  // estimates of its neighbours.  Spare quota and the relinquish rank are
  // the measured served rate; a delegating parent keeps a zero-quota copy,
  // and a copy handed down costs one transfer over the edge.
  struct Book {
    PacketSim& s;
    CacheServer& at(NodeId v) {
      return s.servers_[static_cast<std::size_t>(v)];
    }
    double Load(NodeId v) { return at(v).load(); }
    double Estimate(NodeId v, NodeId u) { return at(v).NeighborLoad(u); }
    double Flow(NodeId p, NodeId c, DocId d) {
      return at(p).child_arrival_rate(c, d);
    }
    double Spare(NodeId p, DocId d) { return at(p).served_rate(d); }
    double Rank(NodeId c, DocId d) { return at(c).served_rate(d); }
    double Cap(NodeId c, DocId d) {
      return std::min(at(c).quota(d), at(c).served_rate(d));
    }
    bool Cached(NodeId v, DocId d) { return at(v).IsCached(d); }
    double Quota(NodeId v, DocId d) { return at(v).quota(d); }
    void SetQuota(NodeId v, DocId d, double q) { at(v).SetQuota(d, q); }
    void Install(NodeId v, DocId d) {
      at(v).StoreCopy(d);
      ++s.doc_transfers_;
      ++s.control_messages_;  // the replicate instruction
      ++s.link_traversals_;
      s.network_kb_ += kDocSizeKb;  // one-hop parent->child copy
      s.edge_kb_[static_cast<std::size_t>(v)] += kDocSizeKb;
    }
    void Evict(NodeId v, DocId d) { at(v).DropCopy(d); }
    bool EvictsOnDelegate() { return false; }
    bool Tunnel(NodeId k) { return s.Tunnel(k); }
  } book{*this};
  DetectBarriersAndTunnel(tree_, book, barrier_monitor_,
                          ExchangeQuota(tree_, docs_, book));

  for (NodeId v = 0; v < tree_.size(); ++v)
    servers_[static_cast<std::size_t>(v)].RefreshFilter();

  if (!target_.empty()) {
    // EWMA loads rather than raw window counts: the trajectory should
    // show protocol adaptation, not Poisson window noise.
    std::vector<double> loads(static_cast<std::size_t>(tree_.size()));
    for (NodeId v = 0; v < tree_.size(); ++v)
      loads[static_cast<std::size_t>(v)] =
          servers_[static_cast<std::size_t>(v)].load();
    distance_trajectory_.push_back(EuclideanDistance(loads, target_));
  }

  sim_.ScheduleIn(kDiffusionPeriod, [this] { DiffusionTick(); });
}

bool PacketSim::Tunnel(NodeId k) {
  CacheServer& child = servers_[static_cast<std::size_t>(k)];
  // The document k forwards at the highest rate but does not cache.
  DocId best = -1;
  double best_rate = kQuotaEpsilon;
  for (DocId d = 0; d < docs_; ++d) {
    if (child.IsCached(d)) continue;
    const double pass = child.arrival_rate(d) - child.served_rate(d);
    if (pass > best_rate) {
      best_rate = pass;
      best = d;
    }
  }
  if (best < 0) return false;
  child.StoreCopy(best);
  const NodeId p = tree_.parent(k);
  const double gap = child.NeighborLoad(p) - child.load();
  child.SetQuota(best, child.quota(best) + std::min(best_rate, 0.5 * gap));
  ++doc_transfers_;
  control_messages_ += 2;  // direct request + transfer across the barrier
  ++tunnel_events_;
  return true;
}

// --- reporting -------------------------------------------------------------

PacketSimReport PacketSim::Report() const {
  PacketSimReport report;
  const double measured_s =
      static_cast<double>(options_.duration - options_.warmup) /
      kMicrosPerSecond;
  report.measured_loads.resize(static_cast<std::size_t>(tree_.size()));
  for (NodeId v = 0; v < tree_.size(); ++v)
    report.measured_loads[static_cast<std::size_t>(v)] =
        static_cast<double>(
            post_warmup_served_[static_cast<std::size_t>(v)]) /
        measured_s;
  report.total_requests = total_requests_;
  report.served_requests = served_requests_;
  report.control_messages = control_messages_;
  report.doc_transfers = doc_transfers_;
  report.tunnel_events = tunnel_events_;
  report.distance_trajectory = distance_trajectory_;
  if (post_warmup_count_ > 0) {
    report.mean_hit_depth =
        hit_depth_sum_ / static_cast<double>(post_warmup_count_);
    report.mean_response_ms = response_us_sum_ /
                              static_cast<double>(post_warmup_count_) /
                              kMicrosPerMilli;
  }
  report.link_traversals = link_traversals_;
  report.network_kb = network_kb_;
  report.edge_traffic_kb = edge_kb_;
  report.wire_frames = wire_frames_;
  report.copies_per_doc.assign(static_cast<std::size_t>(docs_), 0);
  for (DocId d = 0; d < docs_; ++d) {
    for (NodeId v = 0; v < tree_.size(); ++v) {
      const bool has_copy =
          options_.policy == CachePolicy::kWebWave ||
                  options_.policy == CachePolicy::kNoCaching
              ? servers_[static_cast<std::size_t>(v)].IsCached(d)
              : servers_[static_cast<std::size_t>(v)].is_home() ||
                    lru_[static_cast<std::size_t>(v)].Contains(d);
      if (has_copy) ++report.copies_per_doc[static_cast<std::size_t>(d)];
    }
  }
  if (total_requests_ > 0) {
    report.control_messages_per_request =
        static_cast<double>(control_messages_) /
        static_cast<double>(total_requests_);
    report.network_kb_per_request =
        network_kb_ / static_cast<double>(total_requests_);
  }
  return report;
}

}  // namespace webwave
