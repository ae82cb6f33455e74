#include "netd/daemon.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <string>

#include "util/check.h"
#include "util/rng.h"

namespace webwave {

namespace {

// The gossip timer's period: each tick sends the ring neighbour a
// LoadGossip frame over the peer connection, keeping that link open.
constexpr int kGossipPeriodMs = 20;
// Non-blocking peer connect deadline before the attempt counts as failed
// and the counter-hash backoff schedules a retry.
constexpr int kConnectTimeoutMs = 2000;
// Events the flight-recorder ring holds.
constexpr std::size_t kFlightCapacity = 4096;

QuotaSnapshot SnapshotFromBlob(const std::vector<std::uint8_t>& blob) {
  QuotaSnapshot s;
  WEBWAVE_REQUIRE(QuotaWireTable::Deserialize(blob.data(), blob.size(), &s),
                  "netd daemon handed a corrupt quota blob");
  return s;
}

}  // namespace

CacheServerDaemon::CacheServerDaemon(const NetdClusterConfig& config,
                                     int server_index, int listen_fd,
                                     std::vector<std::uint16_t> ports)
    : config_(config),
      index_(server_index),
      listen_fd_(listen_fd),
      ports_(std::move(ports)),
      tree_(RoutingTree::FromParents(config.parents)),
      table_(SnapshotFromBlob(config.quota_blob)),
      owner_(config.owner),
      peers_(static_cast<std::size_t>(config.server_count)),
      flight_(&clock_, kFlightCapacity) {
  WEBWAVE_REQUIRE(config.serving.block_size == 1,
                  "netd requires block_size == 1 (the order-free admission "
                  "regime) so async fleets stay bit-comparable to the oracle");
  ServingOptions opt = config.serving;
  opt.threads = 1;  // a forked daemon must never spawn threads
  plane_ = std::make_unique<ServingPlane>(tree_, table_, opt);
  for (NodeId v = 0; v < tree_.size(); ++v)
    if (owner_[static_cast<std::size_t>(v)] == index_) shard_.push_back(v);
  plane_->SetSegmentNodes(Span<const NodeId>(shard_.data(), shard_.size()));
  if (!config.down.empty())
    plane_->SetDownNodes(Span<const NodeId>(config.down.data(), config.down.size()));
  plane_->AttachRegistry(&registry_, "serve.");
  reg_net_forwards_ = registry_.Counter("netd.net_forwards");
  reg_gossip_sent_ = registry_.Counter("netd.gossip_sent");
  reg_shed_forwards_ = registry_.Counter("netd.shed_forwards");
  reg_reconnects_ = registry_.Counter("netd.reconnects");
  reg_outbox_peak_ = registry_.Gauge("netd.outbox_peak_bytes");
  hist_serve_ = hists_.Register("netd.serve_time_ns");
}

CacheServerDaemon::~CacheServerDaemon() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

int CacheServerDaemon::Run() {
  // ListenTcp's listeners already are; one handed in from elsewhere may
  // not be, and a blocking accept would stall the loop.
  MakeNonBlocking(listen_fd_);
  flight_.Note(FlightEventKind::kBoot, static_cast<std::uint64_t>(index_),
               epoch_);
  loop_.WatchRead(listen_fd_, [this] { OnAcceptable(); });
  if (config_.server_count > 1) ScheduleGossip();
  const int code = loop_.Run();
  DumpFlightOnShutdown();
  return code;
}

void CacheServerDaemon::OnAcceptable() {
  for (;;) {
    const int fd = AcceptTcp(listen_fd_);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      return;  // transient accept failure; poll will retry
    }
    AdoptConn(fd);
  }
}

void CacheServerDaemon::AdoptConn(int fd) {
  conns_[fd] = std::make_unique<FrameConn>(fd);
  flight_.Note(FlightEventKind::kConnUp, static_cast<std::uint64_t>(fd),
               /*arg=*/0);  // arg 0: accepted (incoming) conn
  loop_.WatchRead(fd, [this, fd] { OnConnReadable(fd); });
}

void CacheServerDaemon::OnConnReadable(int fd) {
  const auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  const bool alive = it->second->OnReadable(
      [this, fd](const WireMessage& m) { OnFrame(fd, m); });
  // Replies to a half-closed client still go out before the conn goes.
  FlushQueued();
  if (!alive) DropConn(fd);
}

void CacheServerDaemon::DropConn(int fd) {
  const auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  NoteOutboxPeak(*it->second);
  flight_.Note(FlightEventKind::kConnDown, static_cast<std::uint64_t>(fd),
               /*arg=*/0);
  loop_.Unwatch(fd);
  conns_.erase(it);  // closes the fd
}

void CacheServerDaemon::FlushQueued() {
  for (auto it = conns_.begin(); it != conns_.end();) {
    const int fd = it->first;
    const bool queued = it->second->outbox_bytes() > 0;
    ++it;  // FlushConn may erase fd's entry
    if (queued) FlushConn(fd);
  }
  for (int s = 0; s < config_.server_count; ++s) {
    const PeerLink& link = peers_[static_cast<std::size_t>(s)];
    if (link.conn && link.conn->outbox_bytes() > 0) FlushPeer(s);
  }
}

void CacheServerDaemon::FlushConn(int fd) {
  const auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  FrameConn* c = it->second.get();
  if (!c->Flush() || c->closed()) {
    DropConn(fd);
    return;
  }
  loop_.SetWriteInterest(fd, c->want_write(), [this, fd] { FlushConn(fd); });
}

void CacheServerDaemon::OnFrame(int from_fd, const WireMessage& msg) {
  const std::uint64_t frame_detail =
      msg.type == MsgType::kGetRequest  ? msg.get.req_id
      : msg.type == MsgType::kGetReply  ? msg.reply.req_id
                                        : 0;
  flight_.Note(FlightEventKind::kFrameIn, frame_detail,
               static_cast<std::uint32_t>(msg.type));
  // Request service time: the serve decision plus queueing its reply or
  // forward.  The write itself comes once per read batch (FlushQueued).
  // Real wall-clock — shipped and dumped, never identity-asserted.
  const bool request = msg.type == MsgType::kGetRequest;
  const std::uint64_t t0 = request ? clock_.NowNanos() : 0;
  DispatchFrame(from_fd, msg);
  if (request) {
    const std::uint64_t t1 = clock_.NowNanos();
    hists_.At(hist_serve_).Record(t1 >= t0 ? t1 - t0 : 0);
  }
}

void CacheServerDaemon::DispatchFrame(int from_fd, const WireMessage& msg) {
  switch (msg.type) {
    case MsgType::kGetRequest:
      HandleRequest(from_fd, msg.get);
      break;
    case MsgType::kGetReply: {
      // A reply from upstream: retrace it to whoever handed us the
      // request.
      const auto it = pending_.find(msg.reply.req_id);
      if (it == pending_.end()) break;  // origin conn died meanwhile
      const int dest = it->second;
      pending_.erase(it);
      const auto cit = conns_.find(dest);
      if (cit != conns_.end()) cit->second->Send(msg.reply);
      break;
    }
    case MsgType::kLoadGossip:
      // Peers' load gossip: the frame exercises the wire, but no serving
      // decision reads it (admission is order-free at block size 1).
      break;
    case MsgType::kStatsRequest: {
      const auto it = conns_.find(from_fd);
      if (it != conns_.end()) {
        // v4: counters plus the request service-time histogram, so the
        // live scraper collects fleet-wide latency for free.  Live conns'
        // outbox peaks fold in here; dead ones folded when they went.
        for (const auto& entry : conns_) NoteOutboxPeak(*entry.second);
        for (const PeerLink& link : peers_)
          if (link.conn) NoteOutboxPeak(*link.conn);
        StatsReply reply;
        reply.counters = Counters();
        reply.hist = WireHistogram::From(hists_.At(hist_serve_));
        it->second->Send(reply);
        flight_.Note(FlightEventKind::kFrameOut, 0,
                     static_cast<std::uint32_t>(MsgType::kStatsReply));
      }
      break;
    }
    case MsgType::kFlightRequest: {
      // The flight scrape — how a victim's last milliseconds survive its
      // SIGKILL: the loadgen drains the fleet, asks for the ring, and
      // only kills once the reply (and the stats/trace scrapes) landed.
      const auto it = conns_.find(from_fd);
      if (it != conns_.end()) it->second->Send(FlightSnapshot());
      break;
    }
    case MsgType::kTraceRequest: {
      // The trace scrape: ship every TraceEvent this shard recorded.  The
      // loadgen merges and canonicalizes the per-daemon streams.
      const auto it = conns_.find(from_fd);
      if (it != conns_.end()) it->second->Send(plane_->trace());
      break;
    }
    case MsgType::kQuotaDelta:
      ApplyQuotaDelta(msg.delta);
      break;
    case MsgType::kEpochUpdate:
      ApplyEpochUpdate(msg.epoch_update);
      break;
    case MsgType::kHello:
      // The rejoin handshake: a loadgen Hello is answered with this
      // daemon's identity and current epoch, so the control node knows
      // which table the daemon is serving from (a fresh boot says 0 and
      // is then brought current by one delta).  Peer-server Hellos are
      // introductions only.
      if (msg.hello.kind == PeerKind::kLoadgen) {
        const auto it = conns_.find(from_fd);
        if (it != conns_.end()) {
          Hello h;
          h.kind = PeerKind::kServer;
          h.sender = static_cast<std::uint32_t>(index_);
          h.epoch = epoch_;
          it->second->Send(h);
        }
      }
      break;
    case MsgType::kShutdown:
      flight_.Note(FlightEventKind::kShutdown,
                   static_cast<std::uint64_t>(index_), epoch_);
      loop_.Stop(0);
      break;
    case MsgType::kStatsReply:
    case MsgType::kTraceReply:
    case MsgType::kFlightReply:
      break;  // never addressed to a daemon; ignore
  }
}

void CacheServerDaemon::HandleRequest(int from_fd, const GetRequest& req) {
  GetRequest fwd;
  GetReply reply;
  switch (plane_->ServeWireSegment(req, &fwd, &reply)) {
    case ServingPlane::WireServe::kServed:
    case ServingPlane::WireServe::kDropped: {
      const auto it = conns_.find(from_fd);
      if (it != conns_.end()) {
        it->second->Send(reply);
        flight_.Note(FlightEventKind::kFrameOut, reply.req_id,
                     static_cast<std::uint32_t>(MsgType::kGetReply));
      }
      break;
    }
    case ServingPlane::WireServe::kForwarded: {
      const int target = owner_[static_cast<std::size_t>(fwd.origin_node)];
      FrameConn* peer = ConnTo(target);
      constexpr std::size_t kFrameBytes =
          MessageCodec::kHeaderSize + MessageCodec::kGetRequestSize;
      if (peer->outbox_bytes() + kFrameBytes >
          config_.outbox_watermark_bytes) {
        // Bounded backpressure: shed into the failover path instead of
        // queueing unboundedly behind a slow or dead peer.  The plane's
        // oracle-compared counters are untouched — this is a transport
        // event, counted by netd.shed_forwards alone.
        GetReply shed;
        shed.req_id = req.req_id;
        shed.doc = req.doc;
        shed.serving_node = kNoNode;
        shed.result = GetResult::kDropped;
        shed.hops = fwd.ttl_hops;
        shed.load = 0;
        shed.version = epoch_;
        registry_.Add(reg_shed_forwards_, 1);
        const auto it = conns_.find(from_fd);
        if (it != conns_.end()) it->second->Send(shed);
        break;
      }
      pending_[req.req_id] = from_fd;
      peer->Send(fwd);
      registry_.Add(reg_net_forwards_, 1);
      flight_.Note(FlightEventKind::kFrameOut, fwd.req_id,
                   static_cast<std::uint32_t>(MsgType::kGetRequest));
      break;
    }
  }
}

FrameConn* CacheServerDaemon::ConnTo(int s) {
  WEBWAVE_REQUIRE(s != index_, "a shard never forwards to itself");
  PeerLink& link = peers_[static_cast<std::size_t>(s)];
  if (link.st == PeerLink::St::kIdle) {
    if (!link.conn) {
      // First contact: a fresh corked conn whose queue begins with this
      // daemon's introduction, so Hello always precedes any forward —
      // including across socket retries (the corked queue replays
      // whole).
      link.conn = std::make_unique<FrameConn>(-1);
      link.conn->set_connecting(true);
      Hello hello;
      hello.kind = PeerKind::kServer;
      hello.sender = static_cast<std::uint32_t>(index_);
      hello.epoch = epoch_;
      link.conn->Send(hello);
    }
    StartConnect(s);
  }
  return link.conn.get();
}

void CacheServerDaemon::StartConnect(int s) {
  PeerLink& link = peers_[static_cast<std::size_t>(s)];
  int err = 0;
  const int fd = DialTcp(ports_[static_cast<std::size_t>(s)], /*wait=*/false,
                         &err);
  link.conn->ResetFd(fd);
  link.st = PeerLink::St::kConnecting;
  if (err == 0) {
    FinishConnect(s);
    return;
  }
  if (err != EINPROGRESS) {
    ConnectFailed(s);
    return;
  }
  // In flight: writability signals the outcome, the timer bounds it.
  loop_.WatchRead(fd, [this, s] {
    // Readable while connecting means the handshake resolved (possibly
    // with an error); SO_ERROR disambiguates.
    CheckConnect(s);
  });
  loop_.SetWriteInterest(fd, true, [this, s] { CheckConnect(s); });
  link.timer = loop_.AddTimer(kConnectTimeoutMs, [this, s] {
    peers_[static_cast<std::size_t>(s)].timer_armed = false;
    ConnectFailed(s);
  });
  link.timer_armed = true;
}

void CacheServerDaemon::CheckConnect(int s) {
  PeerLink& link = peers_[static_cast<std::size_t>(s)];
  if (link.st != PeerLink::St::kConnecting || !link.conn ||
      link.conn->fd() < 0)
    return;
  int err = 0;
  socklen_t len = sizeof err;
  if (::getsockopt(link.conn->fd(), SOL_SOCKET, SO_ERROR, &err, &len) != 0)
    err = errno;
  if (err == 0) {
    FinishConnect(s);
  } else if (err != EINPROGRESS && err != EALREADY) {
    ConnectFailed(s);
  }
}

void CacheServerDaemon::FinishConnect(int s) {
  PeerLink& link = peers_[static_cast<std::size_t>(s)];
  CancelPeerTimer(s);
  link.st = PeerLink::St::kLive;
  link.attempts = 0;
  const int fd = link.conn->fd();
  link.conn->set_connecting(false);
  flight_.Note(FlightEventKind::kConnUp, static_cast<std::uint64_t>(s),
               /*arg=*/1);  // arg 1: outgoing peer link
  loop_.WatchRead(fd, [this, s] { OnPeerReadable(s); });
  FlushPeer(s);
}

void CacheServerDaemon::OnPeerReadable(int s) {
  PeerLink& link = peers_[static_cast<std::size_t>(s)];
  if (link.st != PeerLink::St::kLive || !link.conn) return;
  const bool alive = link.conn->OnReadable(
      [this, fd = link.conn->fd()](const WireMessage& m) { OnFrame(fd, m); });
  // A dead link's queue cannot be replayed: retire it before flushing.
  if (!alive) PeerConnDown(s);
  FlushQueued();
}

void CacheServerDaemon::ConnectFailed(int s) {
  PeerLink& link = peers_[static_cast<std::size_t>(s)];
  CancelPeerTimer(s);
  if (link.conn->fd() >= 0) {
    loop_.Unwatch(link.conn->fd());
    link.conn->ResetFd(-1);  // park: keep the corked queue, drop the socket
  }
  link.st = PeerLink::St::kIdle;
  link.attempts++;
  registry_.Add(reg_reconnects_, 1);
  const std::uint64_t delay = ReconnectDelayMs(s, link.attempts);
  link.timer = loop_.AddTimer(static_cast<int>(delay), [this, s] {
    PeerLink& l = peers_[static_cast<std::size_t>(s)];
    l.timer_armed = false;
    if (l.st == PeerLink::St::kIdle && l.conn) StartConnect(s);
  });
  link.timer_armed = true;
}

void CacheServerDaemon::PeerConnDown(int s) {
  // A live peer conn died (peer crashed or reset).  A partial frame may
  // already be on the dead wire, so the queue cannot be replayed —
  // discard the conn; the next forward makes a fresh one (ConnTo) and
  // counts the reconnect.
  PeerLink& link = peers_[static_cast<std::size_t>(s)];
  if (link.conn) {
    NoteOutboxPeak(*link.conn);
    if (link.conn->fd() >= 0) loop_.Unwatch(link.conn->fd());
  }
  CancelPeerTimer(s);
  link.conn.reset();
  link.st = PeerLink::St::kIdle;
  link.attempts = 0;
  registry_.Add(reg_reconnects_, 1);
  flight_.Note(FlightEventKind::kConnDown, static_cast<std::uint64_t>(s),
               /*arg=*/1);
}

void CacheServerDaemon::FlushPeer(int s) {
  PeerLink& link = peers_[static_cast<std::size_t>(s)];
  if (!link.conn || link.st != PeerLink::St::kLive) return;  // corked
  if (!link.conn->Flush() || link.conn->closed()) {
    PeerConnDown(s);
    return;
  }
  loop_.SetWriteInterest(link.conn->fd(), link.conn->want_write(),
                         [this, s] { FlushPeer(s); });
}

void CacheServerDaemon::CancelPeerTimer(int s) {
  PeerLink& link = peers_[static_cast<std::size_t>(s)];
  if (link.timer_armed) {
    loop_.CancelTimer(link.timer);
    link.timer_armed = false;
  }
}

std::uint64_t CacheServerDaemon::ReconnectDelayMs(
    int s, std::uint32_t attempt) const {
  // Same dither law as serving backoff (serving_plane.cpp): a unit
  // double hashed from (key, attempt) scales an exponentially growing
  // slot window; here one slot is one millisecond.  key mixes the
  // ordered server pair so no two links share a phase.
  std::uint64_t pair = 0x9e3779b97f4a7c15ULL *
                           static_cast<std::uint64_t>(index_ + 1) +
                       static_cast<std::uint64_t>(s);
  const std::uint64_t key = SplitMix64(pair);
  const double u = CounterUnitDouble(key + 0xd1342543de82ef95ULL * attempt);
  const std::uint32_t cap = attempt < 16 ? attempt : 16;
  const double window = static_cast<double>(1ULL << cap);
  return 1 + static_cast<std::uint64_t>(u * window);
}

void CacheServerDaemon::ApplyQuotaDelta(const QuotaDelta& delta) {
  WEBWAVE_REQUIRE(QuotaWireTable::ApplyDelta(delta, &table_),
                  "netd daemon handed an inapplicable quota delta");
  plane_->Refresh(table_);
  epoch_ = delta.epoch;
  plane_->SetTableVersion(epoch_);
  flight_.Note(FlightEventKind::kEpoch, epoch_,
               static_cast<std::uint32_t>(MsgType::kQuotaDelta));
}

void CacheServerDaemon::ApplyEpochUpdate(const EpochUpdate& update) {
  // Stateless by design: overrides apply to a fresh copy of the boot
  // map, so the same frame lands identically on a daemon that saw every
  // epoch and one that just rebooted.
  owner_ = config_.owner;
  for (const OwnerDelta& d : update.reassign)
    owner_[static_cast<std::size_t>(d.node)] = static_cast<int>(d.owner);
  shard_.clear();
  for (NodeId v = 0; v < tree_.size(); ++v)
    if (owner_[static_cast<std::size_t>(v)] == index_) shard_.push_back(v);
  plane_->SetSegmentNodes(Span<const NodeId>(shard_.data(), shard_.size()));
  plane_->SetDownNodes(
      Span<const NodeId>(update.down.data(), update.down.size()));
  flight_.Note(FlightEventKind::kEpoch, update.epoch,
               static_cast<std::uint32_t>(MsgType::kEpochUpdate));
}

void CacheServerDaemon::ScheduleGossip() {
  loop_.AddTimer(kGossipPeriodMs, [this] {
    GossipTick();
    ScheduleGossip();
  });
}

void CacheServerDaemon::GossipTick() {
  flight_.Note(FlightEventKind::kTimerFire, gossip_epoch_,
               /*arg=*/0);  // the gossip cadence, the daemon's steady timer
  if (shard_.empty()) return;
  LoadGossip g;
  g.node = shard_.front();
  g.epoch = gossip_epoch_++;
  g.load = static_cast<double>(plane_->metrics().requests);
  const int target = (index_ + 1) % config_.server_count;
  if (target == index_) return;
  FrameConn* peer = ConnTo(target);
  peer->Send(g);
  registry_.Add(reg_gossip_sent_, 1);
  FlushPeer(target);
}

void CacheServerDaemon::NoteOutboxPeak(const FrameConn& c) {
  const std::size_t peak = c.outbox_peak();
  if (static_cast<std::int64_t>(peak) > registry_.gauge(reg_outbox_peak_))
    registry_.Set(reg_outbox_peak_, static_cast<std::int64_t>(peak));
}

FlightReply CacheServerDaemon::FlightSnapshot() {
  FlightReply reply;
  reply.events = flight_.Snapshot();
  for (FlightEvent& e : reply.events)
    e.node = static_cast<std::uint8_t>(index_);
  return reply;
}

void CacheServerDaemon::DumpFlightOnShutdown() {
  if (config_.flight_dir.empty()) return;
  const std::string path = config_.flight_dir + "/flight_" +
                           std::to_string(index_) + ".txt";
  const std::string doc =
      FlightRecorder::Dump(FlightSnapshot().events,
                           static_cast<std::uint8_t>(index_));
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;  // best-effort: a dump never fails a shutdown
  std::fwrite(doc.data(), 1, doc.size(), f);
  std::fclose(f);
}

WireCounters CacheServerDaemon::Counters() const {
  WireCounters c = CountersFromMetrics(plane_->metrics());
  c.net_forwards = registry_.counter(reg_net_forwards_);
  c.gossip_sent = registry_.counter(reg_gossip_sent_);
  c.shed_forwards = registry_.counter(reg_shed_forwards_);
  c.reconnects = registry_.counter(reg_reconnects_);
  c.outbox_peak_bytes =
      static_cast<std::uint64_t>(registry_.gauge(reg_outbox_peak_));
  return c;
}

}  // namespace webwave
