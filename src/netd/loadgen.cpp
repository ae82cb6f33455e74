#include "netd/loadgen.h"

#include <algorithm>

#include "util/check.h"

namespace webwave {

namespace {
// Hard ceiling on one fleet run; a hung daemon fails the run instead of
// wedging the harness (and CI) forever.
constexpr int kRunTimeoutMs = 120000;
// The load-reactive window never shrinks below this: progress must
// continue even when every reply reports a hot shard.
constexpr std::uint64_t kMinWindow = 16;
// Injection tokens per timer-wheel tick, and the in-flight window the
// load-reactive window recovers up to.
constexpr int kTokensPerTick = 2048;
constexpr std::uint64_t kWindow = 4096;
}  // namespace

LoadgenClient::LoadgenClient(const NetdClusterConfig& config,
                             std::vector<std::uint16_t> ports)
    : config_(config),
      ports_(std::move(ports)),
      nodes_(static_cast<int>(config.parents.size())) {
  WEBWAVE_REQUIRE(config_.docs > 0 && config_.total_requests > 0,
                  "loadgen needs a catalog and a stream length");
}

void LoadgenClient::ConnectOne(int s) {
  // Blocking connect on purpose: the listen socket is held open by the
  // parent for the whole run, so the kernel completes the handshake
  // immediately (backlog) even if the daemon has not polled yet — true
  // for the initial fleet and for a just-restarted daemon alike.
  int err = 0;
  const int fd =
      DialTcp(ports_[static_cast<std::size_t>(s)], /*wait=*/true, &err);
  WEBWAVE_REQUIRE(err == 0, "connect() to a daemon failed");
  conns_[static_cast<std::size_t>(s)] = std::make_unique<FrameConn>(fd);
  loop_.WatchRead(fd, [this, s] {
    FrameConn* c = conns_[static_cast<std::size_t>(s)].get();
    if (c == nullptr) return;
    const bool alive =
        c->OnReadable([this, s](const WireMessage& m) { OnFrame(s, m); });
    FlushAll();
    if (!alive && !shutdown_sent_) {
      failed_ = true;  // a daemon died under us, unscheduled
      loop_.Stop(1);
    }
  });
  Hello hello;
  hello.kind = PeerKind::kLoadgen;
  hello.sender = 0;
  conns_[static_cast<std::size_t>(s)]->Send(hello);
}

std::vector<int> LoadgenClient::OpenConnFds() const {
  std::vector<int> fds;
  for (const auto& c : conns_)
    if (c) fds.push_back(c->fd());
  return fds;
}

std::vector<int> LoadgenClient::LiveServers() const {
  std::vector<int> out;
  for (int s = 0; s < config_.server_count; ++s)
    if (live_[static_cast<std::size_t>(s)]) out.push_back(s);
  return out;
}

void LoadgenClient::ScheduleRefill() {
  loop_.AddTimer(0, [this] {
    tokens_ = kTokensPerTick;
    TrySend();
    FlushAll();
    if (next_ < config_.total_requests) ScheduleRefill();
  });
}

void LoadgenClient::TrySend() {
  if (round_.kind == RoundKind::kVictims ||
      round_.kind == RoundKind::kRejoin || round_.kind == RoundKind::kBarrier)
    return;
  while (next_ < epoch_end_ && tokens_ > 0 && in_flight_ < window_cur_) {
    const Request r =
        NetdRequestAt(config_.stream_seed, next_, nodes_, config_.docs);
    GetRequest g;
    g.req_id = next_;
    g.doc = r.doc;
    g.origin_node = r.node;
    // The client applies the same counter-hash sampling law the oracle
    // does, so the fleet traces exactly the requests the oracle traces.
    if (config_.serving.trace &&
        TraceSampled(kTraceSeed, next_, config_.serving.trace_sample_shift))
      g.flags |= kGetFlagTrace;
    const int s = OwnerMap()[static_cast<std::size_t>(r.node)];
    sent_ns_[next_] = clock_.NowNanos();
    conns_[static_cast<std::size_t>(s)]->Send(g);
    ++next_;
    ++in_flight_;
    --tokens_;
  }
}

void LoadgenClient::AdaptWindow(double load) {
  if (config_.load_window_factor <= 0) return;
  // `load` is the serving shard's own request tally; a fair share is
  // completed / server_count.  Hot shard -> halve, otherwise creep back
  // up.  Pacing only: decisions are order-free at block_size = 1.
  const double fair = std::max(
      static_cast<double>(completed_) /
          static_cast<double>(config_.server_count),
      1.0);
  if (load > config_.load_window_factor * fair)
    window_cur_ = std::max(window_cur_ / 2, kMinWindow);
  else if (window_cur_ < kWindow)
    ++window_cur_;
}

void LoadgenClient::OnFrame(int server, const WireMessage& msg) {
  switch (msg.type) {
    case MsgType::kGetReply: {
      ++completed_;
      --in_flight_;
      // Send->reply latency, attributed to the serving epoch block and
      // to the daemon that delivered the reply.  Observability only:
      // nothing downstream of these histograms affects pacing.
      const auto sent = sent_ns_.find(msg.reply.req_id);
      if (sent != sent_ns_.end()) {
        const std::uint64_t now = clock_.NowNanos();
        const std::uint64_t lat = now >= sent->second ? now - sent->second : 0;
        result_->latency_per_epoch[epoch_].Record(lat);
        result_->latency_per_server[static_cast<std::size_t>(server)].Record(
            lat);
        sent_ns_.erase(sent);
      }
      if (msg.reply.result == GetResult::kServed) {
        ++result_->client_served;
        result_->client_hop_sum += msg.reply.hops;
      } else {
        ++result_->client_dropped;
      }
      AdaptWindow(msg.reply.load);
      TrySend();
      if (completed_ == epoch_end_) EndBlock();
      break;
    }
    case MsgType::kStatsReply:
    case MsgType::kTraceReply:
    case MsgType::kFlightReply:
    case MsgType::kHello:
      FileReply(server, msg);
      break;
    default:
      break;  // daemons never push anything else at a client
  }
}

void LoadgenClient::ScheduleScrape() {
  loop_.AddTimer(config_.stats_scrape_period_ms, [this] {
    // Skipped, not queued, while another round is outstanding.
    if (round_.kind == RoundKind::kNone)
      StartRound(RoundKind::kScrape, LiveServers());
    FlushAll();
    if (round_.kind != RoundKind::kFinal) ScheduleScrape();
  });
}

void LoadgenClient::StartRound(RoundKind kind,
                               const std::vector<int>& servers) {
  const bool dump = kind == RoundKind::kVictims || kind == RoundKind::kFinal;
  const std::size_t per_server =
      dump ? (config_.serving.trace ? 3u : 2u) : 1u;
  round_.kind = kind;
  round_.due = servers.size() * per_server;
  round_.sample.at_completed = completed_;
  round_.sample.per_server.assign(
      static_cast<std::size_t>(config_.server_count), WireCounters{});
  round_.sample.hist_per_server.assign(
      static_cast<std::size_t>(config_.server_count), LatencyHistogram{});
  // A rejoin round sends nothing: ConnectOne already sent the restarted
  // daemon our Hello, and its Hello reply is the one reply due.
  if (kind != RoundKind::kRejoin) {
    for (const int s : servers) {
      FrameConn* c = conns_[static_cast<std::size_t>(s)].get();
      c->SendControl(MsgType::kStatsRequest);
      if (dump && config_.serving.trace)
        c->SendControl(MsgType::kTraceRequest);
      if (dump) c->SendControl(MsgType::kFlightRequest);
    }
  }
  if (round_.due == 0) EndRound();
}

void LoadgenClient::FileReply(int server, const WireMessage& msg) {
  // Only a restarted daemon's Hello reply belongs to a round.  The
  // initial fleet's replies land ahead of epoch 0's replies (FIFO),
  // before any boundary.
  if (msg.type == MsgType::kHello && round_.kind != RoundKind::kRejoin)
    return;
  WEBWAVE_REQUIRE(round_.due > 0, "a control reply outside any round");
  const bool victim = round_.kind == RoundKind::kVictims;
  switch (msg.type) {
    case MsgType::kHello:
      WEBWAVE_REQUIRE(msg.hello.sender == static_cast<std::uint32_t>(server),
                      "rejoin Hello from the wrong daemon");
      result_->rejoin_hello_epochs.push_back(msg.hello.epoch);
      break;
    case MsgType::kStatsReply:
      if (victim) {
        result_->retired.push_back(msg.stats);
        result_->retired_hist.push_back(msg.stats_hist.ToHistogram());
      } else {
        round_.sample.per_server[static_cast<std::size_t>(server)] =
            msg.stats;
        round_.sample.hist_per_server[static_cast<std::size_t>(server)] =
            msg.stats_hist.ToHistogram();
      }
      break;
    case MsgType::kTraceReply:
      result_->trace.insert(result_->trace.end(), msg.trace.begin(),
                            msg.trace.end());
      break;
    default: {
      // A flight ring: a victim's crash-surviving copy, or a live
      // daemon's at end of run.  Events carry the sender's node index.
      NetdRunResult::FlightDump dump;
      dump.server = server;
      dump.victim = victim;
      dump.events = msg.flight.events;
      result_->flights.push_back(std::move(dump));
      break;
    }
  }
  if (--round_.due == 0) EndRound();
}

void LoadgenClient::EndRound() {
  switch (round_.kind) {
    case RoundKind::kScrape:
      result_->samples.push_back(std::move(round_.sample));
      round_.kind = RoundKind::kNone;
      if (block_end_queued_) {
        block_end_queued_ = false;
        EndBlock();
      }
      break;
    case RoundKind::kVictims:
      // Never tear the delivering conn down inside its own read callback.
      loop_.AddTimer(0, [this] {
        DoKillsAndRestarts();
        FlushAll();
      });
      break;
    case RoundKind::kRejoin:
      ShipEpoch();
      break;
    case RoundKind::kBarrier:
      FinishBoundary();
      break;
    case RoundKind::kFinal:
      // The end-of-run sample is every live daemon's final tally.
      result_->per_server = round_.sample.per_server;
      result_->server_hist = round_.sample.hist_per_server;
      result_->samples.push_back(std::move(round_.sample));
      Shutdown();
      break;
    case RoundKind::kNone:
      break;
  }
}

void LoadgenClient::EndBlock() {
  if (round_.kind == RoundKind::kScrape) {
    block_end_queued_ = true;
    return;
  }
  if (epoch_ + 1 == EpochCount()) {
    StartRound(RoundKind::kFinal, LiveServers());
    return;
  }
  const NetdEpoch& ep = config_.epochs[epoch_ + 1];
  for (const int s : ep.kill_servers) {
    WEBWAVE_REQUIRE(live_[static_cast<std::size_t>(s)],
                    "killing a server that is already dead");
    WEBWAVE_REQUIRE(s != 0, "server 0 owns the root and must survive");
  }
  StartRound(RoundKind::kVictims, ep.kill_servers);
}

void LoadgenClient::DoKillsAndRestarts() {
  const NetdEpoch& ep = config_.epochs[epoch_ + 1];
  for (const int s : ep.kill_servers) {
    WEBWAVE_REQUIRE(kill_fn_ != nullptr, "no kill hook installed");
    // Drop our conn first: after SIGKILL the socket would EOF anyway,
    // and the boundary is quiesced so nothing is left unread on it.
    loop_.Unwatch(conns_[static_cast<std::size_t>(s)]->fd());
    conns_[static_cast<std::size_t>(s)].reset();
    kill_fn_(s);
    live_[static_cast<std::size_t>(s)] = false;
  }
  for (const int s : ep.restart_servers) {
    WEBWAVE_REQUIRE(!live_[static_cast<std::size_t>(s)],
                    "restarting a server that is still live");
    WEBWAVE_REQUIRE(restart_fn_ != nullptr, "no restart hook installed");
    restart_fn_(s, OpenConnFds());
    ConnectOne(s);  // Hello goes out; the daemon's Hello reply rejoins
    live_[static_cast<std::size_t>(s)] = true;
    server_epoch_[static_cast<std::size_t>(s)] = 0;  // fresh boot state
  }
  StartRound(RoundKind::kRejoin, ep.restart_servers);
}

void LoadgenClient::ShipEpoch() {
  const std::size_t e = epoch_ + 1;
  const NetdEpoch& ep = config_.epochs[e];
  const std::vector<OwnerDelta> reassign = OwnerDiff(config_.owner, ep.owner);
  const std::vector<int> live = LiveServers();
  for (const int s : live) {
    // Each daemon's delta starts from whatever table it actually has —
    // the previous epoch for survivors, the boot table for a rejoiner.
    QuotaDelta delta;
    WEBWAVE_REQUIRE(
        QuotaWireTable::DiffSnapshots(
            snaps_[server_epoch_[static_cast<std::size_t>(s)]], snaps_[e],
            &delta),
        "epoch snapshots must be diffable");
    delta.epoch = static_cast<std::uint32_t>(e);
    EpochUpdate up;
    up.epoch = static_cast<std::uint32_t>(e);
    up.down = ep.down;
    up.reassign = reassign;
    FrameConn* c = conns_[static_cast<std::size_t>(s)].get();
    c->Send(delta);
    c->Send(up);
    server_epoch_[static_cast<std::size_t>(s)] =
        static_cast<std::uint32_t>(e);
  }
  // FIFO barrier: each Stats reply acknowledges that both control frames
  // above were applied before any epoch-e request arrives.
  StartRound(RoundKind::kBarrier, live);
}

void LoadgenClient::FinishBoundary() {
  result_->epoch_samples.push_back(std::move(round_.sample));
  round_.kind = RoundKind::kNone;
  ++epoch_;
  epoch_end_ += config_.epochs[epoch_].requests;
  TrySend();
}

void LoadgenClient::Shutdown() {
  shutdown_sent_ = true;
  for (const int s : LiveServers()) {
    FrameConn* c = conns_[static_cast<std::size_t>(s)].get();
    c->SendControl(MsgType::kShutdown);
    c->Flush();
  }
  loop_.Stop(0);
}

void LoadgenClient::FlushAll() {
  for (int s = 0; s < config_.server_count; ++s) {
    const FrameConn* c = conns_[static_cast<std::size_t>(s)].get();
    if (c != nullptr && c->outbox_bytes() > 0) FlushConn(s);
  }
}

void LoadgenClient::FlushConn(int server) {
  FrameConn* c = conns_[static_cast<std::size_t>(server)].get();
  if (c == nullptr) return;
  // A dead daemon surfaces as EOF on the read side; the write result
  // adds nothing.
  c->Flush();
  loop_.SetWriteInterest(c->fd(), c->want_write(),
                         [this, server] { FlushConn(server); });
}

bool LoadgenClient::Run(NetdRunResult* result) {
  result_ = result;
  result_->per_server.assign(static_cast<std::size_t>(config_.server_count),
                             WireCounters{});
  result_->latency_per_epoch.assign(EpochCount(), LatencyHistogram{});
  result_->latency_per_server.assign(
      static_cast<std::size_t>(config_.server_count), LatencyHistogram{});
  result_->server_hist.assign(static_cast<std::size_t>(config_.server_count),
                              LatencyHistogram{});
  // The client's own event loop reports into the result directly — its
  // stalls are the pacing jitter every latency sample rides on.
  EventLoop::LatencySink sink;
  sink.clock = &clock_;
  sink.poll_iter = &result_->loop_poll_iter;
  sink.timer_lag = &result_->loop_timer_lag;
  sink.max_stall_ns = &result_->loop_max_stall_ns;
  loop_.AttachLatencyPlane(sink);
  live_.assign(static_cast<std::size_t>(config_.server_count), true);
  server_epoch_.assign(static_cast<std::size_t>(config_.server_count), 0);
  epoch_ = 0;
  epoch_end_ = config_.epochs.empty() ? config_.total_requests
                                      : config_.epochs[0].requests;
  window_cur_ = kWindow;
  // The epoch tables every delta is diffed between (epoch 0 is the boot
  // table).
  snaps_.resize(config_.epochs.size());
  for (std::size_t e = 0; e < snaps_.size(); ++e) {
    const std::vector<std::uint8_t>& blob = config_.epochs[e].quota_blob;
    WEBWAVE_REQUIRE(
        QuotaWireTable::Deserialize(blob.data(), blob.size(), &snaps_[e]),
        "loadgen handed a corrupt epoch blob");
  }
  conns_.resize(static_cast<std::size_t>(config_.server_count));
  for (int s = 0; s < config_.server_count; ++s) ConnectOne(s);
  FlushAll();
  ScheduleRefill();
  if (config_.stats_scrape_period_ms > 0) ScheduleScrape();
  loop_.AddTimer(kRunTimeoutMs, [this] {
    failed_ = true;
    loop_.Stop(2);
  });
  const int code = loop_.Run();
  return code == 0 && !failed_;
}

}  // namespace webwave
