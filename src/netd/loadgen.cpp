#include "netd/loadgen.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "util/check.h"

namespace webwave {

namespace {
// Hard ceiling on one fleet run; a hung daemon fails the run instead of
// wedging the harness (and CI) forever.
constexpr int kRunTimeoutMs = 120000;
// The load-reactive window never shrinks below this: progress must
// continue even when every reply reports a hot shard.
constexpr std::uint64_t kMinWindow = 16;
}  // namespace

LoadgenClient::LoadgenClient(const NetdClusterConfig& config,
                             std::vector<std::uint16_t> ports)
    : config_(config),
      ports_(std::move(ports)),
      nodes_(static_cast<int>(config.parents.size())) {
  WEBWAVE_REQUIRE(config_.docs > 0 && config_.total_requests > 0,
                  "loadgen needs a catalog and a stream length");
}

void LoadgenClient::ConnectAll() {
  conns_.resize(static_cast<std::size_t>(config_.server_count));
  for (int s = 0; s < config_.server_count; ++s) ConnectOne(s);
}

void LoadgenClient::ConnectOne(int s) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  WEBWAVE_REQUIRE(fd >= 0, "socket() failed");
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof addr);
  addr.sin_family = AF_INET;
  addr.sin_port = htons(ports_[static_cast<std::size_t>(s)]);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  // Blocking connect on purpose: the listen socket is held open by the
  // parent for the whole run, so the kernel completes the handshake
  // immediately (backlog) even if the daemon has not polled yet — true
  // for the initial fleet and for a just-restarted daemon alike.
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
  } while (rc < 0 && errno == EINTR);
  WEBWAVE_REQUIRE(rc == 0, "connect() to a daemon failed");
  MakeNonBlocking(fd);
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

void LoadgenClient::DropServerConn(int s) {
  FrameConn* c = conns_[static_cast<std::size_t>(s)].get();
  if (c == nullptr) return;
  loop_.Unwatch(c->fd());
  conns_[static_cast<std::size_t>(s)].reset();
}

std::vector<int> LoadgenClient::OpenConnFds() const {
  std::vector<int> fds;
  for (const auto& c : conns_)
    if (c) fds.push_back(c->fd());
  return fds;
}

void LoadgenClient::ScheduleRefill() {
  loop_.AddTimer(0, [this] {
    tokens_ = config_.tokens_per_tick;
    TrySend();
    FlushAll();
    if (next_ < config_.total_requests) ScheduleRefill();
  });
}

void LoadgenClient::TrySend() {
  if (boundary_ != Boundary::kNone) return;
  while (next_ < epoch_end_ && tokens_ > 0 && in_flight_ < window_cur_) {
    const Request r =
        NetdRequestAt(config_.stream_seed, next_, nodes_, config_.docs);
    GetRequest g;
    g.req_id = next_;
    g.doc = r.doc;
    g.origin_node = r.node;
    g.ttl_hops = 0;
    g.failed = 0;
    // The client applies the same counter-hash sampling law the oracle
    // does, so the fleet traces exactly the requests the oracle traces.
    if (config_.serving.trace &&
        TraceSampled(config_.serving.trace_seed, next_,
                     config_.serving.trace_sample_shift))
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
  else if (window_cur_ < static_cast<std::uint64_t>(config_.window))
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
      if (completed_ != epoch_end_) break;
      // Epoch block drained — in_flight_ is zero by construction (sends
      // are capped at epoch_end_), so the fleet is quiesced.  If a live
      // scrape round is still in flight its replies must not be
      // confused with a boundary's or the final round's — defer.
      if (epoch_ + 1 < EpochCount()) {
        if (scrape_outstanding_)
          boundary_pending_ = true;
        else
          BeginBoundary();
      } else if (!stats_phase_) {
        if (scrape_outstanding_)
          final_pending_ = true;
        else
          BeginFinalStats();
      }
      break;
    }
    case MsgType::kStatsReply: {
      const LatencyHistogram reply_hist =
          msg.stats_hist.present ? msg.stats_hist.ToHistogram()
                                 : LatencyHistogram{};
      if (scrape_outstanding_) {
        // A mid-run scrape reply (FIFO per connection; no other round
        // is ever issued while a scrape is outstanding).
        scrape_sample_.per_server[static_cast<std::size_t>(server)] =
            msg.stats;
        scrape_sample_.hist_per_server[static_cast<std::size_t>(server)] =
            reply_hist;
        if (++scrape_received_ == live_count_) {
          scrape_outstanding_ = false;
          result_->samples.push_back(scrape_sample_);
          if (boundary_pending_) {
            boundary_pending_ = false;
            BeginBoundary();
          } else if (final_pending_) {
            final_pending_ = false;
            BeginFinalStats();
          }
        }
        break;
      }
      if (boundary_ == Boundary::kVictimStats) {
        // The victim's final state: the boundary is quiesced, so this
        // scrape is exactly what the daemon dies knowing.  The kills
        // must run off this stack: this frame arrived through the
        // victim's own FrameConn::OnReadable, and DoKillsAndRestarts
        // destroys that conn.
        result_->retired.push_back(msg.stats);
        result_->retired_hist.push_back(reply_hist);
        if (++victim_replies_ == victim_replies_needed_) ScheduleKills();
        break;
      }
      if (boundary_ == Boundary::kBarrier) {
        barrier_sample_.per_server[static_cast<std::size_t>(server)] =
            msg.stats;
        barrier_sample_.hist_per_server[static_cast<std::size_t>(server)] =
            reply_hist;
        if (++barrier_received_ == live_count_) FinishBoundary();
        break;
      }
      result_->per_server[static_cast<std::size_t>(server)] = msg.stats;
      result_->server_hist[static_cast<std::size_t>(server)] = reply_hist;
      if (++stats_received_ == live_count_) {
        // The end-of-run sample: what a scraper polling at this instant
        // would see, which by now is every live daemon's final tally.
        NetdStatsSample final_sample;
        final_sample.at_completed = completed_;
        final_sample.per_server = result_->per_server;
        final_sample.hist_per_server = result_->server_hist;
        result_->samples.push_back(std::move(final_sample));
        if (config_.serving.trace)
          BeginTraceDump();
        else
          BeginFlightDump();
      }
      break;
    }
    case MsgType::kTraceReply: {
      result_->trace.insert(result_->trace.end(), msg.trace.begin(),
                            msg.trace.end());
      if (boundary_ == Boundary::kVictimStats) {
        // Same re-entrancy hazard as the stats branch above: never tear
        // the delivering conn down from inside its own read callback.
        if (++victim_replies_ == victim_replies_needed_) ScheduleKills();
        break;
      }
      if (++trace_received_ == live_count_) BeginFlightDump();
      break;
    }
    case MsgType::kFlightReply: {
      // A daemon's flight ring: scraped from a victim ahead of its
      // SIGKILL (the crash-surviving copy), or from every live daemon at
      // end of run.  Events arrive already stamped with the sender's
      // node index.
      NetdRunResult::FlightDump dump;
      dump.server = server;
      dump.victim = boundary_ == Boundary::kVictimStats;
      dump.events = msg.flight.events;
      result_->flights.push_back(std::move(dump));
      if (boundary_ == Boundary::kVictimStats) {
        if (++victim_replies_ == victim_replies_needed_) ScheduleKills();
        break;
      }
      if (++flight_received_ == live_count_) Shutdown();
      break;
    }
    case MsgType::kHello: {
      // The rejoin handshake: a restarted daemon answering our Hello
      // with its identity and boot epoch.  (The initial fleet's Hello
      // replies all land before the first epoch boundary — per-conn
      // FIFO puts them ahead of epoch 0's replies — so they are simply
      // ignored here.)
      if (boundary_ != Boundary::kRejoin) break;
      WEBWAVE_REQUIRE(msg.hello.sender ==
                          static_cast<std::uint32_t>(server),
                      "rejoin Hello from the wrong daemon");
      result_->rejoin_hello_epochs.push_back(msg.hello.epoch);
      if (--rejoin_needed_ == 0) ShipEpoch();
      break;
    }
    default:
      break;  // daemons never push anything else at a client
  }
}

void LoadgenClient::ScheduleScrape() {
  loop_.AddTimer(config_.stats_scrape_period_ms, [this] {
    StartScrape();
    FlushAll();
    if (!stats_phase_ && !shutdown_sent_) ScheduleScrape();
  });
}

void LoadgenClient::StartScrape() {
  if (scrape_outstanding_ || stats_phase_ || shutdown_sent_ ||
      boundary_ != Boundary::kNone)
    return;
  scrape_outstanding_ = true;
  scrape_received_ = 0;
  scrape_sample_.at_completed = completed_;
  scrape_sample_.per_server.assign(
      static_cast<std::size_t>(config_.server_count), WireCounters{});
  scrape_sample_.hist_per_server.assign(
      static_cast<std::size_t>(config_.server_count), LatencyHistogram{});
  for (int s = 0; s < config_.server_count; ++s) {
    if (!live_[static_cast<std::size_t>(s)]) continue;
    conns_[static_cast<std::size_t>(s)]->SendControl(MsgType::kStatsRequest);
  }
}

void LoadgenClient::BeginBoundary() {
  const NetdEpoch& ep = config_.epochs[epoch_ + 1];
  if (ep.kill_servers.empty()) {
    boundary_ = Boundary::kVictimStats;  // degenerate: nothing to scrape
    DoKillsAndRestarts();
    return;
  }
  boundary_ = Boundary::kVictimStats;
  victim_replies_ = 0;
  // Per victim: counters (+hist), flight ring, and — when tracing — the
  // trace buffer.  All scraped at the quiesced boundary, so together
  // they are exactly what the daemon dies knowing.
  victim_replies_needed_ =
      ep.kill_servers.size() * (config_.serving.trace ? 3u : 2u);
  for (const int s : ep.kill_servers) {
    WEBWAVE_REQUIRE(live_[static_cast<std::size_t>(s)],
                    "killing a server that is already dead");
    WEBWAVE_REQUIRE(s != 0, "server 0 owns the root and must survive");
    conns_[static_cast<std::size_t>(s)]->SendControl(MsgType::kStatsRequest);
    if (config_.serving.trace)
      conns_[static_cast<std::size_t>(s)]->SendControl(
          MsgType::kTraceRequest);
    conns_[static_cast<std::size_t>(s)]->SendControl(
        MsgType::kFlightRequest);
  }
}

void LoadgenClient::ScheduleKills() {
  loop_.AddTimer(0, [this] {
    DoKillsAndRestarts();
    FlushAll();
  });
}

void LoadgenClient::DoKillsAndRestarts() {
  const NetdEpoch& ep = config_.epochs[epoch_ + 1];
  for (const int s : ep.kill_servers) {
    WEBWAVE_REQUIRE(kill_fn_ != nullptr, "no kill hook installed");
    // Drop our conn first: after SIGKILL the socket would EOF anyway,
    // and the boundary is quiesced so nothing is left unread on it.
    DropServerConn(s);
    kill_fn_(s);
    live_[static_cast<std::size_t>(s)] = false;
    --live_count_;
  }
  rejoin_needed_ = static_cast<int>(ep.restart_servers.size());
  if (rejoin_needed_ == 0) {
    ShipEpoch();
    return;
  }
  boundary_ = Boundary::kRejoin;
  for (const int s : ep.restart_servers) {
    WEBWAVE_REQUIRE(!live_[static_cast<std::size_t>(s)],
                    "restarting a server that is still live");
    WEBWAVE_REQUIRE(restart_fn_ != nullptr, "no restart hook installed");
    restart_fn_(s, OpenConnFds());
    ConnectOne(s);  // Hello goes out; the daemon's Hello reply rejoins
    live_[static_cast<std::size_t>(s)] = true;
    ++live_count_;
    server_epoch_[static_cast<std::size_t>(s)] = 0;  // fresh boot state
  }
}

void LoadgenClient::ShipEpoch() {
  const std::size_t e = epoch_ + 1;
  const NetdEpoch& ep = config_.epochs[e];
  const std::vector<OwnerDelta> reassign = OwnerDiff(config_.owner, ep.owner);
  for (int s = 0; s < config_.server_count; ++s) {
    if (!live_[static_cast<std::size_t>(s)]) continue;
    // Each daemon's delta starts from whatever table it actually has —
    // the previous epoch for survivors, the boot table for a rejoiner.
    QuotaDelta delta;
    WEBWAVE_REQUIRE(
        QuotaWireTable::DiffSnapshots(
            Snap(server_epoch_[static_cast<std::size_t>(s)]), Snap(e),
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
    // FIFO barrier: the stats reply acknowledges that both control
    // frames above were applied before any epoch-e request arrives.
    c->SendControl(MsgType::kStatsRequest);
    server_epoch_[static_cast<std::size_t>(s)] =
        static_cast<std::uint32_t>(e);
  }
  boundary_ = Boundary::kBarrier;
  barrier_received_ = 0;
  barrier_sample_.at_completed = completed_;
  barrier_sample_.per_server.assign(
      static_cast<std::size_t>(config_.server_count), WireCounters{});
  barrier_sample_.hist_per_server.assign(
      static_cast<std::size_t>(config_.server_count), LatencyHistogram{});
}

void LoadgenClient::FinishBoundary() {
  result_->epoch_samples.push_back(barrier_sample_);
  ++epoch_;
  epoch_end_ += config_.epochs[epoch_].requests;
  boundary_ = Boundary::kNone;
  TrySend();
}

void LoadgenClient::BeginFinalStats() {
  stats_phase_ = true;
  for (int s = 0; s < config_.server_count; ++s) {
    if (!live_[static_cast<std::size_t>(s)]) continue;
    conns_[static_cast<std::size_t>(s)]->SendControl(MsgType::kStatsRequest);
  }
}

void LoadgenClient::BeginTraceDump() {
  trace_phase_ = true;
  for (int s = 0; s < config_.server_count; ++s) {
    if (!live_[static_cast<std::size_t>(s)]) continue;
    conns_[static_cast<std::size_t>(s)]->SendControl(MsgType::kTraceRequest);
  }
}

void LoadgenClient::BeginFlightDump() {
  flight_phase_ = true;
  for (int s = 0; s < config_.server_count; ++s) {
    if (!live_[static_cast<std::size_t>(s)]) continue;
    conns_[static_cast<std::size_t>(s)]->SendControl(MsgType::kFlightRequest);
  }
}

void LoadgenClient::Shutdown() {
  shutdown_sent_ = true;
  for (int s = 0; s < config_.server_count; ++s) {
    if (!live_[static_cast<std::size_t>(s)] ||
        !conns_[static_cast<std::size_t>(s)])
      continue;
    conns_[static_cast<std::size_t>(s)]->SendControl(MsgType::kShutdown);
    conns_[static_cast<std::size_t>(s)]->Flush();
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

const QuotaSnapshot& LoadgenClient::Snap(std::size_t epoch) {
  if (snaps_.empty()) {
    snaps_.resize(EpochCount());
    snap_ready_.assign(EpochCount(), false);
  }
  if (!snap_ready_[epoch]) {
    const std::vector<std::uint8_t>& blob =
        epoch == 0 ? config_.quota_blob : config_.epochs[epoch].quota_blob;
    WEBWAVE_REQUIRE(QuotaWireTable::Deserialize(blob.data(), blob.size(),
                                                &snaps_[epoch]),
                    "loadgen handed a corrupt epoch blob");
    snap_ready_[epoch] = true;
  }
  return snaps_[epoch];
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
  live_count_ = config_.server_count;
  server_epoch_.assign(static_cast<std::size_t>(config_.server_count), 0);
  epoch_ = 0;
  epoch_end_ = config_.epochs.empty() ? config_.total_requests
                                      : config_.epochs[0].requests;
  window_cur_ = static_cast<std::uint64_t>(config_.window);
  ConnectAll();
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
