// LoadgenClient — the deterministic request generator for a netd fleet,
// and the fleet's only coordinator.
//
// Request i is the pure function NetdRequestAt(seed, i, ...), numbered
// req_id = i, and sent to the daemon owning its origin node.  Pacing is
// one rule: request i is sent only after request i - kWindow has been
// answered.  It bounds every queue however long the stream is (at most
// kWindow requests in flight, each one frame of at most 40 B, ~160 KiB),
// and it keeps each in-flight req_id alone in its slot of a kWindow-slot
// send-stamp ring.
//
// Everything else is a control round: requests to some servers, a count
// of replies still due, and one continuation when the last one lands.
//
//   round     addressed to       asks each server      then
//   kScrape   live servers       Stats                 push the sample
//   kVictims  boundary victims   Stats, Trace*, Flight kill / restart
//   kRejoin   restarted servers  (their Hello reply)   ship the epoch
//   kBarrier  live servers       delta, update, Stats  resume the stream
//   kFinal    live servers       Stats, Trace*, Flight sample, shutdown
//   (* when tracing)
//
// At most one round is outstanding, so per-connection FIFO attributes
// every reply.  With stats_scrape_period_ms > 0 a timer starts kScrape
// rounds mid-run, skipped while another round is outstanding.  When an
// epoch block drains, nothing is in flight (sends are capped at the
// block's end), so the fleet is quiesced: the client starts the next
// boundary's kVictims round, or kFinal after the last block, queued one
// deep behind a scrape that is still outstanding.  Victims' replies are their
// final state (NetdRunResult::retired); the kills run off a 0 ms timer,
// never inside the read callback of the conn that delivered the reply.
// A daemon's delta is diffed from the table epoch it last acknowledged
// (0 for a fresh boot), and the barrier's Stats reply acknowledges it.
// No request is sent while a victim, rejoin or barrier round is current.
//
// Determinism note: pacing shapes *when* requests enter the fleet, never
// *what* they are or how they are decided — admission runs block_size=1,
// so the counters the fleet reports are invariant to all of this timing.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "netd/cluster.h"
#include "netd/conn.h"
#include "netd/event_loop.h"
#include "obs/clock.h"
#include "wire/quota_wire.h"

namespace webwave {

class LoadgenClient {
 public:
  // Kill: SIGKILL + reap server s (synchronous).  Restart: re-fork
  // server s on its original listen fd; the second argument is every
  // socket fd the loadgen currently holds open, which the forked child
  // must close.
  using KillFn = std::function<void(int)>;
  using RestartFn = std::function<void(int, const std::vector<int>&)>;

  LoadgenClient(const NetdClusterConfig& config,
                std::vector<std::uint16_t> ports);

  void SetFaultHooks(KillFn kill, RestartFn restart) {
    kill_fn_ = std::move(kill);
    restart_fn_ = std::move(restart);
  }

  // Drives the whole stream, fills result's per-server counters and
  // client tallies.  Returns false if the run timed out or a connection
  // died before completion.
  bool Run(NetdRunResult* result);

 private:
  enum class RoundKind : std::uint8_t {
    kNone,  // no round: streaming
    kScrape,
    kVictims,
    kRejoin,
    kBarrier,
    kFinal,
  };
  // The one outstanding control round.  A round stays current until its
  // continuation hands over: a scrape and a barrier close, a victim round
  // lasts until the kills run, and the final round never closes.
  struct Round {
    RoundKind kind = RoundKind::kNone;
    std::size_t due = 0;     // replies still due
    NetdStatsSample sample;  // scrape, barrier and final Stats replies
  };

  void ConnectOne(int s);
  std::vector<int> OpenConnFds() const;
  std::vector<int> LiveServers() const;
  // Sends the stream up to the block's end, while the window allows.
  void TrySend();
  void OnFrame(int server, const WireMessage& msg);
  // Writes every conn's queued frames.  Sends only queue, so each read
  // batch and each timer callback ends with one FlushAll: a pass of
  // TrySend or a control round costs one write(2) per daemon.
  void FlushAll();
  // Flushes one conn; POLLOUT stays on only while the socket is full.
  void FlushConn(int server);
  void ScheduleScrape();
  // Sends `servers` the requests of `kind` and makes it the current
  // round; a round with nothing due ends at once.
  void StartRound(RoundKind kind, const std::vector<int>& servers);
  // Files one control reply into the current round; the last one due
  // runs EndRound.
  void FileReply(int server, const WireMessage& msg);
  // Runs the current round's continuation.
  void EndRound();
  // The epoch block drained: start the boundary or the final round, or
  // queue it behind an outstanding scrape.
  void EndBlock();
  void DoKillsAndRestarts();
  void ShipEpoch();
  void FinishBoundary();
  void Shutdown();
  std::size_t EpochCount() const {
    return config_.epochs.empty() ? 1 : config_.epochs.size();
  }
  // The epoch the stream is currently serving under (owner map source).
  const std::vector<int>& OwnerMap() const {
    return config_.epochs.empty() ? config_.owner
                                  : config_.epochs[epoch_].owner;
  }

  const NetdClusterConfig& config_;
  std::vector<std::uint16_t> ports_;
  int nodes_ = 0;

  EventLoop loop_;
  std::vector<std::unique_ptr<FrameConn>> conns_;  // index = server

  std::uint64_t next_ = 0;       // next req_id to send
  std::uint64_t completed_ = 0;  // replies received
  Round round_;
  bool block_end_queued_ = false;  // the one-deep queue behind a scrape
  bool shutdown_sent_ = false;
  bool failed_ = false;

  // The in-flight window: request i's send stamp lives in slot
  // i % kWindow, and a free slot is the window's permission to send.
  // The stamps feed the latency plane: a kGetReply is bucketed
  // into the per-epoch and per-server histograms.
  static constexpr std::uint64_t kWindow = 4096;
  static constexpr std::uint64_t kFreeSlot = ~std::uint64_t{0};
  struct SendStamp {
    std::uint64_t req_id = kFreeSlot;  // the request in flight, if any
    std::uint64_t sent_ns = 0;
  };
  SteadyClock clock_;
  std::vector<SendStamp> stamps_;

  // Multi-epoch state.
  std::size_t epoch_ = 0;        // epoch the stream is serving under
  std::uint64_t epoch_end_ = 0;  // stream index where this epoch ends
  std::vector<bool> live_;
  std::vector<std::uint32_t> server_epoch_;  // table epoch per daemon
  std::vector<QuotaSnapshot> snaps_;  // decoded epoch tables
  KillFn kill_fn_;
  RestartFn restart_fn_;

  NetdRunResult* result_ = nullptr;
};

}  // namespace webwave
