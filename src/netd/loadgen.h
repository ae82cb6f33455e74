// LoadgenClient — the deterministic request driver for a netd fleet.
//
// Request i is the pure function NetdRequestAt(seed, i, ...), numbered
// req_id = i, and sent to the daemon owning its origin node.  Pacing is
// a token bucket refilled from the event loop's timer wheel
// (tokens_per_tick per tick) under an in-flight window, so the socket
// buffers stay bounded no matter how large the stream is.  When every
// reply is in, the client collects each daemon's WireCounters via
// kStatsRequest (and, when tracing, each daemon's TraceEvent stream via
// kTraceRequest) and shuts the fleet down with kShutdown frames.
//
// Live scraping: with stats_scrape_period_ms > 0 the client also polls
// the whole fleet's counters on a repeating timer *while requests are
// in flight*, recording each round as a NetdStatsSample.  At most one
// stats round is ever outstanding (the final round defers until a
// mid-run scrape drains), so per-connection FIFO makes every reply's
// attribution unambiguous.
//
// Multi-epoch orchestration (PR 9): with config.epochs set the client
// doubles as the fleet's control node.  At each epoch boundary it
// quiesces (in-flight drains to zero by construction: sends are capped
// at the epoch's end), scrapes any kill victim's counters and trace
// (the `retired` record — the boundary is quiesced, so this is exactly
// the victim's final state), invokes the kill/restart hooks, waits for
// each restarted daemon's rejoin Hello, ships every live daemon its
// kQuotaDelta (diffed from whatever table epoch that daemon last
// acknowledged — 0 for a fresh boot) plus the stateless kEpochUpdate,
// and runs a kStatsRequest barrier round before resuming the stream.
// Per-connection FIFO makes the barrier an acknowledgement that the
// delta and update landed.  Barrier samples keep dead servers' slots
// zero; their last state lives in NetdRunResult::retired.
//
// Determinism note: pacing shapes *when* requests enter the fleet, never
// *what* they are or how they are decided — admission runs block_size=1,
// so the counters the fleet reports are invariant to all of this timing.
// That includes the load-reactive window (load_window_factor), which
// only throttles injection when replies report hot shards.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
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
  // What the current epoch-boundary handshake is waiting on.  kNone is
  // normal streaming; the other states suppress sends and periodic
  // scrapes until the boundary completes.
  enum class Boundary : std::uint8_t {
    kNone,
    kVictimStats,  // victims' pre-kill kStatsReply (+kTraceReply)
    kRejoin,       // restarted daemons' Hello replies
    kBarrier,      // post-update kStatsReply from every live daemon
  };

  void ConnectAll();
  void ConnectOne(int s);
  void DropServerConn(int s);
  std::vector<int> OpenConnFds() const;
  void ScheduleRefill();
  void TrySend();
  void AdaptWindow(double load);
  void OnFrame(int server, const WireMessage& msg);
  // Writes every conn's queued frames.  Sends only queue, so each read
  // batch and each timer callback ends with one FlushAll: a pass of
  // TrySend or a control round costs one write(2) per daemon.
  void FlushAll();
  // Flushes one conn; POLLOUT stays on only while the socket is full.
  void FlushConn(int server);
  // Mid-run scraping: a repeating timer fires StartScrape, which issues
  // one kStatsRequest round unless one is already in flight (or the run
  // has moved to its final phases / an epoch boundary).
  void ScheduleScrape();
  void StartScrape();
  // The epoch-boundary sequence, in firing order.
  void BeginBoundary();
  // Runs DoKillsAndRestarts off a 0 ms timer: the reply that completes a
  // victim scrape arrives through the victim's own conn, which it drops.
  void ScheduleKills();
  void DoKillsAndRestarts();
  void ShipEpoch();
  void FinishBoundary();
  const QuotaSnapshot& Snap(std::size_t epoch);
  std::size_t EpochCount() const {
    return config_.epochs.empty() ? 1 : config_.epochs.size();
  }
  // The epoch the stream is currently serving under (owner map source).
  const std::vector<int>& OwnerMap() const {
    return config_.epochs.empty() ? config_.owner
                                  : config_.epochs[epoch_].owner;
  }
  // The end-of-run sequence: final stats round -> trace dump (if the
  // plane traces) -> flight-ring dump -> kShutdown to every daemon.
  void BeginFinalStats();
  void BeginTraceDump();
  void BeginFlightDump();
  void Shutdown();

  const NetdClusterConfig& config_;
  std::vector<std::uint16_t> ports_;
  int nodes_ = 0;

  EventLoop loop_;
  std::vector<std::unique_ptr<FrameConn>> conns_;  // index = server

  std::uint64_t next_ = 0;       // next req_id to send
  std::uint64_t completed_ = 0;  // replies received
  std::uint64_t in_flight_ = 0;
  int tokens_ = 0;
  std::uint64_t window_cur_ = 0;  // live window (load-reactive)
  bool stats_phase_ = false;  // the *final* stats round is in flight
  int stats_received_ = 0;
  // One mid-run scrape round at a time; a completion that lands while a
  // scrape is outstanding defers the final round until it drains.
  bool scrape_outstanding_ = false;
  int scrape_received_ = 0;
  NetdStatsSample scrape_sample_;
  bool final_pending_ = false;
  bool boundary_pending_ = false;
  bool trace_phase_ = false;
  int trace_received_ = 0;
  bool flight_phase_ = false;
  int flight_received_ = 0;
  bool shutdown_sent_ = false;
  bool failed_ = false;

  // Latency plane (PR 10): send timestamps per in-flight req_id, so a
  // kGetReply can be bucketed into the per-epoch and per-server
  // histograms.  Pure observation — pacing and admission never read it.
  SteadyClock clock_;
  std::unordered_map<std::uint64_t, std::uint64_t> sent_ns_;

  // Multi-epoch state.
  std::size_t epoch_ = 0;        // epoch the stream is serving under
  std::uint64_t epoch_end_ = 0;  // stream index where this epoch ends
  Boundary boundary_ = Boundary::kNone;
  std::vector<bool> live_;
  int live_count_ = 0;
  std::vector<std::uint32_t> server_epoch_;  // table epoch per daemon
  std::size_t victim_replies_needed_ = 0;
  std::size_t victim_replies_ = 0;
  int rejoin_needed_ = 0;
  NetdStatsSample barrier_sample_;
  int barrier_received_ = 0;
  // Lazily decoded epoch tables, for diffing deltas.
  std::vector<QuotaSnapshot> snaps_;
  std::vector<bool> snap_ready_;
  KillFn kill_fn_;
  RestartFn restart_fn_;

  NetdRunResult* result_ = nullptr;
};

}  // namespace webwave
