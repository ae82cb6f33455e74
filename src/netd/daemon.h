// CacheServerDaemon — one forked netd process serving its shard of the
// carved tree over loopback sockets.
//
// The daemon deserializes the cluster's shared QuotaWireTable blob into
// its own single-threaded ServingPlane, installs its shard as the
// plane's segment set, and answers GetRequests with ServeWireSegment:
// requests that terminate in the shard are replied to on the arriving
// connection; walks that leave the shard are forwarded to the owning
// peer's socket, with a pending map retracing the reply hop by hop back
// to the client.  A 20 ms event-loop timer emits LoadGossip to the next
// server on the ring — the transport-plane heartbeat; gossip counters
// are reported but (unlike the serving counters) not oracle-compared.
//
// Survivability (PR 9) — see src/netd/README.md for the full state
// machine:
//   * Peer connects are non-blocking with an event-loop deadline; while
//     connecting the FrameConn is corked, so forwards queue as whole
//     frames and replay cleanly if the socket has to be remade.  A
//     failed attempt schedules a retry under the same counter-hash
//     dither law as serving backoff (1 ms slots), so every daemon's
//     reconnect schedule is a pure function of (server pair, attempt).
//   * A forward that would push a peer conn's outbox past the
//     watermark is shed into the failover path: the origin gets a
//     synthesized kDropped reply and netd.shed_forwards counts it; the
//     plane's oracle-compared counters are never touched.
//   * Epoch control frames keep a (possibly restarted) daemon current:
//     kQuotaDelta patches the boot table row-by-row (bit-exact whole-row
//     splice) and refreshes the plane; kEpochUpdate installs the down
//     set and the re-homed ownership map as base + sparse overrides.
//     A loadgen Hello is answered with Hello{kServer, index, epoch} —
//     the rejoin handshake that tells the control node which table the
//     daemon is serving from.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "netd/cluster.h"
#include "netd/conn.h"
#include "netd/event_loop.h"
#include "obs/clock.h"
#include "obs/flight_recorder.h"
#include "obs/latency_histogram.h"
#include "obs/metric_registry.h"
#include "wire/quota_wire.h"

namespace webwave {

class CacheServerDaemon {
 public:
  // Takes ownership of listen_fd.  `ports` are every server's loopback
  // ports (index = server), for lazy peer connects.
  CacheServerDaemon(const NetdClusterConfig& config, int server_index,
                    int listen_fd, std::vector<std::uint16_t> ports);
  ~CacheServerDaemon();

  // Serves until a kShutdown frame arrives.  Returns the exit code.
  int Run();

 private:
  // Outgoing peer connection lifecycle: kIdle (no socket) ->
  // kConnecting (non-blocking connect or backoff wait; conn corked) ->
  // kLive (uncorked, flushing).  A live conn that dies goes back to
  // kIdle with its outbox discarded (a partial frame may have left, so
  // the queue cannot be replayed); the next forward reconnects.
  struct PeerLink {
    enum class St : std::uint8_t { kIdle, kConnecting, kLive };
    St st = St::kIdle;
    std::unique_ptr<FrameConn> conn;
    std::uint32_t attempts = 0;  // failed connects since last success
    std::uint64_t timer = 0;     // connect-deadline or backoff timer id
    bool timer_armed = false;
  };

  void OnAcceptable();
  void AdoptConn(int fd);
  void DropConn(int fd);
  // Read callbacks: dispatch the batch, then FlushQueued.  Members, not
  // lambda bodies, because a conn-down inside them unwatches the fd and
  // destroys the calling closure.
  void OnConnReadable(int fd);
  void OnPeerReadable(int s);  // a live outgoing peer link
  // Writes every connection's queued frames: once per read batch, so a
  // batch's replies and forwards cost one write(2) per connection.
  void FlushQueued();
  // Flushes one conn; asks the loop for POLLOUT only while the socket
  // still refuses bytes (EAGAIN), and retires the conn if the peer died.
  void FlushConn(int fd);
  void OnFrame(int from_fd, const WireMessage& msg);
  void DispatchFrame(int from_fd, const WireMessage& msg);
  void HandleRequest(int from_fd, const GetRequest& req);
  // The connection to peer server `s`, starting a non-blocking connect
  // (and queueing Hello) on first use.  Always returns a conn frames can
  // be queued on; it may still be corked.
  FrameConn* ConnTo(int s);
  void StartConnect(int s);
  void CheckConnect(int s);     // writable while connecting: SO_ERROR
  void FinishConnect(int s);    // uncork, watch, flush
  void ConnectFailed(int s);    // park + counter-hash backoff retry
  void PeerConnDown(int s);     // a live peer conn died
  void FlushPeer(int s);        // FlushConn for a live peer link
  void CancelPeerTimer(int s);
  // Dither-phased retry delay in ms for attempt `attempt` to server `s`
  // — same hash law as serving backoff, 1 ms slots.
  std::uint64_t ReconnectDelayMs(int s, std::uint32_t attempt) const;
  void ApplyQuotaDelta(const QuotaDelta& delta);
  void ApplyEpochUpdate(const EpochUpdate& update);
  void ScheduleGossip();
  void GossipTick();
  void NoteOutboxPeak(const FrameConn& c);
  WireCounters Counters() const;
  // Stamps this daemon's index into a ring snapshot for the wire.
  FlightReply FlightSnapshot();
  void DumpFlightOnShutdown();

  const NetdClusterConfig& config_;
  const int index_;
  int listen_fd_;
  std::vector<std::uint16_t> ports_;

  RoutingTree tree_;
  std::unique_ptr<ServingPlane> plane_;
  std::vector<NodeId> shard_;  // nodes this daemon owns
  // Epoch state: the table the plane serves from (patched in place by
  // kQuotaDelta), the current ownership map (base + kEpochUpdate
  // overrides) and which epoch both belong to.  A fresh boot is always
  // epoch 0 — the shared boot blob and base owner map.
  QuotaSnapshot table_;
  std::vector<int> owner_;
  std::uint32_t epoch_ = 0;

  EventLoop loop_;
  // Accepted (incoming) connections, keyed by fd.  Outgoing peer conns
  // live in peers_ instead so they survive socket retries.
  std::unordered_map<int, std::unique_ptr<FrameConn>> conns_;
  std::vector<PeerLink> peers_;  // server -> outgoing link
  // req_id -> fd the request arrived on; how a reply retraces the
  // forward chain.  Walks climb the tree, preorder positions only
  // decrease, so a request visits each shard at most once and the map
  // holds at most one entry per in-flight request.
  std::unordered_map<std::uint64_t, int> pending_;

  std::uint32_t gossip_epoch_ = 0;
  // The daemon's metrics live in a MetricRegistry: the plane publishes
  // its serving counters under "serve." (AttachRegistry) and the
  // transport-level extras are registered here — Counters() reads the
  // registry, so kStatsReply and the registry can never disagree.
  MetricRegistry registry_;
  MetricRegistry::Id reg_net_forwards_{}, reg_gossip_sent_{};
  MetricRegistry::Id reg_shed_forwards_{}, reg_reconnects_{};
  MetricRegistry::Id reg_outbox_peak_{};  // gauge: high-water mark, bytes

  // The latency plane (PR 10).  Daemons run in real time, so timing data
  // is real wall-clock — it ships over the wire and into dumps but never
  // into an identity assertion.  All histograms live in a
  // HistogramRegistry so exposition and the wire read the same store.
  SteadyClock clock_;
  HistogramRegistry hists_;
  HistogramRegistry::Id hist_serve_{};  // kGetRequest service time
  FlightRecorder flight_;
};

}  // namespace webwave
