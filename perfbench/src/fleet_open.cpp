// fleet_open — the socket transport under an open-loop client.
//
// A ~1.2·10⁵-node subtree carved from a fixed 10⁶-node random tree (as
// tab_netd carves), DerivePlacement quotas at block size 1, two forked
// CacheServerDaemons over loopback, and this file's own single-thread
// open-loop client: one connection per daemon, request i =
// NetdRequestAt(seed, i) sent to its origin's owner (PartitionOwners) at
// its intended time on a fixed ladder of offered rates.  Latency runs
// from each request's intended send time to its reply, so a stalled
// client or fleet is charged for every request queued behind the stall.
//
// The client is the benchmark's, not the product loadgen: that one paces
// with tick-released tokens and stamps at enqueue time, and a benchmark
// reading those stamps would change meaning when they are fixed.
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <vector>

#include "common.h"
#include "doc/placement.h"
#include "netd/cluster.h"
#include "netd/conn.h"
#include "netd/daemon.h"
#include "obs/latency_histogram.h"
#include "serve/quota_snapshot.h"
#include "tree/builders.h"
#include "util/rng.h"
#include "wire/codec.h"
#include "wire/quota_wire.h"

namespace perfbench {
namespace {

using namespace webwave;

constexpr std::uint64_t kTreeSeed = 0xf1ee7ULL;
// Two daemons leave one core of a 4-vCPU host to the client and one to
// the kernel's loopback traffic; with three, every core is busy and the
// over-capacity reply rate swung by a fifth between runs.
constexpr int kServers = 2;
constexpr int kDocs = 16;
// Documents 0..kCachedDocs-1 carry the placement's demand; the rest have
// none, so they stay home-only and every request for them climbs to the
// home, crossing daemons on the forward path.
constexpr int kCachedDocs = 15;

// The fixed rate ladder, requests/s.  Never derived from a measured
// saturation: the same rungs run on every host and every commit.  The
// over-capacity rungs offer far more than any host this benchmark
// targets can serve; the median of their reply rates is the fleet's
// throughput.  They are spread through the ladder so the median samples
// the host at five separate moments of the run.
struct Rung {
  double rate;     // offered requests/s
  double seconds;  // sending time at full --seconds = 10 scale
  bool over;       // an over-capacity rung
};
const Rung kLadder[] = {
    {50000, 0.5, false},   {5000000, 0.12, true}, {50000, 1.5, false},
    {5000000, 0.12, true}, {100000, 2.0, false},  {5000000, 0.12, true},
    {200000, 2.0, false},  {5000000, 0.12, true}, {400000, 1.5, false},
    {5000000, 0.12, true}};
constexpr int kRungs = sizeof kLadder / sizeof kLadder[0];
// Rung 0 warms the fleet (first-touch page faults, connection set-up)
// and is excluded from the SLO search.
constexpr int kWarmupRungs = 1;
constexpr int kMidRung = 4;  // latency is reported at this rung (100k)
constexpr double kSloP99Ms = 5.0;  // the ladder's latency limit
// A rung whose replies have not all arrived this long after its last
// intended send failed to drain.
constexpr double kDrainTimeoutS = 30.0;
// Client scheduling granularity: the loop sleeps at most until the next
// intended send, but never less than this, so each round sends a batch.
constexpr std::int64_t kTickNs = 50000;

struct Shape {
  int big_nodes;
  int carve_target;
  double scale;  // multiplies every rung's sending time
};

Shape ShapeFor(const RunOptions& o) {
  if (o.small) return {60000, 1200, 0.1};
  return {1000000, 120000, static_cast<double>(o.seconds) / 10.0};
}

int ListenLoopback(std::uint16_t* port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof addr);
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof addr;
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, 128) != 0 ||
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0)
    throw std::runtime_error("loopback listen failed");
  *port = ntohs(addr.sin_port);
  return fd;
}

int ConnectLoopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof addr);
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0)
    throw std::runtime_error("connect to a daemon failed");
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  MakeNonBlocking(fd);
  return fd;
}

// The carved tree, its placement and the cluster config every daemon
// and the oracle are built from.
struct Deployment {
  NetdClusterConfig config;
  double tree_s = 0, place_s = 0;
};

Deployment Deploy(const Shape& shape, const RunOptions& o,
                  std::uint64_t total_requests, Tracer& tracer) {
  Deployment d;
  std::uint64_t t = NowNs();
  std::vector<NodeId> parents;
  {
    ScopedSpan span(tracer, "tree.build");
    Rng rng(kTreeSeed);
    const RoutingTree big = MakeRandomTree(shape.big_nodes, rng);
    // The proper subtree closest to the carve target (first in preorder
    // on ties).
    NodeId pivot = big.root();
    int best = big.size();
    for (const NodeId v : big.preorder()) {
      const int gap = std::abs(big.subtree_size(v) - shape.carve_target);
      if (!big.is_root(v) && gap < best) {
        pivot = v;
        best = gap;
      }
    }
    parents = CarveSubtree(big, pivot).parents;
  }
  const RoutingTree tree = RoutingTree::FromParents(parents);
  d.tree_s = Seconds(NowNs() - t);

  t = NowNs();
  QuotaSnapshot snapshot;
  {
    ScopedSpan span(tracer, "doc.place");
    DemandMatrix demand(tree.size(), kDocs);
    Rng drng(7);
    for (NodeId v = 0; v < tree.size(); ++v)
      if (tree.is_leaf(v))
        for (DocId doc = 0; doc < kCachedDocs; ++doc)
          demand.set(v, doc, drng.NextDouble(0.1, 4.0));
    const PlacementResult placement = DerivePlacement(tree, demand);
    snapshot = QuotaSnapshot::FromPlacement(tree, placement, demand, 1e-9);
  }
  d.place_s = Seconds(NowNs() - t);

  {
    ScopedSpan span(tracer, "wire.quota_blob");
    QuotaWireTable::Serialize(snapshot, &d.config.quota_blob);
  }
  d.config.parents = tree.parents();
  d.config.owner = PartitionOwners(tree, kServers);
  d.config.server_count = kServers;
  d.config.serving.block_size = 1;
  // Daemons always serve single-threaded; this sets the oracle's workers.
  d.config.serving.threads = o.threads;
  d.config.docs = kDocs;
  d.config.stream_seed = o.seed;
  d.config.total_requests = total_requests;
  // Forwards are never shed: a shed forward would leave the fleet's
  // counters short of the oracle's, and the ladder's over-capacity rung
  // queues far past the product's 1 MiB default.
  d.config.outbox_watermark_bytes = std::size_t{1} << 30;
  return d;
}

// The forked fleet plus the client's end of one connection per daemon.
class Fleet {
 public:
  explicit Fleet(const NetdClusterConfig& config) {
    ::signal(SIGPIPE, SIG_IGN);
    std::vector<int> listen_fds(kServers);
    std::vector<std::uint16_t> ports(kServers);
    for (int s = 0; s < kServers; ++s)
      listen_fds[static_cast<std::size_t>(s)] =
          ListenLoopback(&ports[static_cast<std::size_t>(s)]);
    std::fflush(stdout);
    for (int s = 0; s < kServers; ++s) {
      const pid_t pid = ::fork();
      if (pid < 0) throw std::runtime_error("fork() failed");
      if (pid == 0) {
        for (int u = 0; u < kServers; ++u)
          if (u != s) ::close(listen_fds[static_cast<std::size_t>(u)]);
        int code = 3;
        try {
          CacheServerDaemon daemon(config, s,
                                   listen_fds[static_cast<std::size_t>(s)],
                                   ports);
          code = daemon.Run();
        } catch (...) {
        }
        ::_exit(code);
      }
      pids_.push_back(pid);
    }
    for (const int fd : listen_fds) ::close(fd);
    for (int s = 0; s < kServers; ++s) {
      Conn c;
      c.fd = ConnectLoopback(ports[static_cast<std::size_t>(s)]);
      c.in = std::make_unique<FrameConn>(c.fd);
      conns_.push_back(std::move(c));
    }
    AwaitReady();
  }
  ~Fleet() { Shutdown(); }
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  // Sends kShutdown to every daemon, closes the connections and reaps the
  // processes (SIGKILL after a grace period).  Returns true when every
  // daemon exited 0 on its own.
  bool Shutdown() {
    if (pids_.empty()) return clean_;
    for (Conn& c : conns_) MessageCodec::EncodeControl(MsgType::kShutdown, &c.out);
    FlushAll();
    conns_.clear();  // FrameConn closes the fds
    bool clean = true;
    const std::uint64_t deadline = NowNs() + 10'000'000'000ULL;
    for (const pid_t pid : pids_) {
      int status = 0;
      for (;;) {
        const pid_t r = ::waitpid(pid, &status, WNOHANG);
        if (r == pid) {
          clean = clean && WIFEXITED(status) && WEXITSTATUS(status) == 0;
          break;
        }
        if (r < 0 && errno != EINTR) {
          clean = false;
          break;
        }
        if (NowNs() > deadline) {
          ::kill(pid, SIGKILL);
          ::waitpid(pid, &status, 0);
          clean = false;
          break;
        }
        ::usleep(1000);
      }
    }
    pids_.clear();
    clean_ = clean;
    return clean;
  }

  // The connect succeeds as soon as the kernel queues it, before the
  // daemon has built its plane; a Hello answered by every daemon proves
  // each event loop is serving, so that wait belongs to setup.
  void AwaitReady() {
    Hello hello;
    hello.kind = PeerKind::kLoadgen;
    for (Conn& c : conns_) MessageCodec::Encode(hello, &c.out);
    if (!FlushAll()) throw std::runtime_error("daemon hello failed");
    std::vector<pollfd> pfds(conns_.size());
    std::vector<bool> ready(conns_.size(), false);
    std::size_t have = 0;
    const std::uint64_t deadline = NowNs() + 30'000'000'000ULL;
    while (have < conns_.size()) {
      if (NowNs() > deadline)
        throw std::runtime_error("daemons did not answer Hello");
      for (std::size_t s = 0; s < conns_.size(); ++s)
        pfds[s] = {conns_[s].fd, POLLIN, 0};
      if (::poll(pfds.data(), pfds.size(), 100) <= 0) continue;
      for (std::size_t s = 0; s < conns_.size(); ++s) {
        if (!(pfds[s].revents & (POLLIN | POLLHUP | POLLERR))) continue;
        const bool alive = conns_[s].in->OnReadable([&](const WireMessage& m) {
          if (m.type == MsgType::kHello && !ready[s]) {
            ready[s] = true;
            ++have;
          }
        });
        if (!alive) throw std::runtime_error("a daemon died at startup");
      }
    }
  }

  struct Conn {
    int fd = -1;
    std::unique_ptr<FrameConn> in;  // owns fd; used for reads only
    std::vector<std::uint8_t> out;
    std::size_t out_start = 0;
  };
  std::vector<Conn>& conns() { return conns_; }

  // Writes queued output until every socket would block.  Returns false
  // when a connection died.
  bool FlushAll() {
    bool ok = true;
    for (Conn& c : conns_) {
      while (c.out_start < c.out.size()) {
        const ssize_t n = ::write(c.fd, c.out.data() + c.out_start,
                                  c.out.size() - c.out_start);
        if (n > 0) {
          c.out_start += static_cast<std::size_t>(n);
        } else if (n < 0 && errno == EINTR) {
          continue;
        } else {
          if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) ok = false;
          break;
        }
      }
      if (c.out_start == c.out.size()) {
        c.out.clear();
        c.out_start = 0;
      }
    }
    return ok;
  }

 private:
  std::vector<pid_t> pids_;
  std::vector<Conn> conns_;
  bool clean_ = true;
};

struct RungStats {
  double rate = 0;
  std::uint64_t first = 0, count = 0;
  std::vector<double> latency_ms;  // intended send -> reply
  std::vector<double> lateness_ms; // intended -> actual send
  double drain_s = 0;              // last reply after last intended send
  std::uint64_t inflight_at_end = 0;  // unanswered at the last intended send
  double reply_s = 0;              // rung start -> last reply
};

struct LadderResult {
  bool ok = true;  // every rung drained, no connection died
  std::vector<RungStats> rungs;
  std::uint64_t answered = 0, duplicates = 0, dropped = 0, stray = 0;
  std::vector<WireCounters> counters;
  std::vector<LatencyHistogram> serve_hist;
};

LadderResult RunLadder(Fleet& fleet, const NetdClusterConfig& config,
                       const Shape& shape, HostSpeed& host, Tracer& tracer) {
  LadderResult lr;
  const std::uint64_t total = config.total_requests;
  const int nodes = static_cast<int>(config.parents.size());
  std::vector<std::uint8_t> answered(total, 0);
  auto& conns = fleet.conns();
  std::vector<pollfd> pfds(conns.size());

  RungStats* cur = nullptr;
  std::uint64_t cur_t0 = 0;
  std::uint64_t replied_in_rung = 0;
  std::uint64_t last_reply_ns = 0;
  const auto on_frame = [&](const WireMessage& m) {
    if (m.type != MsgType::kGetReply) {
      ++lr.stray;
      return;
    }
    const std::uint64_t id = m.reply.req_id;
    if (id >= total) {
      ++lr.stray;
      return;
    }
    if (answered[id]) {
      ++lr.duplicates;
      return;
    }
    answered[id] = 1;
    ++lr.answered;
    if (m.reply.result == GetResult::kDropped) ++lr.dropped;
    const std::uint64_t now = NowNs();
    last_reply_ns = now;
    if (cur != nullptr && id >= cur->first && id < cur->first + cur->count) {
      ++replied_in_rung;
      const double intended =
          static_cast<double>(cur_t0) +
          static_cast<double>(id - cur->first) * 1e9 / cur->rate;
      cur->latency_ms.push_back((static_cast<double>(now) - intended) * 1e-6);
    } else {
      ++lr.stray;  // a reply outside the live rung: never expected
    }
  };
  const auto read_all = [&]() {
    for (std::size_t s = 0; s < conns.size(); ++s)
      if (pfds[s].revents & (POLLIN | POLLHUP | POLLERR))
        if (!conns[s].in->OnReadable(on_frame)) lr.ok = false;
  };

  std::uint64_t next_id = 0;
  for (int k = 0; k < kRungs && lr.ok; ++k) {
    if (kLadder[k].over) host.Probe(tracer);
    // The timed region is the rungs themselves, probes excluded.
    ScopedSpan root(tracer, "timed", static_cast<std::uint64_t>(k));
    RungStats rs;
    rs.rate = kLadder[k].rate;
    rs.first = next_id;
    rs.count = static_cast<std::uint64_t>(
        std::llround(kLadder[k].rate * kLadder[k].seconds * shape.scale));
    rs.latency_ms.reserve(rs.count);
    rs.lateness_ms.reserve(rs.count);
    lr.rungs.push_back(std::move(rs));
    cur = &lr.rungs.back();
    replied_in_rung = 0;
    cur_t0 = NowNs() + 1'000'000;  // first intended send 1 ms from now
    const std::uint64_t end = cur->first + cur->count;
    const double ns_per_req = 1e9 / cur->rate;
    const std::uint64_t last_intended =
        cur_t0 + static_cast<std::uint64_t>(
                     static_cast<double>(cur->count - 1) * ns_per_req);
    bool sending_done = false;
    while (replied_in_rung < cur->count && lr.ok) {
      std::uint64_t now = NowNs();
      {
        // The send path: encode every request now due, then write.
        ScopedSpan span(tracer, "client.send", k);
        if (next_id < end && now >= cur_t0) {
          const std::uint64_t due = std::min<std::uint64_t>(
              end, cur->first + 1 +
                       static_cast<std::uint64_t>(
                           static_cast<double>(now - cur_t0) / ns_per_req));
          for (; next_id < due; ++next_id) {
            const Request req =
                NetdRequestAt(config.stream_seed, next_id, nodes, config.docs);
            GetRequest g;
            g.req_id = next_id;
            g.doc = req.doc;
            g.origin_node = req.node;
            MessageCodec::Encode(
                g, &conns[static_cast<std::size_t>(
                              config.owner[static_cast<std::size_t>(req.node)])]
                        .out);
            const double intended =
                static_cast<double>(cur_t0) +
                static_cast<double>(next_id - cur->first) * ns_per_req;
            cur->lateness_ms.push_back(
                (static_cast<double>(now) - intended) * 1e-6);
          }
        }
        if (!fleet.FlushAll()) lr.ok = false;
      }
      for (std::size_t s = 0; s < conns.size(); ++s) {
        pfds[s].fd = conns[s].fd;
        pfds[s].events = POLLIN;
        if (conns[s].out_start < conns[s].out.size())
          pfds[s].events |= POLLOUT;
        pfds[s].revents = 0;
      }
      // Sleep until the next intended send (at least one tick), or 10 ms
      // while only replies are outstanding.
      now = NowNs();
      std::int64_t wait_ns = 10'000'000;
      if (next_id < end) {
        const std::uint64_t next_due =
            cur_t0 + static_cast<std::uint64_t>(
                         static_cast<double>(next_id - cur->first) * ns_per_req);
        wait_ns = std::max<std::int64_t>(
            kTickNs, static_cast<std::int64_t>(next_due) -
                         static_cast<std::int64_t>(now));
      }
      timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                  static_cast<long>(wait_ns % 1'000'000'000)};
      int rc;
      {
        ScopedSpan span(tracer, "client.wait", k);
        rc = ::ppoll(pfds.data(), pfds.size(), &ts, nullptr);
      }
      if (rc < 0 && errno != EINTR) lr.ok = false;
      if (rc > 0) {
        ScopedSpan span(tracer, "client.recv", k);
        read_all();
      }
      now = NowNs();
      if (now > last_intended) {
        if (!sending_done) {
          sending_done = true;
          cur->inflight_at_end = (next_id - cur->first) - replied_in_rung;
        }
        if (Seconds(now - last_intended) > kDrainTimeoutS) lr.ok = false;
      }
    }
    cur->drain_s = last_reply_ns > last_intended
                       ? Seconds(last_reply_ns - last_intended)
                       : 0.0;
    cur->reply_s = Seconds(last_reply_ns - cur_t0);
  }
  cur = nullptr;

  // The quiesced stats round: every reply is in, so each daemon's
  // counters are final.
  {
    ScopedSpan span(tracer, "client.stats");
    for (auto& c : conns) MessageCodec::EncodeControl(MsgType::kStatsRequest, &c.out);
    if (!fleet.FlushAll()) lr.ok = false;
    lr.counters.assign(conns.size(), WireCounters());
    lr.serve_hist.assign(conns.size(), LatencyHistogram());
    std::vector<bool> got(conns.size(), false);
    const std::uint64_t deadline = NowNs() + 10'000'000'000ULL;
    std::size_t have = 0;
    while (have < conns.size() && lr.ok && NowNs() < deadline) {
      for (std::size_t s = 0; s < conns.size(); ++s) {
        pfds[s].fd = conns[s].fd;
        pfds[s].events = POLLIN;
        pfds[s].revents = 0;
      }
      if (::poll(pfds.data(), pfds.size(), 100) <= 0) continue;
      for (std::size_t s = 0; s < conns.size(); ++s) {
        if (!(pfds[s].revents & (POLLIN | POLLHUP | POLLERR))) continue;
        const bool alive = conns[s].in->OnReadable([&](const WireMessage& m) {
          if (m.type == MsgType::kStatsReply && !got[s]) {
            got[s] = true;
            ++have;
            lr.counters[s] = m.stats;
            lr.serve_hist[s] = m.stats_hist.ToHistogram();
          } else {
            on_frame(m);
          }
        });
        if (!alive) lr.ok = false;
      }
    }
    if (have < conns.size()) lr.ok = false;
  }
  return lr;
}

struct FleetRun {
  LadderResult ladder;
  bool clean_exit = false;
  double setup_s = 0, tree_s = 0, place_s = 0;
  NetdClusterConfig config;
};

std::uint64_t TotalRequests(const Shape& shape) {
  std::uint64_t total = 0;
  for (const Rung& r : kLadder)
    total += static_cast<std::uint64_t>(
        std::llround(r.rate * r.seconds * shape.scale));
  return total;
}

// One full setup (deploy, fork, connect); with run_ladder, the timed
// ladder and the stats round follow, then the fleet shuts down.
FleetRun SetupAndRun(const RunOptions& o, const Shape& shape, bool run_ladder,
                     HostSpeed& host, Tracer& setup_tracer, Tracer& tracer) {
  FleetRun fr;
  host.Probe(setup_tracer);
  const std::uint64_t t0 = NowNs();
  Deployment d = Deploy(shape, o, TotalRequests(shape), setup_tracer);
  fr.tree_s = d.tree_s;
  fr.place_s = d.place_s;
  std::unique_ptr<Fleet> fleet;
  {
    ScopedSpan span(setup_tracer, "netd.fork_connect");
    fleet = std::make_unique<Fleet>(d.config);
  }
  fr.setup_s = Seconds(NowNs() - t0);
  if (run_ladder) fr.ladder = RunLadder(*fleet, d.config, shape, host, tracer);
  fr.clean_exit = fleet->Shutdown();
  fr.config = std::move(d.config);
  return fr;
}

// Quantile q of a rung's samples; 0 for a rung that recorded none (a
// ladder cut short by a broken connection).
double SampleQuantile(const std::vector<double>& v, double q) {
  return v.empty() ? 0.0 : webwave::Quantile(v, q);
}

double OverRungMreqS(const LadderResult& lr) {
  std::vector<double> rates;
  for (std::size_t k = 0; k < lr.rungs.size(); ++k)
    if (kLadder[k].over)
      rates.push_back(static_cast<double>(lr.rungs[k].count) /
                      lr.rungs[k].reply_s / 1e6);
  return Median(rates);
}

}  // namespace

void RunFleetOpen(const RunOptions& o, RunResult* r) {
  const Shape shape = ShapeFor(o);
  Tracer tracer(o.trace);
  Tracer off(false);

  // Set-up repetitions: each deploys, forks and connects a whole fleet;
  // all but the last are torn down unused.
  std::vector<double> setup_s;
  const int reps = o.trace ? 1 : o.setup_reps > 0 ? o.setup_reps : 3;
  bool clean = true;
  HostSpeed host;
  for (int rep = 0; rep + 1 < reps; ++rep) {
    FleetRun warm = SetupAndRun(o, shape, false, host, off, off);
    clean = clean && warm.clean_exit;
    setup_s.push_back(warm.setup_s);
  }
  double untraced_mreq_s = 0;
  if (o.trace) {
    FleetRun plain = SetupAndRun(o, shape, true, host, off, off);
    clean = clean && plain.clean_exit && plain.ladder.ok;
    if (plain.ladder.ok) untraced_mreq_s = OverRungMreqS(plain.ladder);
  }
  FleetRun fr = SetupAndRun(o, shape, true, host, tracer, tracer);
  setup_s.push_back(fr.setup_s);
  clean = clean && fr.clean_exit;
  const LadderResult& lr = fr.ladder;
  const std::uint64_t total = fr.config.total_requests;

  // The oracle: one all-owning plane replaying the identical stream.
  const std::uint64_t t_oracle = NowNs();
  const ServingMetrics oracle = ReplayOracle(fr.config);
  const double oracle_s = Seconds(NowNs() - t_oracle);
  const WireCounters fleet = SumCounters(lr.counters);

  r->Check(lr.ok, "every rung drained and every daemon answered the scrape");
  r->Check(clean, "every daemon exited cleanly on kShutdown");
  r->Check(lr.answered == total && lr.duplicates == 0 && lr.stray == 0,
           "every request answered exactly once");
  r->Check(ServingCountersEqual(fleet, CountersFromMetrics(oracle)),
           "summed daemon counters equal ReplayOracle");
  const std::uint64_t unanswered = total - std::min(total, lr.answered);
  r->attempted = total;
  r->failed = r->check_failures.empty()
                  ? lr.dropped + unanswered + lr.duplicates
                  : total;

  const bool have_rungs = lr.rungs.size() == static_cast<std::size_t>(kRungs);
  const double mreq_s = have_rungs ? OverRungMreqS(lr) : 0.0;
  const double slowdown = host.Slowdown();
  const double requests = static_cast<double>(total);
  double slo_kreq_s = 0;
  // A rung meets the SLO when its p99 is within the limit and its backlog
  // did not grow: what was still unanswered at its last intended send is
  // at most what the limit lets a rung hold in flight (rate x limit).
  if (have_rungs)
    for (int k = kWarmupRungs; k < kRungs; ++k) {
      const RungStats& rs = lr.rungs[static_cast<std::size_t>(k)];
      if (!kLadder[k].over &&
          SampleQuantile(rs.latency_ms, 0.99) <= kSloP99Ms &&
          static_cast<double>(rs.inflight_at_end) <=
              rs.rate * kSloP99Ms * 1e-3)
        slo_kreq_s = std::max(slo_kreq_s, rs.rate / 1e3);
    }
  for (const RungStats& rs : lr.rungs)
    std::printf("  rung %.0f req/s: %llu requests, p50 %.3f ms, p99 %.3f ms, "
                "lateness p99 %.3f ms, in flight at end %llu, drain %.3f s, "
                "reply rate %.3f Mreq/s\n",
                rs.rate, static_cast<unsigned long long>(rs.count),
                SampleQuantile(rs.latency_ms, 0.5),
                SampleQuantile(rs.latency_ms, 0.99),
                SampleQuantile(rs.lateness_ms, 0.99),
                static_cast<unsigned long long>(rs.inflight_at_end),
                rs.drain_s,
                static_cast<double>(rs.count) / rs.reply_s / 1e6);
  std::printf("fleet_open: %zu nodes, %d daemons, %llu requests, setup "
              "%.3f s (median of %zu), over-capacity %.3f Mreq/s, host "
              "slowdown %.4f, oracle %.3f Mreq/s\n",
              fr.config.parents.size(), kServers,
              static_cast<unsigned long long>(total), Median(setup_s),
              setup_s.size(), mreq_s, slowdown, requests / oracle_s / 1e6);

  r->e2e["setup_s"] = Median(setup_s) / slowdown;
  r->e2e["peak_rss_mb"] = PeakRssMb();
  r->e2e["throughput_mreq_s"] = mreq_s * slowdown;
  r->e2e["hit_ratio"] = static_cast<double>(fleet.cache_served) / requests;
  // The fleet's counters equal the oracle's exactly (checked above); the
  // per-node served counts behind the maximum come from the oracle.
  r->e2e["load_gain"] = requests / static_cast<double>(oracle.MaxServed());
  r->e2e["ok_ratio"] = 1.0 - static_cast<double>(r->failed) / requests;

  if (o.trace && have_rungs) {
    const auto self = tracer.SelfSeconds();
    const auto at = [&](const char* n) {
      const auto it = self.find(n);
      return it == self.end() ? 0.0 : it->second;
    };
    const RungStats& mid = lr.rungs[kMidRung];
    LatencyHistogram serve_hist;
    for (const LatencyHistogram& h : lr.serve_hist) serve_hist.Merge(h);
    std::uint64_t outbox_peak = 0, shed = 0, gossip = 0;
    for (const WireCounters& c : lr.counters) {
      outbox_peak = std::max(outbox_peak, c.outbox_peak_bytes);
      shed += c.shed_forwards;
      gossip += c.gossip_sent;
    }
    const double frames = requests + static_cast<double>(fleet.net_forwards);
    constexpr double kReqFrame =
        MessageCodec::kHeaderSize + MessageCodec::kGetRequestSize;
    constexpr double kReplyFrame =
        MessageCodec::kHeaderSize + MessageCodec::kGetReplySize;
    r->layer["tree.build_s"] = fr.tree_s;
    r->layer["doc.place_s"] = fr.place_s;
    r->layer["serve.hops_per_req"] =
        static_cast<double>(fleet.hop_sum) /
        static_cast<double>(fleet.cache_served + fleet.home_served);
    r->layer["serve.oracle_mreq_s"] = requests / oracle_s / 1e6;
    r->layer["client.p50_ms"] = SampleQuantile(mid.latency_ms, 0.5);
    r->layer["client.p99_ms"] = SampleQuantile(mid.latency_ms, 0.99);
    r->layer["client.samples"] = static_cast<double>(mid.latency_ms.size());
    r->layer["client.slo_rate_kreq_s"] = slo_kreq_s;
    r->layer["client.send_ms"] = at("client.send") * 1e3;
    r->layer["client.recv_ms"] = at("client.recv") * 1e3;
    r->layer["client.lateness_p99_ms"] = SampleQuantile(mid.lateness_ms, 0.99);
    r->layer["netd.serve_p50_us"] =
        static_cast<double>(serve_hist.ValueAtQuantile(0.5)) * 1e-3;
    r->layer["netd.serve_p99_us"] =
        static_cast<double>(serve_hist.ValueAtQuantile(0.99)) * 1e-3;
    r->layer["netd.forwards_per_req"] =
        static_cast<double>(fleet.net_forwards) / requests;
    r->layer["netd.outbox_peak_kb"] = static_cast<double>(outbox_peak) / 1024;
    r->layer["netd.shed_forwards"] = static_cast<double>(shed);
    r->layer["netd.gossip_frames"] = static_cast<double>(gossip);
    r->layer["netd.fleet_oracle_ratio"] = requests / oracle_s / 1e6 / mreq_s;
    r->layer["wire.bytes_per_req"] =
        frames * (kReqFrame + kReplyFrame) / requests;
    r->layer["host.probe_ms"] = host.MedianProbeS() * 1e3;
    ReportCoverage(tracer, "timed", r);
    r->layer["trace.overhead_mreq_s"] = mreq_s - untraced_mreq_s;
    std::filesystem::create_directories(kTraceDir);
    tracer.WriteJsonLines(std::string(kTraceDir) + "/fleet_open-" +
                          std::to_string(o.seed) + ".jsonl");
  }
}

}  // namespace perfbench
