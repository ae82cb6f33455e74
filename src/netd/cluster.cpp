#include "netd/cluster.h"

#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <exception>

#include "netd/daemon.h"
#include "netd/loadgen.h"
#include "util/check.h"
#include "util/worker_pool.h"
#include "wire/quota_wire.h"

namespace webwave {

CarvedTree CarveSubtree(const RoutingTree& big, NodeId r) {
  CarvedTree out;
  out.big_ids = big.subtree(r);  // preorder, out.big_ids[0] == r
  std::vector<NodeId> to_new(static_cast<std::size_t>(big.size()), kNoNode);
  for (std::size_t i = 0; i < out.big_ids.size(); ++i)
    to_new[static_cast<std::size_t>(out.big_ids[i])] =
        static_cast<NodeId>(i);
  out.parents.resize(out.big_ids.size(), kNoNode);
  for (std::size_t i = 1; i < out.big_ids.size(); ++i)
    out.parents[i] = to_new[static_cast<std::size_t>(
        big.parent(out.big_ids[i]))];
  return out;
}

std::vector<int> PartitionOwners(const RoutingTree& tree, int servers) {
  WEBWAVE_REQUIRE(servers >= 1, "need at least one server");
  std::vector<int> owner(static_cast<std::size_t>(tree.size()), 0);
  const auto& pre = tree.preorder();
  for (int s = 0; s < servers; ++s) {
    std::size_t begin = 0, end = 0;
    WorkerPool::Partition(pre.size(), servers, s, &begin, &end);
    for (std::size_t i = begin; i < end; ++i)
      owner[static_cast<std::size_t>(pre[i])] = s;
  }
  return owner;
}

std::vector<int> ReassignOwners(const RoutingTree& tree,
                                const std::vector<int>& base,
                                const std::vector<bool>& server_dead) {
  std::vector<int> out = base;
  for (const NodeId v : tree.preorder()) {
    const std::size_t i = static_cast<std::size_t>(v);
    if (!server_dead[static_cast<std::size_t>(out[i])]) continue;
    WEBWAVE_REQUIRE(tree.parent(v) != kNoNode,
                    "the root's owner must never be dead");
    // The parent resolved earlier in preorder, so this chains up to the
    // nearest alive adopter in one assignment.
    out[i] = out[static_cast<std::size_t>(tree.parent(v))];
  }
  return out;
}

std::vector<OwnerDelta> OwnerDiff(const std::vector<int>& base,
                                  const std::vector<int>& now) {
  WEBWAVE_REQUIRE(base.size() == now.size(), "owner maps must align");
  std::vector<OwnerDelta> out;
  for (std::size_t v = 0; v < base.size(); ++v)
    if (now[v] != base[v]) {
      OwnerDelta d;
      d.node = static_cast<NodeId>(v);
      d.owner = static_cast<std::uint32_t>(now[v]);
      out.push_back(d);
    }
  return out;
}

ServingMetrics ReplayOracle(const NetdClusterConfig& config,
                            std::vector<TraceEvent>* trace,
                            std::vector<WireCounters>* epoch_counters) {
  QuotaSnapshot snapshot;
  WEBWAVE_REQUIRE(QuotaWireTable::Deserialize(config.quota_blob.data(),
                                              config.quota_blob.size(),
                                              &snapshot),
                  "oracle handed a corrupt quota blob");
  const RoutingTree tree = RoutingTree::FromParents(config.parents);
  ServingOptions opt = config.serving;
  if (opt.threads <= 0) opt.threads = 1;
  ServingPlane plane(tree, std::move(snapshot), opt);
  const auto serve_block = [&](std::uint64_t begin, std::uint64_t count) {
    std::vector<Request> batch(count);
    for (std::uint64_t i = 0; i < count; ++i)
      batch[i] = NetdRequestAt(config.stream_seed, begin + i, tree.size(),
                               config.docs);
    plane.Serve(Span<Request>(batch.data(), batch.size()));
  };
  if (config.epochs.empty()) {
    if (!config.down.empty())
      plane.SetDownNodes(
          Span<const NodeId>(config.down.data(), config.down.size()));
    serve_block(0, config.total_requests);
  } else {
    // Multi-epoch replay: each block under its epoch's table + down set
    // — exactly the state the quiesced fleet serves that block under.
    // Serve() numbers blocks continuously across calls, so req_ids stay
    // the global stream index and every admission decision matches the
    // single-shot replay.
    std::uint64_t pos = 0;
    for (std::size_t e = 0; e < config.epochs.size(); ++e) {
      const NetdEpoch& ep = config.epochs[e];
      if (e == 0) {
        WEBWAVE_REQUIRE(ep.quota_blob == config.quota_blob &&
                            ep.down == config.down,
                        "epoch 0 must equal the boot state");
      } else {
        QuotaSnapshot next;
        WEBWAVE_REQUIRE(
            QuotaWireTable::Deserialize(ep.quota_blob.data(),
                                        ep.quota_blob.size(), &next),
            "oracle handed a corrupt epoch blob");
        // Refresh's bool is "updated in place" vs "rebuilt", not success
        // — epoch tables routinely change shape as placement moves.
        plane.Refresh(std::move(next));
      }
      plane.SetDownNodes(Span<const NodeId>(ep.down.data(), ep.down.size()));
      serve_block(pos, ep.requests);
      pos += ep.requests;
      if (epoch_counters != nullptr)
        epoch_counters->push_back(CountersFromMetrics(plane.metrics()));
    }
    WEBWAVE_REQUIRE(pos == config.total_requests,
                    "epoch blocks must cover the whole stream");
  }
  if (trace != nullptr) *trace = plane.trace();
  return plane.metrics();
}

WireCounters CountersFromMetrics(const ServingMetrics& m) {
  WireCounters c;
  static_cast<ServingCounters&>(c) = m;
  return c;
}

WireCounters SumCounters(const std::vector<WireCounters>& all) {
  WireCounters sum;
  for (const WireCounters& c : all) {
    for (const ServingCounterField& f : kServingCounters)
      sum.*f.field += c.*f.field;
    sum.net_forwards += c.net_forwards;
    sum.gossip_sent += c.gossip_sent;
    sum.shed_forwards += c.shed_forwards;
    sum.reconnects += c.reconnects;
    sum.outbox_peak_bytes += c.outbox_peak_bytes;
  }
  return sum;
}

bool CountersMonotone(const WireCounters& a, const WireCounters& b) {
  for (const ServingCounterField& f : kServingCounters)
    if (a.*f.field > b.*f.field) return false;
  return a.net_forwards <= b.net_forwards &&
         a.gossip_sent <= b.gossip_sent &&
         a.shed_forwards <= b.shed_forwards &&
         a.reconnects <= b.reconnects &&
         a.outbox_peak_bytes <= b.outbox_peak_bytes;
}

namespace {

// A listening socket on an ephemeral loopback port.
int ListenLoopback(std::uint16_t* port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  WEBWAVE_REQUIRE(fd >= 0, "socket() failed");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof addr);
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  WEBWAVE_REQUIRE(
      ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0,
      "bind(127.0.0.1:0) failed");
  WEBWAVE_REQUIRE(::listen(fd, 128) == 0, "listen() failed");
  socklen_t len = sizeof addr;
  WEBWAVE_REQUIRE(
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0,
      "getsockname() failed");
  *port = ntohs(addr.sin_port);
  return fd;
}

// The forked daemons of one run and the listen sockets they inherit.
// The destructor is the failure path: daemons exit only on kShutdown, so
// a run that does not end in a clean drain (a timeout, an unscheduled
// EOF, an exception out of the loadgen) SIGKILLs and reaps every daemon
// still running before the listen fds close.
struct Fleet {
  explicit Fleet(const NetdClusterConfig& c)
      : config(c),
        ports(static_cast<std::size_t>(c.server_count)),
        pids(static_cast<std::size_t>(c.server_count), -1) {}
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;
  ~Fleet() {
    for (std::size_t s = 0; s < pids.size(); ++s)
      if (pids[s] > 0) Reap(static_cast<int>(s), SIGKILL);
    for (const int fd : listen_fds) ::close(fd);
  }

  const NetdClusterConfig& config;
  std::vector<std::uint16_t> ports;
  std::vector<int> listen_fds;
  std::vector<pid_t> pids;  // -1: not running

  // Forks daemon s onto its own listen fd.  The child closes every other
  // listen fd and `close_fds`: a restarted daemon inherits the loadgen's
  // live sockets, which would otherwise keep the fleet's EOFs from firing.
  void Spawn(int s, const std::vector<int>& close_fds) {
    const pid_t pid = ::fork();
    WEBWAVE_REQUIRE(pid >= 0, "fork() failed");
    if (pid == 0) {
      for (int t = 0; t < config.server_count; ++t)
        if (t != s) ::close(listen_fds[static_cast<std::size_t>(t)]);
      for (const int fd : close_fds) ::close(fd);
      // _exit, not exit or a throw: the child must never unwind into the
      // parent's stack or run its atexit chain (gtest, stdio flushing).
      int code = 1;
      try {
        CacheServerDaemon daemon(config, s,
                                 listen_fds[static_cast<std::size_t>(s)],
                                 ports);
        code = daemon.Run();
      } catch (const std::exception& e) {
        std::fprintf(stderr, "netd daemon %d: %s\n", s, e.what());
      }
      ::_exit(code);
    }
    pids[static_cast<std::size_t>(s)] = pid;
  }

  // Waits for daemon s, after sending it `sig` unless that is 0.  True
  // iff the daemon exited with status 0.
  bool Reap(int s, int sig) {
    const pid_t pid = pids[static_cast<std::size_t>(s)];
    if (sig != 0) ::kill(pid, sig);
    int status = 0;
    pid_t r;
    do {
      r = ::waitpid(pid, &status, 0);
    } while (r < 0 && errno == EINTR);
    pids[static_cast<std::size_t>(s)] = -1;
    return r == pid && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }
};

}  // namespace

NetdRunResult RunNetdCluster(const NetdClusterConfig& config) {
  WEBWAVE_REQUIRE(config.server_count >= 1, "need at least one server");
  WEBWAVE_REQUIRE(config.owner.size() == config.parents.size(),
                  "owner map must cover every node");
  WEBWAVE_REQUIRE(config.serving.block_size == 1,
                  "netd requires the order-free block_size == 1 regime");
  for (const int s : config.owner)
    WEBWAVE_REQUIRE(s >= 0 && s < config.server_count,
                    "owner out of range");
  if (!config.epochs.empty()) {
    std::uint64_t sum = 0;
    for (const NetdEpoch& ep : config.epochs) sum += ep.requests;
    WEBWAVE_REQUIRE(sum == config.total_requests,
                    "epoch blocks must cover the whole stream");
    WEBWAVE_REQUIRE(config.epochs[0].kill_servers.empty() &&
                        config.epochs[0].restart_servers.empty(),
                    "faults fire at transitions; none enters epoch 0");
    WEBWAVE_REQUIRE(config.epochs[0].quota_blob == config.quota_blob &&
                        config.epochs[0].owner == config.owner &&
                        config.epochs[0].down == config.down,
                    "epoch 0 must equal the boot state");
  }

  // A daemon writing to a peer that already shut down must see EPIPE,
  // not die.  Set before forking so every process inherits it.
  ::signal(SIGPIPE, SIG_IGN);

  // Every listen socket exists before the first fork: children inherit
  // their own, the kernel queues connections until the owner polls, so
  // there is no startup ordering to get wrong.
  Fleet fleet(config);
  for (std::uint16_t& port : fleet.ports)
    fleet.listen_fds.push_back(ListenLoopback(&port));
  for (int s = 0; s < config.server_count; ++s) fleet.Spawn(s, {});
  // The parent keeps every listen socket open for the whole run: a
  // restarted daemon re-forks onto the SAME fd (and port), and while a
  // daemon is dead the kernel backlog queues peer connects instead of
  // refusing them — the fleet rides out the outage with no port races.

  NetdRunResult result;
  LoadgenClient loadgen(config, fleet.ports);
  loadgen.SetFaultHooks(
      [&](int s) {
        WEBWAVE_REQUIRE(fleet.pids[static_cast<std::size_t>(s)] > 0,
                        "killing a server that is not running");
        fleet.Reap(s, SIGKILL);
      },
      [&](int s, const std::vector<int>& loadgen_fds) {
        WEBWAVE_REQUIRE(fleet.pids[static_cast<std::size_t>(s)] < 0,
                        "restarting a server that is still running");
        fleet.Spawn(s, loadgen_fds);
      });
  bool ok = loadgen.Run(&result);
  // A clean drain sent every live daemon kShutdown; after a failed one,
  // ~Fleet kills the daemons instead of waiting for them forever.
  if (ok)
    for (int s = 0; s < config.server_count; ++s)
      if (fleet.pids[static_cast<std::size_t>(s)] > 0)
        ok = fleet.Reap(s, 0) && ok;

  // The fleet total includes daemons killed mid-run: their pre-kill
  // scrapes are exactly their final state (the boundary was quiesced),
  // so fleet = live finals + retired holds across faults.
  std::vector<WireCounters> every = result.per_server;
  every.insert(every.end(), result.retired.begin(), result.retired.end());
  result.fleet = SumCounters(every);
  // Per-daemon scrapes arrive in completion order within each shard;
  // across shards the only deterministic total order is the canonical
  // one — the same order ReplayOracle's single plane emits.
  CanonicalizeTrace(&result.trace);
  result.ok = ok;
  return result;
}

}  // namespace webwave
