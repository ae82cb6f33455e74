#include "netd/cluster.h"

#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <exception>

#include "doc/catalog.h"
#include "doc/placement.h"
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

NodeId CarvePivot(const RoutingTree& big, int min_size, int max_size) {
  for (const NodeId v : big.preorder())
    if (!big.is_root(v) && big.subtree_size(v) >= min_size &&
        big.subtree_size(v) <= max_size)
      return v;
  NodeId pivot = big.root();
  for (const NodeId v : big.children(big.root()))
    if (pivot == big.root() || big.subtree_size(v) > big.subtree_size(pivot))
      pivot = v;
  return pivot;
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

NetdClusterConfig StageNetdCluster(const RoutingTree& tree, int docs,
                                   int servers, std::uint64_t stream_seed,
                                   std::uint64_t total_requests) {
  DemandMatrix demand(tree.size(), docs);
  Rng drng(7);
  for (NodeId v = 0; v < tree.size(); ++v)
    if (tree.is_leaf(v))
      for (DocId d = 0; d < docs; ++d)
        demand.set(v, d, drng.NextDouble(0.1, 4.0));
  const PlacementResult placement = DerivePlacement(tree, demand);
  NetdClusterConfig config;
  config.parents = tree.parents();
  config.owner = PartitionOwners(tree, servers);
  config.server_count = servers;
  QuotaWireTable::Serialize(
      QuotaSnapshot::FromPlacement(tree, placement, demand, 1e-9),
      &config.quota_blob);
  config.serving.block_size = 1;
  config.serving.threads = 1;
  config.docs = docs;
  config.stream_seed = stream_seed;
  config.total_requests = total_requests;
  return config;
}

std::vector<NetdScenario> NetdScenarios(const RoutingTree& tree) {
  std::vector<NetdScenario> out;
  out.push_back({"live", {}, 8});
  std::vector<NodeId> down;
  for (const NodeId v : tree.preorder())
    if (!tree.is_root(v) && tree.subtree_size(v) >= tree.size() / 20) {
      down.push_back(v);
      break;
    }
  out.push_back({"faulted", down, 8});
  NodeId deep = tree.root();
  for (const NodeId v : tree.preorder())
    if (tree.depth(v) > tree.depth(deep)) deep = v;
  std::vector<NodeId> chain;
  for (NodeId v = deep; !tree.is_root(v); v = tree.parent(v))
    chain.push_back(v);
  const int budget = std::max(1, static_cast<int>(chain.size()) - 1);
  out.push_back({"drops", chain, budget});
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

namespace {

// Appends "<law>: <printf-formatted detail>" to *out.
__attribute__((format(printf, 3, 4))) void Fail(std::vector<std::string>* out,
                                                const char* law,
                                                const char* fmt, ...) {
  char detail[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(detail, sizeof detail, fmt, args);
  va_end(args);
  out->push_back(std::string(law) + ": " + detail);
}

// "requests=… cache_served=… …", every serving counter by its table name.
std::string Describe(const ServingCounters& c) {
  std::string out;
  for (const ServingCounterField& f : kServingCounters)
    out += std::string(out.empty() ? "" : " ") + f.name + "=" +
           std::to_string(c.*f.field);
  return out;
}

// True iff every field of `a` is <= the matching field of `b` — the
// monotonicity law successive live scrapes of one daemon must obey.
bool CountersMonotone(const WireCounters& a, const WireCounters& b) {
  for (const ServingCounterField& f : kServingCounters)
    if (a.*f.field > b.*f.field) return false;
  return a.net_forwards <= b.net_forwards &&
         a.gossip_sent <= b.gossip_sent &&
         a.shed_forwards <= b.shed_forwards &&
         a.reconnects <= b.reconnects &&
         a.outbox_peak_bytes <= b.outbox_peak_bytes;
}

// Merge must be exactly a per-bucket u64 add: `merged` against the naive
// sum of `parts`, bucket for bucket, plus the count and sum totals.
bool MergeEqualsBucketSum(const LatencyHistogram& merged,
                          const std::vector<LatencyHistogram>& parts) {
  std::uint64_t count = 0, sum = 0;
  for (int b = 0; b < LatencyHistogram::kBucketCount; ++b) {
    std::uint64_t want = 0;
    for (const LatencyHistogram& h : parts) want += h.bucket(b);
    if (merged.bucket(b) != want) return false;
    count += want;
  }
  for (const LatencyHistogram& h : parts) sum += h.sum();
  return merged.count() == count && merged.sum() == sum;
}

}  // namespace

std::vector<std::string> FleetLawViolations(
    const NetdClusterConfig& config, const NetdRunResult& run,
    const ServingMetrics& oracle, const std::vector<TraceEvent>& oracle_trace,
    const std::vector<WireCounters>& oracle_per_epoch) {
  std::vector<std::string> out;
  const WireCounters want = CountersFromMetrics(oracle);
  const std::uint64_t total = config.total_requests;
  const std::size_t servers = static_cast<std::size_t>(config.server_count);
  std::size_t kills = 0, restarts = 0;
  std::vector<bool> ever_killed(servers, false);
  for (const NetdEpoch& ep : config.epochs) {
    kills += ep.kill_servers.size();
    restarts += ep.restart_servers.size();
    for (const int s : ep.kill_servers)
      ever_killed[static_cast<std::size_t>(s)] = true;
  }

  if (!run.ok) Fail(&out, "run", "the fleet did not drain and exit cleanly");

  if (!ServingCountersEqual(run.fleet, want) ||
      run.client_served + run.client_dropped != total ||
      run.client_served != oracle.requests - oracle.dropped_requests ||
      run.client_hop_sum != oracle.hop_sum)
    Fail(&out, "counters",
         "fleet {%s}, client served=%" PRIu64 " dropped=%" PRIu64
         " hop_sum=%" PRIu64 "; oracle {%s}",
         Describe(run.fleet).c_str(), run.client_served, run.client_dropped,
         run.client_hop_sum, Describe(want).c_str());

  if (run.trace != oracle_trace) {
    const auto at = std::mismatch(run.trace.begin(), run.trace.end(),
                                  oracle_trace.begin(), oracle_trace.end());
    Fail(&out, "trace",
         "fleet %zu records, oracle %zu, first difference at record %td",
         run.trace.size(), oracle_trace.size(), at.first - run.trace.begin());
  }

  // Live scrapes come in completion order, and a daemon never killed
  // (its slot never zeroed by death or reset by a restart) only counts up.
  for (std::size_t i = 0; i < run.samples.size(); ++i) {
    const NetdStatsSample& now = run.samples[i];
    bool ok = now.per_server.size() == servers &&
              (i == 0 || now.at_completed >= run.samples[i - 1].at_completed);
    for (std::size_t s = 0; ok && i > 0 && s < servers; ++s)
      ok = ever_killed[s] || CountersMonotone(run.samples[i - 1].per_server[s],
                                              now.per_server[s]);
    if (!ok) {
      Fail(&out, "scrapes", "sample %zu went back or lost a server slot", i);
      break;
    }
  }

  // Quiesced samples: barrier i (closing epoch i) plus every victim
  // killed through the boundary into epoch i + 1 is the oracle's
  // cumulative count after epoch i, and the final sample plus every
  // victim is the oracle's total.  Dead slots read zero, so no daemon
  // counts twice.
  const std::size_t epochs = config.epochs.size();
  std::string differ;
  const auto note = [&](const std::string& name) {
    differ += (differ.empty() ? "" : ", ") + name;
  };
  const auto check = [&](const NetdStatsSample& sample, std::size_t victims,
                         const WireCounters& expect, const std::string& name) {
    std::vector<WireCounters> parts = sample.per_server;
    parts.insert(parts.end(), run.retired.begin(),
                 run.retired.begin() + static_cast<std::ptrdiff_t>(std::min(
                                           victims, run.retired.size())));
    if (victims > run.retired.size() ||
        !ServingCountersEqual(SumCounters(parts), expect))
      note(name);
  };
  if (run.epoch_samples.size() + 1 != std::max<std::size_t>(epochs, 1) ||
      oracle_per_epoch.size() != epochs) {
    note("the barrier and epoch counts");
  } else {
    std::size_t killed = 0;
    for (std::size_t i = 0; i < run.epoch_samples.size(); ++i) {
      killed += config.epochs[i + 1].kill_servers.size();
      check(run.epoch_samples[i], killed, oracle_per_epoch[i],
            "barrier " + std::to_string(i));
    }
    if (epochs > 0 && !ServingCountersEqual(oracle_per_epoch.back(), want))
      note("the last per-epoch count");
  }
  if (run.samples.empty() || run.samples.back().at_completed != total)
    note("final");
  else
    check(run.samples.back(), run.retired.size(), want, "final");
  if (!differ.empty())
    Fail(&out, "quiesced", "%s differ from the oracle", differ.c_str());

  bool fresh = true;
  for (const std::uint32_t e : run.rejoin_hello_epochs) fresh = fresh && e == 0;
  if (run.retired.size() != kills ||
      run.rejoin_hello_epochs.size() != restarts || !fresh)
    Fail(&out, "membership",
         "%zu retired and %zu rejoins for %zu kills and %zu restarts%s",
         run.retired.size(), run.rejoin_hello_epochs.size(), kills, restarts,
         fresh ? "" : "; a rejoin announced a nonzero epoch");

  std::uint64_t peak = 0;
  for (const WireCounters& c : run.per_server)
    peak = std::max(peak, c.outbox_peak_bytes);
  for (const WireCounters& c : run.retired)
    peak = std::max(peak, c.outbox_peak_bytes);
  if (run.fleet.shed_forwards != 0 || peak > config.outbox_watermark_bytes)
    Fail(&out, "backpressure",
         "%" PRIu64 " forwards shed, outbox peak %" PRIu64
         " B, watermark %zu B",
         run.fleet.shed_forwards, peak, config.outbox_watermark_bytes);

  // Every request and every forward is one kGetRequest frame, timed once
  // by the daemon that took it: live finals plus the victims' scrapes.
  std::vector<LatencyHistogram> hists = run.server_hist;
  hists.insert(hists.end(), run.retired_hist.begin(), run.retired_hist.end());
  const LatencyHistogram serve = LatencyHistogram::MergeOf(hists);
  if (!MergeEqualsBucketSum(serve, hists) ||
      serve.count() != total + run.fleet.net_forwards)
    Fail(&out, "serve histogram",
         "count %" PRIu64 " for %" PRIu64 " requests + %" PRIu64
         " forwards, or merge != per-bucket sum",
         serve.count(), total, run.fleet.net_forwards);

  const LatencyHistogram client =
      LatencyHistogram::MergeOf(run.latency_per_server);
  if (LatencyHistogram::MergeOf(run.latency_per_epoch) != client ||
      client.count() != total)
    Fail(&out, "client latency",
         "per-epoch and per-server partitions disagree (%" PRIu64
         " recorded, %" PRIu64 " requests)",
         client.count(), total);

  std::size_t victims = 0, empty = 0;
  for (const NetdRunResult::FlightDump& d : run.flights) {
    victims += d.victim ? 1 : 0;
    empty += d.events.empty() ? 1 : 0;
  }
  if (empty != 0 || victims != kills)
    Fail(&out, "flight", "%zu empty rings; %zu victim rings for %zu kills",
         empty, victims, kills);
  return out;
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
