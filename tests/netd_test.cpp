// The netd fleet's determinism contract, bottom-up:
//
//   * CarveSubtree / PartitionOwners — carve a compact tree out of a big
//     one and shard it so walks up the tree never revisit a shard.
//   * EventLoop — timers fire in deadline order, at their deadline and
//     not before, equal deadlines in AddTimer order, a timer added by a
//     firing callback on a later pass; CancelTimer really cancels.
//   * FrameConn — frames survive a real socketpair byte stream, however
//     the kernel slices it; sends queue until a flush or the threshold.
//   * Socket factory — every connected TCP socket is non-blocking,
//     close-on-exec and has TCP_NODELAY set, or the factory throws.
//   * Segment fleet == oracle — the load-bearing theorem: K segment
//     planes fed the stream by explicit message routing accumulate
//     *identical* ServingMetrics (every counter, every vector) to one
//     all-owning plane replaying the same stream, live, faulted, and
//     dropping.
//   * RunNetdCluster — the same identity across real forked processes
//     and loopback sockets, through kills, restarts and live scrapes,
//     held by FleetLawViolations (which names each law a run breaks);
//     a run that fails reaps every daemon it forked.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <unistd.h>

#include <sys/socket.h>
#include <sys/wait.h>

#include <cerrno>
#include <csignal>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/process_faults.h"
#include "netd/cluster.h"
#include "netd/conn.h"
#include "netd/daemon.h"
#include "netd/epoch_plan.h"
#include "netd/event_loop.h"
#include "netd/loadgen.h"
#include "tree/builders.h"
#include "util/rng.h"
#include "wire/quota_wire.h"

namespace webwave {
namespace {

// The fixture every fleet test shares: a random tree staged the way
// every netd harness stages one (StageNetdCluster).
struct Cluster {
  RoutingTree tree;  // rebuilt from parents, as every process does
  NetdClusterConfig config;
};

Cluster MakeCluster(int nodes, int docs, int servers,
                    std::uint64_t requests) {
  Rng rng(42);
  const RoutingTree built = MakeRandomTree(nodes, rng);
  return Cluster{RoutingTree::FromParents(built.parents()),
                 StageNetdCluster(built, docs, servers, 0xbadcafe, requests)};
}

// Element-wise sum of fleet metrics, for comparison against the oracle.
ServingMetrics SumMetrics(const std::vector<ServingMetrics>& parts) {
  ServingMetrics total = parts.front();
  for (std::size_t i = 1; i < parts.size(); ++i) {
    const ServingMetrics& m = parts[i];
    for (const ServingCounterField& f : kServingCounters)
      total.*f.field += m.*f.field;
    for (std::size_t v = 0; v < total.served_per_node.size(); ++v)
      total.served_per_node[v] += m.served_per_node[v];
    if (m.hops.size() > total.hops.size())
      total.hops.resize(m.hops.size(), 0);
    for (std::size_t h = 0; h < m.hops.size(); ++h)
      total.hops[h] += m.hops[h];
  }
  return total;
}

// Crashes the first non-root internal node in preorder: a popular
// subtree root, so walks through it must fail over past it.
void CrashFirstInternalNode(Cluster* c) {
  for (const NodeId v : c->tree.preorder())
    if (!c->tree.is_root(v) && !c->tree.is_leaf(v)) {
      c->config.down.push_back(v);
      return;
    }
}

// Replays the oracle for `config` and expects `run` to keep every fleet
// law (FleetLawViolations); returns the oracle's trace.
std::vector<TraceEvent> ExpectFleetLaws(const NetdClusterConfig& config,
                                        const NetdRunResult& run) {
  std::vector<TraceEvent> oracle_trace;
  std::vector<WireCounters> per_epoch;
  const ServingMetrics oracle = ReplayOracle(config, &oracle_trace, &per_epoch);
  EXPECT_EQ(FleetLawViolations(config, run, oracle, oracle_trace, per_epoch),
            std::vector<std::string>{});
  return oracle_trace;
}

// Runs the stream through K in-process segment planes, routing forwards
// by ownership exactly as the socket fleet does — but synchronously, so
// failures localize.  Returns the per-plane metrics; with `trace`
// non-null, the planes' merged trace streams in canonical order.
std::vector<ServingMetrics> RunSegmentFleet(
    const Cluster& c, std::vector<TraceEvent>* trace = nullptr) {
  QuotaSnapshot snapshot;
  EXPECT_TRUE(QuotaWireTable::Deserialize(
      c.config.quota_blob.data(), c.config.quota_blob.size(), &snapshot));
  std::vector<std::unique_ptr<ServingPlane>> planes;
  std::vector<std::vector<NodeId>> shards(
      static_cast<std::size_t>(c.config.server_count));
  for (NodeId v = 0; v < c.tree.size(); ++v)
    shards[static_cast<std::size_t>(c.config.owner[static_cast<std::size_t>(
        v)])].push_back(v);
  for (int s = 0; s < c.config.server_count; ++s) {
    planes.push_back(std::make_unique<ServingPlane>(c.tree, snapshot,
                                                    c.config.serving));
    planes.back()->SetSegmentNodes(Span<const NodeId>(
        shards[static_cast<std::size_t>(s)].data(),
        shards[static_cast<std::size_t>(s)].size()));
    if (!c.config.down.empty())
      planes.back()->SetDownNodes(Span<const NodeId>(c.config.down.data(),
                                                     c.config.down.size()));
  }
  for (std::uint64_t i = 0; i < c.config.total_requests; ++i) {
    const Request r = NetdRequestAt(c.config.stream_seed, i, c.tree.size(),
                                    c.config.docs);
    GetRequest msg;
    msg.req_id = i;
    msg.doc = r.doc;
    msg.origin_node = r.node;
    if (c.config.serving.trace &&
        TraceSampled(kTraceSeed, i,
                     c.config.serving.trace_sample_shift))
      msg.flags |= kGetFlagTrace;
    int hop_guard = 0;
    for (;;) {
      const int s = c.config.owner[static_cast<std::size_t>(msg.origin_node)];
      GetRequest fwd;
      GetReply reply;
      const auto outcome = planes[static_cast<std::size_t>(s)]
                               ->ServeWireSegment(msg, &fwd, &reply);
      if (outcome != ServingPlane::WireServe::kForwarded) break;
      // Ownership is monotone along the walk: forwards always move to a
      // lower server index, so the chain terminates.
      EXPECT_LT(c.config.owner[static_cast<std::size_t>(fwd.origin_node)], s);
      msg = fwd;
      ++hop_guard;
      EXPECT_LT(hop_guard, c.config.server_count) << "forward cycle";
      if (hop_guard >= c.config.server_count) break;
    }
  }
  std::vector<ServingMetrics> out;
  for (auto& p : planes) out.push_back(p->metrics());
  if (trace != nullptr) {
    trace->clear();
    for (auto& p : planes)
      trace->insert(trace->end(), p->trace().begin(), p->trace().end());
    CanonicalizeTrace(trace);
  }
  return out;
}

TEST(NetdCluster, CarveSubtreeReindexesPreorder) {
  Rng rng(5);
  const RoutingTree big = MakeRandomTree(500, rng);
  // Pick an internal node with a decently sized subtree.
  const NodeId pivot = CarvePivot(big, 50, big.size());
  ASSERT_FALSE(big.is_root(pivot));
  const CarvedTree carved = CarveSubtree(big, pivot);
  ASSERT_EQ(carved.parents.size(), carved.big_ids.size());
  EXPECT_EQ(static_cast<int>(carved.parents.size()), big.subtree_size(pivot));
  EXPECT_EQ(carved.big_ids[0], pivot);
  EXPECT_EQ(carved.parents[0], kNoNode);
  const RoutingTree small = RoutingTree::FromParents(carved.parents);
  EXPECT_EQ(small.root(), 0);
  // Edges survive the re-indexing: each carved edge is a big-tree edge.
  for (NodeId v = 1; v < small.size(); ++v)
    EXPECT_EQ(big.parent(carved.big_ids[static_cast<std::size_t>(v)]),
              carved.big_ids[static_cast<std::size_t>(small.parent(v))]);
}

TEST(NetdCluster, PartitionOwnersIsMonotoneUpTheTree) {
  Rng rng(9);
  const RoutingTree tree = MakeRandomTree(300, rng);
  const std::vector<int> owner = PartitionOwners(tree, 5);
  // Walking toward the root never increases the owning server index —
  // the property that lets reply retracing assume no shard revisits.
  for (NodeId v = 0; v < tree.size(); ++v)
    if (!tree.is_root(v)) {
      EXPECT_LE(owner[static_cast<std::size_t>(tree.parent(v))],
                owner[static_cast<std::size_t>(v)]);
    }
  // Every server owns something on a tree this size.
  std::vector<int> count(5, 0);
  for (const int s : owner) ++count[static_cast<std::size_t>(s)];
  for (const int n : count) EXPECT_GT(n, 0);
}

// A fleet total adds every counter across daemons except the outbox peak,
// a per-daemon high-water mark: the fleet's peak is the largest daemon's.
TEST(NetdCluster, SumCountersTakesTheLargestOutboxPeak) {
  std::vector<WireCounters> daemons(2);
  daemons[0].requests = 3;
  daemons[0].net_forwards = 1;
  daemons[0].outbox_peak_bytes = 10;
  daemons[1].requests = 4;
  daemons[1].net_forwards = 2;
  daemons[1].outbox_peak_bytes = 20;
  const WireCounters fleet = SumCounters(daemons);
  EXPECT_EQ(fleet.requests, 7u);
  EXPECT_EQ(fleet.net_forwards, 3u);
  EXPECT_EQ(fleet.outbox_peak_bytes, 20u);
}

TEST(NetdEventLoop, TimersFireInDelayOrderAcrossRevolutions) {
  EventLoop loop;
  std::vector<int> fired;
  // 1100 ms is a long delay among short ones: the timer map orders it
  // last whatever the insertion order.
  loop.AddTimer(60, [&] { fired.push_back(2); });
  loop.AddTimer(20, [&] { fired.push_back(1); });
  loop.AddTimer(1100, [&] {
    fired.push_back(3);
    loop.Stop(7);
  });
  const std::uint64_t cancelled = loop.AddTimer(40, [&] { fired.push_back(99); });
  loop.CancelTimer(cancelled);
  EXPECT_EQ(loop.Run(), 7);
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(NetdEventLoop, NextTimerDelayTracksTheNearestDeadline) {
  EventLoop loop;
  EXPECT_EQ(loop.NextTimerDelayMs(), -1);  // no timers pending
  // A long delay: the nearest deadline is the map's first entry, however
  // far out it is.
  loop.AddTimer(1100, [] {});
  int d = loop.NextTimerDelayMs();
  EXPECT_GT(d, 1024);
  EXPECT_LE(d, 1100);
  loop.AddTimer(60, [] {});
  d = loop.NextTimerDelayMs();
  EXPECT_GE(d, 0);
  EXPECT_LE(d, 60);
  const std::uint64_t id = loop.AddTimer(20, [] {});
  d = loop.NextTimerDelayMs();
  EXPECT_GE(d, 0);
  EXPECT_LE(d, 20);
  // Cancelling the nearest timer moves the deadline back out.
  loop.CancelTimer(id);
  d = loop.NextTimerDelayMs();
  EXPECT_GT(d, 20);
  EXPECT_LE(d, 60);
}

TEST(NetdEventLoop, TimerFiresAtItsDeadlineNotARoundedUpTick) {
  EventLoop loop;
  const std::int64_t start = EventLoop::NowMs();
  std::int64_t fired_at = -1;
  loop.AddTimer(5, [&] {
    fired_at = EventLoop::NowMs();
    loop.Stop(0);
  });
  const int d = loop.NextTimerDelayMs();
  EXPECT_GE(d, 0);
  EXPECT_LE(d, 5);
  EXPECT_EQ(loop.Run(), 0);
  EXPECT_GE(fired_at - start, 5);
}

TEST(NetdEventLoop, EqualDeadlinesFireInAddTimerOrder) {
  EventLoop loop;
  std::vector<int> fired;
  // Same delay, added within one millisecond or not: either way every
  // later timer's deadline is no earlier, and ties go to the earlier id.
  for (int i = 0; i < 8; ++i) loop.AddTimer(10, [&, i] { fired.push_back(i); });
  loop.AddTimer(10, [&] { loop.Stop(0); });
  EXPECT_EQ(loop.Run(), 0);
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(NetdEventLoop, TimerAddedByACallbackFiresOnALaterPass) {
  // A pass fires the due timers, then dispatches the ready fds.  A
  // readable socket therefore marks the end of the first pass: the 0 ms
  // timer added by the first timer is due at once, but must fire after
  // the read callback, on the next pass.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  MakeNonBlocking(fds[0]);
  ASSERT_EQ(::write(fds[1], "x", 1), 1);
  EventLoop loop;
  std::vector<std::string> fired;
  loop.WatchRead(fds[0], [&] {
    char byte;
    if (::read(fds[0], &byte, 1) == 1) fired.push_back("read");
  });
  loop.AddTimer(0, [&] {
    fired.push_back("outer");
    loop.AddTimer(0, [&] {
      fired.push_back("inner");
      loop.Stop(0);
    });
  });
  EXPECT_EQ(loop.Run(), 0);
  EXPECT_EQ(fired, (std::vector<std::string>{"outer", "read", "inner"}));
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(NetdFrameConn, FramesSurviveASocketpairStream) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  MakeNonBlocking(fds[0]);
  MakeNonBlocking(fds[1]);
  FrameConn a(fds[0]);
  FrameConn b(fds[1]);

  GetRequest req;
  req.req_id = 77;
  req.doc = 3;
  req.origin_node = 12;
  req.ttl_hops = 2;
  LoadGossip gossip;
  gossip.node = 4;
  gossip.epoch = 9;
  gossip.load = 1.5;
  a.Send(req);
  a.Send(gossip);
  a.SendControl(MsgType::kStatsRequest);
  ASSERT_TRUE(a.Flush());

  std::vector<WireMessage> got;
  int rounds = 0;
  while (got.size() < 3) {
    ASSERT_TRUE(b.OnReadable([&](const WireMessage& m) { got.push_back(m); }));
    ASSERT_LT(++rounds, 100000) << "frames never arrived";
  }
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].type, MsgType::kGetRequest);
  EXPECT_EQ(got[0].get, req);
  EXPECT_EQ(got[1].type, MsgType::kLoadGossip);
  EXPECT_EQ(got[1].gossip, gossip);
  EXPECT_EQ(got[2].type, MsgType::kStatsRequest);
}

// The peer dies with a frame half-delivered: the complete frames before
// the cut are delivered, the dangling tail is discarded, and the reader
// sees a clean conn-down (false), never garbage or a crash.
TEST(NetdFrameConn, PeerCloseMidFrameIsACleanConnDown) {
  std::signal(SIGPIPE, SIG_IGN);
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  MakeNonBlocking(fds[1]);
  FrameConn reader(fds[1]);

  GetRequest req;
  req.req_id = 9;
  req.doc = 1;
  req.origin_node = 2;
  std::vector<std::uint8_t> bytes;
  MessageCodec::Encode(req, &bytes);
  const std::size_t whole = bytes.size();
  GetRequest second = req;
  second.req_id = 10;
  MessageCodec::Encode(second, &bytes);
  const std::size_t cut = whole + 10;  // strictly inside the second frame
  ASSERT_EQ(::write(fds[0], bytes.data(), cut),
            static_cast<ssize_t>(cut));
  ::close(fds[0]);

  std::vector<WireMessage> got;
  const auto collect = [&](const WireMessage& m) { got.push_back(m); };
  // Drain until EOF surfaces; the kernel may deliver the bytes and the
  // EOF in one readable event or two.
  while (reader.OnReadable(collect)) {
  }
  EXPECT_TRUE(reader.closed());
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].type, MsgType::kGetRequest);
  EXPECT_EQ(got[0].get, req);
}

// Writing into a dead peer is EPIPE, not SIGPIPE: Flush reports false and
// the conn marks itself closed — the owner's conn-down event.
TEST(NetdFrameConn, WriteToDeadPeerClosesInsteadOfCrashing) {
  std::signal(SIGPIPE, SIG_IGN);
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  MakeNonBlocking(fds[0]);
  FrameConn writer(fds[0]);
  ::close(fds[1]);

  GetRequest req;
  req.req_id = 4;
  writer.Send(req);  // queues only
  EXPECT_FALSE(writer.Flush());
  EXPECT_TRUE(writer.closed());
}

// A frame far larger than the socket buffer goes out in many short
// writes, resuming mid-frame at the exact byte offset each time.
TEST(NetdFrameConn, ShortWritesResumeMidFrame) {
  std::signal(SIGPIPE, SIG_IGN);
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  MakeNonBlocking(fds[0]);
  MakeNonBlocking(fds[1]);
  FrameConn a(fds[0]);
  FrameConn b(fds[1]);

  // ~480 KB of trace payload: no socketpair buffer holds that at once.
  std::vector<TraceEvent> events(20000);
  for (std::size_t i = 0; i < events.size(); ++i) {
    events[i].req_id = i;
    events[i].detail = i * 3;
    events[i].node = static_cast<NodeId>(i % 97);
    events[i].seq = static_cast<std::uint16_t>(i % 7);
    events[i].kind = TraceEventKind::kArrival;
    events[i].aux = static_cast<std::uint8_t>(i);
  }
  a.Send(events);
  ASSERT_TRUE(a.Flush());
  EXPECT_TRUE(a.want_write()) << "the frame should not fit in one write";

  std::vector<WireMessage> got;
  const auto collect = [&](const WireMessage& m) { got.push_back(m); };
  int rounds = 0;
  while (got.empty()) {
    ASSERT_TRUE(a.Flush());
    ASSERT_TRUE(b.OnReadable(collect));
    ASSERT_LT(++rounds, 100000) << "frame never completed";
  }
  ASSERT_EQ(got.size(), 1u);
  ASSERT_EQ(got[0].type, MsgType::kTraceReply);
  ASSERT_EQ(got[0].trace.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i)
    ASSERT_EQ(got[0].trace[i], events[i]) << "record " << i;
  EXPECT_EQ(a.outbox_bytes(), 0u);
  EXPECT_GT(a.outbox_peak(), std::size_t{1} << 17);
}

// Send only queues: nothing reaches the peer until the owner flushes or
// the queue reaches kFlushThresholdBytes, and every frame then decodes in
// order.
TEST(NetdFrameConn, SendQueuesUntilFlushOrThreshold) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  MakeNonBlocking(fds[0]);
  MakeNonBlocking(fds[1]);
  FrameConn a(fds[0]);
  FrameConn b(fds[1]);
  const auto peer_readable = [&] {
    std::uint8_t byte;
    const ssize_t n = ::recv(fds[1], &byte, 1, MSG_PEEK | MSG_DONTWAIT);
    if (n < 0) {
      EXPECT_TRUE(errno == EAGAIN || errno == EWOULDBLOCK);
    }
    return n > 0;
  };
  constexpr std::size_t kFrame =
      MessageCodec::kHeaderSize + MessageCodec::kGetRequestSize;
  std::uint64_t sent = 0;
  const auto send_next = [&] {
    GetRequest g;
    g.req_id = sent++;
    g.doc = static_cast<DocId>(g.req_id % 16);
    a.Send(g);
  };

  for (int i = 0; i < 3; ++i) send_next();
  EXPECT_EQ(a.outbox_bytes(), 3 * kFrame);
  EXPECT_FALSE(peer_readable());
  // One frame short of the threshold: still nothing on the wire.
  while (a.outbox_bytes() + kFrame < FrameConn::kFlushThresholdBytes)
    send_next();
  EXPECT_FALSE(peer_readable());
  // The send that takes the queue to the threshold writes it.
  send_next();
  EXPECT_TRUE(peer_readable());
  EXPECT_LT(a.outbox_bytes(), FrameConn::kFlushThresholdBytes);
  for (int i = 0; i < 5; ++i) send_next();
  ASSERT_TRUE(a.Flush());
  EXPECT_EQ(a.outbox_bytes(), 0u);
  EXPECT_FALSE(a.want_write());

  std::vector<std::uint64_t> ids;
  int rounds = 0;
  while (ids.size() < sent) {
    ASSERT_TRUE(b.OnReadable([&](const WireMessage& m) {
      ASSERT_EQ(m.type, MsgType::kGetRequest);
      ids.push_back(m.get.req_id);
    }));
    ASSERT_LT(++rounds, 100000) << "frames never arrived";
  }
  ASSERT_EQ(ids.size(), sent);
  for (std::uint64_t i = 0; i < sent; ++i) ASSERT_EQ(ids[i], i);
}

// Frame i of a deterministic mixed stream: requests, replies, and trace
// replies of varying length.  Every 40th frame is a trace longer than a
// read chunk, so some frames always span two reads.
GetRequest MixedRequest(std::uint64_t i) {
  GetRequest g;
  g.req_id = i;
  g.doc = static_cast<DocId>(i % 64);
  g.origin_node = static_cast<NodeId>(i % 1009);
  g.ttl_hops = static_cast<std::uint16_t>(i % 5);
  return g;
}

GetReply MixedReply(std::uint64_t i) {
  GetReply r;
  r.req_id = i;
  r.doc = static_cast<DocId>(i % 61);
  r.serving_node = static_cast<NodeId>(i % 997);
  r.result = i % 4 == 0 ? GetResult::kDropped : GetResult::kServed;
  r.hops = static_cast<std::uint16_t>(i % 7);
  r.load = 0.5 * static_cast<double>(i);
  r.version = static_cast<std::uint32_t>(i / 3);
  return r;
}

std::vector<TraceEvent> MixedTrace(std::uint64_t i) {
  const std::size_t n = i % 40 == 2 ? 3000 : i % 37;
  std::vector<TraceEvent> events(n);
  for (std::size_t k = 0; k < n; ++k) {
    events[k].req_id = i;
    events[k].detail = k;
    events[k].node = static_cast<NodeId>((i + k) % 101);
    events[k].seq = static_cast<std::uint16_t>(k);
    events[k].kind = TraceEventKind::kArrival;
    events[k].aux = static_cast<std::uint8_t>(i + k);
  }
  return events;
}

// Queues frame i on `c`; returns its encoded size.
std::size_t SendMixedFrame(FrameConn* c, std::uint64_t i) {
  std::vector<std::uint8_t> bytes;
  switch (i % 3) {
    case 0:
      MessageCodec::Encode(MixedRequest(i), &bytes);
      c->Send(MixedRequest(i));
      break;
    case 1:
      MessageCodec::Encode(MixedReply(i), &bytes);
      c->Send(MixedReply(i));
      break;
    default:
      MessageCodec::Encode(MixedTrace(i), &bytes);
      c->Send(MixedTrace(i));
      break;
  }
  return bytes.size();
}

void ExpectMixedFrame(const WireMessage& m, std::uint64_t i) {
  switch (i % 3) {
    case 0:
      ASSERT_EQ(m.type, MsgType::kGetRequest) << "frame " << i;
      ASSERT_EQ(m.get, MixedRequest(i)) << "frame " << i;
      break;
    case 1:
      ASSERT_EQ(m.type, MsgType::kGetReply) << "frame " << i;
      ASSERT_EQ(m.reply, MixedReply(i)) << "frame " << i;
      break;
    default:
      ASSERT_EQ(m.type, MsgType::kTraceReply) << "frame " << i;
      ASSERT_EQ(m.trace, MixedTrace(i)) << "frame " << i;
      break;
  }
}

// Frames are cut after every chunk read, so chunk edges land inside
// frames: the partial tail must carry over byte-exactly, delivering each
// frame exactly once and in order.
TEST(NetdFrameConn, FramesStraddlingReadChunksDecodeInOrder) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  MakeNonBlocking(fds[0]);
  MakeNonBlocking(fds[1]);
  FrameConn a(fds[0]);
  FrameConn b(fds[1]);

  std::uint64_t got = 0;
  const auto check = [&](const WireMessage& m) { ExpectMixedFrame(m, got++); };
  std::uint64_t sent = 0;
  std::size_t bytes = 0;
  while (bytes < (std::size_t{3} << 20)) {
    bytes += SendMixedFrame(&a, sent++);
    // The socket buffer is full once a threshold write left bytes queued.
    if (a.outbox_bytes() >= FrameConn::kFlushThresholdBytes) {
      ASSERT_TRUE(b.OnReadable(check));
    }
  }
  int rounds = 0;
  while (got < sent) {
    ASSERT_TRUE(a.Flush());
    ASSERT_TRUE(b.OnReadable(check));
    ASSERT_LT(++rounds, 100000) << "frames never arrived";
  }
  EXPECT_EQ(got, sent);
  EXPECT_EQ(a.outbox_bytes(), 0u);
}

// Every TCP socket of the fleet comes from the factory in conn.h: both
// ends of a loopback connection, dialed blocking or not, run without
// Nagle and are non-blocking and close-on-exec, like their listener.
TEST(NetdSocketFactory, DialedAndAcceptedSocketsSetNoDelay) {
  std::uint16_t port = 0;
  const int listener = ListenTcp(&port);
  ASSERT_GT(port, 0);
  const auto expect_flags = [](int fd, bool connected) {
    EXPECT_NE(::fcntl(fd, F_GETFL) & O_NONBLOCK, 0) << "fd " << fd;
    EXPECT_NE(::fcntl(fd, F_GETFD) & FD_CLOEXEC, 0) << "fd " << fd;
    if (!connected) return;
    int on = 0;
    socklen_t len = sizeof on;
    ASSERT_EQ(::getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &on, &len), 0);
    EXPECT_EQ(on, 1) << "fd " << fd;
  };
  expect_flags(listener, /*connected=*/false);
  for (const bool wait : {true, false}) {
    int err = -1;
    const int dialed = DialTcp(port, wait, &err);
    if (wait) {
      EXPECT_EQ(err, 0);
    } else {
      EXPECT_TRUE(err == 0 || err == EINPROGRESS) << "connect errno " << err;
    }
    pollfd p{listener, POLLIN, 0};
    ASSERT_EQ(::poll(&p, 1, 5000), 1) << "the connection never arrived";
    const int accepted = AcceptTcp(listener);
    ASSERT_GE(accepted, 0) << "accept errno " << errno;
    expect_flags(dialed, /*connected=*/true);
    expect_flags(accepted, /*connected=*/true);
    ::close(accepted);
    ::close(dialed);
  }
  // Nothing pending: accept(2)'s -1 and EAGAIN, not a throw or a block.
  const int none = AcceptTcp(listener);
  const int accept_errno = errno;
  EXPECT_EQ(none, -1);
  EXPECT_TRUE(accept_errno == EAGAIN || accept_errno == EWOULDBLOCK);
  ::close(listener);
}

// The option does not apply to an AF_UNIX socket: the failed setsockopt
// throws instead of leaving a socket with Nagle on.
TEST(NetdSocketFactory, FailedSetNoDelayThrows) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  EXPECT_THROW(SetNoDelay(fds[0]), std::invalid_argument);
  ::close(fds[0]);
  ::close(fds[1]);
  EXPECT_THROW(SetNoDelay(-1), std::invalid_argument);
}

TEST(NetdSegments, FleetOfSegmentPlanesMatchesOracleExactly) {
  const Cluster c = MakeCluster(260, 10, 4, 30000);
  const ServingMetrics oracle = ReplayOracle(c.config);
  const ServingMetrics fleet = SumMetrics(RunSegmentFleet(c));
  EXPECT_EQ(fleet, oracle);
  EXPECT_EQ(fleet.requests, c.config.total_requests);
  EXPECT_GT(fleet.cache_served, 0u);
  EXPECT_GT(fleet.home_served, 0u);
}

TEST(NetdSegments, FaultedFleetMatchesOracleIncludingFailovers) {
  Cluster c = MakeCluster(260, 10, 4, 30000);
  CrashFirstInternalNode(&c);
  ASSERT_FALSE(c.config.down.empty());
  const ServingMetrics oracle = ReplayOracle(c.config);
  const ServingMetrics fleet = SumMetrics(RunSegmentFleet(c));
  EXPECT_EQ(fleet, oracle);
  EXPECT_GT(fleet.failovers, 0u);
  EXPECT_GT(fleet.failed_attempts, 0u);
}

TEST(NetdSegments, DropsMatchOracleWhenRetryBudgetExhausts) {
  Cluster c = MakeCluster(260, 10, 4, 30000);
  // Crash the deepest root path, one node longer than the retry budget.
  const NetdScenario drops = NetdScenarios(c.tree)[2];
  ASSERT_GE(drops.down.size(), 3u);
  c.config.down = drops.down;
  c.config.serving.max_failover_attempts = drops.max_failover_attempts;
  const ServingMetrics oracle = ReplayOracle(c.config);
  const ServingMetrics fleet = SumMetrics(RunSegmentFleet(c));
  EXPECT_EQ(fleet, oracle);
  EXPECT_GT(fleet.dropped_requests, 0u);
}

TEST(NetdCluster, ForkedFleetOverLoopbackMatchesOracle) {
  const Cluster c = MakeCluster(200, 8, 4, 20000);
  const NetdRunResult run = RunNetdCluster(c.config);
  ASSERT_TRUE(run.ok);
  ExpectFleetLaws(c.config, run);
  EXPECT_GT(run.fleet.net_forwards, 0u);
  ASSERT_EQ(run.per_server.size(), 4u);
}

TEST(NetdSegments, SegmentFleetTraceMatchesOracleRecordForRecord) {
  Cluster c = MakeCluster(260, 10, 4, 30000);
  c.config.serving.trace = true;
  c.config.serving.trace_sample_shift = 6;  // ~1/64: a dense traced set
  std::vector<TraceEvent> oracle_trace;
  ReplayOracle(c.config, &oracle_trace);
  std::vector<TraceEvent> fleet_trace;
  RunSegmentFleet(c, &fleet_trace);
  ASSERT_GT(oracle_trace.size(), 100u);
  ASSERT_EQ(fleet_trace.size(), oracle_trace.size());
  for (std::size_t i = 0; i < oracle_trace.size(); ++i)
    ASSERT_EQ(fleet_trace[i], oracle_trace[i]) << "record " << i;
}

TEST(NetdSegments, FaultedSegmentFleetTraceMatchesOracle) {
  Cluster c = MakeCluster(260, 10, 4, 30000);
  c.config.serving.trace = true;
  c.config.serving.trace_sample_shift = 5;
  CrashFirstInternalNode(&c);
  ASSERT_FALSE(c.config.down.empty());
  std::vector<TraceEvent> oracle_trace;
  ReplayOracle(c.config, &oracle_trace);
  std::vector<TraceEvent> fleet_trace;
  RunSegmentFleet(c, &fleet_trace);
  ASSERT_EQ(fleet_trace.size(), oracle_trace.size());
  bool saw_failover = false;
  for (std::size_t i = 0; i < oracle_trace.size(); ++i) {
    ASSERT_EQ(fleet_trace[i], oracle_trace[i]) << "record " << i;
    saw_failover |= oracle_trace[i].kind == TraceEventKind::kFailover;
  }
  EXPECT_TRUE(saw_failover) << "faulted stream should trace failovers";
}

// The scraped trace records, merged across daemons, equal the oracle's
// record for record; every live scrape is monotone and the final one
// sums to the oracle's totals.
TEST(NetdCluster, ForkedFleetTraceAndScrapesMatchOracle) {
  Cluster c = MakeCluster(200, 8, 4, 20000);
  c.config.serving.trace = true;
  c.config.serving.trace_sample_shift = 6;
  c.config.stats_scrape_period_ms = 2;
  const NetdRunResult run = RunNetdCluster(c.config);
  ASSERT_TRUE(run.ok);
  EXPECT_GT(ExpectFleetLaws(c.config, run).size(), 0u);
}

TEST(NetdCluster, ForkedFaultedFleetMatchesOracle) {
  Cluster c = MakeCluster(200, 8, 4, 20000);
  CrashFirstInternalNode(&c);
  const NetdRunResult run = RunNetdCluster(c.config);
  ASSERT_TRUE(run.ok);
  ExpectFleetLaws(c.config, run);
  EXPECT_GT(run.fleet.failovers, 0u);
}

TEST(NetdCluster, MultiEpochFleetMatchesOracleWithoutFaults) {
  Cluster c = MakeCluster(200, 8, 4, 0);
  EpochPlanOptions opt;
  opt.epochs = 3;
  opt.requests_per_epoch = 6000;
  opt.inject_faults = false;
  BuildEpochPlan(&c.config, opt);
  const NetdRunResult run = RunNetdCluster(c.config);
  ASSERT_TRUE(run.ok);
  // One quiesced barrier sample per transition, each summing exactly to
  // the oracle's cumulative counters after the epoch it closes.
  ExpectFleetLaws(c.config, run);
  EXPECT_EQ(run.epoch_samples.size(), 2u);
}

// The kill/restart scenario: five traced epochs of 4000 requests whose
// process-fault plan kills and re-forks at least one daemon.
void MakeKillRestartPlan(Cluster* c) {
  const ProcessFaultPlan plan =
      BuildEpochPlan(&c->config, KillRestartPlanOptions(4, 5, 4000));
  ASSERT_TRUE(plan.any);
  c->config.serving.trace = true;
  c->config.serving.trace_sample_shift = 6;
}

// The seed probe returns the smallest seed whose plan both kills and
// restarts a daemon, and 0 when the schedule can never kill, or never
// restart (two epochs: a daemon killed entering epoch 1 stays dead).
TEST(NetdCluster, FirstKillRestartSeedIsTheSmallestQualifyingSeed) {
  const int epochs = 5;
  bool probed_past_one = false;
  for (const double fraction : {0.02, 0.05, 0.4}) {
    FaultScheduleOptions faults = KillRestartFaults();
    faults.crash_fraction = fraction;
    const std::uint64_t seed = FirstKillRestartSeed(4, epochs, faults);
    ASSERT_NE(seed, 0u) << "crash fraction " << fraction;
    probed_past_one |= seed > 1;
    for (std::uint64_t s = 1; s <= seed; ++s) {
      faults.seed = s;
      const ProcessFaultPlan p = BuildProcessFaultPlan(4, epochs, faults);
      const bool qualifies = CountThrough(p.kill_at, epochs - 1) >= 1 &&
                             CountThrough(p.restart_at, epochs - 1) >= 1;
      EXPECT_EQ(qualifies, s == seed)
          << "crash fraction " << fraction << ", seed " << s;
    }
  }
  EXPECT_TRUE(probed_past_one) << "no case has a smaller seed to reject";

  FaultScheduleOptions never = KillRestartFaults();
  never.crash_fraction = 0;
  EXPECT_EQ(FirstKillRestartSeed(4, epochs, never), 0u);
  EXPECT_EQ(FirstKillRestartSeed(4, 2, KillRestartFaults()), 0u);
}

// The headline: a fleet that loses daemons to SIGKILL mid-run and
// re-forks them serves the identical integer counters as the in-process
// oracle replaying the same epoch plan — bit for bit, across the kill,
// and again after restart + delta re-sync.
TEST(NetdCluster, KilledAndRestartedFleetMatchesOracleBitForBit) {
  Cluster c = MakeCluster(200, 8, 4, 0);
  ASSERT_NO_FATAL_FAILURE(MakeKillRestartPlan(&c));
  const NetdRunResult run = RunNetdCluster(c.config);
  ASSERT_TRUE(run.ok);
  EXPECT_GT(ExpectFleetLaws(c.config, run).size(), 0u);
  // A live peer link to a victim (a forward link or the gossip link)
  // went down at the kill: its conn-down counts a reconnect.
  EXPECT_GE(run.fleet.reconnects, 1u);
}

// The same scenario with a 1 ms live scraper: scrapes land at epoch
// boundaries and at the final drain, so the boundary and final rounds
// routinely wait behind an outstanding scrape.  Every law still holds,
// and the samples end with the end-of-run round.
TEST(NetdCluster, ScrapesInterleaveWithKillBoundaries) {
  Cluster c = MakeCluster(200, 8, 4, 0);
  ASSERT_NO_FATAL_FAILURE(MakeKillRestartPlan(&c));
  c.config.stats_scrape_period_ms = 1;
  const NetdRunResult run = RunNetdCluster(c.config);
  ASSERT_TRUE(run.ok);
  EXPECT_GT(ExpectFleetLaws(c.config, run).size(), 0u);
  // A live peer link to a victim (a forward link or the gossip link)
  // went down at the kill: its conn-down counts a reconnect.
  EXPECT_GE(run.fleet.reconnects, 1u);
}

// The law function names what broke.  One real kill/restart run keeps
// every law; each perturbation of a copy then breaks exactly one law,
// and the violation says which.
TEST(NetdCluster, FleetLawsNameEachViolation) {
  Cluster c = MakeCluster(200, 8, 4, 0);
  ASSERT_NO_FATAL_FAILURE(MakeKillRestartPlan(&c));
  const NetdRunResult run = RunNetdCluster(c.config);
  ASSERT_TRUE(run.ok);
  std::vector<TraceEvent> oracle_trace;
  std::vector<WireCounters> per_epoch;
  const ServingMetrics oracle =
      ReplayOracle(c.config, &oracle_trace, &per_epoch);
  const auto laws = [&](const NetdRunResult& r) {
    return FleetLawViolations(c.config, r, oracle, oracle_trace, per_epoch);
  };
  ASSERT_EQ(laws(run), std::vector<std::string>{});
  ASSERT_FALSE(run.retired.empty());
  ASSERT_FALSE(run.rejoin_hello_epochs.empty());
  ASSERT_GE(run.epoch_samples.size(), 2u);
  ASSERT_FALSE(run.trace.empty());
  const auto expect_one = [&](const NetdRunResult& r, const std::string& law,
                              const std::string& mentions) {
    const std::vector<std::string> v = laws(r);
    ASSERT_EQ(v.size(), 1u) << ::testing::PrintToString(v);
    EXPECT_EQ(v[0].substr(0, v[0].find(':')), law) << v[0];
    EXPECT_NE(v[0].find(mentions), std::string::npos) << v[0];
  };

  // A victim's scrape feeds every quiesced sum after its kill, the final
  // one included.
  NetdRunResult bad = run;
  bad.retired.back().requests += 1;
  expect_one(bad, "quiesced", "final");

  bad = run;
  bad.trace.erase(bad.trace.begin() + 1);
  expect_one(bad, "trace", "first difference at record 1");

  bad = run;
  bad.epoch_samples[1].per_server[0].hop_sum += 1;
  expect_one(bad, "quiesced", "barrier 1 differ");

  bad = run;
  for (NetdRunResult::FlightDump& d : bad.flights)
    if (d.victim) {
      d.events.clear();
      break;
    }
  expect_one(bad, "flight", "1 empty rings");

  bad = run;
  bad.rejoin_hello_epochs[0] = 1;
  expect_one(bad, "membership", "nonzero epoch");

  bad = run;
  bad.server_hist[0].Record(1000);
  expect_one(bad, "serve histogram", "count");
}

// A run that fails after the fork must not leave daemons behind: a plan
// that kills server 0 (the root's owner) throws at the first boundary,
// and every daemon is killed and reaped before the exception escapes.
TEST(NetdCluster, FailedRunLeavesNoDaemonBehind) {
  Cluster c = MakeCluster(200, 8, 4, 0);
  EpochPlanOptions opt;
  opt.epochs = 2;
  opt.requests_per_epoch = 2000;
  opt.inject_faults = false;
  BuildEpochPlan(&c.config, opt);
  c.config.epochs[1].kill_servers = {0};
  EXPECT_ANY_THROW(RunNetdCluster(c.config));
  int status = 0;
  errno = 0;
  EXPECT_EQ(::waitpid(-1, &status, WNOHANG), -1);
  EXPECT_EQ(errno, ECHILD);
}

// A daemon that answers a request twice fails the run by name: counted,
// the duplicate would close the epoch block a request early.  The fake
// daemon is a forked child that replies to every GetRequest twice.
TEST(NetdCluster, DuplicateReplyFailsTheRunByName) {
  Cluster c = MakeCluster(200, 8, 1, 100);
  std::uint16_t port = 0;
  const int listen_fd = ListenTcp(&port);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    pollfd p{listen_fd, POLLIN, 0};
    ::poll(&p, 1, 10000);
    FrameConn conn(AcceptTcp(listen_fd));
    bool alive = conn.fd() >= 0;
    while (alive) {
      p = pollfd{conn.fd(), POLLIN, 0};
      ::poll(&p, 1, 10000);
      alive = conn.OnReadable([&conn](const WireMessage& m) {
        if (m.type != MsgType::kGetRequest) return;
        GetReply r;
        r.req_id = m.get.req_id;
        r.doc = m.get.doc;
        conn.Send(r);
        conn.Send(r);
      });
      conn.Flush();
    }
    ::_exit(0);
  }
  std::string error;
  try {
    LoadgenClient loadgen(c.config, {port});
    NetdRunResult run;
    loadgen.Run(&run);
  } catch (const std::invalid_argument& e) {
    error = e.what();
  }
  ::kill(pid, SIGKILL);
  ::waitpid(pid, nullptr, 0);
  ::close(listen_fd);
  EXPECT_NE(error.find("a GetReply for a request not in flight"),
            std::string::npos)
      << error;
}

// A watermark smaller than one frame forces every cross-shard forward to
// shed: bounded backpressure turns them into clean client-visible drops
// instead of unbounded buffering, and the run still accounts for every
// request.
TEST(NetdCluster, TinyWatermarkShedsForwardsIntoDrops) {
  Cluster c = MakeCluster(200, 8, 4, 20000);
  c.config.outbox_watermark_bytes = 16;
  const NetdRunResult run = RunNetdCluster(c.config);
  ASSERT_TRUE(run.ok);
  EXPECT_GT(run.fleet.shed_forwards, 0u);
  EXPECT_EQ(run.client_served + run.client_dropped, c.config.total_requests);
  EXPECT_GT(run.client_dropped, 0u);
}

}  // namespace
}  // namespace webwave
