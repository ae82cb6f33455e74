// BatchWebWaveSimulator must be N independent runs of the frozen
// single-lane reference simulator (webwave_reference.h), document for
// document: same tree, same options, lane d seeded options.seed + d.  The
// sweeps below assert exact per-lane agreement under the paper's
// assumptions and their relaxations (gossip period, gossip delay,
// asynchronous activation) and across document block widths — the
// blocked kernel interleaves lanes in memory but must not change a single
// bit of any lane — plus RunUntil's trajectory, invariants, dirty-lane
// tracking and the catalog wiring.  WebWaveKernel.SimdMatchesScalarBitwise
// holds every SIMD step variant the host runs to the scalar loop.
#include "core/load_model.h"
#include "core/webfold.h"
#include "core/webwave_batch.h"
#include "doc/catalog.h"
#include "sim/churn.h"
#include "tree/builders.h"
#include "webwave_reference.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

namespace webwave {
namespace {

struct BatchCase {
  int nodes;
  int docs;
  std::uint64_t seed;
  bool asynchronous;
  int gossip_period;
  int gossip_delay;
  int steps;
  int lane_block = 8;
  bool capacities = false;  // heterogeneous node capacities in [0.5, 4]
};

std::ostream& operator<<(std::ostream& os, const BatchCase& c) {
  return os << "n=" << c.nodes << " docs=" << c.docs << " seed=" << c.seed
            << (c.asynchronous ? " async" : " sync")
            << " gp=" << c.gossip_period << " gd=" << c.gossip_delay
            << " B=" << c.lane_block << (c.capacities ? " caps" : "");
}

std::vector<std::vector<double>> RandomLanes(int nodes, int docs, Rng& rng) {
  std::vector<std::vector<double>> lanes(static_cast<std::size_t>(docs));
  for (auto& lane : lanes) {
    lane.resize(static_cast<std::size_t>(nodes));
    for (auto& e : lane)
      e = rng.NextBernoulli(0.25) ? 0.0 : rng.NextDouble(0, 30);
  }
  return lanes;
}

class BatchEquivalenceSweep : public ::testing::TestWithParam<BatchCase> {};

TEST_P(BatchEquivalenceSweep, MatchesIndependentSimulatorsDocumentForDocument) {
  const BatchCase c = GetParam();
  Rng rng(c.seed);
  const RoutingTree tree = MakeRandomTree(c.nodes, rng);
  const std::vector<std::vector<double>> lanes =
      RandomLanes(c.nodes, c.docs, rng);

  WebWaveOptions opt;
  opt.asynchronous = c.asynchronous;
  opt.gossip_period = c.gossip_period;
  opt.gossip_delay = c.gossip_delay;
  opt.lane_block = c.lane_block;
  opt.seed = c.seed * 101 + 7;
  if (c.capacities)
    for (int v = 0; v < c.nodes; ++v)
      opt.capacities.push_back(rng.NextDouble(0.5, 4.0));

  BatchWebWaveSimulator batch(tree, lanes, opt);
  // The independent reference simulators share the batch's edge build —
  // one flattening of the tree for the whole test (and a live check that
  // a shared build gives the same results as a private one).
  const internal::SharedEdgeArrays edges = batch.shared_edges();
  std::vector<WebWaveSimulator> singles;
  for (int d = 0; d < c.docs; ++d) {
    WebWaveOptions lane_opt = opt;
    lane_opt.seed = opt.seed + static_cast<std::uint64_t>(d);
    singles.emplace_back(tree, lanes[static_cast<std::size_t>(d)], lane_opt,
                         edges);
  }

  for (int s = 0; s < c.steps; ++s) {
    batch.Step();
    for (auto& single : singles) single.Step();
    if (s % 16 != 0) continue;
    for (int d = 0; d < c.docs; ++d) {
      const std::vector<double> lane = batch.ServedLane(d);
      const std::vector<double>& expect = singles[static_cast<std::size_t>(d)].served();
      for (int v = 0; v < c.nodes; ++v)
        ASSERT_EQ(lane[static_cast<std::size_t>(v)],
                  expect[static_cast<std::size_t>(v)])
            << c << " step=" << s << " doc=" << d << " node=" << v;
    }
  }
  ASSERT_NO_THROW(batch.CheckInvariants(1e-6));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BatchEquivalenceSweep,
    ::testing::Values(BatchCase{2, 1, 1, false, 1, 0, 50},
                      BatchCase{25, 4, 2, false, 1, 0, 120},
                      BatchCase{60, 6, 3, false, 1, 0, 150},
                      BatchCase{40, 3, 4, false, 3, 0, 120},
                      BatchCase{40, 3, 5, false, 1, 2, 120},
                      BatchCase{30, 5, 6, false, 4, 3, 150},
                      BatchCase{35, 4, 7, true, 1, 0, 120},
                      BatchCase{30, 4, 8, true, 2, 1, 150}));

// Ragged-block coverage: catalog sizes around the block width (D = 1, 7,
// B, B+1 and a many-block ragged 65 at B = 8; plus non-default widths),
// so full blocks, the ragged tail and the single-lane degenerate case all
// step bit-identically to independent simulators.
INSTANTIATE_TEST_SUITE_P(
    RaggedBlocks, BatchEquivalenceSweep,
    ::testing::Values(BatchCase{24, 1, 11, false, 1, 0, 60, 8},
                      BatchCase{24, 7, 12, false, 2, 1, 80, 8},
                      BatchCase{24, 8, 13, false, 1, 0, 80, 8},
                      BatchCase{24, 9, 14, false, 1, 2, 80, 8},
                      BatchCase{20, 65, 15, false, 1, 0, 40, 8},
                      BatchCase{24, 9, 16, true, 2, 1, 80, 8},
                      BatchCase{24, 10, 17, false, 1, 0, 60, 4},
                      BatchCase{24, 10, 18, false, 3, 2, 80, 1},
                      BatchCase{24, 5, 19, true, 1, 0, 60, 16}));

// Trees large enough that full 8-lane chunks carry most of the work, so
// the SIMD step path (see webwave_kernel.h) is held to independent
// scalar simulators: instantaneous and delayed gossip, a ragged tail lane
// beside a full chunk, 16-wide blocks, and heterogeneous capacities.
INSTANTIATE_TEST_SUITE_P(
    SimdBlocks, BatchEquivalenceSweep,
    ::testing::Values(BatchCase{300, 16, 41, false, 1, 0, 80, 8, true},
                      BatchCase{320, 16, 42, false, 3, 2, 80, 8},
                      BatchCase{300, 17, 43, false, 1, 0, 80, 8, true},
                      BatchCase{310, 40, 44, false, 2, 1, 64, 16, true}));

std::uint64_t Bits(double x) {
  std::uint64_t u = 0;
  std::memcpy(&u, &x, sizeof u);
  return u;
}

// A rate from a small adversarial set — signed zeros, the smallest
// subnormals, NaN, repeated ordinary values — or a uniform draw, so ties
// between +0 and −0, NaN operands, transfers that underflow to zero and
// balanced edges are all frequent.
double AdversarialRate(Rng& rng) {
  static constexpr double kValues[] = {0.0, -0.0, 5e-324, -5e-324,
                                       0.5, 1.0,  3.0,    7.25};
  if (rng.NextBernoulli(0.02)) return std::numeric_limits<double>::quiet_NaN();
  if (rng.NextBernoulli(0.5)) return rng.NextDouble(0, 10);
  return kValues[rng.NextBelow(8)];
}

// A utilization u whose dead band kImbalanceDeadband·u is exactly
// x = 2^-20, where u − x is exact too: an edge with utilization u and
// estimate u − x sits on the dead band, neither side of it.
double DeadbandUtilization(double* x) {
  *x = std::ldexp(1.0, -20);
  double u = *x / internal::kImbalanceDeadband;
  while (internal::kImbalanceDeadband * u < *x) u = std::nextafter(u, 1e300);
  return u;
}

// One block of `width` lanes over `tree`, in the kernel's [node][width]
// layout, with heterogeneous capacities and an estimate plane that is
// not the served block.  Most lanes are adversarial; lane 1 sits exactly
// on the dead band at every edge whose endpoints both have power-of-two
// capacities (so u·c and (u − x)·c are exact), lane 2 is one ulp past it,
// and lane 4 is balanced (every utilization and estimate exactly 1: zero
// transfers) with a NaN forwarded rate, which only the update mask keeps
// out of `changed`.
struct KernelBlock {
  std::vector<double> capacity, served, forwarded, est;
};

KernelBlock MakeKernelBlock(const RoutingTree& tree, int width, Rng& rng) {
  const std::size_t n = static_cast<std::size_t>(tree.size());
  const std::size_t w = static_cast<std::size_t>(width);
  static constexpr double kPow2[] = {0.5, 1.0, 2.0, 4.0};
  KernelBlock blk;
  for (std::size_t v = 0; v < n; ++v)
    blk.capacity.push_back(v % 3 == 0 ? rng.NextDouble(0.5, 4.0)
                                      : kPow2[rng.NextBelow(4)]);
  blk.served.resize(n * w);
  blk.forwarded.resize(n * w);
  blk.est.resize(n * w);
  double x = 0;
  const double u = DeadbandUtilization(&x);
  for (std::size_t v = 0; v < n; ++v) {
    const double cv = blk.capacity[v];
    const bool exact = v % 3 != 0;
    for (std::size_t b = 0; b < w; ++b) {
      const std::size_t i = v * w + b;
      blk.served[i] = AdversarialRate(rng);
      blk.forwarded[i] = AdversarialRate(rng);
      blk.est[i] = AdversarialRate(rng);
      if (b == 1 && exact) {
        blk.served[i] = u * cv;
        blk.est[i] = (u - x) * cv;
      } else if (b == 2 && exact) {
        blk.served[i] = u * cv;
        blk.est[i] = std::nextafter((u - x) * cv, 0.0);
      } else if (b == 4) {
        blk.served[i] = blk.est[i] = cv;  // utilization exactly 1
        blk.forwarded[i] = std::numeric_limits<double>::quiet_NaN();
      }
    }
  }
  return blk;
}

void ExpectBitwiseEqual(const std::vector<double>& got,
                        const std::vector<double>& want,
                        const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(Bits(got[i]), Bits(want[i]))
        << what << " index " << i << ": " << got[i] << " vs " << want[i];
}

// Every SIMD variant of the step kernel is the scalar loop, bit for bit:
// served, forwarded, the transfer scratch and the changed flags, over
// widths with and without a scalar remainder, for three chained rounds.
TEST(WebWaveKernel, SimdMatchesScalarBitwise) {
  struct Variant {
    const char* isa;
    internal::StepLaneBlockFn step;
    bool supported;
  };
  std::vector<Variant> variants;
#if defined(__x86_64__)
  variants.push_back({"AVX-512F/DQ", internal::StepLaneBlockAvx512,
                      internal::CpuHasAvx512()});
  variants.push_back(
      {"AVX2", internal::StepLaneBlockAvx2, internal::CpuHasAvx2()});
#endif
  std::string missing;
  for (const Variant& variant : variants)
    if (!variant.supported) missing += std::string(" ") + variant.isa;

  Rng rng(1901);
  const RoutingTree tree = MakeRandomTree(200, rng);
  const WebWaveOptions options;
  const internal::EdgeArrays edges = internal::BuildEdgeArrays(tree, options);
  const std::size_t e = edges.size();
  double x = 0;
  const double u = DeadbandUtilization(&x);
  ASSERT_EQ(internal::kImbalanceDeadband * u, x);
  ASSERT_EQ(u - (u - x), x);

  for (const int width : {8, 9, 16, 17, 24}) {
    const std::size_t w = static_cast<std::size_t>(width);
    const KernelBlock start = MakeKernelBlock(tree, width, rng);
    // The construction really puts lane 1 on the dead band somewhere.
    int on_band = 0;
    for (std::size_t k = 0; k < e; ++k) {
      const std::size_t p = static_cast<std::size_t>(edges.parent[k]);
      const std::size_t c = static_cast<std::size_t>(edges.child[k]);
      const double up = start.served[p * w + 1] / start.capacity[p];
      const double pv = start.est[c * w + 1] / start.capacity[c];
      on_band += up - pv == internal::kImbalanceDeadband * up;
    }
    ASSERT_GT(on_band, 0) << "width " << width;

    for (const Variant& variant : variants) {
      if (!variant.supported) continue;
      KernelBlock want = start;
      KernelBlock got = start;
      std::vector<double> want_delta(e * w), got_delta(e * w);
      for (int round = 0; round < 3; ++round) {
        std::vector<std::uint8_t> want_changed(w, 0), got_changed(w, 0);
        internal::StepLaneBlock(edges, want.capacity.data(), options, nullptr,
                                width, want.served.data(),
                                want.forwarded.data(), want.est.data(),
                                want_delta.data(), want_changed.data());
        variant.step(edges, got.capacity.data(), options, nullptr, width,
                     got.served.data(), got.forwarded.data(), got.est.data(),
                     got_delta.data(), got_changed.data());
        const std::string where = std::string(variant.isa) + " width " +
                                  std::to_string(width) + " round " +
                                  std::to_string(round);
        ExpectBitwiseEqual(got.served, want.served, where + " served");
        ExpectBitwiseEqual(got.forwarded, want.forwarded,
                           where + " forwarded");
        ExpectBitwiseEqual(got_delta, want_delta, where + " delta");
        ASSERT_EQ(got_changed, want_changed) << where << " changed";
        EXPECT_EQ(want_changed[4], 0) << where << " balanced lane moved";
      }
    }
  }
  if (!missing.empty())
    GTEST_SKIP() << "host lacks" << missing << "; supported variants passed";
  if (variants.empty())
    GTEST_SKIP() << "no SIMD step variant on this architecture";
}

// The option families the one-lane ports run: the paper's defaults, an
// uncapped alpha that never settles, heterogeneous capacities,
// asynchronous activation, sparse and stale gossip, and a capped fixed
// alpha from a self-service start.
std::vector<WebWaveOptions> ReferenceOptionSets(int nodes, Rng& rng) {
  std::vector<WebWaveOptions> sets(6);
  sets[1].alpha_policy = AlphaPolicy::kFixedUncapped;
  sets[1].alpha = 0.5;
  for (int v = 0; v < nodes; ++v)
    sets[2].capacities.push_back(rng.NextDouble(0.5, 4.0));
  sets[3].asynchronous = true;
  sets[4].gossip_period = 3;
  sets[4].gossip_delay = 2;
  sets[5].alpha_policy = AlphaPolicy::kFixed;
  sets[5].alpha = 0.3;
  sets[5].initial_load = InitialLoad::kSelfService;
  for (WebWaveOptions& set : sets) set.seed = rng.Next();
  return sets;
}

// RunUntil steps the whole batch and reads one lane's distance, so a
// one-lane batch and lane 3 of a 9-lane batch (seeded seed + 3) must both
// trace the reference simulator's distance trajectory and end on its
// served vector, bit for bit.  Lane 3 sits in a full 8-lane block, so the
// SIMD step runs it wherever the host has one.
TEST(BatchWebWave, RunUntilMatchesTheReferenceTrajectory) {
  for (const int nodes : {12, 30, 57, 90}) {
    Rng rng(static_cast<std::uint64_t>(nodes) * 131 + 5);
    const RoutingTree tree = MakeRandomTree(nodes, rng);
    const std::vector<std::vector<double>> lanes = RandomLanes(nodes, 9, rng);
    const std::vector<double>& lane3 = lanes[3];
    const std::vector<double> target = WebFold(tree, lane3).load;
    const std::vector<WebWaveOptions> sets = ReferenceOptionSets(nodes, rng);
    for (std::size_t i = 0; i < sets.size(); ++i) {
      const std::string where =
          "n=" + std::to_string(nodes) + " option set " + std::to_string(i);
      WebWaveOptions lane_opt = sets[i];
      lane_opt.seed = sets[i].seed + 3;
      WebWaveSimulator reference(tree, lane3, lane_opt);
      BatchWebWaveSimulator one(tree, {lane3}, lane_opt);
      BatchWebWaveSimulator nine(tree, lanes, sets[i]);
      const std::vector<double> want =
          reference.RunUntil(target, 1e-6, 600);
      ExpectBitwiseEqual(one.RunUntil(0, target, 1e-6, 600), want,
                         where + " one-lane trajectory");
      ExpectBitwiseEqual(nine.RunUntil(3, target, 1e-6, 600), want,
                         where + " lane-3 trajectory");
      ExpectBitwiseEqual(one.ServedLane(0), reference.served(),
                         where + " one-lane served");
      ExpectBitwiseEqual(nine.ServedLane(3), reference.served(),
                         where + " lane-3 served");
    }
  }
}

TEST(BatchWebWave, LanesConvergeToTheirOwnTlbAssignments) {
  Rng rng(21);
  const RoutingTree tree = MakeRandomTree(50, rng);
  const std::vector<std::vector<double>> lanes = RandomLanes(50, 4, rng);
  BatchWebWaveSimulator batch(tree, lanes);
  for (int s = 0; s < 20000; ++s) batch.Step();
  for (int d = 0; d < 4; ++d) {
    const WebFoldResult target =
        WebFold(tree, lanes[static_cast<std::size_t>(d)]);
    const double total = TotalRate(lanes[static_cast<std::size_t>(d)]);
    EXPECT_LE(batch.DistanceTo(d, target.load),
              std::max(1e-6, 1e-6 * total))
        << "doc " << d;
  }
  batch.CheckInvariants(1e-6);
}

TEST(BatchWebWave, NodeLoadsSumLanes) {
  Rng rng(23);
  const RoutingTree tree = MakeRandomTree(30, rng);
  const std::vector<std::vector<double>> lanes = RandomLanes(30, 5, rng);
  BatchWebWaveSimulator batch(tree, lanes);
  for (int s = 0; s < 40; ++s) batch.Step();
  const std::vector<double> totals = batch.NodeLoads();
  std::vector<std::vector<double>> served;
  for (int d = 0; d < 5; ++d) served.push_back(batch.ServedLane(d));
  double mx = 0;
  for (int v = 0; v < 30; ++v) {
    double sum = 0;
    for (int d = 0; d < 5; ++d)
      sum += served[static_cast<std::size_t>(d)][static_cast<std::size_t>(v)];
    EXPECT_NEAR(totals[static_cast<std::size_t>(v)], sum, 1e-12);
    mx = std::max(mx, sum);
  }
  EXPECT_NEAR(batch.MaxNodeLoad(), mx, 1e-12);
}

TEST(BatchWebWave, CatalogWiringStepsEveryDocumentOfADemandMatrix) {
  Rng rng(27);
  const RoutingTree tree = MakeKaryTree(3, 4);
  const DemandMatrix demand = LeafZipfDemand(tree, 8, 50.0, 1.0, rng);
  BatchWebWaveSimulator batch = MakeCatalogBatch(tree, demand);
  ASSERT_EQ(batch.doc_count(), 8);
  ASSERT_EQ(batch.node_count(), tree.size());
  for (int s = 0; s < 4000; ++s) batch.Step();
  batch.CheckInvariants(1e-6);
  // Conservation per lane: each document's served mass equals its demand.
  for (DocId d = 0; d < 8; ++d) {
    const std::vector<double> lane = batch.ServedLane(d);
    EXPECT_NEAR(TotalRate(lane), demand.DocTotal(d), 1e-6)
        << "doc " << d;
  }
  // Each lane approaches its own document's TLB assignment, so the summed
  // node loads approach the sum of the per-document optima.
  std::vector<double> expected(static_cast<std::size_t>(tree.size()), 0.0);
  for (DocId d = 0; d < 8; ++d) {
    const WebFoldResult tlb = WebFold(tree, demand.DocColumn(d));
    for (std::size_t v = 0; v < expected.size(); ++v)
      expected[v] += tlb.load[v];
  }
  const std::vector<double> totals = batch.NodeLoads();
  for (std::size_t v = 0; v < expected.size(); ++v)
    EXPECT_NEAR(totals[v], expected[v], 1e-3 * (1 + demand.Total()));
}

// Demand events for a rotating-hot-spot shock, generated fresh for each
// caller so thread-invariance and equivalence tests see the same churn.
std::vector<DemandEvent> ShockEvents(const RoutingTree& tree, int docs,
                                     std::uint64_t seed, int round) {
  Rng rng(seed + static_cast<std::uint64_t>(round) * 977);
  std::vector<DemandEvent> events;
  for (NodeId v = 0; v < tree.size(); ++v)
    for (int d = 0; d < docs; ++d)
      if (rng.NextBernoulli(0.3))
        events.push_back({d, v, rng.NextDouble(0, 40)});
  return events;
}

// The tentpole guarantee: the threaded batch step is bit-identical to the
// serial path at 1, 2 and 8 threads, including under per-lane demand
// churn and with delayed gossip in play.  docs = 20 spans two full blocks
// plus a ragged tail at the default width, so the static partition splits
// mid-catalog.
class ThreadInvarianceSweep : public ::testing::TestWithParam<int> {};

TEST_P(ThreadInvarianceSweep, BatchStepsBitIdenticalToSerialUnderChurn) {
  const int gossip_delay = GetParam();
  const int nodes = 40, docs = 20;
  const std::uint64_t seed = 12;
  Rng rng(seed);
  const RoutingTree tree = MakeRandomTree(nodes, rng);
  const std::vector<std::vector<double>> lanes =
      RandomLanes(nodes, docs, rng);

  auto make_batch = [&](int threads) {
    WebWaveOptions opt;
    opt.gossip_period = 2;
    opt.gossip_delay = gossip_delay;
    opt.seed = seed;
    opt.threads = threads;
    return BatchWebWaveSimulator(tree, lanes, opt);
  };

  BatchWebWaveSimulator serial = make_batch(1);
  BatchWebWaveSimulator two = make_batch(2);
  BatchWebWaveSimulator eight = make_batch(8);
  ASSERT_EQ(serial.thread_count(), 1);
  ASSERT_EQ(two.thread_count(), 2);
  ASSERT_EQ(eight.thread_count(), 8);
  ASSERT_EQ(serial.lane_block(), 8);

  for (int round = 0; round < 6; ++round) {
    const std::vector<DemandEvent> events =
        ShockEvents(tree, docs, seed, round);
    serial.ApplyDemandEvents(events);
    two.ApplyDemandEvents(events);
    eight.ApplyDemandEvents(events);
    for (int s = 0; s < 25; ++s) {
      serial.Step();
      two.Step();
      eight.Step();
    }
    for (int d = 0; d < docs; ++d) {
      const std::vector<double> expect = serial.ServedLane(d);
      const std::vector<double> got2 = two.ServedLane(d);
      const std::vector<double> got8 = eight.ServedLane(d);
      for (std::size_t v = 0; v < static_cast<std::size_t>(nodes); ++v) {
        ASSERT_EQ(got2[v], expect[v])
            << "2 threads, gd=" << gossip_delay << " round=" << round
            << " doc=" << d << " node=" << v;
        ASSERT_EQ(got8[v], expect[v])
            << "8 threads, gd=" << gossip_delay << " round=" << round
            << " doc=" << d << " node=" << v;
      }
    }
  }
  ASSERT_NO_THROW(eight.CheckInvariants(1e-6));
}

INSTANTIATE_TEST_SUITE_P(GossipDelays, ThreadInvarianceSweep,
                         ::testing::Values(0, 2));

// Threaded + asynchronous: per-lane RNG streams must stay on their lanes
// regardless of which worker sweeps which block.
TEST(BatchWebWave, AsynchronousThreadedMatchesSerial) {
  const int nodes = 30, docs = 13;
  Rng rng(77);
  const RoutingTree tree = MakeRandomTree(nodes, rng);
  const std::vector<std::vector<double>> lanes =
      RandomLanes(nodes, docs, rng);
  WebWaveOptions opt;
  opt.asynchronous = true;
  opt.seed = 77;
  opt.lane_block = 4;
  BatchWebWaveSimulator serial(tree, lanes, opt);
  opt.threads = 8;
  BatchWebWaveSimulator threaded(tree, lanes, opt);
  for (int s = 0; s < 60; ++s) {
    serial.Step();
    threaded.Step();
  }
  for (int d = 0; d < docs; ++d)
    ASSERT_EQ(serial.ServedLane(d), threaded.ServedLane(d)) << "doc " << d;
}

// Churn equivalence: a batch receiving demand events per lane must match
// independent reference simulators receiving the merged vectors through
// UpdateSpontaneous — the per-lane gossip-history restart must not leak
// into untouched lanes (which share ring slots and the front estimate
// plane with churned lanes of the same block).
TEST(BatchWebWave, ApplyDemandEventsMatchesIndependentSimulatorsUnderChurn) {
  const int nodes = 30, docs = 10;  // blocks of 8: one full + ragged pair
  const std::uint64_t seed = 31;
  Rng rng(seed);
  const RoutingTree tree = MakeRandomTree(nodes, rng);
  std::vector<std::vector<double>> lanes = RandomLanes(nodes, docs, rng);

  WebWaveOptions opt;
  opt.gossip_period = 3;
  opt.gossip_delay = 2;  // the history ring is live: restarts must be per-lane
  opt.seed = seed;
  opt.threads = 4;
  BatchWebWaveSimulator batch(tree, lanes, opt);
  std::vector<WebWaveSimulator> singles;
  for (int d = 0; d < docs; ++d) {
    WebWaveOptions lane_opt = opt;
    lane_opt.seed = opt.seed + static_cast<std::uint64_t>(d);
    singles.emplace_back(tree, lanes[static_cast<std::size_t>(d)], lane_opt,
                         batch.shared_edges());
  }

  for (int round = 0; round < 8; ++round) {
    // Churn only the even lanes: odd lanes' delayed-gossip history must
    // keep running untouched.
    std::vector<DemandEvent> events;
    for (const DemandEvent& e : ShockEvents(tree, docs, seed, round))
      if (e.doc % 2 == 0) events.push_back(e);
    batch.ApplyDemandEvents(events);
    for (const DemandEvent& e : events)
      lanes[static_cast<std::size_t>(e.doc)][static_cast<std::size_t>(
          e.node)] = e.rate;
    for (int d = 0; d < docs; d += 2)
      singles[static_cast<std::size_t>(d)].UpdateSpontaneous(
          lanes[static_cast<std::size_t>(d)]);

    for (int s = 0; s < 10; ++s) {
      batch.Step();
      for (auto& single : singles) single.Step();
    }
    for (int d = 0; d < docs; ++d) {
      const std::vector<double> lane = batch.ServedLane(d);
      const std::vector<double>& expect =
          singles[static_cast<std::size_t>(d)].served();
      for (std::size_t v = 0; v < static_cast<std::size_t>(nodes); ++v)
        ASSERT_EQ(lane[v], expect[v])
            << "round=" << round << " doc=" << d << " node=" << v;
    }
  }
  ASSERT_NO_THROW(batch.CheckInvariants(1e-6));
}

// ChurnSchedule-driven equivalence at a non-trivial block width: the
// rotating-hot-spot event stream of the churn layer, applied both to the
// batch and to merged per-lane vectors on independent simulators.
TEST(BatchWebWave, ChurnScheduleEventsKeepBlockedLanesEquivalent) {
  const int nodes = 40, docs = 6;
  Rng rng(55);
  const RoutingTree tree = MakeRandomTree(nodes, rng);
  ChurnScheduleOptions copt;
  copt.pattern = ChurnPattern::kRotatingHotSpot;
  copt.doc_count = docs;
  copt.base_rate = 1.0;
  copt.hot_rate = 25.0;
  copt.hot_fraction = 0.2;
  copt.rotation_epochs = 5;
  copt.seed = 9;
  ChurnSchedule schedule(tree, copt);

  std::vector<std::vector<double>> lanes = schedule.Lanes();
  WebWaveOptions opt;
  opt.lane_block = 4;
  opt.gossip_delay = 1;
  opt.seed = 2;
  BatchWebWaveSimulator batch(tree, lanes, opt);
  std::vector<WebWaveSimulator> singles;
  for (int d = 0; d < docs; ++d) {
    WebWaveOptions lane_opt = opt;
    lane_opt.seed = opt.seed + static_cast<std::uint64_t>(d);
    singles.emplace_back(tree, lanes[static_cast<std::size_t>(d)], lane_opt,
                         batch.shared_edges());
  }
  for (int epoch = 0; epoch < 5; ++epoch) {
    const std::vector<DemandEvent> events = schedule.NextEvents();
    batch.ApplyDemandEvents(events);
    for (const DemandEvent& e : events)
      lanes[static_cast<std::size_t>(e.doc)][static_cast<std::size_t>(
          e.node)] = e.rate;
    for (int d = 0; d < docs; ++d)
      singles[static_cast<std::size_t>(d)].UpdateSpontaneous(
          lanes[static_cast<std::size_t>(d)]);
    for (int s = 0; s < 8; ++s) {
      batch.Step();
      for (auto& single : singles) single.Step();
    }
    for (int d = 0; d < docs; ++d)
      ASSERT_EQ(batch.ServedLane(d),
                singles[static_cast<std::size_t>(d)].served())
          << "epoch=" << epoch << " doc=" << d;
  }
}

// Dirty-lane tracking: construction marks everything dirty; churn marks
// exactly the affected lanes; a lane at its floating-point fixed point
// steps clean; ClearDirtyLanes resets.
TEST(BatchWebWave, DirtyLaneTrackingFollowsActualStateChanges) {
  const int nodes = 20, docs = 10;
  Rng rng(61);
  const RoutingTree tree = MakeRandomTree(nodes, rng);
  const std::vector<std::vector<double>> lanes =
      RandomLanes(nodes, docs, rng);
  BatchWebWaveSimulator batch(tree, lanes);
  EXPECT_EQ(batch.dirty_lane_count(), docs);  // never snapshotted

  batch.ClearDirtyLanes();
  EXPECT_EQ(batch.dirty_lane_count(), 0);
  batch.Step();
  // A fresh all-at-root start moves load on the first step in every lane
  // with any demand below the root.
  EXPECT_GT(batch.dirty_lane_count(), 0);

  // Diffuse to the fixed point: once no transfer changes any value, steps
  // keep every lane clean — the property RefreshFromBatch relies on.
  for (int s = 0; s < 20000; ++s) batch.Step();
  batch.ClearDirtyLanes();
  for (int s = 0; s < 5; ++s) batch.Step();
  EXPECT_EQ(batch.dirty_lane_count(), 0)
      << "converged lanes must step clean";

  // Churn two lanes: exactly those become dirty, and stay the only dirty
  // ones while the others sit at their fixed points.
  batch.ApplyDemandEvents({{2, 5, 9.5}, {7, 1, 0.0}});
  EXPECT_EQ(batch.DirtyLanes(), (std::vector<int>{2, 7}));
  for (int s = 0; s < 3; ++s) batch.Step();
  for (const int d : batch.DirtyLanes()) EXPECT_TRUE(d == 2 || d == 7);
  ASSERT_NO_THROW(batch.CheckInvariants(1e-6));
}

TEST(BatchWebWave, ApplyDemandEventsValidatesAndKeepsSpontaneousVisible) {
  Rng rng(41);
  const RoutingTree tree = MakeRandomTree(12, rng);
  BatchWebWaveSimulator batch(tree, RandomLanes(12, 3, rng));
  EXPECT_THROW(batch.ApplyDemandEvents({{3, 0, 1.0}}),
               std::invalid_argument);
  EXPECT_THROW(batch.ApplyDemandEvents({{-1, 0, 1.0}}),
               std::invalid_argument);
  EXPECT_THROW(batch.ApplyDemandEvents({{0, 12, 1.0}}),
               std::invalid_argument);
  EXPECT_THROW(batch.ApplyDemandEvents({{0, 0, -1.0}}),
               std::invalid_argument);
  // Strong guarantee: a batch with a bad event mid-list must not apply the
  // good events before it — a throw leaves every lane exactly as it was.
  const std::vector<double> before = batch.SpontaneousLane(0);
  EXPECT_THROW(batch.ApplyDemandEvents({{0, 5, 9.0}, {0, 99, 1.0}}),
               std::invalid_argument);
  EXPECT_EQ(batch.SpontaneousLane(0), before);
  ASSERT_NO_THROW(batch.CheckInvariants(1e-6));
  batch.ApplyDemandEvents({{1, 5, 7.25}, {1, 5, 2.5}});  // later event wins
  EXPECT_EQ(batch.SpontaneousLane(1)[5], 2.5);
  ASSERT_NO_THROW(batch.CheckInvariants(1e-6));
}

TEST(BatchWebWave, RejectsMalformedInput) {
  const RoutingTree tree = MakeChain(3);
  EXPECT_THROW(BatchWebWaveSimulator(tree, {}), std::invalid_argument);
  EXPECT_THROW(BatchWebWaveSimulator(tree, {{1, 2}}), std::invalid_argument);
  EXPECT_THROW(BatchWebWaveSimulator(tree, {{1, 2, -1}}),
               std::invalid_argument);
  WebWaveOptions opt;
  opt.lane_block = 0;
  EXPECT_THROW(BatchWebWaveSimulator(tree, {{1, 2, 3}}, opt),
               std::invalid_argument);
  const DemandMatrix wrong(5, 2);
  EXPECT_THROW(MakeCatalogBatch(tree, wrong), std::invalid_argument);
  // A shared edge build carries its alpha options: passing one built
  // under a different policy must be rejected, not silently diffused.
  WebWaveOptions fixed;
  fixed.alpha_policy = AlphaPolicy::kFixed;
  fixed.alpha = 0.4;
  const internal::SharedEdgeArrays mismatched =
      internal::BuildSharedEdgeArrays(tree, fixed);
  EXPECT_THROW(BatchWebWaveSimulator(tree, {{1, 2, 3}}, {}, mismatched),
               std::invalid_argument);
  // ... and one built for a different same-sized tree must be rejected
  // too (wrong topology, not just wrong parameters).
  const RoutingTree other = RoutingTree::FromParents({1, 2, kNoNode});
  const internal::SharedEdgeArrays wrong_tree =
      internal::BuildSharedEdgeArrays(other, WebWaveOptions{});
  EXPECT_THROW(BatchWebWaveSimulator(tree, {{1, 2, 3}}, {}, wrong_tree),
               std::invalid_argument);
}

}  // namespace
}  // namespace webwave
