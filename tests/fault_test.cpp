// The fault plane: deterministic crash/link schedules, quota re-homing
// around crashed nodes, event-proportional fault refresh, failover
// serving with bounded retries, and the bit-identity of every fault-path
// metric across thread counts and lane_block widths.
#include "fault/fault_projector.h"
#include "fault/fault_schedule.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "core/webwave_batch.h"
#include "doc/catalog.h"
#include "serve/quota_snapshot.h"
#include "serve/request_gen.h"
#include "serve/serving_plane.h"
#include "sim/churn.h"
#include "spill_reference.h"
#include "store/cache_store.h"
#include "store/capacity_projector.h"
#include "store/document_sizes.h"
#include "tree/builders.h"
#include "util/rng.h"

namespace webwave {
namespace {

// Two snapshots must agree cell for cell, byte for byte (total_rate is
// FP-order sensitive between incremental and full paths, so it gets a
// relative tolerance instead).
void ExpectSameCells(const QuotaSnapshot& got, const QuotaSnapshot& want,
                     const char* where) {
  ASSERT_EQ(got.node_count(), want.node_count()) << where;
  ASSERT_EQ(got.doc_count(), want.doc_count()) << where;
  ASSERT_EQ(got.cell_count(), want.cell_count()) << where;
  for (NodeId v = 0; v < want.node_count(); ++v) {
    ASSERT_EQ(got.row_begin(v), want.row_begin(v)) << where << " node " << v;
    ASSERT_EQ(got.row_end(v), want.row_end(v)) << where << " node " << v;
  }
  for (std::int64_t c = 0; c < want.cell_count(); ++c) {
    const std::size_t i = static_cast<std::size_t>(c);
    ASSERT_EQ(got.cell_docs()[i], want.cell_docs()[i]) << where << " cell "
                                                       << c;
    ASSERT_EQ(got.cell_rates()[i], want.cell_rates()[i])
        << where << " cell " << c;
    ASSERT_EQ(got.cell_fractions()[i], want.cell_fractions()[i])
        << where << " cell " << c;
  }
  EXPECT_NEAR(got.total_rate(), want.total_rate(),
              1e-9 * (1 + std::abs(want.total_rate())));
}

// FaultSchedule ----------------------------------------------------------

class FaultPatternSweep : public ::testing::TestWithParam<FaultPattern> {};

TEST_P(FaultPatternSweep, EventsAreTheDiffBetweenEpochSnapshots) {
  Rng rng(71);
  const RoutingTree tree = MakeRandomTree(300, rng);
  FaultScheduleOptions opt;
  opt.pattern = GetParam();
  opt.crash_fraction = 0.2;
  opt.outage_epochs = 3;
  opt.start_epoch = 2;
  opt.seed = 9;
  FaultSchedule sched(tree, opt);
  EXPECT_TRUE(sched.down().empty()) << "epoch 0 precedes start_epoch";

  std::set<NodeId> live_view(sched.down().begin(), sched.down().end());
  bool saw_crash = false, saw_recover = false;
  for (int epoch = 1; epoch <= 24; ++epoch) {
    const std::vector<FaultEvent> events = sched.NextEvents();
    NodeId last = kNoNode;
    for (const FaultEvent& e : events) {
      EXPECT_GT(e.node, last) << "events must ascend by node";
      last = e.node;
      EXPECT_FALSE(tree.is_root(e.node)) << "the home never transitions";
      if (e.kind == FaultKind::kCrash) {
        EXPECT_TRUE(live_view.insert(e.node).second)
            << "crash of an already-down node " << e.node;
        saw_crash = true;
      } else {
        EXPECT_EQ(live_view.erase(e.node), 1u)
            << "recovery of a live node " << e.node;
        saw_recover = true;
      }
    }
    const std::vector<NodeId> from_scratch = sched.DownSet(epoch);
    const std::vector<NodeId> maintained(live_view.begin(), live_view.end());
    EXPECT_EQ(maintained, from_scratch) << "epoch " << epoch;
    EXPECT_EQ(sched.down(), from_scratch) << "epoch " << epoch;
    for (const NodeId v : from_scratch)
      EXPECT_FALSE(tree.is_root(v)) << "epoch " << epoch;
  }
  EXPECT_TRUE(saw_crash);
  EXPECT_TRUE(saw_recover);

  // Purity: a second schedule answers identically at any queried epoch
  // without having stepped there.
  FaultSchedule replay(tree, opt);
  for (const int epoch : {0, 3, 7, 13, 24})
    EXPECT_EQ(replay.DownSet(epoch), sched.DownSet(epoch))
        << "epoch " << epoch;
}

INSTANTIATE_TEST_SUITE_P(Patterns, FaultPatternSweep,
                         ::testing::Values(FaultPattern::kSingleNodes,
                                           FaultPattern::kLeafCohort,
                                           FaultPattern::kSubtreeOutage));

TEST(FaultSchedule, LeafCohortOnlyCrashesLeaves) {
  Rng rng(73);
  const RoutingTree tree = MakeRandomTree(250, rng);
  FaultScheduleOptions opt;
  opt.pattern = FaultPattern::kLeafCohort;
  opt.crash_fraction = 0.3;
  opt.seed = 11;
  FaultSchedule sched(tree, opt);
  for (int epoch = 1; epoch <= 10; ++epoch) {
    sched.NextEvents();
    EXPECT_FALSE(sched.down().empty()) << "epoch " << epoch;
    for (const NodeId v : sched.down())
      EXPECT_TRUE(tree.is_leaf(v)) << "node " << v;
  }
}

TEST(FaultSchedule, SubtreeOutageDownsExactlyOneBoundedSubtree) {
  Rng rng(79);
  const RoutingTree tree = MakeRandomTree(400, rng);
  FaultScheduleOptions opt;
  opt.pattern = FaultPattern::kSubtreeOutage;
  opt.max_subtree_fraction = 0.06;
  opt.outage_epochs = 2;
  opt.seed = 13;
  FaultSchedule sched(tree, opt);
  const int cap = static_cast<int>(opt.max_subtree_fraction * tree.size());
  for (int epoch = 1; epoch <= 12; ++epoch) {
    sched.NextEvents();
    const std::vector<NodeId>& down = sched.down();
    ASSERT_FALSE(down.empty()) << "epoch " << epoch;
    // Exactly one down node has a live parent: the outage root.
    std::vector<NodeId> roots;
    for (const NodeId v : down)
      if (!std::binary_search(down.begin(), down.end(), tree.parent(v)))
        roots.push_back(v);
    ASSERT_EQ(roots.size(), 1u) << "epoch " << epoch;
    std::vector<NodeId> expected = tree.subtree(roots[0]);
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(down, expected) << "epoch " << epoch;
    EXPECT_LE(tree.subtree_size(roots[0]), std::max(1, cap));
  }
}

// FaultProjector spill semantics -----------------------------------------

QuotaSnapshot HandSnapshot() {
  // Tree: 0 is the home; 1 and 4 its children; 2 and 3 under 1.
  //   doc 0 copies at 0 (1.0), 1 (2.0, frac 0.5), 2 (4.0), 4 (5.0, 0.8)
  //   doc 1 copy at 3 only (3.0) — no home cell.
  QuotaSnapshot::Builder b(5, 2);
  b.Add(0, 0, 1.0);
  b.Add(1, 0, 2.0, 0.5);
  b.Add(2, 0, 4.0);
  b.Add(3, 1, 3.0);
  b.Add(4, 0, 5.0, 0.8);
  return std::move(b).Build();
}

RoutingTree HandTree() {
  return RoutingTree::FromParents({kNoNode, 0, 1, 1, 0});
}

TEST(FaultProjector, CrashSpillsToTheNearestLiveAncestorCopy) {
  const RoutingTree tree = HandTree();
  const QuotaSnapshot base = HandSnapshot();
  FaultProjector fp(tree);

  const NodeId down2[] = {2};
  fp.SetDown(Span<const NodeId>(down2, 1));
  fp.Project(base);
  const QuotaSnapshot& clamped = fp.clamped();
  // Node 2's 4.0 re-homes onto node 1: rate 2+4, fraction re-derived
  // against the enlarged arriving flow (A = 2/0.5 = 4): (2+4)/(4+4).
  EXPECT_EQ(clamped.CellOf(2, 0), -1);
  EXPECT_DOUBLE_EQ(clamped.RateAt(1, 0), 6.0);
  EXPECT_DOUBLE_EQ(clamped.FractionAt(1, 0), 0.75);
  // Untouched cells pass through bit-identical.
  EXPECT_EQ(clamped.RateAt(0, 0), base.RateAt(0, 0));
  EXPECT_EQ(clamped.RateAt(4, 0), base.RateAt(4, 0));
  EXPECT_EQ(clamped.FractionAt(4, 0), base.FractionAt(4, 0));
  EXPECT_EQ(clamped.RateAt(3, 1), base.RateAt(3, 1));
  EXPECT_TRUE(fp.ConservesTotalRate(base));
  EXPECT_EQ(fp.evicted_cells(), 1);
  EXPECT_DOUBLE_EQ(fp.spilled_rate(), 4.0);

  // A dead chain: 1 and 2 both down, everything re-homes at the root.
  const NodeId chain[] = {1, 2};
  fp.SetDown(Span<const NodeId>(chain, 2));
  fp.Project(base);
  EXPECT_DOUBLE_EQ(fp.clamped().RateAt(0, 0), 7.0);
  EXPECT_DOUBLE_EQ(fp.clamped().FractionAt(0, 0), 1.0);
  EXPECT_EQ(fp.clamped().CellOf(1, 0), -1);
  EXPECT_TRUE(fp.ConservesTotalRate(base));
}

TEST(FaultProjector, SpillSynthesizesAHomeCellAndRecoveryRestoresIt) {
  const RoutingTree tree = HandTree();
  const QuotaSnapshot base = HandSnapshot();
  FaultProjector fp(tree);

  // Node 3 held the only copy of doc 1; its crash climbs past node 1
  // (live, but no copy of doc 1) and materializes a home cell.
  const NodeId down3[] = {3};
  fp.SetDown(Span<const NodeId>(down3, 1));
  fp.Project(base);
  EXPECT_EQ(fp.clamped().CellOf(3, 1), -1);
  EXPECT_EQ(fp.clamped().CellOf(1, 1), -1) << "no copy, no spill target";
  EXPECT_DOUBLE_EQ(fp.clamped().RateAt(0, 1), 3.0);
  EXPECT_DOUBLE_EQ(fp.clamped().FractionAt(0, 1), 1.0);
  EXPECT_TRUE(fp.ConservesTotalRate(base));

  // Recovery: an empty down set projects the base straight through.
  fp.SetDown(Span<const NodeId>());
  fp.Project(base);
  ExpectSameCells(fp.clamped(), base, "all-live projection");
  EXPECT_EQ(fp.evicted_cells(), 0);

  // The home itself may never be declared down.
  const NodeId root[] = {0};
  EXPECT_THROW(fp.SetDown(Span<const NodeId>(root, 1)),
               std::invalid_argument);
}

// Refresh across fault and churn epochs ----------------------------------

TEST(FaultProjector, RefreshMatchesFullProjectionAcrossFaultAndChurnEpochs) {
  Rng rng(89);
  const RoutingTree tree = MakeRandomTree(400, rng);
  const int docs = 10;
  ChurnScheduleOptions copt;
  copt.pattern = ChurnPattern::kRotatingHotSpot;
  copt.doc_count = docs;
  copt.hot_fraction = 0.15;
  copt.rotation_epochs = 5;
  ChurnSchedule churn(tree, copt);

  BatchWebWaveSimulator sim(tree, churn.Lanes(), {});
  for (int s = 0; s < 30; ++s) sim.Step();
  const double min_rate = 1e-3;
  QuotaSnapshot base = QuotaSnapshot::FromBatch(sim, min_rate);
  sim.ClearDirtyLanes();

  FaultScheduleOptions fopt;
  fopt.pattern = FaultPattern::kLeafCohort;
  fopt.crash_fraction = 0.25;
  fopt.outage_epochs = 2;
  fopt.start_epoch = 1;
  fopt.seed = 5;
  FaultSchedule faults(tree, fopt);

  FaultProjector incr(tree);
  incr.Project(base);

  NodeId gentle_leaf = 0;
  while (!tree.is_leaf(gentle_leaf)) ++gentle_leaf;
  bool saw_in_place = false, saw_rebuild = false, saw_transition = false;
  for (int epoch = 0; epoch < 10; ++epoch) {
    if (epoch < 7) {
      // Churn epochs: demand moves while nodes crash and recover.
      sim.ApplyDemandEvents(churn.NextEvents());
    } else {
      // Gentle epochs: one leaf's rate nudges so only cell values move —
      // combined with an event-free fault window this is the in-place
      // path.
      sim.ApplyDemandEvents({{0, gentle_leaf, 2.0 + 0.01 * (epoch - 6)}});
    }
    for (int s = 0; s < 8; ++s) sim.Step();
    base.RefreshFromBatch(sim);
    sim.ClearDirtyLanes();

    const std::vector<FaultEvent> events = faults.NextEvents();
    saw_transition = saw_transition || !events.empty();
    incr.ApplyEvents(Span<const FaultEvent>(events.data(), events.size()));
    const bool in_place = incr.Refresh(base);
    saw_in_place = saw_in_place || in_place;
    saw_rebuild = saw_rebuild || !in_place;
    EXPECT_EQ(incr.down(), faults.down()) << "epoch " << epoch;

    FaultProjector full(tree);
    full.SetDown(Span<const NodeId>(faults.down().data(),
                                    faults.down().size()));
    full.Project(base);
    ExpectSameCells(incr.clamped(), full.clamped(), "fault epoch refresh");
    // Total rate conserved through every crash/recover epoch.
    EXPECT_TRUE(incr.ConservesTotalRate(base)) << "epoch " << epoch;
    EXPECT_EQ(incr.evicted_cells(), full.evicted_cells()) << "epoch " << epoch;
  }
  EXPECT_TRUE(saw_transition) << "no epoch carried a crash/recover event";
  EXPECT_TRUE(saw_rebuild) << "no epoch exercised the structural rebuild";
  EXPECT_TRUE(saw_in_place) << "no epoch exercised the in-place rewrite";
}

// SetDown replaces the down set, so a Refresh after it projects exactly
// what a fresh Project against that set would.
TEST(FaultProjector, SetDownThenRefreshEqualsProject) {
  Rng rng(71);
  const RoutingTree tree = MakeRandomTree(200, rng);
  const int docs = 4;
  std::vector<std::vector<double>> lanes(static_cast<std::size_t>(docs));
  for (auto& lane : lanes) {
    lane.assign(static_cast<std::size_t>(tree.size()), 0.0);
    for (auto& r : lane) r = rng.NextDouble(0, 3);
  }
  BatchWebWaveSimulator sim(tree, lanes, {});
  for (int s = 0; s < 25; ++s) sim.Step();
  const QuotaSnapshot base = QuotaSnapshot::FromBatch(sim, 1e-9);
  NodeId holder = 1;  // a non-root node with copies to lose
  while (tree.is_root(holder) || base.row_begin(holder) == base.row_end(holder))
    ++holder;

  FaultProjector incr(tree);
  incr.Project(base);
  const std::vector<std::vector<NodeId>> down_sets = {
      {holder}, {holder, tree.parent(holder)}, {tree.parent(holder)}, {}};
  for (const std::vector<NodeId>& down : down_sets) {
    if (std::find(down.begin(), down.end(), tree.root()) != down.end())
      continue;
    incr.SetDown(Span<const NodeId>(down.data(), down.size()));
    incr.Refresh(base);
    FaultProjector full(tree);
    full.SetDown(Span<const NodeId>(down.data(), down.size()));
    full.Project(base);
    spill_reference::ExpectBitIdentical(incr.clamped(), full.clamped(),
                                        "SetDown + Refresh");
    EXPECT_EQ(incr.evicted_cells(), full.evicted_cells());
    EXPECT_EQ(incr.spilled_rate(), full.spilled_rate());
    if (!down.empty() && down.front() == holder) {
      EXPECT_GT(incr.evicted_cells(), 0);
    }
  }
}

// Capacity clamp then fault re-homing, each layer bit for bit against
// tests/spill_reference.h: every fault pattern (the subtree outage downs
// chains of ancestors), budgets from 0.1x to 2x the working set, catalog
// sizes around the 64-bit word boundary, on randomly relabeled trees.
// Each case projects, then runs refresh epochs that redraw some columns
// and advance the fault schedule.
TEST(FaultProjector, NodeMajorProjectionMatchesThePerDocumentOracle) {
  for (const FaultPattern pattern :
       {FaultPattern::kSingleNodes, FaultPattern::kLeafCohort,
        FaultPattern::kSubtreeOutage})
    for (const int docs : {1, 16, 63, 64, 65, 130})
      for (const double multiple : {0.1, 0.35, 1.0, 2.0}) {
        SCOPED_TRACE(::testing::Message()
                     << FaultPatternName(pattern) << ", " << docs
                     << " documents, " << multiple << "x store");
        Rng rng(static_cast<std::uint64_t>(docs * 1000 + multiple * 100) +
                static_cast<std::uint64_t>(pattern));
        const RoutingTree tree = spill_reference::ShuffledRandomTree(120, rng);
        std::vector<std::uint64_t> column_seed(static_cast<std::size_t>(docs));
        for (int d = 0; d < docs; ++d)
          column_seed[static_cast<std::size_t>(d)] =
              static_cast<std::uint64_t>(d);
        QuotaSnapshot base = spill_reference::RandomBase(tree, column_seed, 5);

        FaultScheduleOptions fopt;
        fopt.pattern = pattern;
        fopt.crash_fraction = 0.25;
        fopt.max_subtree_fraction = 0.3;
        fopt.outage_epochs = 1;
        fopt.seed = static_cast<std::uint64_t>(docs);
        FaultSchedule faults(tree, fopt);
        faults.NextEvents();

        CapacityProjector capacity(
            tree, CacheStore::WorkingSetStore(
                      tree, DocumentSizes::LogNormal(docs, 2048, 1.1, 3),
                      multiple));
        FaultProjector rehome(tree);
        rehome.SetDown(
            Span<const NodeId>(faults.down().data(), faults.down().size()));
        const auto resident = [&](NodeId v, std::int32_t d) {
          return capacity.store().Resident(v, d);
        };
        const auto live = [&](NodeId v, std::int32_t) {
          return !rehome.IsDown(v);
        };
        const auto expect_chain = [&](const char* where) {
          const spill_reference::Projection clamp =
              spill_reference::Project(tree, base, resident);
          spill_reference::ExpectMatches(capacity, clamp, where);
          spill_reference::ExpectMatches(
              rehome, spill_reference::Project(tree, clamp.clamped, live),
              where);
          EXPECT_TRUE(rehome.ConservesTotalRate(capacity.clamped()));
        };
        capacity.Project(base);
        rehome.Project(capacity.clamped());
        expect_chain("project");

        bool saw_down = !faults.down().empty();
        for (int epoch = 0; epoch < 3; ++epoch) {
          std::vector<int> dirty;
          for (int d = 0; d < docs; ++d)
            if (d == epoch % docs || rng.NextBernoulli(0.2)) {
              column_seed[static_cast<std::size_t>(d)] += 1000;
              dirty.push_back(d);
            }
          base = spill_reference::RandomBase(tree, column_seed, 5);
          const std::vector<FaultEvent> events = faults.NextEvents();
          capacity.Refresh(base, Span<const int>(dirty.data(), dirty.size()));
          rehome.ApplyEvents(
              Span<const FaultEvent>(events.data(), events.size()));
          rehome.Refresh(capacity.clamped());
          expect_chain("refresh");
          saw_down = saw_down || !faults.down().empty();
        }
        EXPECT_TRUE(saw_down) << "no epoch had a crashed node";
      }
}

TEST(FaultProjector, LayersOverCapacityClampingAndStillConserves) {
  Rng rng(97);
  const RoutingTree tree = MakeRandomTree(300, rng);
  const int docs = 8;
  std::vector<DemandComponent> mix = {ZipfLeafComponent(tree, docs, 2.0, 1.0)};
  RequestGenerator gen(tree, docs, mix, 19);
  BatchWebWaveSimulator sim(tree, gen.ExpectedLanes(), {});
  for (int s = 0; s < 25; ++s) sim.Step();
  const QuotaSnapshot engine = QuotaSnapshot::FromBatch(sim, 1e-9);

  CapacityProjector capacity(
      tree, CacheStore::WorkingSetStore(
                tree, DocumentSizes::LogNormal(docs, 4096, 1.0, 31), 0.3));
  capacity.Project(engine);

  FaultScheduleOptions fopt;
  fopt.pattern = FaultPattern::kSingleNodes;
  fopt.crash_fraction = 0.15;
  fopt.seed = 23;
  FaultSchedule faults(tree, fopt);
  faults.NextEvents();

  FaultProjector fp(tree);
  fp.SetDown(Span<const NodeId>(faults.down().data(), faults.down().size()));
  fp.Project(capacity.clamped());
  // Rate flows base -> capacity clamp -> fault clamp without loss.
  EXPECT_TRUE(capacity.ConservesTotalRate(engine));
  EXPECT_TRUE(fp.ConservesTotalRate(capacity.clamped()));
  EXPECT_NEAR(fp.clamped().total_rate(), engine.total_rate(),
              1e-6 * (1 + engine.total_rate()));
  // No clamped cell sits at a down node.
  for (const NodeId v : faults.down())
    EXPECT_EQ(fp.clamped().row_begin(v), fp.clamped().row_end(v));
}

// Failover serving --------------------------------------------------------

TEST(ServingPlane, FailoverClimbsPastDownNodesWithinTheRetryBudget) {
  // Chain 0 <- 1 <- 2 <- 3 with the only copy at the home.
  const RoutingTree tree = RoutingTree::FromParents({kNoNode, 0, 1, 2});
  QuotaSnapshot::Builder b(4, 1);
  b.Add(0, 0, 10.0);
  QuotaSnapshot snap = std::move(b).Build();

  ServingOptions opt;
  opt.threads = 1;
  opt.block_size = 4;
  opt.offered_rate = 10.0;
  opt.max_failover_attempts = 2;
  ServingPlane plane(tree, snap, opt);
  const NodeId down[] = {1, 2};
  plane.SetDownNodes(Span<const NodeId>(down, 2));

  std::vector<Request> reqs(4, Request{3, 0});
  plane.Serve(Span<Request>(reqs.data(), reqs.size()));
  const ServingMetrics& m = plane.metrics();
  EXPECT_EQ(m.requests, 4u);
  EXPECT_EQ(m.home_served, 4u);
  EXPECT_EQ(m.dropped_requests, 0u);
  EXPECT_EQ(m.failovers, 4u);
  EXPECT_EQ(m.failed_attempts, 8u) << "two down nodes per request";
  EXPECT_EQ(m.hop_sum, 12u) << "three hops per request";

  // With a retry budget of one, the second dead node exhausts it.
  opt.max_failover_attempts = 1;
  ServingPlane strict(tree, snap, opt);
  strict.SetDownNodes(Span<const NodeId>(down, 2));
  strict.Serve(Span<Request>(reqs.data(), reqs.size()));
  EXPECT_EQ(strict.metrics().requests, 4u);
  EXPECT_EQ(strict.metrics().dropped_requests, 4u);
  EXPECT_EQ(strict.metrics().home_served, 0u);
  EXPECT_EQ(strict.metrics().hop_sum, 0u) << "dropped requests count no hops";
  EXPECT_EQ(strict.metrics().failed_attempts, 8u);
  EXPECT_DOUBLE_EQ(strict.metrics().DropRatio(), 1.0);

  // A down origin fails over even when it holds the copy itself.
  QuotaSnapshot::Builder b2(4, 1);
  b2.Add(0, 0, 1.0);
  b2.Add(1, 0, 10.0);
  opt.max_failover_attempts = 8;
  ServingPlane origin_down(tree, std::move(b2).Build(), opt);
  const NodeId down1[] = {1};
  origin_down.SetDownNodes(Span<const NodeId>(down1, 1));
  std::vector<Request> at1(2, Request{1, 0});
  origin_down.Serve(Span<Request>(at1.data(), at1.size()));
  EXPECT_EQ(origin_down.metrics().home_served, 2u);
  EXPECT_EQ(origin_down.metrics().failovers, 2u);

  // The home may never be marked down.
  const NodeId root[] = {0};
  EXPECT_THROW(plane.SetDownNodes(Span<const NodeId>(root, 1)),
               std::invalid_argument);
}

TEST(ServingPlane, FailoverMetricsBitIdenticalAcrossThreadsAndLaneBlocks) {
  Rng rng(41);
  const RoutingTree tree = MakeRandomTree(800, rng);
  const int docs = 9;  // ragged against lane_block 4 and 8
  ChurnScheduleOptions copt;
  copt.pattern = ChurnPattern::kRotatingHotSpot;
  copt.doc_count = docs;
  copt.hot_fraction = 0.2;

  FaultScheduleOptions fopt;
  fopt.pattern = FaultPattern::kSingleNodes;
  fopt.crash_fraction = 0.3;
  fopt.outage_epochs = 2;
  fopt.seed = 43;

  std::vector<Request> stream;
  {
    RequestGenerator gen(tree, docs,
                         {ZipfLeafComponent(tree, docs, 2.0, 1.0)}, 77);
    gen.NextBatch(120000, &stream);
  }

  std::vector<QuotaSnapshot> clamps;
  std::vector<ServingMetrics> metrics;
  for (const int threads : {1, 2, 8}) {
    for (const int block : {1, 4, 8}) {
      ChurnSchedule schedule(tree, copt);
      WebWaveOptions wopt;
      wopt.threads = threads;
      wopt.lane_block = block;
      BatchWebWaveSimulator sim(tree, schedule.Lanes(), wopt);
      for (int s = 0; s < 20; ++s) sim.Step();
      sim.ApplyDemandEvents(schedule.NextEvents());
      for (int s = 0; s < 10; ++s) sim.Step();

      FaultSchedule faults(tree, fopt);
      for (int e = 0; e < 3; ++e) faults.NextEvents();

      const QuotaSnapshot base = QuotaSnapshot::FromBatch(sim, 1e-9);
      FaultProjector fp(tree);
      fp.SetDown(
          Span<const NodeId>(faults.down().data(), faults.down().size()));
      fp.Project(base);
      clamps.push_back(fp.clamped());

      ServingOptions sopt;
      sopt.threads = threads;
      sopt.offered_rate = 1000.0;
      sopt.max_failover_attempts = 1;  // dead chains exhaust it: drops
      ServingPlane plane(tree, fp.clamped(), sopt);
      plane.SetDownNodes(
          Span<const NodeId>(faults.down().data(), faults.down().size()));
      plane.Serve(stream);
      metrics.push_back(plane.metrics());
    }
  }
  for (std::size_t i = 1; i < clamps.size(); ++i) {
    ExpectSameCells(clamps[i], clamps[0], "fault thread/lane_block sweep");
    EXPECT_TRUE(metrics[i] == metrics[0]) << "config " << i;
  }
  // The degraded run must actually exercise the failover machinery.
  EXPECT_GT(metrics[0].failovers, 0u);
  EXPECT_GT(metrics[0].failed_attempts, 0u);
  EXPECT_GT(metrics[0].dropped_requests, 0u);
  EXPECT_GT(metrics[0].backoff_slots, 0u);
  EXPECT_GT(metrics[0].requests, 0u);
}

}  // namespace
}  // namespace webwave
