// Tests for tracking under erratic request rates (§5.1 ongoing study):
// a demand update keeps the protocol state feasible, and WebWave tracks a
// moving TLB target across demand shocks.  The single-document tests run
// a one-lane BatchWebWaveSimulator; a whole new rate vector is one
// ApplyDemandEvents batch with an event per node.
#include "core/load_model.h"
#include "core/webfold.h"
#include "core/webwave_batch.h"
#include "sim/churn.h"
#include "tree/builders.h"

#include <gtest/gtest.h>

namespace webwave {
namespace {

// Every node's rate of lane 0 set to `rates` — a full-vector update.
std::vector<DemandEvent> AllNodeEvents(const std::vector<double>& rates) {
  std::vector<DemandEvent> events;
  for (std::size_t v = 0; v < rates.size(); ++v)
    events.push_back({0, static_cast<std::int32_t>(v), rates[v]});
  return events;
}

TEST(UpdateSpontaneous, KeepsInvariantsAfterArbitraryShock) {
  Rng rng(3);
  const RoutingTree tree = MakeRandomTree(25, rng);
  std::vector<double> rates(25);
  for (auto& e : rates) e = rng.NextDouble(0, 10);
  BatchWebWaveSimulator sim(tree, {rates});
  for (int round = 0; round < 20; ++round) {
    for (int s = 0; s < 10; ++s) sim.Step();
    for (auto& e : rates) e = rng.NextDouble(0, 10);
    sim.ApplyDemandEvents(AllNodeEvents(rates));
    ASSERT_NO_THROW(sim.CheckInvariants()) << "round " << round;
    EXPECT_NEAR(TotalRate(sim.ServedLane(0)), TotalRate(rates), 1e-6);
  }
}

TEST(UpdateSpontaneous, DemandDropPushesExcessTowardRoot) {
  // A leaf was serving 50; its demand vanishes — it cannot keep serving
  // requests that no longer exist, so its load must shrink and the root
  // absorbs the books' balance.
  const RoutingTree tree = MakeChain(3);
  WebWaveOptions opt;
  opt.initial_load = InitialLoad::kSelfService;
  BatchWebWaveSimulator sim(tree, {{10, 10, 50}}, opt);
  sim.ApplyDemandEvents(AllNodeEvents({10, 10, 0}));
  EXPECT_NEAR(sim.ServedLane(0)[2], 0, 1e-9);
  EXPECT_NEAR(TotalRate(sim.ServedLane(0)), 20, 1e-9);
  sim.CheckInvariants();
}

TEST(UpdateSpontaneous, DemandIncreaseIsServedSomewhere) {
  const RoutingTree tree = MakeChain(3);
  BatchWebWaveSimulator sim(tree, {{0, 0, 10}});
  sim.ApplyDemandEvents(AllNodeEvents({0, 0, 100}));
  EXPECT_NEAR(TotalRate(sim.ServedLane(0)), 100, 1e-9);
  sim.CheckInvariants();
  // And from there it converges to the new TLB.
  const WebFoldResult target = WebFold(tree, {0, 0, 100});
  const auto traj = sim.RunUntil(0, target.load, 1e-6, 5000);
  EXPECT_LE(traj.back(), 1e-6);
}

TEST(UpdateSpontaneous, RefreshesNeighborEstimatesImmediately) {
  // With gossip_period > 1 the next in-run refresh may be several steps
  // away; the first post-churn step must already see post-churn estimates,
  // or the protocol diffuses against imbalances that no longer exist.
  const RoutingTree tree = MakeChain(2);
  WebWaveOptions opt;
  opt.gossip_period = 10;  // no in-run refresh fires during this test
  BatchWebWaveSimulator sim(tree, {{0, 10}}, opt);
  sim.Step();  // alpha = 1/2 moves 5 down: served = {5, 5}, the TLB optimum
  ASSERT_NEAR(sim.ServedLane(0)[0], 5.0, 1e-12);
  ASSERT_NEAR(sim.ServedLane(0)[1], 5.0, 1e-12);
  sim.ApplyDemandEvents(AllNodeEvents({0, 10}));  // same rates: balanced
  sim.Step();
  // Balanced state + fresh estimates => the step must be a no-op.  Stale
  // construction-time estimates (child load 0) would move 2.5 back down.
  EXPECT_NEAR(sim.ServedLane(0)[0], 5.0, 1e-12);
  EXPECT_NEAR(sim.ServedLane(0)[1], 5.0, 1e-12);
}

TEST(UpdateSpontaneous, RejectsBadRates) {
  const RoutingTree tree = MakeChain(2);
  BatchWebWaveSimulator sim(tree, {{1, 1}});
  EXPECT_THROW(sim.ApplyDemandEvents(AllNodeEvents({1, -1})),
               std::invalid_argument);
  EXPECT_EQ(sim.SpontaneousLane(0), (std::vector<double>{1, 1}));
}

// A sparse batch of events must leave the engine in exactly the state a
// full-vector update (an event for every node) reaches with the merged
// rates, across repeated churn rounds with steps in between.
TEST(ApplyDemandEvents, EquivalentToRepeatedUpdateSpontaneous) {
  Rng rng(53);
  const RoutingTree tree = MakeRandomTree(28, rng);
  std::vector<double> rates(28);
  for (auto& e : rates) e = rng.NextDouble(0, 20);

  WebWaveOptions opt;
  opt.gossip_period = 3;
  opt.gossip_delay = 2;
  BatchWebWaveSimulator by_events(tree, {rates}, opt);
  BatchWebWaveSimulator by_vector(tree, {rates}, opt);

  for (int round = 0; round < 12; ++round) {
    std::vector<DemandEvent> events;
    for (NodeId v = 0; v < tree.size(); ++v)
      if (rng.NextBernoulli(0.4)) {
        const double rate = rng.NextDouble(0, 20);
        events.push_back({0, v, rate});
        rates[static_cast<std::size_t>(v)] = rate;
      }
    by_events.ApplyDemandEvents(events);
    by_vector.ApplyDemandEvents(AllNodeEvents(rates));
    for (int s = 0; s < 7; ++s) {
      by_events.Step();
      by_vector.Step();
    }
    const std::vector<double> served = by_events.ServedLane(0);
    const std::vector<double> forwarded = by_events.ForwardedLane(0);
    const std::vector<double> want_served = by_vector.ServedLane(0);
    const std::vector<double> want_forwarded = by_vector.ForwardedLane(0);
    for (std::size_t v = 0; v < rates.size(); ++v) {
      ASSERT_EQ(served[v], want_served[v])
          << "round " << round << " node " << v;
      ASSERT_EQ(forwarded[v], want_forwarded[v])
          << "round " << round << " node " << v;
    }
  }
  ASSERT_NO_THROW(by_events.CheckInvariants());
}

TEST(ApplyDemandEvents, EmptyBatchIsANoOp) {
  const RoutingTree tree = MakeChain(3);
  WebWaveOptions opt;
  opt.gossip_delay = 2;
  BatchWebWaveSimulator sim(tree, {{1, 2, 3}}, opt);
  BatchWebWaveSimulator untouched(tree, {{1, 2, 3}}, opt);
  for (int s = 0; s < 5; ++s) {
    sim.Step();
    untouched.Step();
  }
  sim.ApplyDemandEvents({});  // must not restart history or refresh
  for (int s = 0; s < 5; ++s) {
    sim.Step();
    untouched.Step();
  }
  EXPECT_EQ(sim.ServedLane(0), untouched.ServedLane(0));
}

TEST(ApplyDemandEvents, RejectsBadEvents) {
  const RoutingTree tree = MakeChain(3);
  BatchWebWaveSimulator sim(tree, {{1, 1, 1}});
  EXPECT_THROW(sim.ApplyDemandEvents({{1, 0, 1.0}}), std::invalid_argument);
  EXPECT_THROW(sim.ApplyDemandEvents({{0, 3, 1.0}}), std::invalid_argument);
  EXPECT_THROW(sim.ApplyDemandEvents({{0, 0, -1.0}}),
               std::invalid_argument);
}

// ChurnSchedule ------------------------------------------------------------

double TotalDemand(const std::vector<std::vector<double>>& lanes) {
  double total = 0;
  for (const auto& lane : lanes)
    for (const double e : lane) total += e;
  return total;
}

class SchedulePatternSweep : public ::testing::TestWithParam<ChurnPattern> {};

// NextEvents must be exactly the sparse difference between consecutive
// epochs' Lanes() snapshots.
TEST_P(SchedulePatternSweep, EventsAreTheDiffBetweenEpochSnapshots) {
  Rng rng(61);
  const RoutingTree tree = MakeRandomTree(40, rng);
  ChurnScheduleOptions opt;
  opt.pattern = GetParam();
  opt.doc_count = 5;
  opt.base_rate = 2.0;
  opt.hot_rate = 30.0;
  opt.hot_fraction = 0.2;
  opt.rotation_epochs = 6;
  opt.seed = 7;
  ChurnSchedule schedule(tree, opt);

  std::vector<std::vector<double>> lanes = schedule.Lanes();
  for (int epoch = 0; epoch < 10; ++epoch) {
    const std::vector<DemandEvent> events = schedule.NextEvents();
    for (const DemandEvent& e : events) {
      ASSERT_GE(e.doc, 0);
      ASSERT_LT(e.doc, opt.doc_count);
      ASSERT_GE(e.node, 0);
      ASSERT_LT(e.node, tree.size());
      ASSERT_GE(e.rate, 0);
      lanes[static_cast<std::size_t>(e.doc)]
           [static_cast<std::size_t>(e.node)] = e.rate;
    }
    const std::vector<std::vector<double>> expect = schedule.Lanes();
    for (int d = 0; d < opt.doc_count; ++d)
      for (NodeId v = 0; v < tree.size(); ++v)
        ASSERT_EQ(lanes[static_cast<std::size_t>(d)]
                       [static_cast<std::size_t>(v)],
                  expect[static_cast<std::size_t>(d)]
                        [static_cast<std::size_t>(v)])
            << PatternName(opt.pattern) << " epoch=" << epoch
            << " doc=" << d << " node=" << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Patterns, SchedulePatternSweep,
                         ::testing::Values(ChurnPattern::kRotatingHotSpot,
                                           ChurnPattern::kFlashCrowd,
                                           ChurnPattern::kZipfReshuffle));

// The rotating window only moves — it never grows or shrinks — so total
// offered demand is conserved across every rotation event, and the
// simulator's served mass tracks it exactly.
TEST(ChurnScheduleProperty, RotationConservesTotalDemand) {
  Rng rng(67);
  const RoutingTree tree = MakeRandomTree(60, rng);
  ChurnScheduleOptions opt;
  opt.pattern = ChurnPattern::kRotatingHotSpot;
  opt.doc_count = 4;
  opt.base_rate = 1.0;
  opt.hot_rate = 25.0;
  opt.hot_fraction = 0.25;
  opt.rotation_epochs = 8;
  ChurnSchedule schedule(tree, opt);

  const double initial_total = TotalDemand(schedule.Lanes());
  ASSERT_GT(initial_total, 0);
  BatchWebWaveSimulator batch(tree, schedule.Lanes());
  for (int epoch = 0; epoch < 17; ++epoch) {  // more than two revolutions
    const std::vector<DemandEvent> events = schedule.NextEvents();
    EXPECT_FALSE(events.empty()) << "the window must move every epoch";
    batch.ApplyDemandEvents(events);
    EXPECT_NEAR(TotalDemand(schedule.Lanes()), initial_total,
                1e-9 * initial_total)
        << "epoch " << epoch;
    // Served mass equals offered demand lane for lane after the shock.
    for (int d = 0; d < opt.doc_count; ++d)
      EXPECT_NEAR(TotalRate(batch.ServedLane(d)),
                  TotalRate(batch.SpontaneousLane(d)),
                  1e-9 * (1 + initial_total))
          << "epoch " << epoch << " doc " << d;
    for (int s = 0; s < 5; ++s) batch.Step();
  }
  ASSERT_NO_THROW(batch.CheckInvariants(1e-6));
}

// RunBatchChurn ties schedule + batch engine together: it must track the
// moving per-lane TLB optima and improve within each epoch.
TEST(RunBatchChurnTest, TracksMovingPerLaneTlb) {
  Rng rng(71);
  const RoutingTree tree = MakeRandomTree(35, rng);
  ChurnScheduleOptions sched_opt;
  sched_opt.pattern = ChurnPattern::kRotatingHotSpot;
  sched_opt.doc_count = 3;
  sched_opt.base_rate = 1.0;
  sched_opt.hot_rate = 20.0;
  sched_opt.hot_fraction = 0.3;
  sched_opt.rotation_epochs = 4;
  ChurnSchedule schedule(tree, sched_opt);

  BatchChurnOptions opt;
  opt.epochs = 6;
  opt.period = 60;
  opt.tlb_lanes = 3;
  const BatchChurnRun run = RunBatchChurn(tree, schedule, opt);
  ASSERT_EQ(run.epochs.size(), 6u);
  EXPECT_GT(run.mean_relative_distance, 0);
  for (std::size_t e = 0; e < run.epochs.size(); ++e) {
    EXPECT_LE(run.epochs[e].distance_at_end,
              run.epochs[e].distance_after_shock + 1e-9)
        << "epoch " << e << " must not end farther than it started";
    if (e > 0) {
      EXPECT_GT(run.epochs[e].events, 0u);
    }
  }
}

TEST(RunBatchChurnTest, Validation) {
  const RoutingTree tree = MakeChain(3);
  ChurnScheduleOptions sched_opt;
  sched_opt.doc_count = 2;
  ChurnSchedule schedule(tree, sched_opt);
  BatchChurnOptions opt;
  opt.epochs = 0;
  EXPECT_THROW(RunBatchChurn(tree, schedule, opt), std::invalid_argument);
  EXPECT_THROW(ChurnSchedule(MakeChain(1), sched_opt),
               std::invalid_argument);
}

}  // namespace
}  // namespace webwave
