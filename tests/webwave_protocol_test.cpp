// Unit tests for the WebWave distributed protocol (rate-level engine),
// one document at a time: each runs a one-lane BatchWebWaveSimulator.
#include "core/load_model.h"
#include "core/tlb.h"
#include "core/webfold.h"
#include "core/webwave_batch.h"
#include "stats/fit.h"
#include "tree/builders.h"

#include <gtest/gtest.h>

#include <cmath>

namespace webwave {
namespace {

TEST(WebWaveProtocol, InitialConditionsAreFeasible) {
  const RoutingTree t = RoutingTree::FromParents({kNoNode, 0, 0, 1, 1});
  const std::vector<double> spont = {0, 40, 10, 0, 0};
  {
    WebWaveOptions opt;
    opt.initial_load = InitialLoad::kAllAtRoot;
    BatchWebWaveSimulator sim(t, {spont}, opt);
    EXPECT_DOUBLE_EQ(sim.ServedLane(0)[0], 50);
    sim.CheckInvariants();
  }
  {
    WebWaveOptions opt;
    opt.initial_load = InitialLoad::kSelfService;
    BatchWebWaveSimulator sim(t, {spont}, opt);
    EXPECT_DOUBLE_EQ(sim.ServedLane(0)[1], 40);
    sim.CheckInvariants();
  }
}

TEST(WebWaveProtocol, ConvergesToTlbOnFigure2b) {
  const RoutingTree t = RoutingTree::FromParents({kNoNode, 0, 0, 1, 1});
  const std::vector<double> spont = {0, 40, 10, 0, 0};
  const WebFoldResult target = WebFold(t, spont);
  BatchWebWaveSimulator sim(t, {spont});
  const auto trajectory = sim.RunUntil(0, target.load, 1e-6, 2000);
  EXPECT_LE(trajectory.back(), 1e-6)
      << "did not converge in " << trajectory.size() << " steps";
  sim.CheckInvariants();
  EXPECT_TRUE(SatisfiesTlb(t, spont, sim.ServedLane(0), 1e-4));
}

TEST(WebWaveProtocol, ConvergesFromSelfServiceToo) {
  const RoutingTree t = RoutingTree::FromParents({kNoNode, 0, 0, 1, 1});
  const std::vector<double> spont = {0, 40, 10, 0, 0};
  const WebFoldResult target = WebFold(t, spont);
  WebWaveOptions opt;
  opt.initial_load = InitialLoad::kSelfService;
  BatchWebWaveSimulator sim(t, {spont}, opt);
  const auto trajectory = sim.RunUntil(0, target.load, 1e-6, 2000);
  EXPECT_LE(trajectory.back(), 1e-6);
}

TEST(WebWaveProtocol, StationaryAtTlbFixedPoint) {
  // Start the protocol exactly at the TLB assignment: nothing should move.
  const RoutingTree t =
      RoutingTree::FromParents({kNoNode, 0, 0, 1, 1, 2, 3, 5});
  const std::vector<double> spont = {5, 0, 10, 0, 30, 8, 40, 2};
  const WebFoldResult target = WebFold(t, spont);
  WebWaveOptions opt;
  opt.initial_load = InitialLoad::kSelfService;
  BatchWebWaveSimulator sim(t, {spont}, opt);
  // Drive it to TLB first, then observe it stays.
  sim.RunUntil(0, target.load, 1e-9, 5000);
  const double d_before = sim.DistanceTo(0, target.load);
  for (int i = 0; i < 50; ++i) sim.Step();
  EXPECT_LE(sim.DistanceTo(0, target.load), d_before + 1e-9);
}

TEST(WebWaveProtocol, InvariantsHoldAfterEveryStep) {
  const RoutingTree t = MakeCaterpillar(4, 2);
  std::vector<double> spont(t.size(), 0.0);
  spont[t.size() - 1] = 120;
  spont[2] = 30;
  BatchWebWaveSimulator sim(t, {spont});
  for (int s = 0; s < 200; ++s) {
    sim.Step();
    ASSERT_NO_THROW(sim.CheckInvariants()) << "step " << s;
  }
}

TEST(WebWaveProtocol, ConvergenceIsExponentialOnChain) {
  // The paper's headline: distance decays as a·γ^t with γ < 1.
  const RoutingTree t = MakeChain(8);
  std::vector<double> spont(8, 0.0);
  spont[7] = 800;
  const WebFoldResult target = WebFold(t, spont);
  BatchWebWaveSimulator sim(t, {spont});
  auto traj = sim.RunUntil(0, target.load, 1e-9, 4000);
  ASSERT_GT(traj.size(), 10u);
  traj.resize(std::min<std::size_t>(traj.size(), 400));
  const ExponentialFit fit = FitExponential(traj);
  EXPECT_GT(fit.gamma, 0.0);
  EXPECT_LT(fit.gamma, 1.0);
}

TEST(WebWaveProtocol, GossipPeriodSlowsButDoesNotBreakConvergence) {
  const RoutingTree t = MakeKaryTree(2, 3);
  std::vector<double> spont(t.size(), 1.0);
  spont[9] = 90;
  const WebFoldResult target = WebFold(t, spont);

  WebWaveOptions fast;
  BatchWebWaveSimulator sim_fast(t, {spont}, fast);
  const auto fast_traj = sim_fast.RunUntil(0, target.load, 1e-7, 20000);

  WebWaveOptions slow;
  slow.gossip_period = 5;
  BatchWebWaveSimulator sim_slow(t, {spont}, slow);
  const auto slow_traj = sim_slow.RunUntil(0, target.load, 1e-7, 20000);

  EXPECT_LE(fast_traj.back(), 1e-7);
  EXPECT_LE(slow_traj.back(), 1e-7);
  EXPECT_LE(fast_traj.size(), slow_traj.size())
      << "fresh gossip should not converge slower";
}

TEST(WebWaveProtocol, StaleEstimatesStillConverge) {
  const RoutingTree t = MakeKaryTree(3, 2);
  std::vector<double> spont(t.size(), 2.0);
  spont[4] = 60;
  const WebFoldResult target = WebFold(t, spont);
  WebWaveOptions opt;
  opt.gossip_delay = 3;
  opt.gossip_period = 2;
  BatchWebWaveSimulator sim(t, {spont}, opt);
  const auto traj = sim.RunUntil(0, target.load, 1e-6, 30000);
  EXPECT_LE(traj.back(), 1e-6) << "bounded staleness must not prevent convergence";
}

TEST(WebWaveProtocol, AsynchronousActivationConverges) {
  const RoutingTree t = MakeKaryTree(2, 3);
  std::vector<double> spont(t.size(), 1.0);
  spont[t.size() - 1] = 45;
  const WebFoldResult target = WebFold(t, spont);
  WebWaveOptions opt;
  opt.asynchronous = true;
  opt.activation_probability = 0.4;
  opt.seed = 77;
  BatchWebWaveSimulator sim(t, {spont}, opt);
  const auto traj = sim.RunUntil(0, target.load, 1e-6, 50000);
  EXPECT_LE(traj.back(), 1e-6);
  sim.CheckInvariants();
}

TEST(WebWaveProtocol, FixedAlphaValidation) {
  const RoutingTree t = MakeChain(3);
  WebWaveOptions opt;
  opt.alpha_policy = AlphaPolicy::kFixed;
  opt.alpha = 0.0;
  EXPECT_THROW(BatchWebWaveSimulator(t, {{1, 1, 1}}, opt),
               std::invalid_argument);
  opt.alpha = 0.9;
  EXPECT_THROW(BatchWebWaveSimulator(t, {{1, 1, 1}}, opt),
               std::invalid_argument);
  opt.alpha = 0.5;
  EXPECT_NO_THROW(BatchWebWaveSimulator(t, {{1, 1, 1}}, opt));
}

TEST(WebWaveProtocol, UncappedAlphaOnAStarViolatesCybenkoAndOscillates) {
  // Cybenko's condition (1): 1 − Σ_j α_ij > 0.  The hub of a star with 8
  // children and α = 0.5 has Σ α = 4 — the uncapped iteration sloshes load
  // back and forth instead of converging.  (This is why the capped kFixed
  // and kDegree policies exist.)
  const RoutingTree t = MakeStar(9);
  std::vector<double> spont(9, 0.0);
  for (NodeId v = 1; v < 9; ++v) spont[v] = 10.0 + v;
  const WebFoldResult target = WebFold(t, spont);
  WebWaveOptions opt;
  opt.alpha_policy = AlphaPolicy::kFixedUncapped;
  opt.alpha = 0.5;
  BatchWebWaveSimulator sim(t, {spont}, opt);
  const auto traj = sim.RunUntil(0, target.load, 1e-6, 5000);
  EXPECT_GT(traj.back(), 1e-3) << "uncapped alpha should fail to settle";
  // Yet the invariants (conservation, NSS) still hold — the protocol is
  // merely non-convergent, never unsafe.
  sim.CheckInvariants();
}

TEST(WebWaveProtocol, SingleNodeIsTriviallyConverged) {
  const RoutingTree t = RoutingTree::FromParents({kNoNode});
  BatchWebWaveSimulator sim(t, {{10}});
  sim.Step();
  EXPECT_DOUBLE_EQ(sim.ServedLane(0)[0], 10);
  sim.CheckInvariants();
}

TEST(WebWaveProtocol, RejectsBadInputs) {
  const RoutingTree t = MakeChain(3);
  EXPECT_THROW(BatchWebWaveSimulator(t, {{1, 1}}), std::invalid_argument);
  EXPECT_THROW(BatchWebWaveSimulator(t, {{1, -2, 1}}), std::invalid_argument);
  WebWaveOptions opt;
  opt.gossip_period = 0;
  EXPECT_THROW(BatchWebWaveSimulator(t, {{1, 1, 1}}, opt),
               std::invalid_argument);
}

}  // namespace
}  // namespace webwave
