// Property tests: WebWave converges to the WebFold TLB assignment on
// randomized trees and rate patterns, under the paper's assumptions and
// their relaxations.  This is the simulation evidence of §5.1, run as a
// parameterized sweep instead of a single hand-picked instance.
#include "core/load_model.h"
#include "core/tlb.h"
#include "core/webfold.h"
#include "core/webwave_batch.h"
#include "tree/builders.h"

#include <gtest/gtest.h>

namespace webwave {
namespace {

struct SweepCase {
  int nodes;
  int height;  // -1: unconstrained random tree
  std::uint64_t seed;
  bool asynchronous;
  int gossip_period;
  int gossip_delay;
};

std::ostream& operator<<(std::ostream& os, const SweepCase& c) {
  return os << "n=" << c.nodes << " h=" << c.height << " seed=" << c.seed
            << (c.asynchronous ? " async" : " sync") << " gp="
            << c.gossip_period << " gd=" << c.gossip_delay;
}

class ConvergenceSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(ConvergenceSweep, ConvergesToTlbWithInvariantsIntact) {
  const SweepCase c = GetParam();
  Rng rng(c.seed);
  const RoutingTree tree =
      c.height < 0 ? MakeRandomTree(c.nodes, rng)
                   : MakeRandomTreeOfHeight(c.nodes, c.height, rng);
  std::vector<double> spont(static_cast<std::size_t>(c.nodes));
  for (auto& e : spont)
    e = rng.NextBernoulli(0.3) ? 0.0 : rng.NextDouble(0, 40);

  const WebFoldResult target = WebFold(tree, spont);
  WebWaveOptions opt;
  opt.asynchronous = c.asynchronous;
  opt.gossip_period = c.gossip_period;
  opt.gossip_delay = c.gossip_delay;
  opt.seed = c.seed * 31 + 1;
  BatchWebWaveSimulator sim(tree, {spont}, opt);

  const double total = TotalRate(spont);
  const double tol = std::max(1e-6, 1e-7 * total);
  const auto traj = sim.RunUntil(0, target.load, tol, 60000);
  EXPECT_LE(traj.back(), tol) << c << " after " << traj.size() << " steps";
  ASSERT_NO_THROW(sim.CheckInvariants(1e-5));

  // The trajectory should be (weakly) heading down: final quarter average
  // below first quarter average.
  const std::size_t q = traj.size() / 4;
  if (q > 1) {
    double head = 0, tail = 0;
    for (std::size_t i = 0; i < q; ++i) {
      head += traj[i];
      tail += traj[traj.size() - 1 - i];
    }
    EXPECT_LE(tail, head + 1e-9) << c;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SyncSweep, ConvergenceSweep,
    ::testing::Values(SweepCase{2, -1, 1, false, 1, 0},
                      SweepCase{5, -1, 2, false, 1, 0},
                      SweepCase{10, 3, 3, false, 1, 0},
                      SweepCase{20, -1, 4, false, 1, 0},
                      SweepCase{40, 5, 5, false, 1, 0},
                      SweepCase{60, -1, 6, false, 1, 0},
                      SweepCase{100, 9, 7, false, 1, 0},
                      SweepCase{150, -1, 8, false, 1, 0}));

INSTANTIATE_TEST_SUITE_P(
    RelaxedAssumptions, ConvergenceSweep,
    ::testing::Values(SweepCase{15, -1, 11, true, 1, 0},
                      SweepCase{30, 4, 12, true, 1, 0},
                      SweepCase{15, -1, 13, false, 3, 0},
                      SweepCase{30, -1, 14, false, 1, 2},
                      SweepCase{30, 4, 15, false, 4, 3},
                      SweepCase{25, -1, 16, true, 2, 1}));

class AlphaSweep : public ::testing::TestWithParam<double> {};

TEST_P(AlphaSweep, FixedAlphaConverges) {
  const double alpha = GetParam();
  Rng rng(42);
  const RoutingTree tree = MakeRandomTree(30, rng);
  std::vector<double> spont(30);
  for (auto& e : spont) e = rng.NextDouble(0, 10);
  const WebFoldResult target = WebFold(tree, spont);
  WebWaveOptions opt;
  opt.alpha_policy = AlphaPolicy::kFixed;
  opt.alpha = alpha;
  BatchWebWaveSimulator sim(tree, {spont}, opt);
  const auto traj = sim.RunUntil(0, target.load, 1e-5, 100000);
  EXPECT_LE(traj.back(), 1e-5) << "alpha=" << alpha;
}

INSTANTIATE_TEST_SUITE_P(Alphas, AlphaSweep,
                         ::testing::Values(0.05, 0.1, 0.25, 0.4, 0.5));

TEST(ConservationProperty, TotalServedRateNeverDrifts) {
  Rng rng(55);
  for (int round = 0; round < 10; ++round) {
    const int n = 5 + static_cast<int>(rng.NextBelow(50));
    const RoutingTree tree = MakeRandomTree(n, rng);
    std::vector<double> spont(static_cast<std::size_t>(n));
    for (auto& e : spont) e = rng.NextDouble(0, 5);
    WebWaveOptions opt;
    opt.seed = rng.Next();
    opt.asynchronous = round % 2 == 1;
    BatchWebWaveSimulator sim(tree, {spont}, opt);
    const double total = TotalRate(spont);
    for (int s = 0; s < 100; ++s) sim.Step();
    EXPECT_NEAR(TotalRate(sim.ServedLane(0)), total, 1e-6 * (1 + total));
  }
}

}  // namespace
}  // namespace webwave
