// Stress and adversarial-shape tests: degenerate trees at scale, long
// protocol runs, and determinism guarantees.  These pin down that the
// implementations are iterative (no stack overflow on 100k-deep chains)
// and near-linear in practice.
#include "core/load_model.h"
#include "core/tlb.h"
#include "core/webfold.h"
#include "core/webwave_batch.h"
#include "doc/catalog.h"
#include "doc/doc_webwave.h"
#include "tree/builders.h"

#include <gtest/gtest.h>

#include <cstdlib>

namespace webwave {
namespace {

// Invariant-check knobs for sanitizer runs (set by the asan-ubsan test
// preset): WEBWAVE_STRESS_CHECK_EVERY_STEP=1 checks after every step
// instead of sampling, WEBWAVE_STRESS_CHECK_TOL overrides the tolerance.
bool CheckEveryStep() {
  const char* env = std::getenv("WEBWAVE_STRESS_CHECK_EVERY_STEP");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

double InvariantTolerance(double fallback) {
  const char* env = std::getenv("WEBWAVE_STRESS_CHECK_TOL");
  return env != nullptr ? std::atof(env) : fallback;
}

TEST(Stress, WebFoldOnHundredThousandNodeChain) {
  const int n = 100000;
  const RoutingTree tree = MakeChain(n);
  std::vector<double> spont(static_cast<std::size_t>(n), 0.0);
  spont.back() = 1e6;  // everything at the deep end: one giant fold
  const WebFoldResult r = WebFold(tree, spont);
  EXPECT_EQ(r.folds.size(), 1u);
  EXPECT_NEAR(r.load[0], 10.0, 1e-6);
  EXPECT_NEAR(r.load[n - 1], 10.0, 1e-6);
}

TEST(Stress, WebFoldOnHundredThousandNodeStar) {
  const int n = 100000;
  const RoutingTree tree = MakeStar(n);
  std::vector<double> spont(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v)
    spont[static_cast<std::size_t>(v)] = static_cast<double>(v % 97);
  const WebFoldResult r = WebFold(tree, spont);
  EXPECT_TRUE(CheckFeasible(tree, spont, r.load, 1e-6).ok());
  // Lemma 1 sampled.
  for (NodeId v = 1; v < n; v += 9973)
    EXPECT_GE(r.load[0] + 1e-9, r.load[v]);
}

TEST(Stress, DeepChainTraversalsAreIterative) {
  const int n = 200000;
  const RoutingTree tree = MakeChain(n);
  EXPECT_EQ(tree.height(), n - 1);
  EXPECT_EQ(tree.depth(n - 1), n - 1);
  EXPECT_EQ(static_cast<int>(tree.preorder().size()), n);
  EXPECT_EQ(tree.subtree_size(0), n);
  EXPECT_EQ(static_cast<int>(tree.path_to_root(n - 1).size()), n);
}

TEST(Stress, ReferenceSolverAgreesAtScale) {
  Rng rng(5);
  const int n = 3000;
  const RoutingTree tree = MakeRandomTree(n, rng);
  std::vector<double> spont(static_cast<std::size_t>(n));
  for (auto& e : spont) e = rng.NextDouble(0, 100);
  const WebFoldResult fast = WebFold(tree, spont);
  const std::vector<double> regions = SolveTlbByMaxMeanRegions(tree, spont);
  double max_diff = 0;
  for (NodeId v = 0; v < n; ++v)
    max_diff = std::max(max_diff, std::abs(fast.load[v] - regions[v]));
  EXPECT_LT(max_diff, 1e-6);
}

TEST(Stress, LongWebWaveRunKeepsInvariants) {
  Rng rng(7);
  const int n = 2000;
  const RoutingTree tree = MakeRandomTree(n, rng);
  std::vector<double> spont(static_cast<std::size_t>(n));
  for (auto& e : spont) e = rng.NextDouble(0, 10);
  WebWaveOptions opt;
  opt.asynchronous = true;
  opt.gossip_period = 3;
  opt.gossip_delay = 2;
  opt.seed = 99;
  BatchWebWaveSimulator sim(tree, {spont}, opt);
  const bool every_step = CheckEveryStep();
  const double tol = InvariantTolerance(1e-5);
  for (int s = 0; s < 500; ++s) {
    sim.Step();
    if (every_step || s % 50 == 0) {
      ASSERT_NO_THROW(sim.CheckInvariants(tol));
    }
  }
}

TEST(Stress, BatchCatalogRunKeepsInvariantsPerLane) {
  Rng rng(31);
  const RoutingTree tree = MakeRandomTree(500, rng);
  const DemandMatrix demand = LeafZipfDemand(tree, 16, 25.0, 1.0, rng);
  WebWaveOptions opt;
  opt.gossip_period = 2;
  opt.gossip_delay = 1;
  BatchWebWaveSimulator batch = MakeCatalogBatch(tree, demand, opt);
  const bool every_step = CheckEveryStep();
  const double tol = InvariantTolerance(1e-5);
  for (int s = 0; s < 200; ++s) {
    batch.Step();
    if (every_step || s % 25 == 0) {
      ASSERT_NO_THROW(batch.CheckInvariants(tol));
    }
  }
}

TEST(Stress, AsynchronousRunsAreSeedDeterministic) {
  Rng rng(11);
  const RoutingTree tree = MakeRandomTree(100, rng);
  std::vector<double> spont(100);
  for (auto& e : spont) e = rng.NextDouble(0, 10);
  WebWaveOptions opt;
  opt.asynchronous = true;
  opt.seed = 1234;
  BatchWebWaveSimulator a(tree, {spont}, opt);
  BatchWebWaveSimulator b(tree, {spont}, opt);
  for (int s = 0; s < 200; ++s) {
    a.Step();
    b.Step();
  }
  EXPECT_EQ(a.ServedLane(0), b.ServedLane(0))
      << "same seed must give identical runs";
}

TEST(Stress, DocWebWaveManyDocumentsManyNodes) {
  Rng rng(13);
  const RoutingTree tree = MakeKaryTree(3, 4);  // 121 nodes
  const DemandMatrix demand = LeafZipfDemand(tree, 25, 40, 1.0, rng);
  DocWebWave protocol(tree, demand);
  for (int s = 0; s < 120; ++s) protocol.Step();
  ASSERT_NO_THROW(protocol.CheckInvariants());
  const WebFoldResult tlb = WebFold(tree, demand.NodeTotals());
  EXPECT_LT(protocol.DistanceTo(tlb.load), 0.1 * demand.Total());
}

TEST(Stress, ZeroDemandEverywhereIsANoOp) {
  const RoutingTree tree = MakeKaryTree(2, 4);
  std::vector<double> zero(static_cast<std::size_t>(tree.size()), 0.0);
  BatchWebWaveSimulator sim(tree, {zero});
  for (int s = 0; s < 50; ++s) sim.Step();
  sim.CheckInvariants();
  for (const double l : sim.ServedLane(0)) EXPECT_DOUBLE_EQ(l, 0.0);
}

TEST(Stress, SingleHotNodeAtEveryPosition) {
  // Sweep the hot node across a caterpillar: every position must give a
  // feasible TLB with the hot node's fold absorbing the spike.
  const RoutingTree tree = MakeCaterpillar(5, 2);
  for (NodeId hot = 0; hot < tree.size(); ++hot) {
    std::vector<double> spont(static_cast<std::size_t>(tree.size()), 1.0);
    spont[static_cast<std::size_t>(hot)] = 500;
    const WebFoldResult r = WebFold(tree, spont);
    EXPECT_TRUE(CheckFeasible(tree, spont, r.load, 1e-7).ok()) << "hot " << hot;
    EXPECT_TRUE(SatisfiesTlb(tree, spont, r.load)) << "hot " << hot;
  }
}

}  // namespace
}  // namespace webwave
