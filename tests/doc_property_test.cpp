// Property sweep for the document-level protocol: on randomized trees and
// sparse per-document demand, DocWebWave (with tunneling) converges near
// the rate-level TLB optimum, never violates its invariants, and only
// replicates documents whose demand actually flows.
#include "core/load_model.h"
#include "core/webfold.h"
#include "doc/catalog.h"
#include "doc/doc_webwave.h"
#include "tree/builders.h"

#include <gtest/gtest.h>

namespace webwave {
namespace {

struct DocSweepCase {
  int nodes;
  int docs;
  std::uint64_t seed;
  double sparsity;  // probability a (node, doc) cell has demand
};

std::ostream& operator<<(std::ostream& os, const DocSweepCase& c) {
  return os << "n=" << c.nodes << " docs=" << c.docs << " seed=" << c.seed
            << " sparsity=" << c.sparsity;
}

class DocConvergenceSweep : public ::testing::TestWithParam<DocSweepCase> {};

TEST_P(DocConvergenceSweep, ConvergesNearTlbWithInvariants) {
  const DocSweepCase c = GetParam();
  Rng rng(c.seed);
  const RoutingTree tree = MakeRandomTree(c.nodes, rng);
  DemandMatrix demand(c.nodes, c.docs);
  for (NodeId v = 0; v < c.nodes; ++v)
    for (DocId d = 0; d < c.docs; ++d)
      if (rng.NextBernoulli(c.sparsity))
        demand.set(v, d, rng.NextDouble(1, 30));
  if (demand.Total() == 0) {
    demand.set(c.nodes - 1, 0, 10);
  }

  const WebFoldResult target = WebFold(tree, demand.NodeTotals());
  DocWebWave protocol(tree, demand);
  const double total = demand.Total();
  const auto traj = protocol.RunUntil(target.load, 0.02 * total, 4000);
  EXPECT_LE(traj.back(), 0.02 * total)
      << c << ": document protocol should reach within 2% of TLB";
  ASSERT_NO_THROW(protocol.CheckInvariants()) << c;

  // A document is replicated beyond the home only if someone demands it.
  for (DocId d = 0; d < c.docs; ++d) {
    if (demand.DocTotal(d) == 0) {
      EXPECT_EQ(protocol.CopyCount(d), 1) << c << " doc " << d;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, DocConvergenceSweep,
    ::testing::Values(DocSweepCase{5, 2, 1, 0.8},
                      DocSweepCase{10, 4, 2, 0.5},
                      DocSweepCase{20, 6, 3, 0.3},
                      DocSweepCase{35, 8, 4, 0.2},
                      DocSweepCase{50, 10, 5, 0.15},
                      DocSweepCase{20, 3, 6, 0.05},
                      DocSweepCase{12, 12, 7, 0.4},
                      DocSweepCase{60, 5, 8, 0.1}));

TEST(DocWebWaveEdgeCases, SingleDocumentSingleRequester) {
  const RoutingTree tree = MakeChain(5);
  DemandMatrix demand(5, 1);
  demand.set(4, 0, 100);
  DocWebWave protocol(tree, demand);
  const WebFoldResult target = WebFold(tree, demand.NodeTotals());
  const auto traj = protocol.RunUntil(target.load, 0.5, 2000);
  EXPECT_LE(traj.back(), 0.5);
  // TLB spreads 100 over 5 nodes -> 20 each; the chain must hold copies
  // at every node.
  EXPECT_EQ(protocol.CopyCount(0), 5);
}

TEST(DocWebWaveEdgeCases, DemandOnlyAtTheHomeStaysAtTheHome) {
  const RoutingTree tree = MakeKaryTree(2, 2);
  DemandMatrix demand(tree.size(), 2);
  demand.set(tree.root(), 0, 50);
  demand.set(tree.root(), 1, 30);
  DocWebWave protocol(tree, demand);
  for (int s = 0; s < 100; ++s) protocol.Step();
  protocol.CheckInvariants();
  // NSS: the home's own demand cannot move down to any subtree.
  EXPECT_NEAR(protocol.NodeLoads()[tree.root()], 80, 1e-9);
  EXPECT_EQ(protocol.CopyCount(0), 1);
  EXPECT_EQ(protocol.CopyCount(1), 1);
}

TEST(DocWebWaveEdgeCases, EvictionFreesColdCopies) {
  // A doc is hot at a leaf, then the child's quota is relinquished when
  // its sibling heats up far more; the protocol should evict zero-quota
  // copies rather than hoard them.
  const RoutingTree tree = RoutingTree::FromParents({kNoNode, 0, 0});
  DemandMatrix demand(3, 2);
  demand.set(1, 0, 10);
  demand.set(2, 1, 200);
  DocWebWave protocol(tree, demand);
  for (int s = 0; s < 300; ++s) protocol.Step();
  protocol.CheckInvariants();
  const WebFoldResult target = WebFold(tree, demand.NodeTotals());
  EXPECT_LT(protocol.DistanceTo(target.load), 0.05 * demand.Total());
}

}  // namespace
}  // namespace webwave
