// End-to-end integration: the full pipeline a user of the library runs —
// topology generation -> routing forest -> demand -> offline TLB ->
// placement -> distributed protocol (rate level) -> packet-level protocol
// — with every stage's output feeding the next and cross-checked.
#include "core/load_model.h"
#include "core/tlb.h"
#include "core/webfold.h"
#include "core/webwave_batch.h"
#include "doc/catalog.h"
#include "doc/doc_webwave.h"
#include "doc/placement.h"
#include "proto/packet_sim.h"
#include "stats/summary.h"
#include "topology/generators.h"
#include "topology_metrics.h"
#include "topology/spt.h"

#include <gtest/gtest.h>

namespace webwave {
namespace {

TEST(Integration, TopologyToTlbToProtocolsPipeline) {
  // 1. An Internet-like topology.
  Rng rng(2024);
  const Network net = MakeBarabasiAlbert(48, 2, rng);
  ASSERT_TRUE(net.IsConnected());
  const NetworkMetrics nm = ComputeNetworkMetrics(net);
  ASSERT_LT(nm.diameter_hops, 10);

  // 2. Routing tree for a home server.
  const RoutingTree tree = ShortestPathTree(net, 5);
  ASSERT_EQ(tree.root(), 5);
  ASSERT_EQ(tree.size(), net.size());

  // 3. Zipf demand at the leaves.
  const DemandMatrix demand = LeafZipfDemand(tree, 10, 50.0, 1.0, rng);
  const std::vector<double> spont = demand.NodeTotals();
  const double total = demand.Total();
  ASSERT_GT(total, 0);

  // 4. Offline optimum + structural verification + independent solver.
  const WebFoldResult tlb = WebFold(tree, spont);
  ASSERT_TRUE(CheckFeasible(tree, spont, tlb.load, 1e-7).ok());
  ASSERT_TRUE(SatisfiesTlb(tree, spont, tlb.load));
  const std::vector<double> regions = SolveTlbByMaxMeanRegions(tree, spont);
  for (NodeId v = 0; v < tree.size(); ++v)
    ASSERT_NEAR(tlb.load[v], regions[v], 1e-6);

  // 5. Placement decomposes the optimum over documents.
  const PlacementResult placement = DerivePlacement(tree, demand);
  for (NodeId v = 0; v < tree.size(); ++v) {
    double node_total = 0;
    for (const double q : placement.quota[static_cast<std::size_t>(v)])
      node_total += q;
    ASSERT_NEAR(node_total, tlb.load[v], 1e-6);
  }

  // 6. Rate-level distributed protocol reaches the optimum.
  BatchWebWaveSimulator protocol(tree, {spont});
  const auto traj = protocol.RunUntil(0, tlb.load, 1e-5 * total, 50000);
  EXPECT_LE(traj.back(), 1e-5 * total);
  protocol.CheckInvariants();

  // 7. Document-level protocol gets close too (quota granularity).
  DocWebWave doc_protocol(tree, demand);
  const auto doc_traj = doc_protocol.RunUntil(tlb.load, 0.02 * total, 4000);
  EXPECT_LE(doc_traj.back(), 0.02 * total);
  doc_protocol.CheckInvariants();

  // 8. Packet-level protocol beats no-caching on balance and locality.
  PacketSimOptions pko;
  pko.duration = 25 * kMicrosPerSecond;
  pko.warmup = 10 * kMicrosPerSecond;
  pko.seed = 31;
  pko.policy = CachePolicy::kWebWave;
  const PacketSimReport wave = PacketSim(tree, demand, pko).Run();
  pko.policy = CachePolicy::kNoCaching;
  const PacketSimReport none = PacketSim(tree, demand, pko).Run();
  EXPECT_LT(CoefficientOfVariation(wave.measured_loads),
            CoefficientOfVariation(none.measured_loads));
  EXPECT_LT(wave.mean_hit_depth, none.mean_hit_depth);
}

TEST(Integration, WeightedPipelineOnTransitStub) {
  // Heterogeneous capacities end-to-end: transit-stub topology, core
  // nodes 4x beefier, weighted TLB realized by the weighted protocol.
  Rng rng(77);
  const Network net = MakeTransitStub(4, 2, 5, rng);
  const RoutingTree tree = ShortestPathTree(net, 0);
  std::vector<double> spont(static_cast<std::size_t>(tree.size()), 0.0);
  std::vector<double> cap(static_cast<std::size_t>(tree.size()), 1.0);
  for (NodeId v = 0; v < tree.size(); ++v) {
    if (tree.is_leaf(v)) spont[static_cast<std::size_t>(v)] = rng.NextDouble(5, 25);
    if (v < 4) cap[static_cast<std::size_t>(v)] = 4.0;  // transit core
  }
  const WebFoldResult target = WebFoldWeighted(tree, spont, cap);
  ASSERT_TRUE(CheckFeasible(tree, spont, target.load, 1e-7).ok());
  WebWaveOptions opt;
  opt.capacities = cap;
  BatchWebWaveSimulator sim(tree, {spont}, opt);
  const auto traj = sim.RunUntil(0, target.load, 1e-5, 60000);
  EXPECT_LE(traj.back(), 1e-5);
}

}  // namespace
}  // namespace webwave
