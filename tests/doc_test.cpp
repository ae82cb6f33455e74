// Tests for the per-document layer: catalogs, demand matrices, the
// document-level WebWave protocol, potential barriers and tunneling.
//
// The centerpiece reproduces Figure 7: a four-node tree where plain
// diffusion stalls at a potential barrier and tunneling recovers to the
// TLB assignment of 90 requests/node.
#include "core/load_model.h"
#include "core/webfold.h"
#include "core/webwave_batch.h"
#include "doc/barrier.h"
#include "doc/catalog.h"
#include "doc/doc_webwave.h"
#include "sim/churn.h"
#include "tree/builders.h"

#include <gtest/gtest.h>

#include <cmath>

namespace webwave {
namespace {

TEST(Catalog, MakeUniform) {
  const Catalog c = Catalog::MakeUniform(5, 16.0);
  EXPECT_EQ(c.size(), 5);
  EXPECT_EQ(c.doc(3).name, "doc-3");
  EXPECT_DOUBLE_EQ(c.doc(0).size_kb, 16.0);
  EXPECT_THROW(c.doc(5), std::invalid_argument);
}

TEST(DemandMatrixTest, Accessors) {
  DemandMatrix m(3, 2);
  m.set(0, 0, 5);
  m.set(2, 1, 7);
  m.add(2, 1, 3);
  EXPECT_DOUBLE_EQ(m.at(2, 1), 10);
  EXPECT_DOUBLE_EQ(m.NodeTotal(2), 10);
  EXPECT_DOUBLE_EQ(m.DocTotal(1), 10);
  EXPECT_DOUBLE_EQ(m.DocTotal(0), 5);
  EXPECT_DOUBLE_EQ(m.Total(), 15);
  EXPECT_EQ(m.NodeTotals(), (std::vector<double>{5, 0, 10}));
  EXPECT_THROW(m.set(0, 0, -1), std::invalid_argument);
  EXPECT_THROW(m.at(3, 0), std::invalid_argument);
}

TEST(DemandGenerators, LeafZipfPutsDemandOnlyOnLeaves) {
  Rng rng(3);
  const RoutingTree t = MakeKaryTree(2, 3);
  const DemandMatrix m = LeafZipfDemand(t, 10, 100.0, 1.0, rng);
  for (NodeId v = 0; v < t.size(); ++v) {
    if (t.is_leaf(v)) {
      EXPECT_NEAR(m.NodeTotal(v), 100.0, 1e-9) << "leaf " << v;
    } else {
      EXPECT_DOUBLE_EQ(m.NodeTotal(v), 0.0) << "interior " << v;
    }
  }
}

TEST(DemandGenerators, RotatingHotSpotTracksUnderProtocol) {
  // The moving hot spot is trackable: run WebWave while the window
  // rotates, and check the tracking distance stays bounded well below
  // the total rate.
  const RoutingTree t = MakeKaryTree(2, 3);
  ChurnScheduleOptions copt;
  copt.pattern = ChurnPattern::kRotatingHotSpot;
  copt.doc_count = 4;
  copt.base_rate = 2.0;
  copt.hot_rate = 60.0;
  copt.hot_fraction = 0.25;
  copt.rotation_epochs = 8;
  ChurnSchedule schedule(t, copt);
  // The single-document view: each node's rate summed over the catalog.
  const auto node_totals = [&] {
    std::vector<double> totals(static_cast<std::size_t>(t.size()), 0.0);
    for (const std::vector<double>& lane : schedule.Lanes())
      for (std::size_t v = 0; v < totals.size(); ++v) totals[v] += lane[v];
    return totals;
  };
  WebWaveOptions opt;
  opt.initial_load = InitialLoad::kSelfService;
  BatchWebWaveSimulator sim(t, {node_totals()}, opt);
  double worst_relative = 0;
  for (int epoch = 0; epoch < 8; ++epoch) {
    if (epoch > 0) schedule.NextEvents();
    const std::vector<double> demand = node_totals();
    std::vector<DemandEvent> events;
    for (NodeId v = 0; v < t.size(); ++v)
      events.push_back({0, v, demand[static_cast<std::size_t>(v)]});
    sim.ApplyDemandEvents(events);
    const WebFoldResult target = WebFold(t, demand);
    for (int s = 0; s < 60; ++s) sim.Step();
    worst_relative = std::max(
        worst_relative, sim.DistanceTo(0, target.load) / TotalRate(demand));
  }
  EXPECT_LT(worst_relative, 0.05)
      << "60 steps per phase must keep tracking error under 5%";
}

TEST(DemandGenerators, FlashCrowdBoostsSubtree) {
  Rng rng(5);
  const RoutingTree t = MakeKaryTree(2, 2);
  const DemandMatrix m = FlashCrowdDemand(t, 5, 1.0, 50.0, 2, 1, rng);
  // Subtree of node 1 = {1, 3, 4}: every member got +50 on doc 2.
  for (const NodeId v : t.subtree(1)) EXPECT_GE(m.at(v, 2), 50.0);
  EXPECT_LT(m.at(2, 2), 50.0);
}

// --- Figure 7 -----------------------------------------------------------
//
// Nodes: 1 = home (our id 0), 2 = intermediate (id 1), 3 and 4 = leaves
// (ids 2, 3).  d1, d2 requested by node 4 (id 3) at 120 each; d3 requested
// by node 3 (id 2) at 120.  Figure 7(a)'s placement: the copy of d1 lives
// at node 4 (quota 120), d2 at node 2 (quota 120), d3 served by the home.
// Loads: L = (120, 120, 0, 120) — node 2 is a potential barrier for its
// underloaded child 3 (it caches nothing node 3 requests).
struct Fig7 {
  RoutingTree tree = RoutingTree::FromParents({kNoNode, 0, 1, 1});
  DemandMatrix demand{4, 3};
  Fig7() {
    demand.set(3, 0, 120);  // d1 from node "4"
    demand.set(3, 1, 120);  // d2 from node "4"
    demand.set(2, 2, 120);  // d3 from node "3"
  }
};

DocWebWave MakeFig7Protocol(const Fig7& f, bool tunneling) {
  DocWebWaveOptions opt;
  opt.enable_tunneling = tunneling;
  DocWebWave protocol(f.tree, f.demand, opt);
  protocol.SeedCopy(3, 0, 120);  // d1 at node "4"
  protocol.SeedCopy(1, 1, 120);  // d2 at node "2"
  return protocol;
}

TEST(Figure7, SeededPlacementReproducesThePapersLoads) {
  const Fig7 f;
  DocWebWave protocol = MakeFig7Protocol(f, false);
  const auto loads = protocol.NodeLoads();
  EXPECT_NEAR(loads[0], 120, 1e-9);  // home serves d3
  EXPECT_NEAR(loads[1], 120, 1e-9);  // node "2" serves d2
  EXPECT_NEAR(loads[2], 0, 1e-9);    // node "3" idle
  EXPECT_NEAR(loads[3], 120, 1e-9);  // node "4" serves d1
  protocol.CheckInvariants();
}

TEST(Figure7, InitialStateIsAPotentialBarrier) {
  const Fig7 f;
  // Hand-build the §5.2 state: loads (120,120,0,120); node 1 caches only
  // d2; node 3's subtree forwards only d3.
  const std::vector<double> loads = {120, 120, 0, 120};
  std::vector<std::vector<bool>> caches = {
      {true, true, true},    // home caches everything
      {false, true, false},  // node "2" caches d2 only
      {false, false, false},
      {true, false, false},  // node "4" caches d1
  };
  std::vector<std::vector<double>> fwd = {
      {0, 0, 0},
      {0, 0, 120},  // node "2" forwards d3
      {0, 0, 120},  // node "3" forwards its d3 demand
      {0, 120, 0},  // node "4" forwards d2 (served upstream)
  };
  EXPECT_TRUE(IsPotentialBarrier(f.tree, 1, 2, loads, caches, fwd));
  // Not a barrier for the loaded child.
  EXPECT_FALSE(IsPotentialBarrier(f.tree, 1, 3, loads, caches, fwd));
}

TEST(Figure7, WithoutTunnelingDiffusionStallsAboveTlb) {
  const Fig7 f;
  DocWebWave protocol = MakeFig7Protocol(f, /*tunneling=*/false);
  const std::vector<double> tlb(4, 90.0);  // 360 total over 4 nodes
  const auto traj = protocol.RunUntil(tlb, 1.0, 400);
  EXPECT_GT(traj.back(), 30.0)
      << "without tunneling node 3 can never serve d3";
  // Node "3" (id 2) stays idle: nothing it could cache ever reaches it.
  EXPECT_NEAR(protocol.NodeLoads()[2], 0.0, 1e-6);
  protocol.CheckInvariants();
}

TEST(Figure7, WithTunnelingConvergesToNinetyEach) {
  const Fig7 f;
  DocWebWave protocol = MakeFig7Protocol(f, /*tunneling=*/true);
  const std::vector<double> tlb(4, 90.0);
  const auto traj = protocol.RunUntil(tlb, 0.5, 2000);
  EXPECT_LE(traj.back(), 0.5) << "tunneling must restore TLB";
  const auto loads = protocol.NodeLoads();
  for (NodeId v = 0; v < 4; ++v) EXPECT_NEAR(loads[v], 90.0, 1.0) << v;
  EXPECT_GE(protocol.tunnel_events().size(), 1u);
  const TunnelEvent& ev = protocol.tunnel_events().front();
  EXPECT_EQ(ev.node, 2) << "the underloaded child tunnels";
  EXPECT_EQ(ev.barrier, 1) << "across its barrier parent";
  EXPECT_EQ(ev.doc, 2) << "for the document it keeps forwarding (d3)";
  EXPECT_EQ(ev.source, 0) << "fetched from the home server";
  protocol.CheckInvariants();
}

TEST(Figure7, TlbOfDemandMatchesPaperNinety) {
  const Fig7 f;
  const WebFoldResult r = WebFold(f.tree, f.demand.NodeTotals());
  for (NodeId v = 0; v < 4; ++v) EXPECT_NEAR(r.load[v], 90.0, 1e-9);
}

// --- general document-level protocol properties -------------------------

TEST(DocWebWaveTest, HomeAloneServesEverythingInitially) {
  Rng rng(7);
  const RoutingTree t = MakeKaryTree(2, 2);
  const DemandMatrix demand = LeafZipfDemand(t, 6, 50, 1.0, rng);
  DocWebWave protocol(t, demand);
  const auto loads = protocol.NodeLoads();
  EXPECT_NEAR(loads[t.root()], demand.Total(), 1e-9);
  for (NodeId v = 1; v < t.size(); ++v) EXPECT_NEAR(loads[v], 0, 1e-9);
  protocol.CheckInvariants();
}

TEST(DocWebWaveTest, InvariantsHoldThroughoutConvergence) {
  Rng rng(11);
  const RoutingTree t = MakeCaterpillar(3, 2);
  const DemandMatrix demand = UniformRandomDemand(t, 4, 10, rng);
  DocWebWave protocol(t, demand);
  for (int s = 0; s < 150; ++s) {
    protocol.Step();
    ASSERT_NO_THROW(protocol.CheckInvariants()) << "period " << s;
  }
}

TEST(DocWebWaveTest, ConvergesNearTlbOnLeafDemand) {
  Rng rng(13);
  const RoutingTree t = MakeKaryTree(2, 3);
  const DemandMatrix demand = LeafZipfDemand(t, 8, 80, 1.0, rng);
  const WebFoldResult target = WebFold(t, demand.NodeTotals());
  DocWebWave protocol(t, demand);
  const double total = demand.Total();
  const auto traj = protocol.RunUntil(target.load, 0.01 * total, 3000);
  EXPECT_LE(traj.back(), 0.01 * total)
      << "document-level protocol should reach within 1% of TLB";
  protocol.CheckInvariants();
}

TEST(DocWebWaveTest, ReplicationCreatesCopiesDownTheTree) {
  Rng rng(17);
  const RoutingTree t = MakeChain(4);
  DemandMatrix demand(4, 2);
  demand.set(3, 0, 100);  // hot doc requested at the leaf
  DocWebWave protocol(t, demand);
  for (int s = 0; s < 200; ++s) protocol.Step();
  EXPECT_GT(protocol.CopyCount(0), 1) << "the hot document must replicate";
  EXPECT_EQ(protocol.CopyCount(1), 1) << "the cold one should not";
  EXPECT_GT(protocol.replication_count(), 0);
}

TEST(DocWebWaveTest, ServedImpliesCached) {
  Rng rng(19);
  const RoutingTree t = MakeKaryTree(3, 2);
  const DemandMatrix demand = UniformRandomDemand(t, 5, 4, rng);
  DocWebWave protocol(t, demand);
  for (int s = 0; s < 100; ++s) protocol.Step();
  for (NodeId v = 0; v < t.size(); ++v) {
    for (DocId d = 0; d < 5; ++d) {
      if (protocol.ServedRate(v, d) > 1e-9) {
        EXPECT_TRUE(protocol.IsCached(v, d)) << "node " << v << " doc " << d;
      }
    }
  }
}

TEST(BarrierMonitorTest, TriggersAfterPatienceExceeded) {
  BarrierMonitor monitor(3);
  // Two stalled periods: no trigger; the third: trigger (paper: "more than
  // two periods").
  EXPECT_FALSE(monitor.Observe(1, true, false));
  EXPECT_FALSE(monitor.Observe(1, true, false));
  EXPECT_TRUE(monitor.Observe(1, true, false));
  // Receiving load resets.
  monitor.Reset(1);
  EXPECT_FALSE(monitor.Observe(1, true, false));
  EXPECT_FALSE(monitor.Observe(1, true, true));
  EXPECT_EQ(monitor.ConsecutiveStalls(1), 0);
  // Being adequately loaded resets too.
  EXPECT_FALSE(monitor.Observe(1, true, false));
  EXPECT_FALSE(monitor.Observe(1, false, false));
  EXPECT_EQ(monitor.ConsecutiveStalls(1), 0);
}

}  // namespace
}  // namespace webwave
