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
#include <cstdio>
#include <string>

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

// --- golden trajectories ------------------------------------------------
//
// DocWebWave's exact behaviour on two random multi-document trees, with
// tunneling on and off: NodeLoads() at four periods, the copy and eviction
// counters, every tunnel event and the final per-cell IsCached/ServedRate,
// as hexfloats.  The properties above hold for many exchange rules (a
// parent that keeps a zero-quota copy, or a child that relinquishes its
// smallest quota first, still converges); these traces pin this one.  A
// change that moves them is a behaviour change and updates them on purpose.

std::string Hex(double x) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%a", x);
  return buf;
}

// Appends `tokens` to `out` as lines of at most 72 characters, the first
// one starting with `head`.
void AppendWrapped(std::string& out, const std::string& head,
                   const std::vector<std::string>& tokens) {
  std::string line = head;
  for (const std::string& t : tokens) {
    if (line.size() + 1 + t.size() > 72) {
      out += line + "\n";
      line = " ";
    }
    line += " " + t;
  }
  out += line + "\n";
}

std::string GoldenTrace(int docs, std::uint64_t seed, bool tunneling) {
  Rng rng(seed);
  const RoutingTree tree = MakeRandomTree(10, rng);
  DemandMatrix demand(tree.size(), docs);
  for (NodeId v = 0; v < tree.size(); ++v)
    for (DocId d = 0; d < docs; ++d)
      if (rng.NextBernoulli(0.3)) demand.set(v, d, rng.NextDouble(1, 30));
  DocWebWaveOptions opt;
  opt.enable_tunneling = tunneling;
  DocWebWave protocol(tree, demand, opt);
  std::string out;
  for (const int period : {1, 4, 16, 60}) {
    while (protocol.period() < period) protocol.Step();
    std::vector<std::string> loads;
    for (const double l : protocol.NodeLoads()) loads.push_back(Hex(l));
    AppendWrapped(out, "period " + std::to_string(period), loads);
  }
  out += "replications " + std::to_string(protocol.replication_count()) +
         " evictions " + std::to_string(protocol.eviction_count()) + "\n";
  for (const TunnelEvent& e : protocol.tunnel_events())
    out += "tunnel " + std::to_string(e.period) + " " +
           std::to_string(e.node) + " " + std::to_string(e.barrier) + " " +
           std::to_string(e.source) + " " + std::to_string(e.doc) + " " +
           Hex(e.quota) + "\n";
  // Per cell: 1 or 0 for IsCached, then the served rate.
  for (NodeId v = 0; v < tree.size(); ++v) {
    std::vector<std::string> cells;
    for (DocId d = 0; d < docs; ++d)
      cells.push_back(std::to_string(protocol.IsCached(v, d)) + ":" +
                      Hex(protocol.ServedRate(v, d)));
    AppendWrapped(out, "node " + std::to_string(v), cells);
  }
  return out;
}

TEST(DocWebWaveGolden, ThreeDocsWithTunneling) {
  EXPECT_EQ(GoldenTrace(3, 11, true), R"(period 1 0x1.12e7bf5e44402p+7 0x1.15fa7190165c2p+5 0x0p+0 0x0p+0 0x0p+0
  0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x1.895918e90e016p+0
period 4 0x1.67f50730951ep+6 0x1.524f1407b5868p+5 0x1.90aca3cf77878p+3
  0x1.f264e9ba830eep+1 0x0p+0 0x0p+0 0x1.f264e9ba830eep+1
  0x1.39d10cea32accp+4 0x0p+0 0x1.895918e90e016p+0
period 16 0x1.005755b0e31bap+5 0x1.f64bc862d7c76p+4 0x1.91f7e8ba8f42ap+4
  0x1.10db0608cf8e5p+4 0x0p+0 0x1.7ddfc4a9b12a3p+2 0x1.5d628d41107c8p+4
  0x1.08b177e13701cp+5 0x1.6ca035719c7c7p+2 0x1.895918e90e016p+0
period 60 0x1.bf7b3aa179e5ap+4 0x1.bf50d3048aa9cp+4 0x1.bee60d1092869p+4
  0x1.cba2ca45c9f9bp+3 0x0p+0 0x1.2182863b5ebefp+3 0x1.beaf6b68486dbp+4
  0x1.bf7d6c95cdc8p+4 0x1.2182863a1a221p+3 0x1.895918e90e016p+0
replications 19 evictions 5
tunnel 4 5 3 1 1 0x1.02281bb3c89b8p+1
tunnel 12 3 2 1 1 0x1.239fdcaebc621p+1
tunnel 15 3 2 1 1 0x1.584d072f548b9p+1
tunnel 18 3 2 1 1 0x1.7811f64beeb4bp+1
tunnel 21 3 2 1 1 0x1.9ad5009013dbp-1
node 0 1:0x1.a9c9dbc1194f9p+3 1:0x1.3568259f5d8c8p+0
  1:0x1.ae7f94cdeeca2p+3
node 1 1:0x1.6084dea09f24dp+1 1:0x1.326d27a37e318p+2
  1:0x1.46a4ed479738dp+4
node 2 1:0x1.7d104eea7bdd2p+4 0:0x0p+0 1:0x1.0756f8985aa5dp+2
node 3 1:0x1.cba2ca45c9f9bp+3 0:0x0p+0 0:0x0p+0
node 4 0:0x0p+0 0:0x0p+0 0:0x0p+0
node 5 0:0x0p+0 1:0x1.2182863b5ebefp+3 0:0x0p+0
node 6 1:0x1.3fc46bb0bf77ep+3 0:0x0p+0 1:0x1.1ecd358fe8b1cp+4
node 7 1:0x1.87a325dda78e8p+3 1:0x1.3e82061740714p+3
  1:0x1.71ab5a6d67208p+2
node 8 0:0x0p+0 1:0x1.2182863a1a221p+3 0:0x0p+0
node 9 1:0x1.895918e90e016p+0 0:0x0p+0 0:0x0p+0
)");
}

TEST(DocWebWaveGolden, ThreeDocsWithoutTunneling) {
  EXPECT_EQ(GoldenTrace(3, 11, false), R"(period 1 0x1.12e7bf5e44402p+7 0x1.15fa7190165c2p+5 0x0p+0 0x0p+0 0x0p+0
  0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x1.895918e90e016p+0
period 4 0x1.67f50730951ep+6 0x1.524f1407b5868p+5 0x1.90aca3cf77878p+3
  0x1.f264e9ba830eep+1 0x0p+0 0x0p+0 0x1.f264e9ba830eep+1
  0x1.39d10cea32accp+4 0x0p+0 0x1.895918e90e016p+0
period 16 0x1.399fe46b8eee2p+5 0x1.082d72d544353p+5 0x1.642b8e8d60779p+4
  0x1.cba2ca45c9f9bp+3 0x0p+0 0x1.5cdbc2b6043d9p+2 0x1.45187174f9feep+4
  0x1.12ef62e5b2954p+5 0x1.9b689f941629ep+1 0x1.895918e90e016p+0
period 60 0x1.cd1d501692cfbp+4 0x1.cc829c0add6a6p+4 0x1.cb0db224f5e0dp+4
  0x1.cba2ca45c9f9bp+3 0x0p+0 0x1.c28af29d4fdc8p+2 0x1.ca543b1f75eb5p+4
  0x1.cd1c3bfda83c2p+4 0x1.c2829b92460b4p+2 0x1.895918e90e016p+0
replications 62 evictions 49
node 0 1:0x1.333fdb5f7f87cp+3 1:0x1.3378f1c3cc047p+3
  1:0x1.3381d309da132p+3
node 1 1:0x1.50ba2ac8049acp+2 0:0x0p+0 1:0x1.78541158dc43bp+4
node 2 1:0x1.8340e03dfa8cap+4 0:0x0p+0 1:0x1.1f33479bed50bp+2
node 3 1:0x1.cba2ca45c9f9bp+3 0:0x0p+0 0:0x0p+0
node 4 0:0x0p+0 0:0x0p+0 0:0x0p+0
node 5 0:0x0p+0 1:0x1.c28af29d4fdc8p+2 0:0x0p+0
node 6 1:0x1.4b5cb8ff59274p+3 0:0x0p+0 1:0x1.24a5de9fc957bp+4
node 7 1:0x1.95f7d88dcfc3cp+3 1:0x1.4b6af236cd243p+3
  1:0x1.71ab5a6d67208p+2
node 8 0:0x0p+0 1:0x1.c2829b92460b4p+2 0:0x0p+0
node 9 1:0x1.895918e90e016p+0 0:0x0p+0 0:0x0p+0
)");
}

TEST(DocWebWaveGolden, FourDocsWithTunneling) {
  EXPECT_EQ(GoldenTrace(4, 11, true), R"(period 1 0x1.13de9e738709ep+7 0x1.1e69be0253a4fp+5 0x0p+0 0x0p+0 0x0p+0
  0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x1.5163f1d9936p+2
period 4 0x1.6a2513adefe3cp+6 0x1.554191b4b039fp+5 0x1.95c002e8e2162p+3
  0x1.b06b3b860af5ep+1 0x1.3e9e0f6de85c4p+4 0x1.3181dbbe37165p-1
  0x1.fccbb27598bb7p+1 0x0p+0 0x0p+0 0x1.5163f1d9936p+2
period 16 0x1.4ef3c509da1ecp+5 0x1.1b52313ab0287p+5 0x1.97615c0f50a2ep+4
  0x1.23516f6a8fb2cp+4 0x1.969261f930cb8p+4 0x1.e3a7d381cb801p+3
  0x1.8846d7c7a8533p+3 0x0p+0 0x0p+0 0x1.5163f1d9936p+2
period 60 0x1.bd0a833200bbap+4 0x1.bef7fd0778525p+4 0x1.ae6a72fc93f43p+4
  0x1.ac11ef4c86196p+4 0x1.969261f930cb8p+4 0x1.aa93bf4147887p+4
  0x1.8846d7c7a8533p+3 0x0p+0 0x0p+0 0x1.5163f1d9936p+2
replications 44 evictions 26
tunnel 10 6 2 0 3 0x1.895918e90e016p+0
tunnel 36 2 1 0 3 0x1.91a5471c3728p-1
tunnel 39 2 1 0 0 0x1.62da4ce133bep-1
node 0 1:0x1.63a18ea65ebcp+2 1:0x1.28ed9c2bfed41p+3
  1:0x1.dde253e5688c2p+2 1:0x1.60caf1e43dfe4p+2
node 1 0:0x0p+0 1:0x1.f6958ac7d866fp+3 1:0x1.875a6f47183dbp+3 0:0x0p+0
node 2 1:0x1.06f2c80b931bcp-1 1:0x1.413142a7fdeb9p+4
  1:0x1.6dff84e759b0cp+2 1:0x1.30371b4c60728p-1
node 3 1:0x1.c9dbb9412bcdbp+2 1:0x1.deea64abe8ba9p+2
  1:0x1.dfb4126b86feep+2 1:0x1.27cd8cd97cde9p+2
node 4 1:0x1.d7d2af95e49c1p+2 0:0x0p+0 1:0x1.209db613b7a48p+4 0:0x0p+0
node 5 1:0x1.97e45b83d65b9p+3 1:0x1.65b7500b3dd1cp+3
  1:0x1.5e2f4bcdeb8e6p+1 0:0x0p+0
node 6 0:0x0p+0 1:0x1.571bb4aa8693p+3 0:0x0p+0 1:0x1.895918e90e016p+0
node 7 0:0x0p+0 0:0x0p+0 0:0x0p+0 0:0x0p+0
node 8 0:0x0p+0 0:0x0p+0 0:0x0p+0 0:0x0p+0
node 9 0:0x0p+0 0:0x0p+0 1:0x1.5163f1d9936p+2 0:0x0p+0
)");
}

TEST(DocWebWaveGolden, FourDocsWithoutTunneling) {
  EXPECT_EQ(GoldenTrace(4, 11, false), R"(period 1 0x1.13de9e738709ep+7 0x1.1e69be0253a4fp+5 0x0p+0 0x0p+0 0x0p+0
  0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x1.5163f1d9936p+2
period 4 0x1.6a2513adefe3cp+6 0x1.554191b4b039fp+5 0x1.95c002e8e2162p+3
  0x1.b06b3b860af5ep+1 0x1.3e9e0f6de85c4p+4 0x1.3181dbbe37165p-1
  0x1.fccbb27598bb7p+1 0x0p+0 0x0p+0 0x1.5163f1d9936p+2
period 16 0x1.55c4934e96efbp+5 0x1.1cf93c04e6d96p+5 0x1.8c7bf15cf7971p+4
  0x1.1d8223166746p+4 0x1.969261f930cb8p+4 0x1.e331dd530069dp+3
  0x1.8846d7c7a8533p+3 0x0p+0 0x0p+0 0x1.5163f1d9936p+2
period 60 0x1.dc9ae91a9ee52p+4 0x1.dc9a534735ba1p+4 0x1.97f6774d7cebfp+4
  0x1.97f431bc6339ep+4 0x1.969261f930cb8p+4 0x1.97f2bc5825defp+4
  0x1.8846d7c7a8533p+3 0x0p+0 0x0p+0 0x1.5163f1d9936p+2
replications 75 evictions 59
node 0 1:0x1.dc9b8e98329fdp+2 1:0x1.dc98b3bc621ccp+2
  1:0x1.dc9b7f820e78p+2 1:0x1.dc9be293d8602p+2
node 1 0:0x0p+0 1:0x1.189b668ad3163p+4 1:0x1.87fdd978c547cp+3 0:0x0p+0
node 2 0:0x0p+0 1:0x1.3ee44beaabd4cp+4 1:0x1.6448ad8b445cbp+2 0:0x0p+0
node 3 1:0x1.89b97396e6f73p+2 1:0x1.010490a01efbp+3
  1:0x1.010559437cb7ap+3 1:0x1.a406ff26dd15fp+1
node 4 1:0x1.d7d2af95e49c1p+2 0:0x0p+0 1:0x1.209db613b7a48p+4 0:0x0p+0
node 5 1:0x1.8be7aae0c806ap+3 1:0x1.58c1df3bb761ep+3
  1:0x1.2cefba4f3155ap+1 0:0x0p+0
node 6 0:0x0p+0 1:0x1.571bb4aa8693p+3 0:0x0p+0 1:0x1.895918e90e016p+0
node 7 0:0x0p+0 0:0x0p+0 0:0x0p+0 0:0x0p+0
node 8 0:0x0p+0 0:0x0p+0 0:0x0p+0 0:0x0p+0
node 9 0:0x0p+0 0:0x0p+0 1:0x1.5163f1d9936p+2 0:0x0p+0
)");
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
