// Tests for the offline copy placement implied by TLB (§7): the derived
// per-document quotas realize exactly the WebFold node loads, respect
// per-document NSS, and concentrate copies of hot documents.
#include "core/load_model.h"
#include "core/webfold.h"
#include "doc/catalog.h"
#include "doc/placement.h"
#include "serve/placement_policy.h"
#include "serve/quota_snapshot.h"
#include "serve/request_gen.h"
#include "sim/churn.h"
#include "tree/builders.h"
#include "webfold_reference.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace webwave {
namespace {

TEST(Placement, RealizesTlbNodeLoadsExactly) {
  Rng rng(3);
  const RoutingTree tree = MakeKaryTree(2, 3);
  const DemandMatrix demand = LeafZipfDemand(tree, 8, 60, 1.0, rng);
  const PlacementResult p = DerivePlacement(tree, demand);
  const WebFoldResult tlb = WebFold(tree, demand.NodeTotals());
  for (NodeId v = 0; v < tree.size(); ++v) {
    double node_total = 0;
    for (DocId d = 0; d < 8; ++d)
      node_total += p.quota[static_cast<std::size_t>(v)][static_cast<std::size_t>(d)];
    EXPECT_NEAR(node_total, tlb.load[v], 1e-6) << "node " << v;
  }
}

TEST(Placement, ConservesEveryDocumentsDemand) {
  Rng rng(5);
  const RoutingTree tree = MakeCaterpillar(4, 2);
  const DemandMatrix demand = UniformRandomDemand(tree, 5, 12, rng);
  const PlacementResult p = DerivePlacement(tree, demand);
  for (DocId d = 0; d < 5; ++d) {
    double served = 0;
    for (NodeId v = 0; v < tree.size(); ++v)
      served += p.quota[static_cast<std::size_t>(v)][static_cast<std::size_t>(d)];
    EXPECT_NEAR(served, demand.DocTotal(d), 1e-6) << "doc " << d;
  }
}

TEST(Placement, PerDocumentNssHolds) {
  // For every document, the quota taken at a node never exceeds the flow
  // of that document arriving there — check by recomputing flows.
  Rng rng(7);
  const RoutingTree tree = MakeKaryTree(3, 2);
  const DemandMatrix demand = LeafZipfDemand(tree, 6, 40, 0.8, rng);
  const PlacementResult p = DerivePlacement(tree, demand);
  for (DocId d = 0; d < 6; ++d) {
    std::vector<double> fwd(static_cast<std::size_t>(tree.size()), 0.0);
    for (const NodeId v : tree.postorder()) {
      double arrive = demand.at(v, d);
      for (const NodeId c : tree.children(v))
        arrive += fwd[static_cast<std::size_t>(c)];
      const double q =
          p.quota[static_cast<std::size_t>(v)][static_cast<std::size_t>(d)];
      EXPECT_LE(q, arrive + 1e-6) << "node " << v << " doc " << d;
      fwd[static_cast<std::size_t>(v)] = arrive - q;
      EXPECT_GE(fwd[static_cast<std::size_t>(v)], -1e-6);
    }
    EXPECT_NEAR(fwd[static_cast<std::size_t>(tree.root())], 0, 1e-6)
        << "doc " << d << " flow must terminate at the home";
  }
}

TEST(Placement, HotterDocumentsGetMoreCopies) {
  // One very hot document demanded everywhere vs. one cold document
  // demanded at a single leaf: the hot one must be replicated more.
  const RoutingTree tree = MakeKaryTree(2, 3);
  DemandMatrix demand(tree.size(), 2);
  for (NodeId v = 0; v < tree.size(); ++v)
    if (tree.is_leaf(v)) demand.set(v, 0, 50);
  demand.set(tree.size() - 1, 1, 5);
  const PlacementResult p = DerivePlacement(tree, demand);
  EXPECT_GT(p.copy_count[0], p.copy_count[1]);
  EXPECT_GE(p.copy_count[1], 1) << "home always holds a copy";
}

TEST(Placement, CopiesListMatchesQuotas) {
  Rng rng(11);
  const RoutingTree tree = MakeRandomTree(20, rng);
  const DemandMatrix demand = UniformRandomDemand(tree, 4, 8, rng);
  const PlacementResult p = DerivePlacement(tree, demand);
  for (DocId d = 0; d < 4; ++d) {
    double from_list = 0;
    for (const CopyAssignment& c : p.copies[static_cast<std::size_t>(d)]) {
      EXPECT_GT(c.rate, 0);
      EXPECT_NEAR(
          c.rate,
          p.quota[static_cast<std::size_t>(c.node)][static_cast<std::size_t>(d)],
          1e-9);
      from_list += c.rate;
    }
    EXPECT_NEAR(from_list, demand.DocTotal(d), 1e-6);
  }
}

TEST(Placement, SingleNodeServesItsOwnCatalog) {
  const RoutingTree tree = RoutingTree::FromParents({kNoNode});
  DemandMatrix demand(1, 3);
  demand.set(0, 0, 5);
  demand.set(0, 2, 7);
  const PlacementResult p = DerivePlacement(tree, demand);
  EXPECT_NEAR(p.quota[0][0], 5, 1e-9);
  EXPECT_NEAR(p.quota[0][1], 0, 1e-9);
  EXPECT_NEAR(p.quota[0][2], 7, 1e-9);
}

class PlacementSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PlacementSweep, RandomInstancesStayConsistent) {
  Rng rng(GetParam());
  const int n = 5 + static_cast<int>(rng.NextBelow(40));
  const int docs = 2 + static_cast<int>(rng.NextBelow(10));
  const RoutingTree tree = MakeRandomTree(n, rng);
  const DemandMatrix demand = UniformRandomDemand(tree, docs, 20, rng);
  const PlacementResult p = DerivePlacement(tree, demand);
  // Total placed equals total demand.
  double placed = 0;
  for (const auto& row : p.quota)
    for (const double q : row) placed += q;
  EXPECT_NEAR(placed, demand.Total(), 1e-5);
  // Node loads are the TLB loads (feasibility already proven by WebFold
  // tests; here we only need consistency of the decomposition).
  for (NodeId v = 0; v < n; ++v) {
    double node_total = 0;
    for (const double q : p.quota[static_cast<std::size_t>(v)]) node_total += q;
    EXPECT_NEAR(node_total, p.node_loads[static_cast<std::size_t>(v)], 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlacementSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// The flat-array placement against the vector-of-vectors one -------------
//
// DerivePlacement and WebWaveTlbPolicy::Place share one placement sweep
// over node-major flat arrays; Place writes each copy's cell and serve
// fraction as the sweep takes it.  ReferencePlacement and ReferencePlace
// are test-local copies of the per-node-vector loops they replaced (on
// the frozen WebFold of tests/webfold_reference.h): Place was
// DerivePlacement followed by FromPlacement's second flow sweep.  Every
// quota, copy list, copy count and snapshot cell must come out
// bit-identical, and so must FromPlacement's own snapshot at the
// min_rate the fleet staging passes.

PlacementResult ReferencePlacement(const RoutingTree& tree,
                                   const DemandMatrix& demand) {
  const int docs = demand.doc_count();
  const WebFoldResult tlb =
      webfold_reference::WebFold(tree, demand.NodeTotals());
  PlacementResult result;
  result.node_loads = tlb.load;
  result.quota.assign(static_cast<std::size_t>(tree.size()),
                      std::vector<double>(static_cast<std::size_t>(docs), 0.0));
  result.copies.assign(static_cast<std::size_t>(docs), {});
  result.copy_count.assign(static_cast<std::size_t>(docs), 1);
  std::vector<std::vector<double>> fwd(
      static_cast<std::size_t>(tree.size()),
      std::vector<double>(static_cast<std::size_t>(docs), 0.0));
  for (const NodeId v : tree.postorder()) {
    std::vector<double> arrive(static_cast<std::size_t>(docs));
    for (DocId d = 0; d < docs; ++d)
      arrive[static_cast<std::size_t>(d)] = demand.at(v, d);
    for (const NodeId c : tree.children(v))
      for (DocId d = 0; d < docs; ++d)
        arrive[static_cast<std::size_t>(d)] +=
            fwd[static_cast<std::size_t>(c)][static_cast<std::size_t>(d)];
    std::vector<DocId> order(static_cast<std::size_t>(docs));
    for (DocId d = 0; d < docs; ++d) order[static_cast<std::size_t>(d)] = d;
    std::sort(order.begin(), order.end(), [&](DocId a, DocId b) {
      const double ra = arrive[static_cast<std::size_t>(a)];
      const double rb = arrive[static_cast<std::size_t>(b)];
      if (ra != rb) return ra > rb;
      return a < b;
    });
    double remaining = tlb.load[static_cast<std::size_t>(v)];
    for (const DocId d : order) {
      if (remaining <= 1e-12) break;
      const double take =
          std::min(remaining, arrive[static_cast<std::size_t>(d)]);
      if (take <= 1e-12) continue;
      result.quota[static_cast<std::size_t>(v)][static_cast<std::size_t>(d)] =
          take;
      arrive[static_cast<std::size_t>(d)] -= take;
      remaining -= take;
      result.copies[static_cast<std::size_t>(d)].push_back({v, take});
      if (!tree.is_root(v)) ++result.copy_count[static_cast<std::size_t>(d)];
    }
    fwd[static_cast<std::size_t>(v)] = std::move(arrive);
  }
  return result;
}

DemandMatrix ReferenceDemand(const std::vector<std::vector<double>>& lanes) {
  const int docs = static_cast<int>(lanes.size());
  const int nodes = static_cast<int>(lanes.front().size());
  DemandMatrix demand(nodes, docs);
  for (int d = 0; d < docs; ++d)
    for (int v = 0; v < nodes; ++v)
      if (lanes[static_cast<std::size_t>(d)][static_cast<std::size_t>(v)] > 0)
        demand.set(v, d,
                   lanes[static_cast<std::size_t>(d)][static_cast<std::size_t>(v)]);
  return demand;
}

QuotaSnapshot ReferencePlace(const RoutingTree& tree,
                             const std::vector<std::vector<double>>& lanes,
                             double min_rate = 0) {
  const int docs = static_cast<int>(lanes.size());
  const int nodes = tree.size();
  const DemandMatrix demand = ReferenceDemand(lanes);
  const PlacementResult placement = ReferencePlacement(tree, demand);
  const std::size_t dd = static_cast<std::size_t>(docs);
  std::vector<double> flow(static_cast<std::size_t>(nodes) * dd, 0.0);
  std::vector<std::vector<double>> fraction(
      static_cast<std::size_t>(nodes), std::vector<double>(dd, 1.0));
  for (const NodeId v : tree.postorder()) {
    double* row = flow.data() + static_cast<std::size_t>(v) * dd;
    for (std::size_t d = 0; d < dd; ++d)
      row[d] = demand.at(v, static_cast<DocId>(d));
    for (const NodeId c : tree.children(v)) {
      const double* crow = flow.data() + static_cast<std::size_t>(c) * dd;
      for (std::size_t d = 0; d < dd; ++d) row[d] += crow[d];
    }
    const std::vector<double>& quota =
        placement.quota[static_cast<std::size_t>(v)];
    for (std::size_t d = 0; d < dd; ++d) {
      const double q = quota[d];
      if (q > 0 && row[d] > 0)
        fraction[static_cast<std::size_t>(v)][d] = std::min(1.0, q / row[d]);
      row[d] = std::max(0.0, row[d] - q);
    }
  }
  QuotaSnapshot::Builder b(nodes, docs);
  for (NodeId v = 0; v < nodes; ++v)
    for (std::int32_t d = 0; d < docs; ++d) {
      const double q =
          placement.quota[static_cast<std::size_t>(v)][static_cast<std::size_t>(d)];
      if (q > min_rate)
        b.Add(v, d, q,
              fraction[static_cast<std::size_t>(v)][static_cast<std::size_t>(d)]);
    }
  return std::move(b).Build();
}

void ExpectSameSnapshot(const QuotaSnapshot& snap, const QuotaSnapshot& ref,
                        int nodes) {
  ASSERT_EQ(snap.cell_count(), ref.cell_count());
  for (NodeId v = 0; v < nodes; ++v) {
    ASSERT_EQ(snap.row_begin(v), ref.row_begin(v)) << "node " << v;
    ASSERT_EQ(snap.row_end(v), ref.row_end(v)) << "node " << v;
  }
  for (std::int64_t c = 0; c < ref.cell_count(); ++c) {
    ASSERT_EQ(snap.cell_docs()[c], ref.cell_docs()[c]) << "cell " << c;
    ASSERT_EQ(snap.cell_rates()[c], ref.cell_rates()[c]) << "cell " << c;
    ASSERT_EQ(snap.cell_fractions()[c], ref.cell_fractions()[c])
        << "cell " << c;
  }
  ASSERT_EQ(snap.total_rate(), ref.total_rate());
}

// 65 and 130 documents put a node's flows past one 64-entry run.
TEST(Placement, FlatArraysMatchTheVectorOfVectorsLoopBitForBit) {
  for (const int docs : {1, 16, 64, 65, 100, 130}) {
    for (const std::uint64_t seed : {5u, 6u}) {
      Rng rng(seed);
      const RoutingTree tree = MakeRandomTree(seed == 5u ? 400 : 1500, rng);
      // Two demand shapes: a rotating hot spot over the leaves (Zipf
      // catalog, many equal rates, so the sort's tie-break matters) and
      // uniform random demand at every node, internal ones included.
      std::vector<std::vector<std::vector<double>>> demands;
      demands.push_back(
          RequestGenerator(tree, docs,
                           {RotatingHotSpotComponent(tree, docs, 1.0, 30.0,
                                                     0.1, 2, 8)},
                           seed)
              .ExpectedLanes());
      demands.push_back(UniformRandomDemand(tree, docs, 3.0, rng).DocColumns());
      for (std::size_t k = 0; k < demands.size(); ++k) {
        const auto& lanes = demands[k];
        SCOPED_TRACE(::testing::Message() << "docs " << docs << " seed "
                                          << seed << " demand " << k);
        const DemandMatrix demand = DemandFromLanes(lanes);
        const DemandMatrix want_demand = ReferenceDemand(lanes);
        for (NodeId v = 0; v < tree.size(); ++v)
          ASSERT_TRUE(std::equal(demand.row(v), demand.row(v) + docs,
                                 want_demand.row(v)))
              << "demand row " << v;
        const PlacementResult got = DerivePlacement(tree, demand);
        const PlacementResult want = ReferencePlacement(tree, demand);
        ASSERT_EQ(got.quota, want.quota);
        ASSERT_EQ(got.node_loads, want.node_loads);
        ASSERT_EQ(got.copy_count, want.copy_count);
        ASSERT_EQ(got.copies.size(), want.copies.size());
        for (std::size_t d = 0; d < want.copies.size(); ++d) {
          ASSERT_EQ(got.copies[d].size(), want.copies[d].size()) << "doc " << d;
          for (std::size_t i = 0; i < want.copies[d].size(); ++i) {
            ASSERT_EQ(got.copies[d][i].node, want.copies[d][i].node);
            ASSERT_EQ(got.copies[d][i].rate, want.copies[d][i].rate);
          }
        }

        {
          SCOPED_TRACE("WebWaveTlbPolicy::Place");
          ExpectSameSnapshot(WebWaveTlbPolicy().Place(tree, lanes),
                             ReferencePlace(tree, lanes), tree.size());
        }
        {
          SCOPED_TRACE("FromPlacement at min_rate 1e-9");
          ExpectSameSnapshot(
              QuotaSnapshot::FromPlacement(tree, got, demand, 1e-9),
              ReferencePlace(tree, lanes, 1e-9), tree.size());
        }
      }
    }
  }
}

// Churned demand ----------------------------------------------------------
//
// DerivePlacement must keep its invariants when the demand comes from a
// live churn process, not a static matrix: per-document NSS (a node's
// quota never exceeds the document flow passing it) and conservation of
// every document's total rate, at every epoch of a ChurnSchedule.

void CheckPlacementInvariants(const RoutingTree& tree,
                              const DemandMatrix& demand) {
  const PlacementResult p = DerivePlacement(tree, demand);
  const int docs = demand.doc_count();
  double placed_total = 0;
  for (DocId d = 0; d < docs; ++d) {
    // NSS via recomputed flows, and per-document rate conservation.
    std::vector<double> fwd(static_cast<std::size_t>(tree.size()), 0.0);
    double served = 0;
    for (const NodeId v : tree.postorder()) {
      double arrive = demand.at(v, d);
      for (const NodeId c : tree.children(v))
        arrive += fwd[static_cast<std::size_t>(c)];
      const double q =
          p.quota[static_cast<std::size_t>(v)][static_cast<std::size_t>(d)];
      ASSERT_LE(q, arrive + 1e-6) << "NSS broken at node " << v << " doc " << d;
      fwd[static_cast<std::size_t>(v)] = arrive - q;
      served += q;
    }
    EXPECT_NEAR(fwd[static_cast<std::size_t>(tree.root())], 0, 1e-6)
        << "doc " << d;
    EXPECT_NEAR(served, demand.DocTotal(d), 1e-6) << "doc " << d;
    placed_total += served;
  }
  EXPECT_NEAR(placed_total, demand.Total(), 1e-5);
}

class PlacementChurn : public ::testing::TestWithParam<ChurnPattern> {};

TEST_P(PlacementChurn, InvariantsHoldAcrossEpochs) {
  Rng rng(23);
  const RoutingTree tree = MakeRandomTree(120, rng);
  ChurnScheduleOptions opt;
  opt.pattern = GetParam();
  opt.doc_count = 6;
  opt.base_rate = 2.0;
  opt.hot_rate = 40.0;
  opt.hot_fraction = 0.2;
  opt.rotation_epochs = 5;
  opt.seed = 77;
  ChurnSchedule schedule(tree, opt);

  for (int epoch = 0; epoch < 6; ++epoch) {
    CheckPlacementInvariants(tree, DemandFromLanes(schedule.Lanes()));
    schedule.NextEvents();
  }
}

INSTANTIATE_TEST_SUITE_P(Patterns, PlacementChurn,
                         ::testing::Values(ChurnPattern::kRotatingHotSpot,
                                           ChurnPattern::kFlashCrowd,
                                           ChurnPattern::kZipfReshuffle));

TEST(PlacementChurn, RotatingHotSpotKeepsTotalRate) {
  // The rotating window only moves demand; the total rate the placement
  // realizes must be epoch-invariant.
  Rng rng(31);
  const RoutingTree tree = MakeRandomTree(150, rng);
  ChurnScheduleOptions opt;
  opt.doc_count = 4;
  opt.base_rate = 1.0;
  opt.hot_rate = 25.0;
  opt.hot_fraction = 0.25;
  opt.rotation_epochs = 4;
  ChurnSchedule schedule(tree, opt);

  double first_total = -1;
  for (int epoch = 0; epoch < 4; ++epoch) {
    const DemandMatrix demand = DemandFromLanes(schedule.Lanes());
    const PlacementResult p = DerivePlacement(tree, demand);
    double placed = 0;
    for (const auto& row : p.quota)
      for (const double q : row) placed += q;
    if (first_total < 0)
      first_total = placed;
    else
      EXPECT_NEAR(placed, first_total, 1e-6 * (1 + first_total));
    schedule.NextEvents();
  }
}

}  // namespace
}  // namespace webwave
