// The capacity-constrained cache store: deterministic size models,
// quota-weighted eviction, spill-conserving capacity projection (and its
// node-major sweep against the per-document oracle), its incremental
// Refresh, and the end-to-end determinism of the capacity-aware serving
// pipeline across thread counts and lane_block widths.
#include "store/cache_store.h"
#include "store/capacity_projector.h"
#include "store/document_sizes.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/webwave_batch.h"
#include "serve/placement_policy.h"
#include "serve/quota_snapshot.h"
#include "serve/request_gen.h"
#include "serve/serving_plane.h"
#include "sim/churn.h"
#include "spill_reference.h"
#include "tree/builders.h"

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
    ASSERT_EQ(got.cell_docs()[i], want.cell_docs()[i]) << where << " cell " << c;
    ASSERT_EQ(got.cell_rates()[i], want.cell_rates()[i])
        << where << " cell " << c;
    ASSERT_EQ(got.cell_fractions()[i], want.cell_fractions()[i])
        << where << " cell " << c;
  }
  EXPECT_NEAR(got.total_rate(), want.total_rate(),
              1e-9 * (1 + std::abs(want.total_rate())));
}

// Size models ------------------------------------------------------------

TEST(DocumentSizes, ModelsAreDeterministicAndPositive) {
  const DocumentSizes a = DocumentSizes::LogNormal(64, 65536, 1.2, 7);
  const DocumentSizes b = DocumentSizes::LogNormal(64, 65536, 1.2, 7);
  const DocumentSizes c = DocumentSizes::LogNormal(64, 65536, 1.2, 8);
  std::uint64_t total = 0;
  bool differs = false;
  for (DocId d = 0; d < 64; ++d) {
    EXPECT_EQ(a.bytes(d), b.bytes(d)) << "doc " << d;
    EXPECT_GE(a.bytes(d), 1u);
    differs = differs || a.bytes(d) != c.bytes(d);
    total += a.bytes(d);
  }
  EXPECT_TRUE(differs) << "different seeds drew identical size fields";
  EXPECT_EQ(a.total_bytes(), total);

  const DocumentSizes u = DocumentSizes::Uniform(5, 1000);
  EXPECT_EQ(u.total_bytes(), 5000u);
  EXPECT_EQ(u.max_bytes(), 1000u);
}

TEST(DocumentSizes, LogNormalCatalogRoundTripsThroughFromCatalog) {
  const Catalog catalog = Catalog::MakeLogNormal(32, 64.0, 1.0, 11);
  const DocumentSizes direct = DocumentSizes::LogNormal(32, 64.0 * 1024.0,
                                                        1.0, 11);
  const DocumentSizes via = DocumentSizes::FromCatalog(catalog);
  for (DocId d = 0; d < 32; ++d)
    EXPECT_EQ(via.bytes(d), direct.bytes(d)) << "doc " << d;
}

// Eviction ---------------------------------------------------------------

TEST(QuotaWeightedEviction, KeepsHighestRatePerByteAndLetsSmallDocsSlipIn) {
  // One cache node, three docs: doc 0 is hot but huge, docs 1 and 2 are
  // small.  Densities: 50/1000, 10/100, 1/100 — greedy order is doc 1,
  // doc 0, doc 2.  A 200-byte budget skips the 1000-byte doc 0 and still
  // admits doc 2 below it: smaller documents slip under the water line.
  QuotaSnapshot::Builder b(2, 3);
  b.Add(1, 0, 50.0);
  b.Add(1, 1, 10.0);
  b.Add(1, 2, 1.0);
  const QuotaSnapshot snap = std::move(b).Build();
  const DocumentSizes sizes = DocumentSizes::FromBytes({1000, 100, 100});

  QuotaWeightedEviction policy;
  std::vector<DocId> kept;
  std::uint64_t used = 0;
  policy.KeepSet(snap, 1, sizes, 200, &kept, &used);
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0], 1);
  EXPECT_EQ(kept[1], 2);
  EXPECT_EQ(used, 200u);

  // A budget that fits everything keeps everything.
  used = 0;
  policy.KeepSet(snap, 1, sizes, 1200, &kept, &used);
  EXPECT_EQ(kept.size(), 3u);
  EXPECT_EQ(used, 1200u);

  // Equal densities tie toward the lower document id.
  QuotaSnapshot::Builder t(2, 2);
  t.Add(1, 0, 5.0);
  t.Add(1, 1, 5.0);
  const QuotaSnapshot tied = std::move(t).Build();
  const DocumentSizes equal = DocumentSizes::Uniform(2, 100);
  used = 0;
  policy.KeepSet(tied, 1, equal, 100, &kept, &used);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0], 0);
}

// The admission rule the slow way: rank the whole row by rate/byte (ties
// to the lower document), admit greedily, report the keep set ascending.
std::vector<DocId> ReferenceKeepSet(const QuotaSnapshot& snap, NodeId v,
                                    const DocumentSizes& sizes,
                                    std::uint64_t budget,
                                    std::uint64_t* bytes_used) {
  std::vector<std::int64_t> order;
  for (std::int64_t c = snap.row_begin(v); c < snap.row_end(v); ++c)
    order.push_back(c);
  const auto density = [&](std::int64_t c) {
    return snap.cell_rates()[c] /
           static_cast<double>(sizes.bytes(snap.cell_docs()[c]));
  };
  // Rows are doc-ascending, so a stable sort breaks ties to the lower doc.
  std::stable_sort(order.begin(), order.end(),
                   [&](std::int64_t a, std::int64_t b) {
                     return density(a) > density(b);
                   });
  std::vector<DocId> kept;
  for (const std::int64_t c : order) {
    const std::uint64_t size = sizes.bytes(snap.cell_docs()[c]);
    if (*bytes_used + size <= budget) {
      *bytes_used += size;
      kept.push_back(snap.cell_docs()[c]);
    }
  }
  std::sort(kept.begin(), kept.end());
  return kept;
}

TEST(QuotaWeightedEviction, KeepSetMatchesTheRankedGreedyWhetherOrNotTheRowFits) {
  Rng rng(59);
  const int docs = 12;
  QuotaWeightedEviction policy;
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::uint64_t> bytes(static_cast<std::size_t>(docs));
    for (auto& b : bytes) b = 1 + rng.NextBelow(5000);
    const DocumentSizes sizes = DocumentSizes::FromBytes(bytes);
    QuotaSnapshot::Builder builder(2, docs);
    std::uint64_t row_bytes = 0;
    for (DocId d = 0; d < docs; ++d)
      if (d == 0 || rng.NextBernoulli(0.6)) {
        // Integer rates make equal densities, and with them the doc-id
        // tie-break, common.
        builder.Add(1, d, static_cast<double>(1 + rng.NextBelow(4)));
        row_bytes += bytes[static_cast<std::size_t>(d)];
      }
    const QuotaSnapshot snap = std::move(builder).Build();
    const std::uint64_t start = trial % 4 == 0 ? rng.NextBelow(100) : 0;
    // A random budget, the row exactly at budget (kept whole), and the
    // row one byte over it (ranked: something must go).
    for (const std::uint64_t budget :
         {rng.NextBelow(row_bytes + row_bytes / 5 + 1), start + row_bytes,
          start + row_bytes - 1}) {
      std::vector<DocId> kept;
      std::uint64_t used = start, want_used = start;
      policy.KeepSet(snap, 1, sizes, budget, &kept, &used);
      const std::vector<DocId> want =
          ReferenceKeepSet(snap, 1, sizes, budget, &want_used);
      EXPECT_EQ(kept, want) << "trial " << trial << " budget " << budget;
      EXPECT_EQ(used, want_used) << "trial " << trial << " budget " << budget;
      const std::int64_t cells = snap.row_end(1) - snap.row_begin(1);
      if (budget == start + row_bytes) {
        EXPECT_EQ(static_cast<std::int64_t>(kept.size()), cells);
      } else if (budget == start + row_bytes - 1) {
        EXPECT_LT(static_cast<std::int64_t>(kept.size()), cells);
      }
    }
  }
}

TEST(CacheStore, HomeIsNeverBudgetedAndAlwaysResident) {
  const RoutingTree tree = MakeChain(3);
  QuotaSnapshot::Builder b(3, 2);
  b.Add(0, 0, 1.0);
  b.Add(0, 1, 1.0);
  b.Add(1, 0, 5.0);
  b.Add(2, 1, 5.0);
  const QuotaSnapshot snap = std::move(b).Build();
  CacheStore store = CacheStore::WorkingSetStore(
      tree, DocumentSizes::Uniform(2, 1000), 0.0);  // zero budget anywhere
  store.Admit(snap);
  EXPECT_TRUE(store.Resident(0, 0));
  EXPECT_TRUE(store.Resident(0, 1));
  EXPECT_FALSE(store.Resident(1, 0));
  EXPECT_FALSE(store.Resident(2, 1));
  EXPECT_EQ(store.bytes_used(1), 0u);
  EXPECT_EQ(store.resident_cells(), 2);
}

// Resident(v, d) must agree with ResidentDocs(v) for every (v, d), after
// Admit and after every partial Readmit of a churn sequence, at catalog
// sizes on both sides of the 64-document word boundary; documents outside
// the catalog are resident only at the home.  A partial Readmit re-ranks
// exactly the rows it names.
TEST(CacheStore, ResidencyBitsMatchTheKeepListsAcrossChurn) {
  for (const int docs : {63, 64, 65, 130}) {
    SCOPED_TRACE(::testing::Message() << docs << " documents");
    Rng rng(static_cast<std::uint64_t>(docs));
    const RoutingTree tree = MakeRandomTree(150, rng);
    ChurnScheduleOptions copt;
    copt.doc_count = docs;
    copt.hot_fraction = 0.2;
    copt.rotation_epochs = 4;
    ChurnSchedule schedule(tree, copt);
    BatchWebWaveSimulator sim(tree, schedule.Lanes(), {});
    for (int s = 0; s < 10; ++s) sim.Step();
    QuotaSnapshot base = QuotaSnapshot::FromBatch(sim, 1e-3);
    CacheStore store = CacheStore::WorkingSetStore(
        tree, DocumentSizes::LogNormal(docs, 2048, 1.1, 5), 0.3);

    const auto check = [&](const char* where) {
      for (NodeId v = 0; v < tree.size(); ++v) {
        const std::vector<DocId>& row = store.ResidentDocs(v);
        for (DocId d = 0; d < docs; ++d)
          ASSERT_EQ(store.Resident(v, d),
                    v == store.home() ||
                        std::binary_search(row.begin(), row.end(), d))
              << where << ": node " << v << " doc " << d;
        // Outside the catalog: the home still holds everything, no
        // other node holds anything.
        for (const DocId d : {-1, docs, docs + 1, docs + 64})
          ASSERT_EQ(store.Resident(v, d), v == store.home())
              << where << ": node " << v << " doc " << d;
      }
    };
    store.Admit(base);
    check("admit");
    ASSERT_GT(store.resident_cells(), 0);
    ASSERT_LT(store.resident_cells(), base.cell_count());

    for (int epoch = 0; epoch < 6; ++epoch) {
      sim.ApplyDemandEvents(schedule.NextEvents());
      for (int s = 0; s < 6; ++s) sim.Step();
      base.RefreshFromBatch(sim);
      // Re-rank a third of the rows (all of them on the last epoch), so
      // stale and fresh rows sit side by side in the bitmap.
      std::vector<NodeId> nodes;
      for (NodeId v = 0; v < tree.size(); ++v)
        if (epoch == 5 || v % 3 == epoch % 3) nodes.push_back(v);
      std::vector<std::vector<DocId>> before(
          static_cast<std::size_t>(tree.size()));
      for (NodeId v = 0; v < tree.size(); ++v)
        before[static_cast<std::size_t>(v)] = store.ResidentDocs(v);
      store.Readmit(base, Span<const NodeId>(nodes.data(), nodes.size()));
      check("readmit");
      // A re-ranked row holds what a fresh Admit over the same rows
      // keeps; every other row keeps its old list.  Some re-ranked row
      // must have moved, or the epoch tested nothing.
      CacheStore fresh = CacheStore::WorkingSetStore(
          tree, DocumentSizes::LogNormal(docs, 2048, 1.1, 5), 0.3);
      fresh.Admit(base);
      std::vector<bool> reranked(static_cast<std::size_t>(tree.size()), false);
      for (const NodeId v : nodes) reranked[static_cast<std::size_t>(v)] = true;
      bool moved = false;
      for (NodeId v = 0; v < tree.size(); ++v) {
        const std::vector<DocId>& was = before[static_cast<std::size_t>(v)];
        if (reranked[static_cast<std::size_t>(v)]) {
          EXPECT_EQ(store.ResidentDocs(v), fresh.ResidentDocs(v))
              << "epoch " << epoch << " node " << v;
          moved = moved || store.ResidentDocs(v) != was;
        } else {
          EXPECT_EQ(store.ResidentDocs(v), was)
              << "epoch " << epoch << " node " << v;
        }
      }
      EXPECT_TRUE(moved) << "epoch " << epoch;
    }
  }
}

// Projection -------------------------------------------------------------

TEST(CapacityProjector, SpillClimbsToTheNearestSurvivingAncestor) {
  // Chain 0-1-2-3, one doc.  Copies at 1, 2, 3; budget admits one doc per
  // node, but the store is rigged so node 2 evicts (rate below 1 and 3).
  const RoutingTree tree = MakeChain(4);
  QuotaSnapshot::Builder b(4, 2);
  b.Add(1, 0, 10.0, 0.5);  // arrival 20
  b.Add(2, 0, 1.0, 0.25);  // arrival 4 — the eviction victim
  b.Add(2, 1, 8.0);        // doc 1 wins node 2's single slot
  b.Add(3, 0, 6.0, 0.75);  // arrival 8
  const QuotaSnapshot base = std::move(b).Build();
  // One 1000-byte doc fits per node (budget = 0.5 of the 2-doc working
  // set).
  CacheStore store = CacheStore::WorkingSetStore(
      tree, DocumentSizes::Uniform(2, 1000), 0.5);
  CapacityProjector projector(tree, std::move(store));
  projector.Project(base);
  const QuotaSnapshot& clamped = projector.clamped();

  // Node 2 kept doc 1 (rate 8 > 1); doc 0's quota there spills to node 1
  // (the nearest surviving copy of doc 0 on the way to the root).
  EXPECT_EQ(clamped.RateAt(2, 0), 0.0);
  EXPECT_DOUBLE_EQ(clamped.RateAt(2, 1), 8.0);
  EXPECT_DOUBLE_EQ(clamped.RateAt(1, 0), 11.0);
  // Node 1's fraction re-derived against arrival 20 + 1 spilled.
  EXPECT_DOUBLE_EQ(clamped.FractionAt(1, 0), 11.0 / 21.0);
  // Node 3 survives untouched — bit-identical pass-through.
  EXPECT_DOUBLE_EQ(clamped.RateAt(3, 0), 6.0);
  EXPECT_DOUBLE_EQ(clamped.FractionAt(3, 0), 0.75);
  // Conservation, and the stats agree with what happened.
  EXPECT_NEAR(clamped.total_rate(), base.total_rate(), 1e-12);
  EXPECT_DOUBLE_EQ(projector.spilled_rate(), 1.0);
  EXPECT_EQ(projector.evicted_cells(), 1);
}

TEST(CapacityProjector, SpillSynthesizesAHomeCellWhenNoneExists) {
  const RoutingTree tree = MakeChain(3);
  QuotaSnapshot::Builder b(3, 1);
  b.Add(2, 0, 4.0);  // only copy sits at the leaf; the home has none
  const QuotaSnapshot base = std::move(b).Build();
  CapacityProjector projector(
      tree, CacheStore::WorkingSetStore(tree, DocumentSizes::Uniform(1, 100),
                                        0.0));
  projector.Project(base);
  const QuotaSnapshot& clamped = projector.clamped();
  EXPECT_EQ(clamped.RateAt(2, 0), 0.0);
  EXPECT_DOUBLE_EQ(clamped.RateAt(0, 0), 4.0);
  EXPECT_DOUBLE_EQ(clamped.FractionAt(0, 0), 1.0);
  EXPECT_NEAR(clamped.total_rate(), base.total_rate(), 1e-12);
}

TEST(CapacityProjector, OverProvisionedStoreClampsToTheBaseExactly) {
  Rng rng(31);
  const RoutingTree tree = MakeRandomTree(300, rng);
  const int docs = 6;
  RequestGenerator gen(tree, docs, {ZipfLeafComponent(tree, docs, 2.0, 1.0)},
                       9);
  const QuotaSnapshot base =
      WebWaveTlbPolicy().Place(tree, gen.ExpectedLanes());
  CapacityProjector projector(
      tree, CacheStore::WorkingSetStore(
                tree, DocumentSizes::LogNormal(docs, 4096, 1.0, 5), 1.0));
  projector.Project(base);
  ExpectSameCells(projector.clamped(), base, "over-provisioned");
  EXPECT_EQ(projector.evicted_cells(), 0);
  EXPECT_EQ(projector.spilled_rate(), 0.0);
}

TEST(CapacityProjector, ConservesTotalRateUnderHeavyEviction) {
  Rng rng(37);
  const RoutingTree tree = MakeRandomTree(500, rng);
  const int docs = 12;
  RequestGenerator gen(tree, docs, {ZipfLeafComponent(tree, docs, 3.0, 1.1)},
                       13);
  const QuotaSnapshot base =
      WebWaveTlbPolicy().Place(tree, gen.ExpectedLanes());
  for (const double multiple : {0.0, 0.05, 0.25, 0.6}) {
    CapacityProjector projector(
        tree, CacheStore::WorkingSetStore(
                  tree, DocumentSizes::LogNormal(docs, 8192, 1.2, 17),
                  multiple));
    projector.Project(base);
    EXPECT_NEAR(projector.clamped().total_rate(), base.total_rate(),
                1e-9 * base.total_rate())
        << "multiple " << multiple;
    // Every clamped cell sits at a resident node (or the home).
    const QuotaSnapshot& clamped = projector.clamped();
    for (NodeId v = 0; v < tree.size(); ++v)
      for (std::int64_t c = clamped.row_begin(v); c < clamped.row_end(v); ++c)
        EXPECT_TRUE(projector.store().Resident(
            v, clamped.cell_docs()[static_cast<std::size_t>(c)]))
            << "node " << v;
  }
}

// Determinism across threads and lane blocks ------------------------------

TEST(CapacityProjector, PipelineBitIdenticalAcrossThreadsAndLaneBlocks) {
  Rng rng(41);
  const RoutingTree tree = MakeRandomTree(800, rng);
  const int docs = 9;  // ragged against lane_block 4 and 8
  ChurnScheduleOptions copt;
  copt.pattern = ChurnPattern::kRotatingHotSpot;
  copt.doc_count = docs;
  copt.hot_fraction = 0.2;

  const DocumentSizes sizes = DocumentSizes::LogNormal(docs, 4096, 1.0, 23);
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

      const QuotaSnapshot base = QuotaSnapshot::FromBatch(sim, 1e-9);
      CapacityProjector projector(
          tree, CacheStore::WorkingSetStore(tree, sizes, 0.3));
      projector.Project(base);
      clamps.push_back(projector.clamped());

      ServingOptions sopt;
      sopt.threads = threads;
      sopt.offered_rate = 1000.0;
      ServingPlane plane(tree, projector.clamped(), sopt);
      plane.Serve(stream);
      metrics.push_back(plane.metrics());
    }
  }
  for (std::size_t i = 1; i < clamps.size(); ++i) {
    ExpectSameCells(clamps[i], clamps[0], "thread/lane_block sweep");
    EXPECT_TRUE(metrics[i] == metrics[0]) << "config " << i;
  }
  EXPECT_GT(metrics[0].requests, 0u);
}

// Incremental refresh -----------------------------------------------------

// One store of the churn scenario below: nodes at most `core_depth` deep
// get the whole working set, every node below them `multiple` of it.
struct RefreshBudget {
  const char* name;
  double min_rate;  // the base snapshot's cell floor
  int core_depth;
  double multiple;
};

CacheStore RefreshStore(const RoutingTree& tree, int docs,
                        const RefreshBudget& budget) {
  DocumentSizes sizes = DocumentSizes::LogNormal(docs, 2048, 1.1, 29);
  const double total = static_cast<double>(sizes.total_bytes());
  std::vector<std::uint64_t> budgets(static_cast<std::size_t>(tree.size()));
  for (NodeId v = 0; v < tree.size(); ++v)
    budgets[static_cast<std::size_t>(v)] = static_cast<std::uint64_t>(
        (tree.depth(v) <= budget.core_depth ? 1.0 : budget.multiple) * total);
  return CacheStore(tree, std::move(sizes), std::move(budgets));
}

// Runs the rotating-hot-spot churn scenario against one store: every
// Refresh must be cell-identical to a fresh Project of the same base.
void ExpectRefreshMatchesFullProjection(const RefreshBudget& budget) {
  SCOPED_TRACE(budget.name);
  Rng rng(47);
  const RoutingTree tree = MakeRandomTree(400, rng);
  const int docs = 10;
  ChurnScheduleOptions copt;
  copt.pattern = ChurnPattern::kRotatingHotSpot;
  copt.doc_count = docs;
  copt.hot_fraction = 0.15;
  copt.rotation_epochs = 5;
  ChurnSchedule schedule(tree, copt);

  BatchWebWaveSimulator sim(tree, schedule.Lanes(), {});
  for (int s = 0; s < 30; ++s) sim.Step();

  QuotaSnapshot base = QuotaSnapshot::FromBatch(sim, budget.min_rate);
  sim.ClearDirtyLanes();
  CapacityProjector incr(tree, RefreshStore(tree, docs, budget));
  incr.Project(base);

  NodeId gentle_leaf = 0;
  while (!tree.is_leaf(gentle_leaf)) ++gentle_leaf;
  bool saw_in_place = false, saw_rebuild = false;
  bool evicting = incr.evicted_cells() > 0;
  int to_quiet = 0, to_evicting = 0;
  for (int epoch = 0; epoch < 8; ++epoch) {
    if (epoch < 6) {
      // Churn epochs: the rotating window moves, and on odd epochs
      // demand erupts at fresh interior nodes — copy sets change shape,
      // exercising the structural rebuild.
      sim.ApplyDemandEvents(schedule.NextEvents());
      if (epoch % 2 == 1) {
        std::vector<DemandEvent> shocks;
        for (NodeId v = 0; v < tree.size(); v += 37)
          shocks.push_back({(epoch * 3) % docs, v, rng.NextDouble(5, 20)});
        sim.ApplyDemandEvents(shocks);
      }
    } else {
      // Gentle epochs: nudge one already-demanding leaf's rate so only
      // values move — the in-place rewrite path.
      sim.ApplyDemandEvents(
          {{0, gentle_leaf, 2.0 + 0.01 * (epoch - 5)}});
    }
    for (int s = 0; s < 8; ++s) sim.Step();
    const std::vector<int> dirty = sim.DirtyLanes();
    base.RefreshFromBatch(sim);
    sim.ClearDirtyLanes();

    const bool in_place =
        incr.Refresh(base, Span<const int>(dirty.data(), dirty.size()));
    saw_in_place = saw_in_place || in_place;
    saw_rebuild = saw_rebuild || !in_place;

    CapacityProjector full(tree, RefreshStore(tree, docs, budget));
    full.Project(base);
    ExpectSameCells(incr.clamped(), full.clamped(), "epoch refresh");
    EXPECT_NEAR(incr.spilled_rate(), full.spilled_rate(),
                1e-9 * (1 + full.spilled_rate()))
        << "epoch " << epoch;
    EXPECT_EQ(incr.evicted_cells(), full.evicted_cells()) << "epoch " << epoch;
    if (budget.multiple >= 1.0) {
      EXPECT_EQ(incr.evicted_cells(), 0) << "epoch " << epoch;
      ExpectSameCells(incr.clamped(), base, "zero-eviction refresh");
    }
    const bool now_evicting = incr.evicted_cells() > 0;
    to_quiet += evicting && !now_evicting;
    to_evicting += !evicting && now_evicting;
    evicting = now_evicting;
  }
  // The scenario is built to hit both paths; losing either silently
  // halves the coverage.
  EXPECT_TRUE(saw_rebuild) << "no epoch exercised the structural rebuild";
  if (budget.core_depth == 0) {
    EXPECT_TRUE(saw_in_place) << "no epoch exercised the in-place rewrite";
  } else {
    EXPECT_GT(to_quiet, 0) << "no refresh went from spilling to pass-through";
    EXPECT_GT(to_evicting, 0) << "no refresh went from pass-through to spilling";
  }
}

TEST(CapacityProjector, RefreshMatchesFullProjectionAcrossChurnEpochs) {
  // A floor high enough that demand shifts move cells across it, so the
  // base snapshot's copy sets change shape and the structural path runs.
  // Every node holds nearly the whole catalog at that floor, so a uniform
  // budget below 1x evicts on every epoch and one at 1x on none.  The
  // toggling store instead raises the floor until rows come and go, and
  // spares a core that always holds a full row; whole epochs then pass
  // with no eviction anywhere, between epochs that spill.
  for (const RefreshBudget& budget :
       {RefreshBudget{"0.35x, evicting", 1e-3, 0, 0.35},
        RefreshBudget{"1x, zero eviction", 1e-3, 0, 1.0},
        RefreshBudget{"1x core, 0.7x edge, toggling", 1.0, 3, 0.7}})
    ExpectRefreshMatchesFullProjection(budget);
}

// The byte budget couples documents: one lane surging at many nodes
// evicts other documents' copies there, and collapsing again frees the
// budget for them.  With every other lane at its fixed point, the dirty
// set is that one lane, so Refresh must find the clean documents whose
// residency moved through the re-ranked rows alone.
TEST(CapacityProjector, RefreshFollowsOneDirtyLaneIntoCleanDocuments) {
  Rng rng(67);
  const RoutingTree tree = MakeRandomTree(60, rng);
  const int docs = 6;
  std::vector<std::vector<double>> lanes(static_cast<std::size_t>(docs));
  for (auto& lane : lanes) {
    lane.assign(static_cast<std::size_t>(tree.size()), 0.0);
    for (auto& r : lane) r = rng.NextDouble(0, 3);
  }
  BatchWebWaveSimulator sim(tree, lanes, {});
  // Diffuse every lane to its floating-point fixed point, where it steps
  // clean.
  for (int s = 0; s < 5000 && (s == 0 || sim.dirty_lane_count() > 0); ++s) {
    sim.ClearDirtyLanes();
    sim.Step();
  }
  QuotaSnapshot base = QuotaSnapshot::FromBatch(sim, 1e-3);
  sim.ClearDirtyLanes();
  const auto store = [&] {
    return CacheStore::WorkingSetStore(
        tree, DocumentSizes::LogNormal(docs, 2048, 1.1, 31), 0.5);
  };
  CapacityProjector incr(tree, store());
  incr.Project(base);

  const int surging = 2;
  for (int epoch = 0; epoch < 4; ++epoch) {
    std::vector<DemandEvent> events;
    for (NodeId v = 0; v < tree.size(); v += 2)
      events.push_back({surging, v, epoch % 2 == 0 ? 60.0 : 0.0});
    sim.ApplyDemandEvents(events);
    for (int s = 0; s < 1500; ++s) sim.Step();
    const std::vector<int> dirty = sim.DirtyLanes();
    ASSERT_EQ(dirty, std::vector<int>{surging}) << "epoch " << epoch;
    base.RefreshFromBatch(sim);
    sim.ClearDirtyLanes();
    const QuotaSnapshot before = incr.clamped();
    incr.Refresh(base, Span<const int>(dirty.data(), dirty.size()));

    CapacityProjector full(tree, store());
    full.Project(base);
    ExpectSameCells(incr.clamped(), full.clamped(), "one dirty lane");
    EXPECT_EQ(incr.evicted_cells(), full.evicted_cells()) << "epoch " << epoch;
    EXPECT_GT(spill_reference::MovedDocs(before, incr.clamped()).size(), 1u)
        << "epoch " << epoch << ": the surge moved no clean document";
  }
}

TEST(CapacityProjector, RefreshWithNoDirtyLanesIsANoOp) {
  Rng rng(53);
  const RoutingTree tree = MakeRandomTree(120, rng);
  const int docs = 4;
  std::vector<std::vector<double>> lanes(static_cast<std::size_t>(docs));
  for (auto& lane : lanes) {
    lane.assign(static_cast<std::size_t>(tree.size()), 0.0);
    for (auto& r : lane) r = rng.NextDouble(0, 3);
  }
  BatchWebWaveSimulator sim(tree, lanes, {});
  for (int s = 0; s < 25; ++s) sim.Step();
  const QuotaSnapshot base = QuotaSnapshot::FromBatch(sim, 1e-9);
  CapacityProjector projector(
      tree, CacheStore::WorkingSetStore(tree,
                                        DocumentSizes::Uniform(docs, 1000),
                                        0.5));
  projector.Project(base);
  const QuotaSnapshot before = projector.clamped();
  EXPECT_TRUE(projector.Refresh(base, Span<const int>()));
  ExpectSameCells(projector.clamped(), before, "no dirty lanes");
}

// The node-major projection against the per-document oracle -------------

// Project and Refresh, bit for bit against tests/spill_reference.h, on
// randomly relabeled trees at catalog sizes on both sides of the 64-bit
// word boundary and at budgets from a tenth of the working set (most
// copies evicted, one-document catalogs lose every non-home copy) to
// twice it (the pass-through).  Refresh epochs redraw a few columns.
TEST(CapacityProjector, NodeMajorProjectionMatchesThePerDocumentOracle) {
  for (const int docs : {1, 16, 63, 64, 65, 130})
    for (const double multiple : {0.1, 0.35, 1.0, 2.0}) {
      SCOPED_TRACE(::testing::Message()
                   << docs << " documents, " << multiple << "x store");
      Rng rng(static_cast<std::uint64_t>(docs * 1000 + multiple * 100));
      const RoutingTree tree = spill_reference::ShuffledRandomTree(150, rng);
      std::vector<std::uint64_t> column_seed(static_cast<std::size_t>(docs));
      for (int d = 0; d < docs; ++d)
        column_seed[static_cast<std::size_t>(d)] =
            static_cast<std::uint64_t>(d);
      QuotaSnapshot base = spill_reference::RandomBase(tree, column_seed, 7);
      CapacityProjector projector(
          tree, CacheStore::WorkingSetStore(
                    tree, DocumentSizes::LogNormal(docs, 2048, 1.1, 3),
                    multiple));
      const auto resident = [&](NodeId v, std::int32_t d) {
        return projector.store().Resident(v, d);
      };
      projector.Project(base);
      spill_reference::ExpectMatches(
          projector, spill_reference::Project(tree, base, resident),
          "project");
      if (multiple < 1.0) {
        EXPECT_GT(projector.evicted_cells(), 0);
      } else {
        EXPECT_EQ(projector.evicted_cells(), 0);
      }

      for (int epoch = 0; epoch < 3; ++epoch) {
        std::vector<int> dirty;
        for (int d = 0; d < docs; ++d)
          if (d == epoch % docs || rng.NextBernoulli(0.2)) {
            column_seed[static_cast<std::size_t>(d)] += 1000;
            dirty.push_back(d);
          }
        base = spill_reference::RandomBase(tree, column_seed, 7);
        projector.Refresh(base, Span<const int>(dirty.data(), dirty.size()));
        spill_reference::ExpectMatches(
            projector, spill_reference::Project(tree, base, resident),
            "refresh");
      }
    }
}

// Hand-built corners: a node whose every copy is evicted (zero budget),
// documents with no home cell whose spill synthesizes one, and a climb
// that passes a live node holding no copy.
TEST(CapacityProjector, NodeMajorProjectionMatchesTheOracleOnHandCorners) {
  // Chain 0-1-2-3-4, the home at 0.
  const RoutingTree tree = MakeChain(5);
  QuotaSnapshot::Builder b(5, 3);
  b.Add(0, 0, 1.0);
  b.Add(1, 0, 2.0, 0.5);
  b.Add(2, 1, 3.0, 0.25);
  b.Add(3, 0, 4.0);
  b.Add(3, 1, 1.5, 0.6);
  b.Add(4, 0, 5.0, 0.8);
  b.Add(4, 1, 6.0);
  b.Add(4, 2, 7.0, 0.9);
  const QuotaSnapshot base = std::move(b).Build();
  // One document fits at nodes 1-3, none at node 4.
  std::vector<std::uint64_t> budgets = {0, 1000, 1000, 1000, 0};
  CapacityProjector projector(
      tree, CacheStore(tree, DocumentSizes::Uniform(3, 1000), budgets));
  projector.Project(base);
  spill_reference::ExpectMatches(
      projector,
      spill_reference::Project(tree, base,
                               [&](NodeId v, std::int32_t d) {
                                 return projector.store().Resident(v, d);
                               }),
      "hand corners");
  const QuotaSnapshot& clamped = projector.clamped();
  EXPECT_EQ(clamped.row_begin(4), clamped.row_end(4)) << "node 4 kept a copy";
  // Doc 2's only copy climbs past nodes 3-1 (none holds it) to the home.
  EXPECT_DOUBLE_EQ(clamped.RateAt(0, 2), 7.0);
  EXPECT_DOUBLE_EQ(clamped.FractionAt(0, 2), 1.0);
  EXPECT_TRUE(projector.ConservesTotalRate(base));
}

// Capacity-aware serving --------------------------------------------------

TEST(CapacityServing, EvictionFiresAndWebWaveStillBeatsHomeOnly) {
  Rng rng(59);
  const RoutingTree tree = MakeRandomTree(400, rng);
  const int docs = 8;
  RequestGenerator gen(tree, docs, {ZipfLeafComponent(tree, docs, 2.0, 1.0)},
                       61);
  const auto lanes = gen.ExpectedLanes();
  const QuotaSnapshot base = WebWaveTlbPolicy().Place(tree, lanes);

  CapacityProjector projector(
      tree, CacheStore::WorkingSetStore(
                tree, DocumentSizes::LogNormal(docs, 4096, 1.0, 67), 0.25));
  projector.Project(base);
  ASSERT_GT(projector.evicted_cells(), 0)
      << "budget too large for the scenario to mean anything";
  EXPECT_NEAR(projector.clamped().total_rate(), base.total_rate(),
              1e-9 * base.total_rate());

  std::vector<Request> stream;
  gen.NextBatch(150000, &stream);
  ServingOptions opt;
  opt.offered_rate = gen.total_rate();

  ServingPlane capped(tree, projector.clamped(), opt);
  capped.Serve(stream);
  ServingPlane home(tree, HomeOnlyPolicy().Place(tree, lanes), opt);
  home.Serve(stream);

  EXPECT_EQ(capped.metrics().requests, 150000u);
  EXPECT_EQ(capped.metrics().cache_served + capped.metrics().home_served,
            capped.metrics().requests);
  EXPECT_EQ(home.metrics().MaxServed(), 150000u);
  EXPECT_LT(capped.metrics().MaxServed(), home.metrics().MaxServed() / 2)
      << "a quarter-working-set store should still spread load";
}

}  // namespace
}  // namespace webwave
