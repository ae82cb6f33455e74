// The serving data plane: deterministic request streams, quota snapshots,
// proportional routing, bit-identical threading, the EpochDriver's
// clamp -> re-home -> install chain, and the closed loop (measure -> fold
// -> re-diffuse) beating home-only under a rotating hot spot.
#include "serve/closed_loop.h"
#include "serve/epoch_driver.h"
#include "serve/placement_policy.h"
#include "serve/quota_snapshot.h"
#include "serve/request_gen.h"
#include "serve/serving_plane.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "core/webwave_batch.h"
#include "doc/placement.h"
#include "fault/fault_projector.h"
#include "fault/fault_schedule.h"
#include "sim/churn.h"
#include "store/cache_store.h"
#include "store/capacity_projector.h"
#include "store/document_sizes.h"
#include "tree/builders.h"

namespace webwave {
namespace {

// Generator ---------------------------------------------------------------

TEST(RequestGenerator, DeterministicAndBatchInvariant) {
  Rng rng(4);
  const RoutingTree tree = MakeRandomTree(500, rng);
  const auto component = ZipfLeafComponent(tree, 8, 2.0, 1.0);

  RequestGenerator one(tree, 8, {component}, 99);
  std::vector<Request> whole;
  one.NextBatch(1000, &whole);

  RequestGenerator two(tree, 8, {component}, 99);
  std::vector<Request> first, second;
  two.NextBatch(400, &first);
  two.NextBatch(600, &second);

  ASSERT_EQ(whole.size(), first.size() + second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(whole[i].node, first[i].node);
    EXPECT_EQ(whole[i].doc, first[i].doc);
  }
  for (std::size_t i = 0; i < second.size(); ++i) {
    EXPECT_EQ(whole[400 + i].node, second[i].node);
    EXPECT_EQ(whole[400 + i].doc, second[i].doc);
  }

  // Seek replays any position.
  two.Seek(200);
  std::vector<Request> replay;
  two.NextBatch(100, &replay);
  for (std::size_t i = 0; i < replay.size(); ++i)
    EXPECT_EQ(whole[200 + i].node, replay[i].node);
}

TEST(RequestGenerator, EmpiricalFrequenciesMatchExpectedLanes) {
  Rng rng(5);
  const RoutingTree tree = MakeRandomTree(60, rng);
  const int docs = 6;
  RequestGenerator gen(tree, docs, {ZipfLeafComponent(tree, docs, 3.0, 1.0)},
                       7);
  const std::vector<std::vector<double>> lanes = gen.ExpectedLanes();

  const std::size_t draws = 200000;
  std::vector<Request> batch;
  gen.NextBatch(draws, &batch);
  std::vector<double> doc_freq(static_cast<std::size_t>(docs), 0.0);
  std::vector<double> node_freq(static_cast<std::size_t>(tree.size()), 0.0);
  for (const Request& r : batch) {
    doc_freq[static_cast<std::size_t>(r.doc)] += 1.0;
    node_freq[static_cast<std::size_t>(r.node)] += 1.0;
  }
  const double total = gen.total_rate();
  for (int d = 0; d < docs; ++d) {
    double lane_rate = 0;
    for (const double r : lanes[static_cast<std::size_t>(d)]) lane_rate += r;
    EXPECT_NEAR(doc_freq[static_cast<std::size_t>(d)] / draws,
                lane_rate / total, 0.01)
        << "doc " << d;
  }
  for (NodeId v = 0; v < tree.size(); ++v) {
    double node_rate = 0;
    for (int d = 0; d < docs; ++d)
      node_rate += lanes[static_cast<std::size_t>(d)][static_cast<std::size_t>(v)];
    EXPECT_NEAR(node_freq[static_cast<std::size_t>(v)] / draws,
                node_rate / total, 0.01)
        << "node " << v;
  }
}

TEST(RequestGenerator, RotatingComponentMatchesChurnScheduleLanes) {
  Rng rng(6);
  const RoutingTree tree = MakeRandomTree(300, rng);
  const int docs = 5;
  ChurnScheduleOptions opt;
  opt.pattern = ChurnPattern::kRotatingHotSpot;
  opt.doc_count = docs;
  opt.base_rate = 1.5;
  opt.hot_rate = 30.0;
  opt.hot_fraction = 0.1;
  opt.rotation_epochs = 4;
  ChurnSchedule schedule(tree, opt);

  for (int epoch = 0; epoch < 3; ++epoch) {
    const RequestGenerator gen(
        tree, docs,
        {RotatingHotSpotComponent(tree, docs, opt.base_rate, opt.hot_rate,
                                  opt.hot_fraction, epoch,
                                  opt.rotation_epochs)},
        1);
    const auto expected = gen.ExpectedLanes();
    const auto reference = schedule.Lanes();
    for (int d = 0; d < docs; ++d)
      for (NodeId v = 0; v < tree.size(); ++v)
        ASSERT_NEAR(
            expected[static_cast<std::size_t>(d)][static_cast<std::size_t>(v)],
            reference[static_cast<std::size_t>(d)][static_cast<std::size_t>(v)],
            1e-9)
            << "epoch " << epoch << " doc " << d << " node " << v;
    schedule.NextEvents();
  }
}

// Quota snapshots ---------------------------------------------------------

TEST(QuotaSnapshot, FromPlacementMatchesQuotas) {
  Rng rng(11);
  const RoutingTree tree = MakeRandomTree(40, rng);
  const DemandMatrix demand = UniformRandomDemand(tree, 5, 10, rng);
  const PlacementResult p = DerivePlacement(tree, demand);
  const QuotaSnapshot snap = QuotaSnapshot::FromPlacement(p);
  double total = 0;
  for (NodeId v = 0; v < tree.size(); ++v)
    for (std::int32_t d = 0; d < 5; ++d) {
      EXPECT_NEAR(
          snap.RateAt(v, d),
          p.quota[static_cast<std::size_t>(v)][static_cast<std::size_t>(d)],
          1e-12);
      total += snap.RateAt(v, d);
    }
  EXPECT_NEAR(snap.total_rate(), total, 1e-9);
  EXPECT_NEAR(snap.total_rate(), demand.Total(), 1e-6);
}

TEST(QuotaSnapshot, FromBatchMatchesServedLanes) {
  Rng rng(13);
  const RoutingTree tree = MakeRandomTree(80, rng);
  const int docs = 4;
  std::vector<std::vector<double>> lanes(docs);
  for (auto& lane : lanes) {
    lane.assign(static_cast<std::size_t>(tree.size()), 0.0);
    for (auto& r : lane) r = rng.NextDouble(0, 5);
  }
  BatchWebWaveSimulator batch(tree, lanes, {});
  for (int s = 0; s < 30; ++s) batch.Step();
  const QuotaSnapshot snap = QuotaSnapshot::FromBatch(batch);
  for (int d = 0; d < docs; ++d) {
    const std::vector<double> lane = batch.ServedLane(d);
    for (NodeId v = 0; v < tree.size(); ++v)
      EXPECT_NEAR(snap.RateAt(v, d), lane[static_cast<std::size_t>(v)], 1e-12);
  }
}

// Two snapshots must agree cell for cell, byte for byte (total_rate is
// FP-order sensitive between the incremental and full paths, so it gets a
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
    ASSERT_EQ(got.cell_rates()[i], want.cell_rates()[i]) << where << " cell " << c;
    ASSERT_EQ(got.cell_fractions()[i], want.cell_fractions()[i])
        << where << " cell " << c;
  }
  EXPECT_NEAR(got.total_rate(), want.total_rate(),
              1e-9 * (1 + std::abs(want.total_rate())));
}

// The incremental-snapshot contract: across closed-loop style epochs
// (churn some lanes -> step -> re-snapshot), RefreshFromBatch on a
// maintained snapshot must equal a from-scratch FromBatch cell for cell —
// whether the in-place path ran or a copy-set change forced the
// structural fallback.
TEST(QuotaSnapshot, RefreshFromBatchMatchesFullRebuildAcrossEpochs) {
  Rng rng(19);
  const RoutingTree tree = MakeRandomTree(60, rng);
  const int docs = 10;
  std::vector<std::vector<double>> lanes(static_cast<std::size_t>(docs));
  for (auto& lane : lanes) {
    lane.assign(static_cast<std::size_t>(tree.size()), 0.0);
    for (auto& r : lane)
      if (rng.NextBernoulli(0.5)) r = rng.NextDouble(0, 8);
  }
  const double min_rate = 1e-9;
  BatchWebWaveSimulator batch(tree, lanes, {});
  for (int s = 0; s < 50; ++s) batch.Step();

  QuotaSnapshot maintained = QuotaSnapshot::FromBatch(batch, min_rate);
  batch.ClearDirtyLanes();
  ExpectSameCells(maintained, QuotaSnapshot::FromBatch(batch, min_rate),
                  "initial");

  bool saw_in_place = false, saw_fallback = false;
  for (int epoch = 0; epoch < 8; ++epoch) {
    // Alternate gentle churn (rates move, copy sets mostly survive) with
    // violent churn (demand appears at fresh nodes, copy sets change) so
    // both refresh paths are exercised.
    std::vector<DemandEvent> events;
    if (epoch % 2 == 0) {
      events.push_back({epoch % docs, 3, rng.NextDouble(1, 10)});
      events.push_back({(epoch + 3) % docs, 7, rng.NextDouble(1, 10)});
    } else {
      for (NodeId v = 0; v < tree.size(); ++v)
        if (rng.NextBernoulli(0.4))
          events.push_back({(epoch * 3) % docs, v,
                            rng.NextBernoulli(0.5) ? 0.0
                                                   : rng.NextDouble(0, 12)});
    }
    batch.ApplyDemandEvents(events);
    for (int s = 0; s < 6; ++s) batch.Step();

    const bool in_place = maintained.RefreshFromBatch(batch);
    saw_in_place = saw_in_place || in_place;
    saw_fallback = saw_fallback || !in_place;
    batch.ClearDirtyLanes();
    ExpectSameCells(maintained, QuotaSnapshot::FromBatch(batch, min_rate),
                    "epoch refresh");
  }
  // The scenario is built to hit both paths; if it stops doing so the test
  // has silently lost half its coverage.
  EXPECT_TRUE(saw_fallback) << "no epoch exercised the structural fallback";
}

TEST(QuotaSnapshot, RefreshWithNoDirtyLanesLeavesEverythingInPlace) {
  Rng rng(23);
  const RoutingTree tree = MakeRandomTree(30, rng);
  std::vector<std::vector<double>> lanes(3);
  for (auto& lane : lanes) {
    lane.assign(static_cast<std::size_t>(tree.size()), 0.0);
    for (auto& r : lane) r = rng.NextDouble(0, 4);
  }
  BatchWebWaveSimulator batch(tree, lanes, {});
  for (int s = 0; s < 20; ++s) batch.Step();
  QuotaSnapshot snap = QuotaSnapshot::FromBatch(batch);
  batch.ClearDirtyLanes();
  const QuotaSnapshot before = snap;
  EXPECT_TRUE(snap.RefreshFromBatch(batch));
  ExpectSameCells(snap, before, "no dirty lanes");
}

TEST(QuotaSnapshot, RefreshRequiresABatchProducedSnapshot) {
  Rng rng(29);
  const RoutingTree tree = MakeRandomTree(20, rng);
  const DemandMatrix demand = UniformRandomDemand(tree, 3, 5, rng);
  QuotaSnapshot placed =
      QuotaSnapshot::FromPlacement(DerivePlacement(tree, demand));
  std::vector<std::vector<double>> lanes(
      3, std::vector<double>(static_cast<std::size_t>(tree.size()), 1.0));
  BatchWebWaveSimulator batch(tree, lanes, {});
  EXPECT_THROW(placed.RefreshFromBatch(batch), std::invalid_argument);
}

// Serving -----------------------------------------------------------------

TEST(ServingPlane, ExactProportionalBudgetsOnAChain) {
  // root 0 - node 1 - leaf 2, one document: node 1 holds a copy with 3/4
  // of the rate, the home the rest.  A block of 8192 leaf requests must
  // split exactly round(3/4 * 8192) : rest.
  const RoutingTree tree = MakeChain(3);
  QuotaSnapshot::Builder b(3, 1);
  b.Add(0, 0, 1.0);
  b.Add(1, 0, 3.0);
  ServingOptions opt;
  opt.block_size = 8192;
  opt.offered_rate = 4.0;
  opt.budget_slack = 1.0;  // enforce the placement exactly
  ServingPlane plane(tree, std::move(b).Build(), opt);

  std::vector<Request> batch(8192, Request{2, 0});
  plane.Serve(batch);
  const ServingMetrics& m = plane.metrics();
  EXPECT_EQ(m.requests, 8192u);
  EXPECT_EQ(m.served_per_node[1], 6144u);
  EXPECT_EQ(m.served_per_node[0], 2048u);
  EXPECT_EQ(m.served_per_node[2], 0u);
  EXPECT_EQ(m.cache_served, 6144u);
  EXPECT_EQ(m.home_served, 2048u);
  // Hops: served at node 1 = 1 hop, at the root = 2.
  EXPECT_EQ(m.hops[1], 6144u);
  EXPECT_EQ(m.hops[2], 2048u);
}

TEST(ServingPlane, SubTokenSharesThinToTheirFlowFraction) {
  // A copy whose share never reaches one token per block serves by
  // Poisson thinning at its flow fraction instead of being rounded to
  // nothing: quota 0.5 of a 4 req/s flow -> an eighth of the requests.
  const RoutingTree tree = MakeChain(3);
  QuotaSnapshot::Builder b(3, 1);
  b.Add(0, 0, 3.5);
  b.Add(1, 0, 0.5, 0.125);
  ServingOptions opt;
  opt.block_size = 4;  // r = 0.5 tokens per block -> thinning path
  opt.offered_rate = 4.0;
  opt.budget_slack = 1.0;
  ServingPlane plane(tree, std::move(b).Build(), opt);

  const std::size_t n = 40000;
  std::vector<Request> batch(n, Request{2, 0});
  plane.Serve(batch);
  const double share =
      static_cast<double>(plane.metrics().served_per_node[1]) / n;
  EXPECT_NEAR(share, 0.125, 0.01);
  EXPECT_EQ(plane.metrics().served_per_node[1] +
                plane.metrics().served_per_node[0],
            n);
}

TEST(ServingPlane, HomeOnlySendsEverythingToTheRoot) {
  Rng rng(17);
  const RoutingTree tree = MakeRandomTree(200, rng);
  const int docs = 4;
  RequestGenerator gen(tree, docs, {ZipfLeafComponent(tree, docs, 1.0, 1.0)},
                       3);
  ServingOptions opt;
  opt.offered_rate = gen.total_rate();
  ServingPlane plane(tree, HomeOnlyPolicy().Place(tree, gen.ExpectedLanes()),
                     opt);
  std::vector<Request> batch;
  gen.NextBatch(50000, &batch);
  plane.Serve(batch);
  const ServingMetrics& m = plane.metrics();
  EXPECT_EQ(m.requests, 50000u);
  EXPECT_EQ(m.home_served, 50000u);
  EXPECT_EQ(m.cache_served, 0u);
  EXPECT_EQ(m.served_per_node[static_cast<std::size_t>(tree.root())], 50000u);
  EXPECT_EQ(m.HitRatio(), 0.0);
}

TEST(ServingPlane, ConservesEveryRequest) {
  Rng rng(19);
  const RoutingTree tree = MakeRandomTree(500, rng);
  const int docs = 6;
  RequestGenerator gen(tree, docs, {ZipfLeafComponent(tree, docs, 2.0, 0.8)},
                       5);
  ServingOptions opt;
  opt.offered_rate = gen.total_rate();
  ServingPlane plane(
      tree, WebWaveTlbPolicy().Place(tree, gen.ExpectedLanes()), opt);
  std::vector<Request> batch;
  gen.NextBatch(100000, &batch);
  plane.Serve(batch);
  const ServingMetrics& m = plane.metrics();
  EXPECT_EQ(m.requests, 100000u);
  EXPECT_EQ(m.cache_served + m.home_served, m.requests);
  EXPECT_EQ(std::accumulate(m.served_per_node.begin(), m.served_per_node.end(),
                            std::uint64_t{0}),
            m.requests);
  EXPECT_EQ(
      std::accumulate(m.hops.begin(), m.hops.end(), std::uint64_t{0}),
      m.requests);
}

TEST(ServingPlane, BitIdenticalAcrossThreadCounts) {
  Rng rng(23);
  const RoutingTree tree = MakeRandomTree(3000, rng);
  const int docs = 8;
  RequestGenerator gen(tree, docs,
                       {ZipfLeafComponent(tree, docs, 2.0, 1.0),
                        RotatingHotSpotComponent(tree, docs, 0.0, 20.0, 0.1,
                                                 1, 4)},
                       41);
  const auto lanes = gen.ExpectedLanes();
  const QuotaSnapshot snap = WebWaveTlbPolicy().Place(tree, lanes);
  std::vector<Request> batch;
  gen.NextBatch(200000, &batch);

  std::vector<ServingMetrics> results;
  for (const int threads : {1, 2, 8}) {
    ServingOptions opt;
    opt.threads = threads;
    opt.offered_rate = gen.total_rate();
    QuotaSnapshot copy = snap;  // planes own their snapshot
    ServingPlane plane(tree, std::move(copy), opt);
    // Split the stream into several Serve calls to exercise block-id
    // continuation as well.
    plane.Serve(Span<Request>(batch.data(), 90000));
    plane.Serve(Span<Request>(batch.data() + 90000, 110000));
    results.push_back(plane.metrics());
  }
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0] == results[1]);
  EXPECT_TRUE(results[0] == results[2]);
  EXPECT_GT(results[0].HitRatio(), 0.5);
}

TEST(ServingPlane, WebWavePlacementBeatsHomeOnlyMaxLoad) {
  Rng rng(29);
  const RoutingTree tree = MakeRandomTree(800, rng);
  const int docs = 8;
  RequestGenerator gen(tree, docs, {ZipfLeafComponent(tree, docs, 2.0, 1.0)},
                       11);
  const auto lanes = gen.ExpectedLanes();
  std::vector<Request> batch;
  gen.NextBatch(200000, &batch);

  std::uint64_t max_home = 0, max_webwave = 0;
  {
    ServingOptions opt;
    opt.offered_rate = gen.total_rate();
    ServingPlane plane(tree, HomeOnlyPolicy().Place(tree, lanes), opt);
    plane.Serve(batch);
    max_home = plane.metrics().MaxServed();
  }
  {
    ServingOptions opt;
    opt.offered_rate = gen.total_rate();
    ServingPlane plane(tree, WebWaveTlbPolicy().Place(tree, lanes), opt);
    plane.Serve(batch);
    max_webwave = plane.metrics().MaxServed();
  }
  EXPECT_EQ(max_home, 200000u);
  // TLB splits the load across roughly all servers; at n=800 the max must
  // drop by well over an order of magnitude.
  EXPECT_LT(max_webwave, max_home / 10);
}

// Incremental plane refresh ----------------------------------------------

// The data-plane analogue of RefreshFromBatch: installing a new snapshot
// into a live plane must leave admission tables byte-identical to a
// fresh construction, whether the hinted in-place path, the unhinted
// diff, or the full rebuild ran — and two live planes refreshed through
// different paths must keep serving bit-identically.
TEST(ServingPlane, RefreshMatchesFreshConstructionAcrossEpochs) {
  Rng rng(43);
  const RoutingTree tree = MakeRandomTree(500, rng);
  const int docs = 6;
  std::vector<std::vector<double>> lanes(static_cast<std::size_t>(docs));
  for (auto& lane : lanes) {
    lane.assign(static_cast<std::size_t>(tree.size()), 0.0);
    for (auto& r : lane) r = rng.NextDouble(0, 4);
  }
  BatchWebWaveSimulator sim(tree, lanes, {});
  for (int s = 0; s < 30; ++s) sim.Step();
  const double min_rate = 1e-9;
  QuotaSnapshot snap = QuotaSnapshot::FromBatch(sim, min_rate);
  sim.ClearDirtyLanes();

  ServingOptions opt;
  opt.offered_rate = 60.0;  // fixed scale: refreshes keep the hint valid
  ServingPlane hinted(tree, snap, opt);
  ServingPlane diffed(tree, snap, opt);

  RequestGenerator gen(tree, docs, {ZipfLeafComponent(tree, docs, 2.0, 1.0)},
                       19);
  std::vector<Request> window;
  bool saw_in_place = false, saw_rebuild = false;
  for (int epoch = 0; epoch < 6; ++epoch) {
    gen.NextBatch(40000, &window);
    hinted.Serve(window);
    diffed.Serve(window);
    ASSERT_TRUE(hinted.metrics() == diffed.metrics()) << "epoch " << epoch;

    // Churn some lanes (gentle on even epochs, copy-set-moving on odd),
    // re-diffuse, re-snapshot, refresh both planes through different
    // paths.
    std::vector<DemandEvent> events;
    if (epoch % 2 == 0) {
      events.push_back({epoch % docs, 5, rng.NextDouble(1, 8)});
    } else {
      for (NodeId v = 0; v < tree.size(); ++v)
        if (rng.NextBernoulli(0.3))
          events.push_back({(epoch * 2) % docs, v, rng.NextDouble(0, 9)});
    }
    sim.ApplyDemandEvents(events);
    for (int s = 0; s < 6; ++s) sim.Step();
    const std::vector<int> dirty = sim.DirtyLanes();
    snap.RefreshFromBatch(sim);
    sim.ClearDirtyLanes();

    std::vector<std::int32_t> changed(dirty.begin(), dirty.end());
    const bool a = hinted.Refresh(
        snap, Span<const std::int32_t>(changed.data(), changed.size()));
    const bool b = diffed.Refresh(snap);
    EXPECT_EQ(a, b) << "epoch " << epoch;
    saw_in_place = saw_in_place || a;
    saw_rebuild = saw_rebuild || !a;

    const ServingPlane fresh(tree, snap, opt);
    EXPECT_TRUE(hinted.TablesEqual(fresh)) << "epoch " << epoch;
    EXPECT_TRUE(diffed.TablesEqual(fresh)) << "epoch " << epoch;
  }
  EXPECT_TRUE(saw_in_place) << "no epoch exercised the in-place refresh";
  EXPECT_TRUE(saw_rebuild) << "no epoch exercised the full rebuild";
}

TEST(ServingPlane, RefreshTracksSnapshotTotalWhenOfferedRateFloats) {
  // offered_rate 0 scales budgets to the snapshot's own total, which
  // moves with every refresh — the hint must be ignored and the tables
  // still match a fresh construction.
  Rng rng(47);
  const RoutingTree tree = MakeRandomTree(200, rng);
  const int docs = 3;
  std::vector<std::vector<double>> lanes(
      docs, std::vector<double>(static_cast<std::size_t>(tree.size()), 1.0));
  BatchWebWaveSimulator sim(tree, lanes, {});
  for (int s = 0; s < 20; ++s) sim.Step();
  QuotaSnapshot snap = QuotaSnapshot::FromBatch(sim, 1e-9);
  sim.ClearDirtyLanes();

  ServingOptions opt;  // offered_rate stays 0
  ServingPlane plane(tree, snap, opt);
  sim.ApplyDemandEvents({{0, 7, 25.0}});
  for (int s = 0; s < 5; ++s) sim.Step();
  snap.RefreshFromBatch(sim);
  sim.ClearDirtyLanes();
  const std::vector<std::int32_t> changed = {0};
  plane.Refresh(snap, Span<const std::int32_t>(changed.data(), changed.size()));
  EXPECT_TRUE(plane.TablesEqual(ServingPlane(tree, snap, opt)));
}

// Epoch driver ------------------------------------------------------------

// ApplyEpoch's incremental chain — snapshot refresh, capacity Refresh,
// fault ApplyEvents + Refresh, plane refresh — against the from-scratch
// chain on the same base every epoch: a fresh capacity Project, a fresh
// fault Project over its output, and a freshly constructed plane.
void ExpectDriverMatchesAFreshChain(double multiple) {
  SCOPED_TRACE(multiple);
  Rng rng(61);
  const RoutingTree tree = MakeRandomTree(80, rng);
  const int docs = 6;
  ChurnScheduleOptions copt;
  copt.pattern = ChurnPattern::kRotatingHotSpot;
  copt.doc_count = docs;
  copt.hot_fraction = 0.2;
  copt.rotation_epochs = 4;
  ChurnSchedule churn(tree, copt);
  BatchWebWaveSimulator sim(tree, churn.Lanes(), {});
  // Every lane at its floating-point fixed point, where it steps clean,
  // and epochs long enough to get back there: an epoch's dirty set is
  // then the lanes its own events moved, not the whole catalog.
  for (int s = 0; s < 5000 && (s == 0 || sim.dirty_lane_count() > 0); ++s) {
    sim.ClearDirtyLanes();
    sim.Step();
  }

  FaultScheduleOptions fopt;
  fopt.pattern = FaultPattern::kLeafCohort;
  fopt.crash_fraction = 0.2;
  fopt.outage_epochs = 2;
  // Windows turn over on odd epochs, so the even epochs' capacity
  // coupling reaches the fault layer through the driver alone.
  fopt.start_epoch = 2;
  fopt.seed = 3;
  FaultSchedule faults(tree, fopt);

  const DocumentSizes sizes = DocumentSizes::LogNormal(docs, 4096, 1.0, 17);
  CapacityProjector capacity(
      tree, CacheStore::WorkingSetStore(tree, sizes, multiple));
  FaultProjector rehome(tree);
  EpochDriver::Options dopt;
  dopt.steps_per_epoch = 1000;
  dopt.min_rate = 1e-3;
  EpochDriver driver(sim, dopt);
  driver.AttachCapacity(&capacity);
  driver.AttachFaults(&rehome);
  ServingOptions sopt;
  sopt.offered_rate = 100.0;
  ServingPlane plane(tree, driver.serving(), sopt);
  driver.InstallDown(plane);
  driver.AttachPlane(&plane);

  bool saw_down = false, saw_coupling = false;
  for (int epoch = 0; epoch < 8; ++epoch) {
    // The hot spot moves one document per epoch.
    std::vector<DemandEvent> demand;
    for (const DemandEvent& e : churn.NextEvents())
      if (e.doc == epoch % docs) demand.push_back(e);
    const std::vector<FaultEvent> events = faults.NextEvents();
    const EpochDriver::Report report = driver.ApplyEpoch(
        Span<DemandEvent>(demand.data(), demand.size()),
        Span<const FaultEvent>(events.data(), events.size()));
    EXPECT_LT(report.dirty.size(), static_cast<std::size_t>(docs));
    // A dirty lane moved a clean document's residency, and no crash or
    // recovery re-homes it anyway: the driver must hand it on.
    saw_coupling = saw_coupling ||
                   (events.empty() && capacity.last_affected_docs().size() >
                                          report.dirty.size());

    CapacityProjector fresh_capacity(
        tree, CacheStore::WorkingSetStore(tree, sizes, multiple));
    fresh_capacity.Project(driver.snapshot());
    FaultProjector fresh_rehome(tree);
    fresh_rehome.SetDown(
        Span<const NodeId>(faults.down().data(), faults.down().size()));
    fresh_rehome.Project(fresh_capacity.clamped());
    ExpectSameCells(driver.serving(), fresh_rehome.clamped(), "driver chain");
    EXPECT_EQ(capacity.evicted_cells(), fresh_capacity.evicted_cells())
        << "epoch " << epoch;
    EXPECT_EQ(rehome.evicted_cells(), fresh_rehome.evicted_cells())
        << "epoch " << epoch;
    if (multiple >= 1.0) {
      EXPECT_EQ(capacity.evicted_cells(), 0);
    } else {
      EXPECT_GT(capacity.evicted_cells(), 0);
    }
    ASSERT_EQ(rehome.down(), faults.down()) << "epoch " << epoch;
    saw_down = saw_down || !faults.down().empty();

    ServingPlane fresh_plane(tree, fresh_rehome.clamped(), sopt);
    fresh_plane.SetDownNodes(
        Span<const NodeId>(faults.down().data(), faults.down().size()));
    EXPECT_TRUE(plane.TablesEqual(fresh_plane)) << "epoch " << epoch;
  }
  EXPECT_TRUE(saw_down) << "no epoch had a crashed node";
  if (multiple < 1.0) {
    EXPECT_TRUE(saw_coupling) << "no dirty lane moved a clean document";
  }
}

TEST(EpochDriver, ServingMatchesAFreshProjectionChainEveryEpoch) {
  ExpectDriverMatchesAFreshChain(1.0);   // zero eviction: the pass-through
  ExpectDriverMatchesAFreshChain(0.35);  // evicting: spill every epoch
}

// Closed loop -------------------------------------------------------------

TEST(ArrivalFold, DrainsMeasuredRatesAndForgetsStaleCells) {
  ArrivalFold fold(4, 2);
  const std::vector<Request> first = {{1, 0}, {1, 0}, {2, 1}, {1, 0}};
  fold.Count(first);
  EXPECT_EQ(fold.counted(), 4u);
  std::vector<DemandEvent> events = fold.Drain(2.0);
  ASSERT_EQ(events.size(), 2u);  // (1,0) and (2,1)
  for (const DemandEvent& e : events) {
    if (e.node == 1) {
      EXPECT_EQ(e.doc, 0);
      EXPECT_DOUBLE_EQ(e.rate, 1.5);
    } else {
      EXPECT_EQ(e.node, 2);
      EXPECT_EQ(e.doc, 1);
      EXPECT_DOUBLE_EQ(e.rate, 0.5);
    }
  }
  // Next window: (1,0) vanished, (2,1) unchanged, (3,1) new.
  const std::vector<Request> second = {{2, 1}, {3, 1}};
  fold.Count(second);
  events = fold.Drain(2.0);
  ASSERT_EQ(events.size(), 2u);
  bool saw_zero = false, saw_new = false;
  for (const DemandEvent& e : events) {
    if (e.node == 1) {
      EXPECT_DOUBLE_EQ(e.rate, 0.0);
      saw_zero = true;
    }
    if (e.node == 3) {
      EXPECT_DOUBLE_EQ(e.rate, 0.5);
      saw_new = true;
    }
  }
  EXPECT_TRUE(saw_zero);
  EXPECT_TRUE(saw_new);
}

TEST(ClosedLoop, ReducesMaxServerLoadVersusHomeOnlyUnderRotation) {
  Rng rng(37);
  const RoutingTree tree = MakeRandomTree(400, rng);
  const int docs = 4;
  const int rotation = 4;
  const std::size_t window = 60000;
  const double base = 1.0, hot = 25.0, frac = 0.15;

  // The diffusion engine starts ignorant (all demand believed at the
  // root's idea of nothing — a tiny uniform guess) and learns only
  // through folded measurements.
  std::vector<std::vector<double>> guess(static_cast<std::size_t>(docs));
  for (auto& lane : guess)
    lane.assign(static_cast<std::size_t>(tree.size()), 1e-3);
  WebWaveOptions wopt;
  wopt.threads = 1;
  BatchWebWaveSimulator sim(tree, guess, wopt);
  ArrivalFold fold(tree.size(), docs);

  // Each epoch: serve half the window from the (lagging) placement, fold
  // the measured arrivals into the engine, let diffusion re-balance, then
  // serve the other half from the refreshed snapshot — that second half
  // is what the closed loop is judged on.
  const std::size_t half = window / 2;
  std::uint64_t worst_webwave = 0, worst_home = 0;
  std::vector<Request> batch;
  // One maintained snapshot for the whole run, re-synced incrementally
  // from the engine's dirty lanes each time diffusion moved — the
  // closed-loop protocol of serve/README.md.
  const double min_rate = 1e-9 * base * tree.size() * docs;
  QuotaSnapshot snap = QuotaSnapshot::FromBatch(sim, min_rate);
  sim.ClearDirtyLanes();
  for (int epoch = 0; epoch < rotation; ++epoch) {
    RequestGenerator gen(
        tree, docs,
        {RotatingHotSpotComponent(tree, docs, base, hot, frac, epoch,
                                  rotation)},
        100 + epoch);
    gen.NextBatch(window, &batch);
    const double half_seconds = static_cast<double>(half) / gen.total_rate();
    ServingOptions sopt;
    sopt.offered_rate = gen.total_rate();

    // First half: serve (stale placement), measure, re-diffuse.
    {
      ServingPlane plane(tree, snap, sopt);
      plane.Serve(Span<Request>(batch.data(), half));
    }
    fold.Count(Span<Request>(batch.data(), half));
    sim.ApplyDemandEvents(fold.Drain(half_seconds));
    for (int s = 0; s < 80; ++s) sim.Step();

    // Second half: the refreshed copies carry the hot window's load.
    snap.RefreshFromBatch(sim);
    sim.ClearDirtyLanes();
    ServingPlane plane(tree, snap, sopt);
    plane.Serve(Span<Request>(batch.data() + half, window - half));
    worst_webwave = std::max(worst_webwave, plane.metrics().MaxServed());

    ServingPlane home(tree,
                      HomeOnlyPolicy().Place(tree, gen.ExpectedLanes()), sopt);
    home.Serve(Span<Request>(batch.data() + half, window - half));
    worst_home = std::max(worst_home, home.metrics().MaxServed());
  }
  EXPECT_EQ(worst_home, window - half);
  EXPECT_LT(worst_webwave, worst_home / 2)
      << "closed loop failed to spread the rotating hot spot";
}

}  // namespace
}  // namespace webwave
