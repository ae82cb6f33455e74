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
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/webwave_batch.h"
#include "doc/placement.h"
#include "fault/fault_projector.h"
#include "fault/fault_schedule.h"
#include "sim/churn.h"
#include "spill_reference.h"
#include "store/cache_store.h"
#include "store/capacity_projector.h"
#include "store/document_sizes.h"
#include "tree/builders.h"
#include "util/rng.h"

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

// The sampler ---------------------------------------------------------------
//
// GuidedCdf must return exactly the full-range inverse-CDF search it
// replaced.  The references below are that search and the normalization
// it ran on, kept here as test-local copies.

std::vector<double> ReferenceCdf(const std::vector<double>& weights) {
  double total = 0;
  for (const double w : weights) total += w;
  std::vector<double> cdf(weights.size());
  double acc = 0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    cdf[i] = acc / total;
  }
  cdf.back() = 1.0;
  return cdf;
}

std::size_t ReferenceSample(const std::vector<double>& cdf, double u) {
  return static_cast<std::size_t>(
      std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
}

TEST(GuidedCdf, EqualsTheFullSearchAtEveryBucketEdge) {
  std::vector<std::vector<double>> cases;
  // Uniform weights put CDF entries exactly on the bucket edges k/m,
  // where a draw one ulp below an edge can round into the next bucket.
  cases.push_back(std::vector<double>(1000, 1.0));
  cases.push_back(std::vector<double>(3, 1.0));
  cases.push_back({3.5});  // single entry
  // Zero-weight runs, as internal nodes give an origin field: leading,
  // inner and trailing ones (the trailing run ends on the forced 1.0).
  std::vector<double> runs(777);
  for (std::size_t i = 0; i < runs.size(); ++i)
    runs[i] = (i % 7 < 3 || i < 20 || i > 760) ? 0.0 : 1.0 + i % 5;
  cases.push_back(runs);
  cases.push_back({0.0, 0.0, 2.0, 0.0, 0.0});
  cases.push_back({1.0, 2.0, 0.0, 0.0, 0.0});
  // A heavy head and a light tail: buckets holding many entries.
  std::vector<double> zipf(64);
  for (std::size_t i = 0; i < zipf.size(); ++i)
    zipf[i] = 1.0 / static_cast<double>(i + 1);
  cases.push_back(zipf);
  std::vector<double> spiky(5000, 1e-9);
  spiky[17] = 1.0;
  spiky[4000] = 3.0;
  cases.push_back(spiky);

  for (std::size_t n = 0; n < cases.size(); ++n) {
    const GuidedCdf sampler(cases[n]);
    const std::vector<double> cdf = ReferenceCdf(cases[n]);
    ASSERT_EQ(sampler.cdf(), cdf) << "case " << n;
    ASSERT_EQ(sampler.cdf().back(), 1.0) << "case " << n;
    const std::size_t m = cdf.size();
    EXPECT_EQ(sampler.Sample(0.0), ReferenceSample(cdf, 0.0)) << "case " << n;
    for (std::size_t k = 0; k <= m; ++k) {
      const double edge = static_cast<double>(k) / static_cast<double>(m);
      for (const double u : {std::nextafter(edge, 0.0), edge,
                             std::nextafter(edge, 2.0)}) {
        if (u < 0 || u >= 1) continue;
        ASSERT_EQ(sampler.Sample(u), ReferenceSample(cdf, u))
            << "case " << n << " k " << k << " u " << u;
      }
    }
  }
}

TEST(GuidedCdf, RejectsEmptyAndZeroWeights) {
  EXPECT_THROW(GuidedCdf(std::vector<double>{}), std::invalid_argument);
  EXPECT_THROW(GuidedCdf(std::vector<double>{0.0, 0.0}),
               std::invalid_argument);
}

// The stream a plain upper_bound sampler draws: request i takes counters
// 3i (component), 3i+1 (origin) and 3i+2 (document).
std::vector<Request> ReferenceStream(const std::vector<DemandComponent>& mix,
                                     std::uint64_t seed, std::size_t count) {
  const auto draw = [&](std::uint64_t counter) {
    return CounterUnitDouble(seed + counter * 0x9e3779b97f4a7c15ULL);
  };
  std::vector<double> rates;
  for (const DemandComponent& c : mix) rates.push_back(c.rate);
  const std::vector<double> component_cdf = ReferenceCdf(rates);
  std::vector<std::vector<double>> origin, doc;
  for (const DemandComponent& c : mix) {
    origin.push_back(ReferenceCdf(c.origin_weights));
    doc.push_back(ReferenceCdf(c.doc_weights));
  }
  std::vector<Request> out(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t k = 3 * i;
    const std::size_t c =
        mix.size() == 1 ? 0 : ReferenceSample(component_cdf, draw(k));
    out[i].node = static_cast<NodeId>(ReferenceSample(origin[c], draw(k + 1)));
    out[i].doc = static_cast<DocId>(ReferenceSample(doc[c], draw(k + 2)));
  }
  return out;
}

TEST(RequestGenerator, StreamEqualsAPlainUpperBoundSampler) {
  Rng rng(12);
  const RoutingTree tree = MakeRandomTree(5000, rng);
  const int docs = 64;
  const std::vector<std::pair<std::vector<DemandComponent>, std::size_t>>
      mixes = {
          {{RotatingHotSpotComponent(tree, docs, 1.0, 50.0, 0.05, 1, 8)},
           1000000},
          {{RotatingHotSpotComponent(tree, docs, 1.0, 50.0, 0.05, 3, 8),
            FlashCrowdComponent(tree, docs, 4.0, 7,
                                tree.children(tree.root()).front()),
            ZipfLeafComponent(tree, docs, 0.5, 0.8)},
           200000},
      };
  for (std::size_t n = 0; n < mixes.size(); ++n) {
    const auto& [mix, count] = mixes[n];
    RequestGenerator gen(tree, docs, mix, 2027);
    std::vector<Request> got;
    gen.NextBatch(count, &got);
    const std::vector<Request> want = ReferenceStream(mix, 2027, count);
    for (std::size_t i = 0; i < count; ++i) {
      ASSERT_EQ(got[i].node, want[i].node) << "mix " << n << " request " << i;
      ASSERT_EQ(got[i].doc, want[i].doc) << "mix " << n << " request " << i;
    }
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
    const QuotaSnapshot fresh = QuotaSnapshot::FromBatch(batch, min_rate);
    ExpectSameCells(maintained, fresh, "epoch refresh");
    // Re-summed in FromBatch's order on every path: bit-identical.
    EXPECT_EQ(maintained.total_rate(), fresh.total_rate()) << "epoch " << epoch;
  }
  // The scenario is built to hit both paths; if it stops doing so the test
  // has silently lost half its coverage.
  EXPECT_TRUE(saw_fallback) << "no epoch exercised the structural fallback";
}

// Both ways RefreshFromBatch builds the new CSR — merging clean rows with
// a partial dirty set's export, or streaming the whole export when every
// lane is dirty — are byte-identical to FromBatch, total_rate included.
// Lanes start at their fixed point, so an epoch's dirty set is the lanes
// its events touched; every third epoch touches all of them.
TEST(QuotaSnapshot, RefreshFromBatchMergesOrStreamsBitIdentically) {
  Rng rng(31);
  const RoutingTree tree = MakeRandomTree(80, rng);
  const int docs = 7;
  std::vector<std::vector<double>> lanes(static_cast<std::size_t>(docs));
  for (auto& lane : lanes) {
    lane.assign(static_cast<std::size_t>(tree.size()), 0.0);
    for (auto& r : lane)
      if (rng.NextBernoulli(0.4)) r = rng.NextDouble(0, 5);
  }
  BatchWebWaveSimulator batch(tree, lanes, {});
  for (int s = 0; s < 5000 && (s == 0 || batch.dirty_lane_count() > 0); ++s) {
    batch.ClearDirtyLanes();
    batch.Step();
  }
  const double min_rate = 1e-3;
  QuotaSnapshot maintained = QuotaSnapshot::FromBatch(batch, min_rate);
  batch.ClearDirtyLanes();

  bool saw_partial = false, saw_all = false;
  for (int epoch = 0; epoch < 6; ++epoch) {
    std::vector<DemandEvent> events;
    for (int d = 0; d < docs; ++d)
      if (epoch % 3 == 2 || d == epoch % docs)
        for (NodeId v = 0; v < tree.size(); v += 5)
          events.push_back(
              {d, v, rng.NextBernoulli(0.3) ? 0.0 : rng.NextDouble(0, 9)});
    batch.ApplyDemandEvents(events);
    for (int s = 0; s < 4; ++s) batch.Step();
    const int dirty = batch.dirty_lane_count();
    saw_partial = saw_partial || (dirty > 0 && dirty < docs);
    saw_all = saw_all || dirty == docs;
    maintained.RefreshFromBatch(batch);
    batch.ClearDirtyLanes();
    spill_reference::ExpectBitIdentical(
        maintained, QuotaSnapshot::FromBatch(batch, min_rate), "refresh");
  }
  EXPECT_TRUE(saw_partial) << "no epoch left a lane clean";
  EXPECT_TRUE(saw_all) << "no epoch dirtied every lane";
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

// The walk's thinning draw compares the hash's top 53 bits with the cell's
// stored threshold ⌈p·2⁵³⌉ instead of forming CounterUnitDouble(ctr) < p.
// The two must agree for every counter and every p, including the
// probabilities that sit on or between the draw's 2⁻⁵³ steps, and p = 1
// must always admit.  Random counters never land next to a small
// threshold, so the draw values either side of each threshold are
// checked directly as well.
TEST(ServingPlane, ThinningThresholdEqualsTheDoubleDraw) {
  const double step = 0x1.0p-53;
  const std::vector<double> probs = {
      0.0, std::numeric_limits<double>::denorm_min(), step, 3 * step, 0.1,
      0.5, std::nextafter(1.0, 0.0), 1.0};
  const std::uint64_t counters = 1u << 20;
  for (const double p : probs) {
    const std::uint64_t threshold = UnitThreshold(p);
    std::uint64_t admitted = 0;
    for (std::uint64_t i = 0; i < counters; ++i) {
      const std::uint64_t ctr = i * 0x9e3779b97f4a7c15ULL + 12345;
      const bool admit = CounterBelow(ctr, threshold);
      ASSERT_EQ(admit, CounterUnitDouble(ctr) < p)
          << "p " << p << " counter " << ctr;
      admitted += admit ? 1 : 0;
    }
    if (p == 1.0) {
      EXPECT_EQ(admitted, counters);
    }
    for (const std::uint64_t m : {threshold - 1, threshold, threshold + 1}) {
      if (m >= (std::uint64_t{1} << 53)) continue;  // not a draw value
      EXPECT_EQ(static_cast<double>(m) * step < p, m < threshold)
          << "p " << p << " draw " << m;
    }
  }
  EXPECT_EQ(UnitThreshold(0.0), 0u);
  EXPECT_EQ(UnitThreshold(std::numeric_limits<double>::denorm_min()), 1u);
  EXPECT_EQ(UnitThreshold(step), 1u);
  EXPECT_EQ(UnitThreshold(3 * step), 3u);
  EXPECT_EQ(UnitThreshold(std::nextafter(1.0, 0.0)),
            (std::uint64_t{1} << 53) - 1);
  EXPECT_EQ(UnitThreshold(1.0), std::uint64_t{1} << 53);
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

// The bitmap lookup past one word: a 130-document catalog gives every
// node three bitmap words, so a copy's rank counts set bits in earlier
// words.  Every cell thins, and its decision is certain: fraction 1
// always admits, fraction 1e-18 never does.  The two kinds alternate
// along each row, so a lookup that finds the wrong cell of the right
// row changes where a request is served.  A three-node down chain sits
// on the deepest path, so multi-word records carry the down flag too.
// Each request must be served at the nearest live ancestor-or-self whose
// copy admits — the reference below finds it with QuotaSnapshot::CellOf.
// The batch walk, an all-owning wire plane and a two-plane wire fleet
// (records carrying the outside-the-segment flag) must agree record for
// record.
TEST(ServingPlane, BitmapLookupFindsCopiesAcrossWordBoundaries) {
  Rng rng(131);
  const RoutingTree tree = MakeRandomTree(300, rng);
  const int docs = 130;
  // Row kinds by v % 8; kind 6 is a full row, kind 7 a random 30 %.
  const std::vector<std::vector<std::int32_t>> patterns = {
      {},                          // empty row
      {0, 63, 64, 127, 128, 129},  // every word edge
      {62, 63, 64, 65},            // straddles words 0 and 1
      {126, 127, 128, 129},        // straddles words 1 and 2
      {129},                       // last document only
      {0},                         // first document only
  };
  const auto admits = [](NodeId v, std::int32_t d) {
    return (v + d) % 3 != 0;
  };
  QuotaSnapshot::Builder b(tree.size(), docs);
  for (NodeId v = 0; v < tree.size(); ++v) {
    const std::size_t kind = static_cast<std::size_t>(v % 8);
    for (std::int32_t d = 0; d < docs; ++d) {
      const bool held =
          kind == 6   ? true
          : kind == 7 ? rng.NextBernoulli(0.3)
                      : std::count(patterns[kind].begin(),
                                   patterns[kind].end(), d) > 0;
      if (held) b.Add(v, d, 1.0, admits(v, d) ? 1.0 : 1e-18);
    }
  }
  const QuotaSnapshot snap = std::move(b).Build();
  const std::vector<NodeId> path = tree.path_to_root(
      *std::max_element(tree.preorder().begin(), tree.preorder().end(),
                        [&tree](NodeId a, NodeId c) {
                          return tree.depth(a) < tree.depth(c);
                        }));
  ASSERT_GE(path.size(), 5u);
  const std::vector<NodeId> down = {path[1], path[2], path[3]};
  const auto is_down = [&down](NodeId v) {
    return std::count(down.begin(), down.end(), v) > 0;
  };

  // One request per (node, document); the reference climb's answers.
  std::vector<Request> batch;
  std::vector<NodeId> want_node;
  std::vector<std::uint64_t> want_hops;
  ServingMetrics want;
  want.served_per_node.assign(static_cast<std::size_t>(tree.size()), 0);
  for (NodeId v = 0; v < tree.size(); ++v)
    for (std::int32_t d = 0; d < docs; ++d) {
      batch.push_back(Request{v, d});
      NodeId u = v;
      std::uint64_t hops = 0;
      while (u != tree.root() &&
             (is_down(u) || snap.CellOf(u, d) < 0 || !admits(u, d))) {
        if (is_down(u)) ++want.failed_attempts;
        u = tree.parent(u);
        ++hops;
      }
      want_node.push_back(u);
      want_hops.push_back(hops);
      ++want.served_per_node[static_cast<std::size_t>(u)];
      want.hop_sum += hops;
    }
  ASSERT_GT(want.failed_attempts, 0u);

  // A huge offered rate keeps every cell below one token per block.
  ServingOptions wire_opt;
  wire_opt.block_size = 1;
  wire_opt.offered_rate = 1e6;
  wire_opt.trace = true;
  wire_opt.trace_sample_shift = 0;
  const auto wire_request = [&batch](std::size_t i) {
    GetRequest in;
    in.req_id = i;
    in.doc = batch[i].doc;
    in.origin_node = batch[i].node;
    in.flags = kGetFlagTrace;
    return in;
  };
  ServingPlane wire(tree, snap, wire_opt);
  wire.SetDownNodes(Span<const NodeId>(down.data(), down.size()));
  for (std::size_t i = 0; i < batch.size(); ++i) {
    GetRequest fwd;
    GetReply reply;
    ASSERT_EQ(wire.ServeWireSegment(wire_request(i), &fwd, &reply),
              ServingPlane::WireServe::kServed);
    ASSERT_EQ(reply.serving_node, want_node[i])
        << "node " << batch[i].node << " doc " << batch[i].doc;
    ASSERT_EQ(reply.hops, want_hops[i])
        << "node " << batch[i].node << " doc " << batch[i].doc;
  }

  // The fleet: two planes own alternating runs of node ids and hand each
  // walk across on every segment exit.
  std::vector<NodeId> owned[2];
  for (NodeId v = 0; v < tree.size(); ++v) owned[(v / 3) % 2].push_back(v);
  std::vector<std::unique_ptr<ServingPlane>> fleet;
  for (const std::vector<NodeId>& shard : owned) {
    fleet.push_back(std::make_unique<ServingPlane>(tree, snap, wire_opt));
    fleet.back()->SetDownNodes(Span<const NodeId>(down.data(), down.size()));
    fleet.back()->SetSegmentNodes(
        Span<const NodeId>(shard.data(), shard.size()));
  }
  std::uint64_t forwards = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    GetRequest in = wire_request(i);
    GetReply reply;
    for (;;) {
      GetRequest fwd;
      const ServingPlane::WireServe end =
          fleet[static_cast<std::size_t>((in.origin_node / 3) % 2)]
              ->ServeWireSegment(in, &fwd, &reply);
      if (end != ServingPlane::WireServe::kForwarded) break;
      ++forwards;
      in = fwd;
    }
    ASSERT_EQ(reply.serving_node, want_node[i]) << "request " << i;
    ASSERT_EQ(reply.hops, want_hops[i]) << "request " << i;
  }
  EXPECT_GT(forwards, batch.size() / 4);
  ServingMetrics fleet_sum = fleet[0]->metrics();
  std::vector<TraceEvent> fleet_trace = fleet[0]->trace();
  const ServingMetrics& other = fleet[1]->metrics();
  for (const ServingCounterField& c : kServingCounters)
    fleet_sum.*c.field += other.*c.field;
  for (std::size_t v = 0; v < fleet_sum.served_per_node.size(); ++v)
    fleet_sum.served_per_node[v] += other.served_per_node[v];
  for (std::size_t h = 0; h < fleet_sum.hops.size(); ++h)
    fleet_sum.hops[h] += other.hops[h];
  fleet_trace.insert(fleet_trace.end(), fleet[1]->trace().begin(),
                     fleet[1]->trace().end());
  CanonicalizeTrace(&fleet_trace);

  std::vector<ServingMetrics> results;
  std::vector<std::vector<TraceEvent>> traces;
  for (const int threads : {1, 2}) {
    ServingOptions opt = wire_opt;
    opt.threads = threads;
    opt.block_size = 4096;
    ServingPlane plane(tree, snap, opt);
    plane.SetDownNodes(Span<const NodeId>(down.data(), down.size()));
    plane.Serve(batch);
    results.push_back(plane.metrics());
    traces.push_back(plane.trace());
  }
  EXPECT_TRUE(results[0] == results[1]);
  EXPECT_EQ(results[0].served_per_node, want.served_per_node);
  EXPECT_EQ(results[0].hop_sum, want.hop_sum);
  EXPECT_EQ(results[0].failed_attempts, want.failed_attempts);
  EXPECT_EQ(results[0].requests, batch.size());
  EXPECT_TRUE(results[0] == wire.metrics());
  EXPECT_TRUE(results[0] == fleet_sum);
  for (const std::vector<TraceEvent>* t :
       std::vector<const std::vector<TraceEvent>*>{&traces[1], &wire.trace(),
                                                   &fleet_trace}) {
    ASSERT_EQ(t->size(), traces[0].size());
    for (std::size_t e = 0; e < t->size(); ++e)
      ASSERT_EQ((*t)[e], traces[0][e]) << "event " << e;
  }
}

// ttl_hops comes off the socket.  A request claiming more climbed edges
// than the tree leaves room for above its origin would be served past
// the hop histogram's height + 1 bins; the plane must throw before it
// accounts anything — counters, trace, registry or reply — and still
// serve the largest honest claim in the top bin.
TEST(ServingPlane, WireRequestClimbingPastTheTreeHeightIsRejected) {
  Rng rng(50);
  const RoutingTree tree = MakeRandomTree(50, rng);
  ASSERT_GT(tree.height(), 1);
  NodeId deepest = tree.root();
  for (NodeId v = 0; v < tree.size(); ++v)
    if (tree.depth(v) > tree.depth(deepest)) deepest = v;
  QuotaSnapshot::Builder b(tree.size(), 1);
  b.Add(tree.root(), 0, 1.0);
  ServingOptions opt;
  opt.block_size = 1;
  opt.trace = true;
  opt.trace_sample_shift = 0;
  ServingPlane plane(tree, std::move(b).Build(), opt);
  MetricRegistry registry;
  plane.AttachRegistry(&registry, "serve.");
  const auto totals = [&registry] {
    std::vector<std::uint64_t> t;
    for (std::size_t id = 0; id < registry.size(); ++id)
      t.push_back(registry.counter(static_cast<MetricRegistry::Id>(id)));
    return t;
  };
  const auto request = [](NodeId origin, int ttl) {
    GetRequest in;
    in.req_id = 7;
    in.origin_node = origin;
    in.ttl_hops = static_cast<std::uint16_t>(ttl);
    in.flags = kGetFlagTrace;
    return in;
  };

  // The largest honest claim: the root, the whole height already climbed.
  GetRequest fwd;
  GetReply reply;
  ASSERT_EQ(plane.ServeWireSegment(request(tree.root(), tree.height()), &fwd,
                                   &reply),
            ServingPlane::WireServe::kServed);
  ASSERT_EQ(reply.hops, tree.height());
  ASSERT_EQ(plane.metrics().hops.back(), 1u);
  const ServingMetrics metrics = plane.metrics();
  const std::vector<TraceEvent> trace = plane.trace();
  const std::vector<std::uint64_t> registered = totals();
  const GetReply last = reply;

  for (const NodeId origin : {deepest, tree.root()}) {
    // The smallest lie first, then a far one.
    for (const int ttl : {tree.height() - tree.depth(origin) + 1, 60000}) {
      EXPECT_THROW(plane.ServeWireSegment(request(origin, ttl), &fwd, &reply),
                   std::invalid_argument)
          << "origin " << origin << " ttl_hops " << ttl;
      EXPECT_TRUE(plane.metrics() == metrics);
      EXPECT_EQ(plane.trace(), trace);
      EXPECT_EQ(totals(), registered);
      EXPECT_EQ(reply, last);
    }
  }
}

// Serve()'s block budget and the wire's stateless block-size-1 grant are
// the two token policies of one walk.  Some cells here are token cells at
// block size 1 (r = 1.2), others thin at 0.6, a lone down node forces
// failovers and a three-node down chain under a two-attempt budget
// forces drops.  Every request is traced.  The wire replay must equal
// Serve() at 1 and 2 threads in metrics, registry totals and trace,
// record for record — and no token decision may deny: at block size 1
// a token cell has r >= 1, so floor(r(k+1)+u) - floor(rk+u) >= 1.
TEST(ServingPlane, WireWalkMatchesBatchWalkInBothAdmissionRegimes) {
  Rng rng(211);
  const RoutingTree tree = MakeRandomTree(200, rng);
  const int docs = 4;
  const std::vector<NodeId> path = tree.path_to_root(
      *std::max_element(tree.preorder().begin(), tree.preorder().end(),
                        [&tree](NodeId a, NodeId b) {
                          return tree.depth(a) < tree.depth(b);
                        }));
  ASSERT_GE(path.size(), 6u);
  std::vector<NodeId> down = {path[1], path[2], path[3]};
  for (NodeId v = 0; v < tree.size(); ++v)
    if (tree.depth(v) == 2 && !tree.is_ancestor(v, path[0])) {
      down.push_back(v);
      break;
    }
  ASSERT_EQ(down.size(), 4u);

  QuotaSnapshot::Builder b(tree.size(), docs);
  for (NodeId v = 0; v < tree.size(); ++v)
    for (std::int32_t d = 0; d < docs; ++d) {
      const int kind = (v + d) % 5;
      if (kind == 0) b.Add(v, d, 60.0);  // token: r = 2 · 60 / 100
      if (kind == 1 || kind == 2) b.Add(v, d, 1.0, 0.3);  // thinning
    }
  const QuotaSnapshot snap = std::move(b).Build();

  std::vector<Request> stream;
  for (int i = 0; i < 20000; ++i)
    stream.push_back(
        Request{static_cast<NodeId>(rng.NextBelow(
                    static_cast<std::uint64_t>(tree.size()))),
                static_cast<std::int32_t>(rng.NextBelow(docs))});

  ServingOptions opt;
  opt.block_size = 1;
  opt.offered_rate = 100.0;
  opt.max_failover_attempts = 2;
  opt.trace = true;
  opt.trace_sample_shift = 0;
  const auto registered = [](MetricRegistry& reg) {
    std::vector<std::uint64_t> t;
    for (const char* name :
         {"requests", "cache_served", "home_served", "hop_sum",
          "failed_attempts", "failovers", "dropped_requests",
          "backoff_slots", "trace_events"})
      t.push_back(reg.counter(reg.Counter(std::string("serve.") + name)));
    return t;
  };
  const auto expected = [](const ServingPlane& plane) {
    const ServingMetrics& m = plane.metrics();
    return std::vector<std::uint64_t>{
        m.requests,         m.cache_served,    m.home_served,
        m.hop_sum,          m.failed_attempts, m.failovers,
        m.dropped_requests, m.backoff_slots,   plane.trace().size()};
  };

  std::vector<ServingMetrics> metrics;
  std::vector<std::vector<TraceEvent>> traces;
  for (const int threads : {1, 2}) {
    opt.threads = threads;
    ServingPlane plane(tree, snap, opt);
    plane.SetDownNodes(Span<const NodeId>(down.data(), down.size()));
    MetricRegistry reg;
    plane.AttachRegistry(&reg, "serve.");
    plane.Serve(stream);
    EXPECT_EQ(registered(reg), expected(plane)) << threads << " threads";
    metrics.push_back(plane.metrics());
    traces.push_back(plane.trace());
  }

  opt.threads = 1;
  ServingPlane wire(tree, snap, opt);
  wire.SetDownNodes(Span<const NodeId>(down.data(), down.size()));
  MetricRegistry reg;
  wire.AttachRegistry(&reg, "serve.");
  for (std::size_t i = 0; i < stream.size(); ++i) {
    GetRequest in;
    in.req_id = i;
    in.doc = stream[i].doc;
    in.origin_node = stream[i].node;
    in.flags = kGetFlagTrace;
    GetRequest fwd;
    GetReply reply;
    const ServingPlane::WireServe end = wire.ServeWireSegment(in, &fwd, &reply);
    ASSERT_NE(end, ServingPlane::WireServe::kForwarded);
    ASSERT_EQ(reply.result, end == ServingPlane::WireServe::kDropped
                                ? GetResult::kDropped
                                : GetResult::kServed);
  }
  EXPECT_EQ(registered(reg), expected(wire));
  metrics.push_back(wire.metrics());
  traces.push_back(wire.trace());

  for (std::size_t t = 1; t < metrics.size(); ++t) {
    EXPECT_TRUE(metrics[t] == metrics[0]) << "run " << t;
    ASSERT_EQ(traces[t].size(), traces[0].size()) << "run " << t;
    for (std::size_t e = 0; e < traces[0].size(); ++e)
      ASSERT_EQ(traces[t][e], traces[0][e]) << "run " << t << " event " << e;
  }

  // Both admission regimes, both thinning outcomes, failover and drop all
  // happened; no token cell ever denied.
  std::size_t token_admits = 0, token_denials = 0, thin_admits = 0,
              thin_denials = 0, failovers = 0, drops = 0;
  for (const TraceEvent& e : traces[0]) {
    if (e.kind == TraceEventKind::kTokenGrant)
      ++(e.aux != 0 ? token_admits : token_denials);
    if (e.kind == TraceEventKind::kThinning)
      ++(e.aux != 0 ? thin_admits : thin_denials);
    if (e.kind == TraceEventKind::kFailover) ++failovers;
    if (e.kind == TraceEventKind::kDropped) ++drops;
  }
  EXPECT_GT(token_admits, 0u);
  EXPECT_EQ(token_denials, 0u);
  EXPECT_GT(thin_admits, 0u);
  EXPECT_GT(thin_denials, 0u);
  EXPECT_GT(failovers, 0u);
  EXPECT_GT(drops, 0u);
  EXPECT_GT(metrics[0].failovers, 0u);
  EXPECT_EQ(metrics[0].dropped_requests, drops);
  EXPECT_EQ(metrics[0].requests, stream.size());
}

// Incremental plane refresh ----------------------------------------------

// The data-plane analogue of RefreshFromBatch: installing a new snapshot
// into a live plane must leave admission tables byte-identical to a
// fresh construction, whether the in-place rewrite or the full rebuild
// ran — and two live planes refreshed through different overloads (the
// snapshot copied in, or moved in) must keep serving bit-identically.
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
  opt.offered_rate = 60.0;  // fixed scale: only moved cells change budget
  ServingPlane moved(tree, snap, opt);
  ServingPlane copied(tree, snap, opt);

  RequestGenerator gen(tree, docs, {ZipfLeafComponent(tree, docs, 2.0, 1.0)},
                       19);
  std::vector<Request> window;
  bool saw_in_place = false, saw_rebuild = false;
  for (int epoch = 0; epoch < 6; ++epoch) {
    gen.NextBatch(40000, &window);
    moved.Serve(window);
    copied.Serve(window);
    ASSERT_TRUE(moved.metrics() == copied.metrics()) << "epoch " << epoch;

    // Churn some lanes (gentle on even epochs, copy-set-moving on odd),
    // re-diffuse, re-snapshot, refresh both planes through different
    // overloads.
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
    snap.RefreshFromBatch(sim);
    sim.ClearDirtyLanes();

    const bool a = moved.Refresh(QuotaSnapshot(snap));
    const bool b = copied.Refresh(snap);
    EXPECT_EQ(a, b) << "epoch " << epoch;
    saw_in_place = saw_in_place || a;
    saw_rebuild = saw_rebuild || !a;

    const ServingPlane fresh(tree, snap, opt);
    EXPECT_TRUE(moved.TablesEqual(fresh)) << "epoch " << epoch;
    EXPECT_TRUE(copied.TablesEqual(fresh)) << "epoch " << epoch;
  }
  EXPECT_TRUE(saw_in_place) << "no epoch exercised the in-place refresh";
  EXPECT_TRUE(saw_rebuild) << "no epoch exercised the full rebuild";
}

// The two Refresh overloads — copy or move — leave tables identical to a
// freshly built plane, and the moved-from and copied-from snapshots feed
// later refreshes normally.
TEST(ServingPlane, RefreshOverloadsCopyOrMoveAndMatchAFreshPlane) {
  Rng rng(53);
  const RoutingTree tree = MakeRandomTree(150, rng);
  const int docs = 5;
  std::vector<std::vector<double>> lanes(static_cast<std::size_t>(docs));
  for (auto& lane : lanes) {
    lane.assign(static_cast<std::size_t>(tree.size()), 0.0);
    for (auto& r : lane)
      if (rng.NextBernoulli(0.6)) r = rng.NextDouble(0, 6);
  }
  BatchWebWaveSimulator sim(tree, lanes, {});
  for (int s = 0; s < 30; ++s) sim.Step();
  QuotaSnapshot snap = QuotaSnapshot::FromBatch(sim, 1e-6);
  sim.ClearDirtyLanes();

  ServingOptions opt;
  opt.offered_rate = 400.0;
  ServingPlane copied(tree, snap, opt), moved(tree, snap, opt);
  for (int epoch = 0; epoch < 6; ++epoch) {
    std::vector<DemandEvent> events;
    for (NodeId v = 0; v < tree.size(); ++v)
      if (rng.NextBernoulli(epoch % 2 == 0 ? 0.05 : 0.4))
        events.push_back({epoch % docs, v, rng.NextDouble(0, 9)});
    sim.ApplyDemandEvents(events);
    for (int s = 0; s < 6; ++s) sim.Step();
    snap.RefreshFromBatch(sim);
    sim.ClearDirtyLanes();

    copied.Refresh(snap);
    moved.Refresh(QuotaSnapshot(snap));

    const ServingPlane fresh(tree, snap, opt);
    EXPECT_TRUE(copied.TablesEqual(fresh)) << "epoch " << epoch;
    EXPECT_TRUE(moved.TablesEqual(fresh)) << "epoch " << epoch;
  }
}

TEST(ServingPlane, RefreshTracksSnapshotTotalWhenOfferedRateFloats) {
  // offered_rate 0 scales budgets to the snapshot's own total, which
  // moves with every refresh — every cell's token rate moves with it, in
  // the lanes that did not change too, and the tables still match a fresh
  // construction.
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
  plane.Refresh(snap);
  EXPECT_TRUE(plane.TablesEqual(ServingPlane(tree, snap, opt)));
}

// The down set and the wire segment live in the node records, which a
// full table rebuild rewrites.  A plane given both, then refreshed once
// through the rebuild (a cell flips from thinning to tokens) and once in
// place, must equal a fresh plane built from the same snapshot and sets:
// in its tables, in Serve() and in ServeWireSegment — metrics, traces
// and every forward and reply.
TEST(ServingPlane, DownAndSegmentFlagsSurviveEveryRefreshPath) {
  Rng rng(67);
  const RoutingTree tree = MakeRandomTree(300, rng);
  const int docs = 4;
  // Token cells earn r = 2 · rate / 100 per block of one request.
  const auto build = [&tree](double token_rate, double fraction,
                             bool flip) {
    QuotaSnapshot::Builder b(tree.size(), docs);
    for (NodeId v = 0; v < tree.size(); ++v)
      for (std::int32_t d = 0; d < docs; ++d) {
        const int kind = (v + d) % 4;
        if (kind == 0 || (kind == 1 && flip && v % 10 == 0))
          b.Add(v, d, token_rate);
        else if (kind == 1)
          b.Add(v, d, 1.0, fraction);
      }
    return std::move(b).Build();
  };
  const QuotaSnapshot initial = build(60.0, 0.3, false);
  const QuotaSnapshot flipped = build(60.0, 0.3, true);    // regime flip
  const QuotaSnapshot reweighed = build(70.0, 0.6, true);  // same regimes

  const std::vector<NodeId> path = tree.path_to_root(
      *std::max_element(tree.preorder().begin(), tree.preorder().end(),
                        [&tree](NodeId a, NodeId c) {
                          return tree.depth(a) < tree.depth(c);
                        }));
  ASSERT_GE(path.size(), 5u);
  std::vector<NodeId> down = {path[1], path[2], path[3]};
  std::vector<NodeId> owned;
  for (NodeId v = 0; v < tree.size(); ++v) {
    if (v % 17 == 5 && v != tree.root()) down.push_back(v);
    if (v % 3 != 0) owned.push_back(v);
  }
  std::vector<Request> stream;
  for (int i = 0; i < 6000; ++i)
    stream.push_back(
        Request{static_cast<NodeId>(rng.NextBelow(
                    static_cast<std::uint64_t>(tree.size()))),
                static_cast<std::int32_t>(rng.NextBelow(docs))});

  ServingOptions opt;
  opt.block_size = 1;
  opt.offered_rate = 100.0;
  opt.max_failover_attempts = 2;
  opt.trace = true;
  opt.trace_sample_shift = 0;
  const auto plane = [&](const QuotaSnapshot& snap) {
    auto p = std::make_unique<ServingPlane>(tree, snap, opt);
    p->SetDownNodes(Span<const NodeId>(down.data(), down.size()));
    p->SetSegmentNodes(Span<const NodeId>(owned.data(), owned.size()));
    return p;
  };
  struct Outcome {
    ServingMetrics batch, wire;
    std::vector<TraceEvent> batch_trace, wire_trace;
    std::vector<GetRequest> forwards;
    std::vector<GetReply> replies;
  };
  const auto serve = [&stream](ServingPlane& p) {
    Outcome o;
    p.Serve(stream);
    o.batch = p.metrics();
    o.batch_trace = p.trace();
    p.ResetMetrics();
    for (std::size_t i = 0; i < stream.size(); ++i) {
      GetRequest in;
      in.req_id = i;
      in.doc = stream[i].doc;
      in.origin_node = stream[i].node;
      in.flags = kGetFlagTrace;
      GetRequest fwd;
      GetReply reply;
      if (p.ServeWireSegment(in, &fwd, &reply) ==
          ServingPlane::WireServe::kForwarded)
        o.forwards.push_back(fwd);
      else
        o.replies.push_back(reply);
    }
    o.wire = p.metrics();
    o.wire_trace = p.trace();
    return o;
  };
  const auto expect_same = [](const Outcome& got, const Outcome& want,
                              const char* path_name) {
    EXPECT_TRUE(got.batch == want.batch) << path_name;
    EXPECT_TRUE(got.wire == want.wire) << path_name;
    EXPECT_EQ(got.batch_trace, want.batch_trace) << path_name;
    EXPECT_EQ(got.wire_trace, want.wire_trace) << path_name;
    EXPECT_EQ(got.forwards, want.forwards) << path_name;
    EXPECT_EQ(got.replies, want.replies) << path_name;
  };

  const auto rebuilt = plane(initial);
  EXPECT_FALSE(rebuilt->Refresh(flipped)) << "the flip must rebuild";
  const auto in_place = plane(initial);
  in_place->Refresh(flipped);
  EXPECT_TRUE(in_place->Refresh(reweighed)) << "a reweigh stays in place";

  const auto fresh_flipped = plane(flipped);
  const auto fresh_reweighed = plane(reweighed);
  EXPECT_TRUE(rebuilt->TablesEqual(*fresh_flipped));
  EXPECT_TRUE(in_place->TablesEqual(*fresh_reweighed));
  const Outcome want_flipped = serve(*fresh_flipped);
  expect_same(serve(*rebuilt), want_flipped, "rebuild");
  expect_same(serve(*in_place), serve(*fresh_reweighed), "in place");

  // The flags were in force: the batch walk failed over and dropped at
  // the down nodes, and the wire walk left the segment.
  EXPECT_GT(want_flipped.batch.failovers, 0u);
  EXPECT_GT(want_flipped.batch.dropped_requests, 0u);
  EXPECT_GT(want_flipped.forwards.size(), stream.size() / 4);
  EXPECT_FALSE(rebuilt->TablesEqual(*plane(initial)));
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
    const QuotaSnapshot clamped_before = capacity.clamped();
    const EpochDriver::Report report = driver.ApplyEpoch(
        Span<DemandEvent>(demand.data(), demand.size()),
        Span<const FaultEvent>(events.data(), events.size()));
    EXPECT_LT(report.dirty.size(), static_cast<std::size_t>(docs));
    // A dirty lane moved a clean document's clamped cells, and no crash
    // or recovery re-homes it anyway: the fault layer must still see it.
    const std::vector<std::int32_t> moved =
        spill_reference::MovedDocs(clamped_before, capacity.clamped());
    const auto clean = [&](std::int32_t d) {
      return std::find(report.dirty.begin(), report.dirty.end(), d) ==
             report.dirty.end();
    };
    saw_coupling = saw_coupling ||
                   (events.empty() &&
                    std::any_of(moved.begin(), moved.end(), clean));

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

// With a plane attached and no projector, ApplyEpoch refreshes the plane
// from the maintained snapshot itself (the tab_serving loop).  At every
// churn epoch the plane's tables equal a fresh plane built over FromBatch,
// over epochs that keep the snapshot's shape and epochs that move it, at
// lane blocks 1/8 and 1/2 threads, and every configuration serves the
// same stream identically.
TEST(EpochDriver, AttachedPlaneWithoutProjectorsMatchesAFreshPlane) {
  Rng rng(79);
  const RoutingTree tree = MakeRandomTree(200, rng);
  const int docs = 7;
  ChurnScheduleOptions copt;
  copt.pattern = ChurnPattern::kRotatingHotSpot;
  copt.doc_count = docs;
  copt.hot_fraction = 0.2;
  copt.rotation_epochs = 4;
  NodeId leaf = 0;
  while (!tree.is_leaf(leaf)) ++leaf;

  std::vector<ServingMetrics> served;  // per config
  for (const int threads : {1, 2})
    for (const int block : {1, 8}) {
      SCOPED_TRACE(::testing::Message()
                   << threads << " threads, lane_block " << block);
      ChurnSchedule churn(tree, copt);
      WebWaveOptions wopt;
      wopt.threads = threads;
      wopt.lane_block = block;
      BatchWebWaveSimulator sim(tree, churn.Lanes(), wopt);
      // Every lane at its fixed point, so a nudged epoch moves one lane.
      for (int s = 0; s < 5000 && (s == 0 || sim.dirty_lane_count() > 0);
           ++s) {
        sim.ClearDirtyLanes();
        sim.Step();
      }
      // Epochs long enough to get back to the fixed point.
      EpochDriver::Options dopt;
      dopt.steps_per_epoch = 1000;
      dopt.min_rate = 0.05;
      EpochDriver driver(sim, dopt);
      ServingOptions sopt;
      sopt.threads = threads;
      sopt.offered_rate = 100.0;
      sopt.block_size = 64;  // token and thinning cells side by side
      ServingPlane plane(tree, driver.serving(), sopt);
      driver.AttachPlane(&plane);
      RequestGenerator gen(tree, docs,
                           {ZipfLeafComponent(tree, docs, 2.0, 1.0)}, 29);
      std::vector<Request> window;

      bool saw_same_shape = false, saw_new_shape = false;
      for (int epoch = 0; epoch < 8; ++epoch) {
        const QuotaSnapshot before = driver.serving();
        // Even epochs advance the hot spot; odd ones nudge one leaf's
        // rate a little.
        std::vector<DemandEvent> demand =
            epoch % 2 == 0
                ? churn.NextEvents()
                : std::vector<DemandEvent>{{0, leaf, 1.0 + 1e-3 * epoch}};
        const EpochDriver::Report report = driver.ApplyEpoch(
            Span<DemandEvent>(demand.data(), demand.size()),
            Span<const FaultEvent>());
        EXPECT_FALSE(report.dirty.empty()) << "epoch " << epoch;
        const QuotaSnapshot fresh_snapshot =
            QuotaSnapshot::FromBatch(sim, dopt.min_rate);
        spill_reference::ExpectBitIdentical(driver.serving(), fresh_snapshot,
                                            "maintained snapshot");
        EXPECT_TRUE(plane.TablesEqual(ServingPlane(tree, fresh_snapshot, sopt)))
            << "epoch " << epoch;
        bool same_shape = before.cell_count() == fresh_snapshot.cell_count();
        for (NodeId v = 0; same_shape && v < tree.size(); ++v)
          same_shape = before.row_end(v) == fresh_snapshot.row_end(v);
        for (std::int64_t c = 0; same_shape && c < before.cell_count(); ++c)
          same_shape = before.cell_docs()[c] == fresh_snapshot.cell_docs()[c];
        saw_same_shape = saw_same_shape || same_shape;
        saw_new_shape = saw_new_shape || !same_shape;

        gen.NextBatch(20000, &window);
        plane.Serve(window);
      }
      EXPECT_TRUE(saw_same_shape) << "no epoch kept the plane's shape";
      EXPECT_TRUE(saw_new_shape) << "no epoch rebuilt the plane";
      served.push_back(plane.metrics());
    }
  for (std::size_t i = 1; i < served.size(); ++i)
    EXPECT_TRUE(served[i] == served[0]) << "configuration " << i;
}

// EpochDriver's whole chain against the per-document oracle
// (tests/spill_reference.h) at every epoch and at every thread count and
// lane block: the maintained snapshot equals FromBatch bitwise (total
// included), the capacity clamp equals the oracle over it with the
// store's residency, the re-homed snapshot equals the oracle over that
// with the live set, and the attached plane equals a fresh one.  Every
// configuration serves the same bits.
TEST(EpochDriver, ChainMatchesThePerDocumentOracleAcrossThreadsAndLaneBlocks) {
  Rng rng(73);
  const RoutingTree tree = MakeRandomTree(160, rng);
  // Ragged against lane_block 4 and 8; lane_block 16 clamps to one
  // 9-wide block, a full SIMD chunk plus a scalar tail lane.
  const int docs = 9;
  ChurnScheduleOptions copt;
  copt.pattern = ChurnPattern::kRotatingHotSpot;
  copt.doc_count = docs;
  copt.hot_fraction = 0.2;
  copt.rotation_epochs = 4;
  FaultScheduleOptions fopt;
  fopt.pattern = FaultPattern::kSubtreeOutage;
  fopt.max_subtree_fraction = 0.2;
  fopt.outage_epochs = 2;
  fopt.seed = 9;
  const DocumentSizes sizes = DocumentSizes::LogNormal(docs, 4096, 1.0, 13);

  std::vector<std::vector<QuotaSnapshot>> served;  // per config, per epoch
  for (const int threads : {1, 2, 8})
    for (const int block : {1, 4, 8, 16}) {
      SCOPED_TRACE(::testing::Message()
                   << threads << " threads, lane_block " << block);
      ChurnSchedule churn(tree, copt);
      WebWaveOptions wopt;
      wopt.threads = threads;
      wopt.lane_block = block;
      BatchWebWaveSimulator sim(tree, churn.Lanes(), wopt);
      for (int s = 0; s < 20; ++s) sim.Step();
      FaultSchedule faults(tree, fopt);
      CapacityProjector capacity(
          tree, CacheStore::WorkingSetStore(tree, sizes, 0.35));
      FaultProjector rehome(tree);
      EpochDriver::Options dopt;
      dopt.steps_per_epoch = 6;
      dopt.min_rate = 1e-3;
      EpochDriver driver(sim, dopt);
      driver.AttachCapacity(&capacity);
      driver.AttachFaults(&rehome);
      ServingOptions sopt;
      sopt.threads = threads;
      sopt.offered_rate = 100.0;
      ServingPlane plane(tree, driver.serving(), sopt);
      driver.InstallDown(plane);
      driver.AttachPlane(&plane);

      served.emplace_back();
      bool saw_down = false;
      for (int epoch = 0; epoch < 6; ++epoch) {
        std::vector<DemandEvent> demand = churn.NextEvents();
        const std::vector<FaultEvent> events = faults.NextEvents();
        driver.ApplyEpoch(Span<DemandEvent>(demand.data(), demand.size()),
                          Span<const FaultEvent>(events.data(), events.size()));
        spill_reference::ExpectBitIdentical(
            driver.snapshot(), QuotaSnapshot::FromBatch(sim, dopt.min_rate),
            "maintained snapshot");
        const spill_reference::Projection clamp = spill_reference::Project(
            tree, driver.snapshot(), [&](NodeId v, std::int32_t d) {
              return capacity.store().Resident(v, d);
            });
        spill_reference::ExpectMatches(capacity, clamp, "clamp");
        const spill_reference::Projection rehomed = spill_reference::Project(
            tree, clamp.clamped,
            [&](NodeId v, std::int32_t) { return !rehome.IsDown(v); });
        spill_reference::ExpectMatches(rehome, rehomed, "re-home");
        ServingPlane fresh(tree, rehomed.clamped, sopt);
        fresh.SetDownNodes(
            Span<const NodeId>(faults.down().data(), faults.down().size()));
        EXPECT_TRUE(plane.TablesEqual(fresh)) << "epoch " << epoch;
        served.back().push_back(driver.serving());
        saw_down = saw_down || !faults.down().empty();
      }
      EXPECT_TRUE(saw_down) << "no epoch had a crashed node";
      EXPECT_GT(capacity.evicted_cells(), 0);
    }
  for (std::size_t i = 1; i < served.size(); ++i)
    for (std::size_t e = 0; e < served[i].size(); ++e)
      spill_reference::ExpectBitIdentical(served[i][e], served[0][e],
                                          "thread/lane_block sweep");
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

// Drain's events, element for element, are those of a dense node-major
// scan over every (node, document) cell against the rates emitted last
// time — over random windows with repeated hits, cells that vanish and
// reappear, empty windows, varying window lengths, and grids whose cell
// count is and is not a multiple of 64.
TEST(ArrivalFold, DrainMatchesADenseNodeMajorScan) {
  struct Shape {
    int nodes, docs;
  };
  for (const Shape shape : {Shape{37, 5}, Shape{20, 16}, Shape{3, 3}}) {
    Rng rng(static_cast<std::uint64_t>(shape.nodes * 100 + shape.docs));
    ArrivalFold fold(shape.nodes, shape.docs);
    const std::size_t cells =
        static_cast<std::size_t>(shape.nodes * shape.docs);
    std::vector<double> applied(cells, 0.0);
    for (int window = 0; window < 16; ++window) {
      // Each window hits a random subset of cells (none in window 5), some
      // of them several times.
      const double density = window == 5 ? 0.0 : rng.NextDouble(0.05, 0.6);
      std::vector<Request> requests;
      std::vector<std::uint32_t> counts(cells, 0);
      for (NodeId v = 0; v < shape.nodes; ++v)
        for (DocId d = 0; d < shape.docs; ++d) {
          if (!rng.NextBernoulli(density)) continue;
          const int hits = 1 + static_cast<int>(rng.NextBelow(4));
          for (int h = 0; h < hits; ++h) requests.push_back({v, d});
          counts[static_cast<std::size_t>(v * shape.docs + d)] +=
              static_cast<std::uint32_t>(hits);
        }
      rng.Shuffle(requests);
      const std::size_t half = requests.size() / 2;
      fold.Count(Span<Request>(requests.data(), half));
      fold.Count(
          Span<Request>(requests.data() + half, requests.size() - half));
      const double seconds = window % 3 == 0 ? 0.5 : rng.NextDouble(0.1, 4.0);
      std::vector<DemandEvent> want;
      for (std::size_t cell = 0; cell < cells; ++cell) {
        const double rate = static_cast<double>(counts[cell]) / seconds;
        if (rate == applied[cell]) continue;
        want.push_back({static_cast<std::int32_t>(cell) % shape.docs,
                        static_cast<NodeId>(cell) / shape.docs, rate});
        applied[cell] = rate;
      }
      const std::vector<DemandEvent> got = fold.Drain(seconds);
      ASSERT_EQ(got.size(), want.size()) << "window " << window;
      for (std::size_t k = 0; k < got.size(); ++k) {
        const std::string at =
            "window " + std::to_string(window) + " event " + std::to_string(k);
        ASSERT_EQ(got[k].node, want[k].node) << at;
        ASSERT_EQ(got[k].doc, want[k].doc) << at;
        ASSERT_EQ(got[k].rate, want[k].rate) << at;
      }
    }
  }
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
