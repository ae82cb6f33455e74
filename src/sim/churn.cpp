#include "sim/churn.h"

#include <algorithm>
#include <utility>

#include "core/load_model.h"
#include "core/webfold.h"
#include "util/check.h"

namespace webwave {

// ChurnSchedule ------------------------------------------------------------

const char* PatternName(ChurnPattern pattern) {
  switch (pattern) {
    case ChurnPattern::kRotatingHotSpot: return "rotating hot spot";
    case ChurnPattern::kFlashCrowd: return "flash crowd";
    case ChurnPattern::kZipfReshuffle: return "zipf reshuffle";
  }
  return "?";
}

ChurnSchedule::ChurnSchedule(const RoutingTree& tree,
                             ChurnScheduleOptions options)
    : tree_(tree),
      options_(options),
      hot_spot_(tree, options.doc_count, options.hot_fraction,
                options.rotation_epochs),
      rng_(options.seed) {
  WEBWAVE_REQUIRE(options_.doc_count >= 1, "need at least one document");
  WEBWAVE_REQUIRE(options_.base_rate >= 0 && options_.hot_rate >= 0,
                  "rates must be non-negative");
  const std::vector<double>& weights = hot_spot_.doc_weights();
  switch (options_.pattern) {
    case ChurnPattern::kRotatingHotSpot:
      break;  // pure function of the epoch: no state beyond the counter
    case ChurnPattern::kFlashCrowd: {
      // Dense baseline, the FlashCrowdDemand shape: every node requests
      // every document at a jittered Zipf(1) split of base_rate.
      baseline_.resize(static_cast<std::size_t>(options_.doc_count));
      for (auto& lane : baseline_)
        lane.assign(static_cast<std::size_t>(tree_.size()), 0.0);
      for (NodeId v = 0; v < tree_.size(); ++v)
        for (int d = 0; d < options_.doc_count; ++d)
          baseline_[static_cast<std::size_t>(d)][static_cast<std::size_t>(v)] =
              options_.base_rate * weights[static_cast<std::size_t>(d)] *
              rng_.NextDouble(0.5, 1.5);
      break;
    }
    case ChurnPattern::kZipfReshuffle: {
      perm_.resize(static_cast<std::size_t>(options_.doc_count));
      for (int d = 0; d < options_.doc_count; ++d)
        perm_[static_cast<std::size_t>(d)] = d;
      break;
    }
  }
}

double ChurnSchedule::RotatingLeafRate(int epoch, std::size_t leaf_index,
                                       int doc) const {
  const double rate =
      hot_spot_.Hot(epoch, leaf_index) ? options_.hot_rate : options_.base_rate;
  return rate * hot_spot_.doc_weights()[static_cast<std::size_t>(doc)];
}

std::vector<std::vector<double>> ChurnSchedule::Lanes() const {
  const std::vector<NodeId>& leaves = hot_spot_.leaves();
  const std::vector<double>& weights = hot_spot_.doc_weights();
  std::vector<std::vector<double>> lanes(
      static_cast<std::size_t>(options_.doc_count));
  for (auto& lane : lanes)
    lane.assign(static_cast<std::size_t>(tree_.size()), 0.0);
  switch (options_.pattern) {
    case ChurnPattern::kRotatingHotSpot:
      for (std::size_t i = 0; i < leaves.size(); ++i)
        for (int d = 0; d < options_.doc_count; ++d)
          lanes[static_cast<std::size_t>(d)]
               [static_cast<std::size_t>(leaves[i])] =
                   RotatingLeafRate(epoch_, i, d);
      break;
    case ChurnPattern::kFlashCrowd:
      lanes = baseline_;
      if (crowd_doc_ >= 0)
        for (const NodeId v : tree_.subtree(crowd_epicenter_))
          lanes[static_cast<std::size_t>(crowd_doc_)]
               [static_cast<std::size_t>(v)] += options_.hot_rate;
      break;
    case ChurnPattern::kZipfReshuffle:
      for (const NodeId leaf : leaves)
        for (int d = 0; d < options_.doc_count; ++d)
          lanes[static_cast<std::size_t>(d)][static_cast<std::size_t>(leaf)] =
              options_.base_rate *
              weights[static_cast<std::size_t>(
                  perm_[static_cast<std::size_t>(d)])];
      break;
  }
  return lanes;
}

std::vector<DemandEvent> ChurnSchedule::NextEvents() {
  const std::vector<NodeId>& leaves = hot_spot_.leaves();
  const std::vector<double>& weights = hot_spot_.doc_weights();
  std::vector<DemandEvent> events;
  switch (options_.pattern) {
    case ChurnPattern::kRotatingHotSpot: {
      // Sparse diff: only leaves whose hot-status flips between epochs.
      for (std::size_t i = 0; i < leaves.size(); ++i) {
        if (hot_spot_.Hot(epoch_, i) == hot_spot_.Hot(epoch_ + 1, i)) continue;
        for (int d = 0; d < options_.doc_count; ++d)
          events.push_back(
              {d, leaves[i], RotatingLeafRate(epoch_ + 1, i, d)});
      }
      break;
    }
    case ChurnPattern::kFlashCrowd: {
      if (crowd_doc_ < 0) {
        // Calm -> crowd: one document, one subtree.
        crowd_doc_ = static_cast<int>(
            rng_.NextBelow(static_cast<std::uint64_t>(options_.doc_count)));
        crowd_epicenter_ = static_cast<NodeId>(
            rng_.NextBelow(static_cast<std::uint64_t>(tree_.size())));
        for (const NodeId v : tree_.subtree(crowd_epicenter_))
          events.push_back(
              {crowd_doc_, v,
               baseline_[static_cast<std::size_t>(crowd_doc_)]
                        [static_cast<std::size_t>(v)] +
                   options_.hot_rate});
      } else {
        // Crowd -> calm: restore the baseline.
        for (const NodeId v : tree_.subtree(crowd_epicenter_))
          events.push_back(
              {crowd_doc_, v,
               baseline_[static_cast<std::size_t>(crowd_doc_)]
                        [static_cast<std::size_t>(v)]});
        crowd_doc_ = -1;
        crowd_epicenter_ = kNoNode;
      }
      break;
    }
    case ChurnPattern::kZipfReshuffle: {
      const std::vector<int> before = perm_;
      rng_.Shuffle(perm_);
      for (int d = 0; d < options_.doc_count; ++d) {
        const double w_before =
            weights[static_cast<std::size_t>(
                before[static_cast<std::size_t>(d)])];
        const double w_after =
            weights[static_cast<std::size_t>(
                perm_[static_cast<std::size_t>(d)])];
        if (w_before == w_after) continue;
        for (const NodeId leaf : leaves)
          events.push_back({d, leaf, options_.base_rate * w_after});
      }
      break;
    }
  }
  ++epoch_;
  return events;
}

// RunBatchChurn ------------------------------------------------------------

BatchChurnRun RunBatchChurn(const RoutingTree& tree, ChurnSchedule& schedule,
                            const BatchChurnOptions& options) {
  WEBWAVE_REQUIRE(options.epochs >= 1, "need at least one epoch");
  WEBWAVE_REQUIRE(options.period >= 1, "period must be positive");
  WEBWAVE_REQUIRE(options.tlb_lanes >= 0, "tlb_lanes must be >= 0");

  std::vector<std::vector<double>> lanes = schedule.Lanes();
  const int docs = schedule.doc_count();
  const int tracked = std::min(options.tlb_lanes, docs);

  // The tracked lanes' current rate vectors, maintained alongside the
  // simulator so each epoch's TLB targets can be folded.
  std::vector<std::vector<double>> rates(lanes.begin(),
                                         lanes.begin() + tracked);
  BatchWebWaveSimulator batch(tree, std::move(lanes), options.protocol);

  BatchChurnRun run;
  double accum = 0;
  long samples = 0;
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    BatchChurnEpoch e;
    if (epoch > 0) {
      const std::vector<DemandEvent> events = schedule.NextEvents();
      batch.ApplyDemandEvents(events);
      e.events = events.size();
      for (const DemandEvent& ev : events)
        if (ev.doc < tracked)
          rates[static_cast<std::size_t>(ev.doc)]
               [static_cast<std::size_t>(ev.node)] = ev.rate;
    }

    std::vector<std::vector<double>> targets(
        static_cast<std::size_t>(tracked));
    std::vector<double> totals(static_cast<std::size_t>(tracked), 0.0);
    for (int d = 0; d < tracked; ++d) {
      targets[static_cast<std::size_t>(d)] =
          WebFold(tree, rates[static_cast<std::size_t>(d)]).load;
      totals[static_cast<std::size_t>(d)] =
          TotalRate(rates[static_cast<std::size_t>(d)]);
    }
    const auto relative_distance = [&]() -> double {
      if (tracked == 0) return 0;
      double sum = 0;
      for (int d = 0; d < tracked; ++d) {
        const double total = totals[static_cast<std::size_t>(d)];
        if (total <= 0) continue;
        sum += batch.DistanceTo(d, targets[static_cast<std::size_t>(d)]) /
               total;
      }
      return sum / tracked;
    };

    e.distance_after_shock = relative_distance();
    for (int s = 0; s < options.period; ++s) {
      batch.Step();
      const double r = relative_distance();
      e.mean_relative_distance += r;
      accum += r;
      ++samples;
    }
    e.mean_relative_distance /= options.period;
    e.distance_at_end = relative_distance();
    e.max_node_load_end = batch.MaxNodeLoad();
    run.worst_end_relative_distance =
        std::max(run.worst_end_relative_distance, e.distance_at_end);
    run.epochs.push_back(e);
  }
  run.mean_relative_distance = samples > 0 ? accum / samples : 0;
  return run;
}

}  // namespace webwave
