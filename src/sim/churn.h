// Tracking under erratic request rates.
//
// §5.1 closes with: "the dynamics of WebWave under erratic request rates
// is the subject of an ongoing simulation study."  This module is that
// study: a ChurnSchedule generates sparse DemandEvent batches (rotating
// hot spot, flash crowd, Zipf popularity re-shuffle) and RunBatchChurn
// applies them through BatchWebWaveSimulator::ApplyDemandEvents to every
// affected document lane at once — catalog-scale churn on the batch
// engine, the regime DistCache-style load-balance claims actually care
// about.
#pragma once

#include <cstdint>
#include <vector>

#include "core/webwave_batch.h"
#include "doc/catalog.h"
#include "tree/routing_tree.h"
#include "util/rng.h"
#include "util/span.h"

namespace webwave {

// Catalog-scale churn schedules -------------------------------------------

enum class ChurnPattern {
  // A contiguous window of hot_fraction of the leaves requests every
  // document at hot_rate (the rest at base_rate, Zipf(1)-split across the
  // catalog); the window slides one rotation_epochs-th of the leaf ring
  // per epoch (the RotatingHotSpot law, doc/catalog.h).  The events
  // are generated sparsely — only leaves entering or leaving the window —
  // so a million-node epoch costs O(changed leaves · documents), not
  // O(nodes · documents).
  kRotatingHotSpot,
  // Epochs alternate calm/crowd: a crowd adds hot_rate demand for one
  // random document across one random subtree (the FlashCrowdDemand
  // shape), the following epoch restores the baseline.
  kFlashCrowd,
  // Every leaf splits base_rate across the catalog by Zipf(1) popularity;
  // each epoch permutes the documents' popularity ranks — the whole
  // catalog's demand profile shifts at once.
  kZipfReshuffle,
};

const char* PatternName(ChurnPattern pattern);

struct ChurnScheduleOptions {
  ChurnPattern pattern = ChurnPattern::kRotatingHotSpot;
  int doc_count = 1;
  double base_rate = 1.0;
  double hot_rate = 50.0;
  double hot_fraction = 0.1;  // rotating hot spot: share of leaves hot
  int rotation_epochs = 8;    // rotating hot spot: epochs per revolution
  std::uint64_t seed = 1;
};

// A deterministic generator of demand-event batches: Lanes() gives the
// per-document spontaneous rates at the current epoch (the batch
// simulator's construction input), NextEvents() advances one epoch and
// returns the sparse difference as absolute-rate DemandEvents.  The total
// offered rate of the rotating-hot-spot pattern is invariant across
// epochs (the window only moves), which the property tests assert.
class ChurnSchedule {
 public:
  ChurnSchedule(const RoutingTree& tree, ChurnScheduleOptions options);

  int doc_count() const { return options_.doc_count; }
  int epoch() const { return epoch_; }

  // Current per-document rate lanes: lanes()[d][v] is document d's
  // spontaneous rate at node v.  O(doc_count · nodes) to materialize.
  std::vector<std::vector<double>> Lanes() const;

  // Advances to the next epoch and returns the events that transform the
  // previous epoch's demand into the new one (later events win, but a
  // batch never writes one cell twice).
  std::vector<DemandEvent> NextEvents();

 private:
  double RotatingLeafRate(int epoch, std::size_t leaf_index, int doc) const;

  const RoutingTree& tree_;
  ChurnScheduleOptions options_;
  // The leaf ring and Zipf(1) document weights every pattern draws on,
  // and the rotating pattern's window.
  RotatingHotSpot hot_spot_;
  Rng rng_;
  int epoch_ = 0;

  // kFlashCrowd: dense baseline rates [doc][node] and the active crowd.
  std::vector<std::vector<double>> baseline_;
  int crowd_doc_ = -1;
  NodeId crowd_epicenter_ = kNoNode;

  // kZipfReshuffle: rank permutation (doc d has popularity weight
  // doc_weights()[perm_[d]]).
  std::vector<int> perm_;
};

// Catalog-scale churn on the batch engine ---------------------------------

struct BatchChurnOptions {
  int epochs = 8;
  int period = 30;     // diffusion steps between event batches
  // Lanes tracked against their own moving TLB optimum (clamped to the
  // catalog size).  Tracking costs one WebFold per tracked lane per epoch;
  // 0 disables it for throughput-only runs.
  int tlb_lanes = 4;
  WebWaveOptions protocol;
};

struct BatchChurnEpoch {
  std::size_t events = 0;  // demand events applied entering this epoch
  // Relative distances (distance / lane's offered rate) to the tracked
  // lanes' instantaneous TLB optima, averaged over the tracked lanes.
  double distance_after_shock = 0;
  double distance_at_end = 0;
  double mean_relative_distance = 0;  // averaged over the epoch's steps
  double max_node_load_end = 0;       // across-document node load at the end
};

struct BatchChurnRun {
  std::vector<BatchChurnEpoch> epochs;
  double mean_relative_distance = 0;
  double worst_end_relative_distance = 0;
};

// Runs the schedule's demand process on a BatchWebWaveSimulator: epoch 0
// starts from the schedule's initial lanes; every later epoch applies
// NextEvents() through ApplyDemandEvents, then steps `period` diffusion
// periods.  The schedule is consumed (advanced epochs times).
BatchChurnRun RunBatchChurn(const RoutingTree& tree, ChurnSchedule& schedule,
                            const BatchChurnOptions& options);

}  // namespace webwave
