// Deterministic topology-fault schedules: crash/recover events.
//
// ROADMAP item 4 names topology events — caches that join, serve, and
// vanish — as the scenario family demand churn cannot express.
// FaultSchedule generalizes ChurnSchedule (sim/churn.h) from demand
// events to *topology* events: per epoch it emits the crash/recover
// transitions of a node-outage process.  Three outage shapes:
//
//   * kSingleNodes   — every non-root node is independently down.
//   * kLeafCohort    — a random cohort of non-root leaves is down (the
//                      WebCloud-style ephemeral edge tier: client caches
//                      that joined, served, and vanished).
//   * kSubtreeOutage — one whole subtree is down (a regional outage: the
//                      router above a neighborhood died).
//
// Determinism is counter-based, exactly like the demand side: whether
// node v is down at epoch e is a pure function of (seed, v, e) — no
// stateful RNG stream anywhere — so any consumer can replay, diff, or
// query the schedule from any position, and runs are bit-identical at
// every thread count and lane_block width by construction.  Outages
// persist for outage_epochs epochs (the draw is per *window*
// w = (e - start_epoch) / outage_epochs), the home (root) is never down
// — it is the authoritative origin; a dead home is an unpublished
// catalog, not a degraded one — and epochs before start_epoch are
// fault-free so every run has a clean baseline to degrade from.
//
// NextEvents() advances one epoch and returns the sparse transition
// batch (crashes and recoveries in ascending node order), the shape
// FaultProjector::Refresh consumes; DownAt/DownSet expose the underlying
// pure predicate for from-scratch checks.
#pragma once

#include <cstdint>
#include <vector>

#include "tree/routing_tree.h"

namespace webwave {

enum class FaultPattern {
  kSingleNodes,
  kLeafCohort,
  kSubtreeOutage,
};

const char* FaultPatternName(FaultPattern pattern);

enum class FaultKind { kCrash, kRecover };

struct FaultEvent {
  FaultKind kind;
  NodeId node;
};

struct FaultScheduleOptions {
  FaultPattern pattern = FaultPattern::kLeafCohort;
  // kSingleNodes / kLeafCohort: share of candidate nodes down per window.
  double crash_fraction = 0.05;
  // Epochs an outage persists; the down set is redrawn every window.
  int outage_epochs = 2;
  // Epochs before this are fault-free (the degradation baseline).
  int start_epoch = 1;
  // kSubtreeOutage: the dead subtree holds at most this share of the
  // tree's nodes (whole-tree "outages" are unpublished catalogs, not
  // fault tolerance scenarios).
  double max_subtree_fraction = 0.05;
  std::uint64_t seed = 1;
};

class FaultSchedule {
 public:
  FaultSchedule(const RoutingTree& tree, FaultScheduleOptions options);

  int epoch() const { return epoch_; }
  const FaultScheduleOptions& options() const { return options_; }

  // Pure predicate: is node v down at `epoch`?  The root never is.
  bool DownAt(int epoch, NodeId v) const;

  // All nodes down at `epoch`, ascending — a from-scratch evaluation of
  // the predicate (the tests diff it against the event stream).
  std::vector<NodeId> DownSet(int epoch) const;

  // The down set at the current epoch (maintained incrementally by
  // NextEvents), ascending.
  const std::vector<NodeId>& down() const { return down_; }

  // Advances one epoch and returns the transitions from the previous
  // epoch's down set to the new one, ascending by node (a crash for
  // every newly down node, a recovery for every newly live one).  Most
  // epochs inside a window return no events.
  std::vector<FaultEvent> NextEvents();

 private:
  // Window index of `epoch`, or -1 in the fault-free prefix.
  int WindowOf(int epoch) const;
  // kSubtreeOutage: the subtree root down in `window`.
  NodeId OutageRootAt(int window) const;

  const RoutingTree& tree_;
  FaultScheduleOptions options_;
  int epoch_ = 0;
  std::vector<NodeId> candidates_;  // pattern-dependent, ascending
  std::vector<NodeId> down_;        // current epoch's down set
};

}  // namespace webwave
