#include "fault/fault_schedule.h"

#include <algorithm>

#include "util/check.h"
#include "util/rng.h"

namespace webwave {
namespace {

// Distinct odd salts keep the per-(window, node) outage draws and the
// per-window subtree pick in disjoint counter ranges of the one
// SplitMix64 finalizer.
constexpr std::uint64_t kWindowSalt = 0x9e3779b97f4a7c15ULL;
constexpr std::uint64_t kNodeSalt = 0xd1342543de82ef95ULL;
constexpr std::uint64_t kSubtreeSalt = 0x2545f4914f6cdd1dULL;

double OutageDraw(std::uint64_t seed, int window, NodeId v) {
  return CounterUnitDouble(seed +
                           kWindowSalt * (static_cast<std::uint64_t>(window) + 1) +
                           kNodeSalt * (static_cast<std::uint64_t>(v) + 1));
}

std::uint64_t WindowHash(std::uint64_t seed, int window, std::uint64_t salt) {
  std::uint64_t state =
      seed + salt + kWindowSalt * (static_cast<std::uint64_t>(window) + 1);
  return SplitMix64(state);
}

}  // namespace

const char* FaultPatternName(FaultPattern pattern) {
  switch (pattern) {
    case FaultPattern::kSingleNodes:
      return "single_nodes";
    case FaultPattern::kLeafCohort:
      return "leaf_cohort";
    case FaultPattern::kSubtreeOutage:
      return "subtree_outage";
  }
  return "unknown";
}

FaultSchedule::FaultSchedule(const RoutingTree& tree,
                             FaultScheduleOptions options)
    : tree_(tree), options_(options) {
  WEBWAVE_REQUIRE(options_.crash_fraction >= 0 && options_.crash_fraction <= 1,
                  "crash_fraction must be in [0, 1]");
  WEBWAVE_REQUIRE(options_.outage_epochs >= 1, "outage_epochs must be >= 1");
  WEBWAVE_REQUIRE(options_.start_epoch >= 0, "start_epoch must be >= 0");
  WEBWAVE_REQUIRE(tree.size() >= 2, "a one-node tree has nothing to crash");

  switch (options_.pattern) {
    case FaultPattern::kSingleNodes:
      for (NodeId v = 0; v < tree.size(); ++v)
        if (!tree.is_root(v)) candidates_.push_back(v);
      break;
    case FaultPattern::kLeafCohort:
      for (NodeId v = 0; v < tree.size(); ++v)
        if (!tree.is_root(v) && tree.is_leaf(v)) candidates_.push_back(v);
      break;
    case FaultPattern::kSubtreeOutage: {
      // Subtrees holding at most max_subtree_fraction of the tree, never
      // the root's own.  Prefer real subtrees (>= 2 nodes) when the cap
      // admits any, so small trees still exercise multi-node outages.
      const int cap = std::max(
          1, static_cast<int>(options_.max_subtree_fraction * tree.size()));
      for (NodeId v = 0; v < tree.size(); ++v)
        if (!tree.is_root(v) && tree.subtree_size(v) <= cap)
          candidates_.push_back(v);
      std::vector<NodeId> multi;
      for (const NodeId v : candidates_)
        if (tree.subtree_size(v) >= 2) multi.push_back(v);
      if (!multi.empty()) candidates_ = std::move(multi);
      break;
    }
  }
  WEBWAVE_REQUIRE(!candidates_.empty(),
                  "fault pattern has no candidate nodes on this tree");
  down_ = DownSet(epoch_);
}

int FaultSchedule::WindowOf(int epoch) const {
  if (epoch < options_.start_epoch) return -1;
  return (epoch - options_.start_epoch) / options_.outage_epochs;
}

NodeId FaultSchedule::OutageRootAt(int window) const {
  const std::uint64_t h = WindowHash(options_.seed, window, kSubtreeSalt);
  return candidates_[static_cast<std::size_t>(h % candidates_.size())];
}

bool FaultSchedule::DownAt(int epoch, NodeId v) const {
  WEBWAVE_REQUIRE(v >= 0 && v < tree_.size(), "node out of range");
  if (tree_.is_root(v)) return false;  // the home is the authoritative origin
  const int window = WindowOf(epoch);
  if (window < 0) return false;
  switch (options_.pattern) {
    case FaultPattern::kSingleNodes:
      return OutageDraw(options_.seed, window, v) < options_.crash_fraction;
    case FaultPattern::kLeafCohort:
      return tree_.is_leaf(v) &&
             OutageDraw(options_.seed, window, v) < options_.crash_fraction;
    case FaultPattern::kSubtreeOutage:
      return tree_.is_ancestor(OutageRootAt(window), v);
  }
  return false;
}

std::vector<NodeId> FaultSchedule::DownSet(int epoch) const {
  std::vector<NodeId> down;
  if (WindowOf(epoch) < 0) return down;
  for (NodeId v = 0; v < tree_.size(); ++v)
    if (DownAt(epoch, v)) down.push_back(v);
  return down;
}

std::vector<FaultEvent> FaultSchedule::NextEvents() {
  ++epoch_;
  std::vector<NodeId> now = DownSet(epoch_);
  std::vector<FaultEvent> events;
  // Ascending merge of the previous and new down sets (both ascending):
  // a node only in `now` crashed, one only in `down_` recovered.
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < down_.size() || j < now.size()) {
    if (j == now.size() || (i < down_.size() && down_[i] < now[j])) {
      events.push_back({FaultKind::kRecover, down_[i++]});
    } else if (i == down_.size() || now[j] < down_[i]) {
      events.push_back({FaultKind::kCrash, now[j++]});
    } else {
      ++i;
      ++j;
    }
  }
  down_ = std::move(now);
  return events;
}

}  // namespace webwave
