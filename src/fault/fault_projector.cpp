#include "fault/fault_projector.h"

#include <algorithm>

#include "util/check.h"

namespace webwave {

FaultProjector::FaultProjector(const RoutingTree& tree)
    : SpillProjector(tree),
      down_mask_(static_cast<std::size_t>(tree.size()), 0) {}

void FaultProjector::SetDown(Span<const NodeId> down) {
  std::vector<NodeId> next(down.begin(), down.end());
  std::sort(next.begin(), next.end());
  next.erase(std::unique(next.begin(), next.end()), next.end());
  for (const NodeId v : next) {
    WEBWAVE_REQUIRE(v >= 0 && v < tree_.size(), "down node out of range");
    WEBWAVE_REQUIRE(!tree_.is_root(v), "the home never crashes");
  }
  for (const NodeId v : down_) down_mask_[static_cast<std::size_t>(v)] = 0;
  for (const NodeId v : next) down_mask_[static_cast<std::size_t>(v)] = 1;
  down_ = std::move(next);
}

bool FaultProjector::IsDown(NodeId v) const {
  WEBWAVE_REQUIRE(v >= 0 && v < tree_.size(), "node out of range");
  return down_mask_[static_cast<std::size_t>(v)] != 0;
}

void FaultProjector::KeepRow(const QuotaSnapshot& base, NodeId v,
                             std::uint8_t* keep) const {
  std::fill(keep, keep + (base.row_end(v) - base.row_begin(v)),
            down_mask_[static_cast<std::size_t>(v)] == 0 ? 1 : 0);
}

bool FaultProjector::KeepsAll(const QuotaSnapshot& /*base*/) const {
  return down_.empty();
}

void FaultProjector::Project(const QuotaSnapshot& base) { ProjectAll(base); }

void FaultProjector::ApplyEvents(Span<const FaultEvent> events) {
  if (events.empty()) return;
  for (const FaultEvent& e : events) {
    const NodeId v = e.node;
    WEBWAVE_REQUIRE(v >= 0 && v < tree_.size(), "event node out of range");
    WEBWAVE_REQUIRE(!tree_.is_root(v), "the home never crashes");
    std::uint8_t& mask = down_mask_[static_cast<std::size_t>(v)];
    if (e.kind == FaultKind::kCrash) {
      WEBWAVE_REQUIRE(mask == 0, "crash of an already-down node");
      mask = 1;
    } else {
      WEBWAVE_REQUIRE(mask == 1, "recovery of a live node");
      mask = 0;
    }
  }
  // Only the batch's nodes changed status: recovered nodes leave the down
  // set and crashed ones join it — no sweep of the tree.
  const auto is_down = [this](NodeId v) {
    return down_mask_[static_cast<std::size_t>(v)] != 0;
  };
  down_.erase(std::remove_if(down_.begin(), down_.end(),
                             [&](NodeId v) { return !is_down(v); }),
              down_.end());
  for (const FaultEvent& e : events)
    if (is_down(e.node)) down_.push_back(e.node);
  std::sort(down_.begin(), down_.end());
  down_.erase(std::unique(down_.begin(), down_.end()), down_.end());
}

bool FaultProjector::Refresh(const QuotaSnapshot& base) {
  return ProjectAll(base);
}

}  // namespace webwave
