#include "fault/fault_projector.h"

#include <algorithm>

#include "util/check.h"

namespace webwave {

FaultProjector::FaultProjector(const RoutingTree& tree)
    : SpillProjector(tree),
      down_mask_(static_cast<std::size_t>(tree.size()), 0) {}

void FaultProjector::SetDown(Span<const NodeId> down) {
  std::fill(down_mask_.begin(), down_mask_.end(), 0);
  down_.assign(down.begin(), down.end());
  std::sort(down_.begin(), down_.end());
  down_.erase(std::unique(down_.begin(), down_.end()), down_.end());
  for (const NodeId v : down_) {
    WEBWAVE_REQUIRE(v >= 0 && v < tree_.size(), "down node out of range");
    WEBWAVE_REQUIRE(!tree_.is_root(v), "the home never crashes");
    down_mask_[static_cast<std::size_t>(v)] = 1;
  }
}

bool FaultProjector::IsDown(NodeId v) const {
  WEBWAVE_REQUIRE(v >= 0 && v < tree_.size(), "node out of range");
  return down_mask_[static_cast<std::size_t>(v)] != 0;
}

bool FaultProjector::Keeps(NodeId v, std::int32_t /*d*/) const {
  return tree_.is_root(v) || down_mask_[static_cast<std::size_t>(v)] == 0;
}

bool FaultProjector::KeepsAll(const QuotaSnapshot& /*base*/) const {
  return down_.empty();
}

void FaultProjector::Project(const QuotaSnapshot& base) {
  pending_transitions_.clear();
  ProjectAll(base);
}

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
    pending_transitions_.push_back(v);
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

bool FaultProjector::Refresh(const QuotaSnapshot& base,
                             Span<const int> dirty_lanes) {
  WEBWAVE_REQUIRE(projected(), "Refresh needs a prior Project");
  WEBWAVE_REQUIRE(base.node_count() == tree_.size() &&
                      base.doc_count() == clamped().doc_count(),
                  "snapshot does not match the projection");

  // The documents whose clamped cells can differ: the dirty lanes (their
  // base cells moved) plus every document in a transitioned node's base
  // row (its copies just vanished or came back, re-routing their spill).
  affected_.InsertAll(dirty_lanes);
  const std::int32_t* docs = base.cell_docs();
  for (const NodeId v : pending_transitions_)
    for (std::int64_t c = base.row_begin(v); c < base.row_end(v); ++c)
      affected_.Insert(docs[c]);
  pending_transitions_.clear();
  return Reproject(base);
}

bool FaultProjector::Refresh(const QuotaSnapshot& base,
                             Span<const FaultEvent> events,
                             Span<const int> dirty_lanes) {
  ApplyEvents(events);
  return Refresh(base, dirty_lanes);
}

}  // namespace webwave
