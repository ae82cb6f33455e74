// Fixed-width rows of doubles, recycled through a free list.
//
// The bottom-up flow sweeps (DerivePlacement, QuotaSnapshot's
// FromPlacement) need node v's forwarded flow only until v's parent has
// summed it.  Walking a DFS postorder, the rows alive at any moment are
// the finished children of the current root path — tens of rows on a
// random tree, every leaf only on a star — so the sweeps hold O(path · D)
// doubles instead of a full n × D array.  A star degrades to the full
// array, never beyond it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace webwave {

class RowPool {
 public:
  explicit RowPool(std::size_t width) : width_(width) {}

  // A free row, contents unspecified.  Growing the pool moves every row,
  // so take row() pointers only after the last Acquire they must survive.
  std::int32_t Acquire() {
    if (!free_.empty()) {
      const std::int32_t r = free_.back();
      free_.pop_back();
      return r;
    }
    rows_.resize(rows_.size() + width_);
    return static_cast<std::int32_t>(rows_.size() / width_ - 1);
  }
  void Release(std::int32_t r) { free_.push_back(r); }
  double* row(std::int32_t r) {
    return rows_.data() + static_cast<std::size_t>(r) * width_;
  }

 private:
  std::size_t width_;
  std::vector<double> rows_;
  std::vector<std::int32_t> free_;
};

}  // namespace webwave
