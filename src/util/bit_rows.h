// A row-major bit matrix: one bit per (row, column), ⌈cols/64⌉ words per
// row, rows laid out back to back.
//
// Both residency questions of the pipeline have this shape — "does node
// v hold a copy of document d?" for the serving plane's cell lookup and
// for the cache store's admission state — and both are asked far more
// often than the answer changes, so a bit test beats searching a sorted
// row.  Rows are exposed as word pointers for callers that rank bits
// themselves.  Indices are not range-checked; callers own that.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace webwave {

class BitRows {
 public:
  // Clears the matrix to rows × cols zero bits.
  void Reset(int rows, int cols) {
    words_per_row_ = (static_cast<std::size_t>(cols) + 63) / 64;
    words_.assign(static_cast<std::size_t>(rows) * words_per_row_, 0);
  }

  const std::uint64_t* row(int r) const {
    return words_.data() + static_cast<std::size_t>(r) * words_per_row_;
  }

  bool Test(int r, int c) const {
    return (row(r)[static_cast<std::size_t>(c) >> 6] >> (c & 63)) & 1u;
  }
  // Rewrites row r to hold exactly the columns in [first, last).
  template <typename It>
  void AssignRow(int r, It first, It last) {
    const std::size_t n = words_per_row_;
    std::uint64_t* w = words_.data() + static_cast<std::size_t>(r) * n;
    for (std::size_t i = 0; i < n; ++i) w[i] = 0;
    for (; first != last; ++first)
      w[static_cast<std::size_t>(*first) >> 6] |= std::uint64_t{1}
                                                  << (*first & 63);
  }

  bool operator==(const BitRows& other) const {
    return words_per_row_ == other.words_per_row_ && words_ == other.words_;
  }

 private:
  std::vector<std::uint64_t> words_;
  std::size_t words_per_row_ = 0;
};

}  // namespace webwave
