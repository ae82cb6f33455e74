// Per-node document bitmaps: bit d of a row of ceil(D/64) words says
// whether the node holds document d, and the rank of that bit (the set
// bits below it) is d's index within the node's doc-ascending row.  The
// serving plane finds cells this way on the request path (its FindCell
// inlines the same rank), and the spill projector on its ancestor climb.
#pragma once

#include <cstddef>
#include <cstdint>

namespace webwave {

// Set bits of x, branch-free (SWAR).  The default x86-64 target has no
// popcnt instruction, so __builtin_popcountll would be a libgcc call on
// the serve path; this is a dozen inline integer ops.
inline std::int64_t PopCount64(std::uint64_t x) {
  x -= (x >> 1) & 0x5555555555555555ULL;
  x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
  x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
  return static_cast<std::int64_t>((x * 0x0101010101010101ULL) >> 56);
}

// The word of `row` that holds bit d, and d's mask within it.
inline std::size_t BitWord(std::int32_t d) {
  return static_cast<std::size_t>(d) >> 6;
}
inline std::uint64_t BitMask(std::int32_t d) {
  return std::uint64_t{1} << (d & 63);
}

// The set bits of `row` below bit d.
inline std::int64_t RankBelow(const std::uint64_t* row, std::int32_t d) {
  const std::size_t w = BitWord(d);
  std::int64_t rank = PopCount64(row[w] & (BitMask(d) - 1));
  for (std::size_t i = 0; i < w; ++i) rank += PopCount64(row[i]);
  return rank;
}

}  // namespace webwave
