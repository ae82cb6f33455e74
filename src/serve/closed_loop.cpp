#include "serve/closed_loop.h"

#include "util/check.h"

namespace webwave {

ArrivalFold::ArrivalFold(int node_count, int doc_count)
    : nodes_(node_count), docs_(doc_count) {
  WEBWAVE_REQUIRE(node_count >= 1 && doc_count >= 1,
                  "fold needs nodes and documents");
  counts_.assign(
      static_cast<std::size_t>(node_count) * static_cast<std::size_t>(doc_count),
      0);
  applied_.assign(counts_.size(), 0.0);
  live_.assign((counts_.size() + 63) / 64, 0);
}

void ArrivalFold::Count(Span<Request> batch) {
  const std::size_t dd = static_cast<std::size_t>(docs_);
  for (const Request& r : batch) {
    WEBWAVE_REQUIRE(r.node >= 0 && r.node < nodes_,
                    "request origin out of range");
    WEBWAVE_REQUIRE(r.doc >= 0 && r.doc < docs_,
                    "request document out of range");
    const std::size_t cell = static_cast<std::size_t>(r.node) * dd +
                             static_cast<std::size_t>(r.doc);
    ++counts_[cell];
    live_[cell / 64] |= std::uint64_t{1} << (cell % 64);
  }
  counted_ += batch.size();
}

std::vector<DemandEvent> ArrivalFold::Drain(double window_seconds) {
  WEBWAVE_REQUIRE(window_seconds > 0, "window must be positive");
  const std::size_t dd = static_cast<std::size_t>(docs_);
  // Only live cells can produce an event: any other cell has count 0 and
  // applied 0, so its rate equals what was applied.  Words and bits are
  // walked in ascending cell order — node-major, document-minor.
  std::vector<DemandEvent> events;
  for (std::size_t word = 0; word < live_.size(); ++word) {
    std::uint64_t bits = live_[word];
    while (bits != 0) {
      const std::size_t cell =
          word * 64 + static_cast<std::size_t>(__builtin_ctzll(bits));
      bits &= bits - 1;
      const double rate = static_cast<double>(counts_[cell]) / window_seconds;
      if (rate != applied_[cell]) {
        events.push_back({static_cast<std::int32_t>(cell % dd),
                          static_cast<NodeId>(cell / dd), rate});
        applied_[cell] = rate;
      }
      if (applied_[cell] == 0)
        live_[word] &= ~(std::uint64_t{1} << (cell % 64));
      counts_[cell] = 0;
    }
  }
  counted_ = 0;
  return events;
}

}  // namespace webwave
