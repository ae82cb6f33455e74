#include "obs/latency_histogram.h"

#include <limits>

#include "util/check.h"

namespace webwave {

namespace {

// Position of the highest set bit (value > 0).
inline int HighBit(std::uint64_t v) {
  int h = 0;
  while (v >>= 1) ++h;
  return h;
}

}  // namespace

int LatencyHistogram::BucketOf(std::uint64_t value) {
  if (value < static_cast<std::uint64_t>(kSubBuckets)) {
    return static_cast<int>(value);
  }
  const int h = HighBit(value);  // h >= kSubBucketBits
  const int octave = h - kSubBucketBits + 1;
  const int sub = static_cast<int>((value >> (h - kSubBucketBits)) &
                                   (kSubBuckets - 1));
  return octave * kSubBuckets + sub;
}

std::uint64_t LatencyHistogram::BucketLo(int b) {
  WEBWAVE_REQUIRE(b >= 0 && b < kBucketCount, "histogram bucket out of range");
  if (b < kSubBuckets) return static_cast<std::uint64_t>(b);
  const int octave = b / kSubBuckets;  // >= 1
  const int sub = b % kSubBuckets;
  return static_cast<std::uint64_t>(kSubBuckets + sub) << (octave - 1);
}

std::uint64_t LatencyHistogram::BucketHi(int b) {
  if (b + 1 >= kBucketCount) return std::numeric_limits<std::uint64_t>::max();
  return BucketLo(b + 1);
}

LatencyHistogram::LatencyHistogram()
    : counts_(static_cast<std::size_t>(kBucketCount), 0) {}

void LatencyHistogram::Record(std::uint64_t value) {
  counts_[static_cast<std::size_t>(BucketOf(value))] += 1;
  sum_ += value;
  count_ += 1;
}

void LatencyHistogram::Shard::Record(std::uint64_t value) {
  counts[static_cast<std::size_t>(BucketOf(value))] += 1;
  sum += value;
}

LatencyHistogram::Shard LatencyHistogram::MakeShard() const {
  Shard s;
  s.counts.assign(static_cast<std::size_t>(kBucketCount), 0);
  return s;
}

void LatencyHistogram::Fold(Shard* shard) {
  WEBWAVE_REQUIRE(shard->counts.size() == counts_.size(),
                  "histogram shard size mismatch");
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    counts_[b] += shard->counts[b];
    count_ += shard->counts[b];
    shard->counts[b] = 0;
  }
  sum_ += shard->sum;
  shard->sum = 0;
}

void LatencyHistogram::FoldAll(std::vector<Shard>* shards) {
  for (Shard& s : *shards) Fold(&s);
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    counts_[b] += other.counts_[b];
  }
  sum_ += other.sum_;
  count_ += other.count_;
}

LatencyHistogram LatencyHistogram::MergeOf(
    const std::vector<LatencyHistogram>& parts) {
  LatencyHistogram merged;
  for (const LatencyHistogram& h : parts) merged.Merge(h);
  return merged;
}

std::uint64_t LatencyHistogram::ValueAtQuantile(double q) const {
  if (count_ == 0) return 0;
  if (q < 0) q = 0;
  if (q > 1) q = 1;
  // Rank is ceil(q * count), clamped to [1, count]; integer arithmetic on
  // the cumulative counts from there on.
  std::uint64_t rank =
      static_cast<std::uint64_t>(q * static_cast<double>(count_));
  if (rank < 1) rank = 1;
  if (rank > count_) rank = count_;
  std::uint64_t cum = 0;
  for (int b = 0; b < kBucketCount; ++b) {
    cum += counts_[static_cast<std::size_t>(b)];
    if (cum >= rank) return BucketLo(b);
  }
  return BucketLo(kBucketCount - 1);
}

std::uint64_t LatencyHistogram::MaxValueBound() const {
  for (int b = kBucketCount - 1; b >= 0; --b) {
    if (counts_[static_cast<std::size_t>(b)] != 0) return BucketHi(b);
  }
  return 0;
}

std::vector<LatencyHistogram::SparseEntry> LatencyHistogram::ToSparse() const {
  std::vector<SparseEntry> out;
  for (int b = 0; b < kBucketCount; ++b) {
    const std::uint64_t c = counts_[static_cast<std::size_t>(b)];
    if (c != 0) out.push_back(SparseEntry{static_cast<std::uint32_t>(b), c});
  }
  return out;
}

LatencyHistogram LatencyHistogram::FromSparse(
    const std::vector<SparseEntry>& entries, std::uint64_t sum) {
  LatencyHistogram h;
  std::int64_t prev = -1;
  for (const SparseEntry& e : entries) {
    WEBWAVE_REQUIRE(static_cast<std::int64_t>(e.index) > prev,
                    "histogram sparse entries must ascend strictly");
    WEBWAVE_REQUIRE(e.index < static_cast<std::uint32_t>(kBucketCount),
                    "histogram sparse index out of range");
    WEBWAVE_REQUIRE(e.count != 0, "histogram sparse entry with zero count");
    prev = static_cast<std::int64_t>(e.index);
    h.counts_[e.index] = e.count;
    h.count_ += e.count;
  }
  h.sum_ = sum;
  return h;
}

HistogramRegistry::Id HistogramRegistry::Register(const std::string& name) {
  auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  const Id id = static_cast<Id>(hists_.size());
  ids_.emplace(name, id);
  names_.push_back(name);
  hists_.emplace_back();
  return id;
}

}  // namespace webwave
