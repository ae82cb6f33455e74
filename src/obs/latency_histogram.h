// The timing half of the observability plane: a mergeable log-linear
// (HDR-style) histogram of u64 values (nanoseconds by convention).
//
// Bucket law.  Values below kSubBuckets (16) land in unit-width buckets
// (index == value).  Above that, each power-of-two octave [2^h, 2^(h+1))
// is split into kSubBuckets equal-width sub-buckets, so relative error is
// bounded by 1/kSubBuckets everywhere.  With h in [4, 63] that is
// 16 + 60*16 = 976 buckets total, fixed at compile time — two histograms
// always share the same bucket boundaries, which is what makes Merge a
// plain per-bucket integer add and the serialized form exact.
//
// Concurrency follows MetricRegistry's shard/fold discipline verbatim:
// each worker records into its own Shard (no atomics, no locks), the
// owner folds shards back in shard-index order, and the fold zeroes the
// shard so folding twice is a no-op.  All state is u64 counts plus a u64
// sum of recorded values, so fold totals are bit-identical at any thread
// count.  Recording never reads a clock — callers measure durations
// through an injectable MonotonicClock (or a FakeClock in tests) and
// hand the histogram a plain integer.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace webwave {

class LatencyHistogram {
 public:
  static constexpr int kSubBucketBits = 4;
  static constexpr int kSubBuckets = 1 << kSubBucketBits;  // 16
  // Linear region [0, 16) plus 60 octaves (h = 4..63) of 16 sub-buckets.
  static constexpr int kBucketCount = kSubBuckets + (64 - kSubBucketBits) * kSubBuckets;  // 976

  // Bucket index for a value; total over all u64 values, never clamps.
  static int BucketOf(std::uint64_t value);
  // Inclusive lower bound of bucket b.
  static std::uint64_t BucketLo(int b);
  // Exclusive upper bound of bucket b (saturates to UINT64_MAX for the
  // last bucket).
  static std::uint64_t BucketHi(int b);

  LatencyHistogram();

  // Single-owner recording (the fast path for single-threaded producers).
  void Record(std::uint64_t value);

  // -- Shard/fold protocol, mirroring MetricRegistry ---------------------
  struct Shard {
    std::vector<std::uint64_t> counts;  // size kBucketCount
    std::uint64_t sum = 0;
    void Record(std::uint64_t value);
  };
  Shard MakeShard() const;
  // Adds the shard's counts and sum into this histogram and zeroes the
  // shard, so a double fold is a no-op.
  void Fold(Shard* shard);
  // Folds every shard in index order.  Addition is commutative over u64,
  // so totals are bit-identical at any shard count.
  void FoldAll(std::vector<Shard>* shards);

  // Per-bucket integer add of `other` into this histogram.
  void Merge(const LatencyHistogram& other);
  // The merge of every histogram in `parts`.
  static LatencyHistogram MergeOf(const std::vector<LatencyHistogram>& parts);

  // -- Reads -------------------------------------------------------------
  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }
  std::uint64_t bucket(int b) const { return counts_[static_cast<std::size_t>(b)]; }
  bool operator==(const LatencyHistogram& o) const {
    return counts_ == o.counts_ && sum_ == o.sum_ && count_ == o.count_;
  }
  bool operator!=(const LatencyHistogram& o) const { return !(*this == o); }

  // Lower bound of the bucket holding quantile q (0 <= q <= 1) by
  // cumulative count; 0 on an empty histogram.  q = 1 returns the lower
  // bound of the highest non-empty bucket (the recorded max, rounded down
  // to its bucket).
  std::uint64_t ValueAtQuantile(double q) const;
  std::uint64_t MaxValueBound() const;  // exclusive hi of highest non-empty bucket

  // -- Exact serialization ----------------------------------------------
  // Sparse form: (bucket index, count) pairs in strictly ascending index
  // order, plus the sum.  Round-trips bit-exactly; this is also the wire
  // v4 kStatsReply histogram section's payload.
  struct SparseEntry {
    std::uint32_t index;
    std::uint64_t count;
    bool operator==(const SparseEntry& o) const {
      return index == o.index && count == o.count;
    }
  };
  std::vector<SparseEntry> ToSparse() const;
  // Rebuild from a sparse form.  Indices must be strictly ascending and
  // < kBucketCount; counts must be non-zero.  Throws via WEBWAVE_REQUIRE
  // on violation.
  static LatencyHistogram FromSparse(const std::vector<SparseEntry>& entries,
                                     std::uint64_t sum);

 private:
  std::vector<std::uint64_t> counts_;  // dense, size kBucketCount
  std::uint64_t sum_ = 0;
  std::uint64_t count_ = 0;
};

// Named histogram registry, the timing-side sibling of MetricRegistry:
// producers register histograms by stable name and record through the
// returned id; consumers walk the set for wire shipping or Prometheus
// exposition.  Registration is idempotent.
class HistogramRegistry {
 public:
  using Id = std::uint32_t;

  Id Register(const std::string& name);
  std::size_t size() const { return hists_.size(); }
  LatencyHistogram& At(Id id) { return hists_[id]; }
  const LatencyHistogram& At(Id id) const { return hists_[id]; }
  const std::string& NameOf(Id id) const { return names_[id]; }

 private:
  std::unordered_map<std::string, Id> ids_;
  std::vector<std::string> names_;
  std::vector<LatencyHistogram> hists_;
};

}  // namespace webwave
