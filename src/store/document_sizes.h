// Deterministic per-document byte sizes — the storage dimension of the
// capacity model.
//
// The control plane diffuses *rates*; what a finite server runs out of is
// *bytes*.  DocumentSizes fixes a byte size per catalog document so the
// cache store (cache_store.h) can account residency against per-node
// budgets.  Web document sizes are famously heavy-tailed, so the main
// model is lognormal (median × exp(sigma·z)); a Zipf-ranked model and a
// uniform one cover the synthetic sweeps and the degenerate case.
//
// Every model is a deterministic function of its seed, materialized once
// at construction, so the size field is identical across replays, thread
// counts and lane_block widths — the property the eviction determinism
// guarantees downstream rest on.  Uniform and LogNormal are furthermore
// counter-based (doc d's size is a pure function of (seed, d), shared
// with Catalog::MakeLogNormal through util/rng's CounterLogNormalBytes);
// ZipfRanked draws its rank permutation from a seeded Rng stream — still
// replayable, but its draws are order-dependent like any stream.
#pragma once

#include <cstdint>
#include <vector>

#include "doc/catalog.h"
#include "util/check.h"

namespace webwave {

class DocumentSizes {
 public:
  // Every document exactly `bytes_per_doc` bytes.
  static DocumentSizes Uniform(int doc_count, std::uint64_t bytes_per_doc);

  // Document d is round(median_bytes · exp(sigma · z_d)) bytes, z_d a
  // standard normal drawn as a pure function of (seed, d) (Box–Muller
  // over the counter hash).  sigma ≈ 1–1.5 reproduces the heavy tail of
  // measured web catalogs; sigma 0 collapses to Uniform(median).
  static DocumentSizes LogNormal(int doc_count, double median_bytes,
                                 double sigma, std::uint64_t seed);

  // Document d is max_bytes / (rank_d + 1)^exponent bytes, the ranks a
  // deterministic permutation of 0..doc_count-1 seeded by `seed` — a
  // Zipf-shaped size field decorrelated from document id (and hence from
  // Zipf *popularity*, which the demand generators key on id).
  static DocumentSizes ZipfRanked(int doc_count, double max_bytes,
                                  double exponent, std::uint64_t seed);

  // The catalog's own per-document size_kb fields, in bytes.
  static DocumentSizes FromCatalog(const Catalog& catalog);

  // Explicit per-document bytes (tests, measured traces).
  static DocumentSizes FromBytes(std::vector<std::uint64_t> bytes);

  int doc_count() const { return static_cast<int>(bytes_.size()); }
  // Inline: the admission policy asks once per cell of every re-ranked
  // row.
  std::uint64_t bytes(DocId d) const {
    WEBWAVE_REQUIRE(d >= 0 && d < doc_count(), "document out of range");
    return bytes_[static_cast<std::size_t>(d)];
  }
  // Sum over the catalog: the working set one full copy of everything
  // occupies — the natural unit for per-node budgets (cache_store.h).
  std::uint64_t total_bytes() const { return total_; }
  std::uint64_t max_bytes() const;

 private:
  explicit DocumentSizes(std::vector<std::uint64_t> bytes);

  std::vector<std::uint64_t> bytes_;
  std::uint64_t total_ = 0;
};

}  // namespace webwave
