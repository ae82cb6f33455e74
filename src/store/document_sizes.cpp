#include "store/document_sizes.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "util/rng.h"

namespace webwave {

DocumentSizes::DocumentSizes(std::vector<std::uint64_t> bytes)
    : bytes_(std::move(bytes)) {
  WEBWAVE_REQUIRE(!bytes_.empty(), "a size model needs documents");
  for (const std::uint64_t b : bytes_) {
    WEBWAVE_REQUIRE(b >= 1, "documents must occupy at least one byte");
    total_ += b;
  }
}

DocumentSizes DocumentSizes::Uniform(int doc_count,
                                     std::uint64_t bytes_per_doc) {
  WEBWAVE_REQUIRE(doc_count >= 1, "a size model needs documents");
  return DocumentSizes(std::vector<std::uint64_t>(
      static_cast<std::size_t>(doc_count), bytes_per_doc));
}

DocumentSizes DocumentSizes::LogNormal(int doc_count, double median_bytes,
                                       double sigma, std::uint64_t seed) {
  WEBWAVE_REQUIRE(doc_count >= 1, "a size model needs documents");
  WEBWAVE_REQUIRE(median_bytes >= 1 && sigma >= 0,
                  "lognormal sizes need a positive median and sigma >= 0");
  std::vector<std::uint64_t> bytes(static_cast<std::size_t>(doc_count));
  for (int d = 0; d < doc_count; ++d)
    bytes[static_cast<std::size_t>(d)] =
        CounterLogNormalBytes(seed, d, median_bytes, sigma);
  return DocumentSizes(std::move(bytes));
}

DocumentSizes DocumentSizes::FromCatalog(const Catalog& catalog) {
  WEBWAVE_REQUIRE(catalog.size() >= 1, "a size model needs documents");
  std::vector<std::uint64_t> bytes(static_cast<std::size_t>(catalog.size()));
  for (int d = 0; d < catalog.size(); ++d)
    bytes[static_cast<std::size_t>(d)] = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               std::llround(catalog.doc(d).size_kb * 1024.0)));
  return DocumentSizes(std::move(bytes));
}

DocumentSizes DocumentSizes::FromBytes(std::vector<std::uint64_t> bytes) {
  return DocumentSizes(std::move(bytes));
}

std::uint64_t DocumentSizes::max_bytes() const {
  return *std::max_element(bytes_.begin(), bytes_.end());
}

}  // namespace webwave
