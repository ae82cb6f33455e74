#include "store/cache_store.h"

#include <algorithm>

#include "util/check.h"

namespace webwave {

void QuotaWeightedEviction::KeepSet(const QuotaSnapshot& snapshot, NodeId v,
                                    const DocumentSizes& sizes,
                                    std::uint64_t budget,
                                    std::vector<DocId>* kept,
                                    std::uint64_t* bytes_used) {
  kept->clear();
  const std::int64_t begin = snapshot.row_begin(v);
  const std::int64_t end = snapshot.row_end(v);
  const double* rates = snapshot.cell_rates();
  const std::int32_t* docs = snapshot.cell_docs();
  // A row that fits whole is what the greedy pass below admits anyway —
  // every cell fits on its turn — and it is already doc-ascending.
  std::uint64_t row_bytes = 0;
  for (std::int64_t c = begin; c < end; ++c) row_bytes += sizes.bytes(docs[c]);
  if (*bytes_used + row_bytes <= budget) {
    kept->assign(docs + begin, docs + end);
    *bytes_used += row_bytes;
    return;
  }
  order_.clear();
  for (std::int64_t c = begin; c < end; ++c) order_.push_back(c);
  // Decreasing rate/byte; the tie-break on the cell index is a tie-break
  // on the doc id (rows are doc-ascending), so the order — and with it
  // the keep set — is fully deterministic.
  std::sort(order_.begin(), order_.end(),
            [&](std::int64_t a, std::int64_t b) {
              const double da =
                  rates[a] / static_cast<double>(sizes.bytes(docs[a]));
              const double db =
                  rates[b] / static_cast<double>(sizes.bytes(docs[b]));
              if (da != db) return da > db;
              return a < b;
            });
  for (const std::int64_t c : order_) {
    const std::uint64_t size = sizes.bytes(docs[c]);
    if (*bytes_used + size <= budget) {
      *bytes_used += size;
      kept->push_back(docs[c]);
    }
  }
  std::sort(kept->begin(), kept->end());
}

CacheStore::CacheStore(const RoutingTree& tree, DocumentSizes sizes,
                       std::vector<std::uint64_t> budgets)
    : sizes_(std::move(sizes)),
      budgets_(std::move(budgets)),
      home_(tree.root()) {
  WEBWAVE_REQUIRE(
      budgets_.size() == static_cast<std::size_t>(tree.size()),
      "one byte budget per tree node");
  used_.assign(budgets_.size(), 0);
  kept_.resize(budgets_.size());
}

CacheStore CacheStore::WorkingSetStore(const RoutingTree& tree,
                                       DocumentSizes sizes, double multiple) {
  WEBWAVE_REQUIRE(multiple >= 0, "budget multiple must be non-negative");
  const std::uint64_t budget = static_cast<std::uint64_t>(
      multiple * static_cast<double>(sizes.total_bytes()));
  return CacheStore(
      tree, std::move(sizes),
      std::vector<std::uint64_t>(static_cast<std::size_t>(tree.size()),
                                 budget));
}

std::uint64_t CacheStore::budget(NodeId v) const {
  WEBWAVE_REQUIRE(v >= 0 && v < node_count(), "node out of range");
  return budgets_[static_cast<std::size_t>(v)];
}

std::uint64_t CacheStore::bytes_used(NodeId v) const {
  WEBWAVE_REQUIRE(v >= 0 && v < node_count(), "node out of range");
  return used_[static_cast<std::size_t>(v)];
}

bool CacheStore::Resident(NodeId v, DocId d) const {
  if (v == home_) return true;
  WEBWAVE_REQUIRE(v >= 0 && v < node_count(), "node out of range");
  const std::vector<DocId>& kept = kept_[static_cast<std::size_t>(v)];
  return std::binary_search(kept.begin(), kept.end(), d);
}

const std::vector<DocId>& CacheStore::ResidentDocs(NodeId v) const {
  WEBWAVE_REQUIRE(v >= 0 && v < node_count(), "node out of range");
  return kept_[static_cast<std::size_t>(v)];
}

void CacheStore::AdmitRow(const QuotaSnapshot& snapshot, NodeId v) {
  const std::size_t vv = static_cast<std::size_t>(v);
  resident_cells_ -= static_cast<std::int64_t>(kept_[vv].size());
  used_[vv] = 0;
  if (v == home_) {
    // The home keeps its whole row: it is the origin, not a cache.
    kept_[vv].clear();
    const std::int32_t* docs = snapshot.cell_docs();
    for (std::int64_t c = snapshot.row_begin(v); c < snapshot.row_end(v); ++c)
      kept_[vv].push_back(docs[c]);
  } else {
    policy_.KeepSet(snapshot, v, sizes_, budgets_[vv], &kept_[vv],
                    &used_[vv]);
  }
  resident_cells_ += static_cast<std::int64_t>(kept_[vv].size());
}

void CacheStore::Admit(const QuotaSnapshot& snapshot) {
  WEBWAVE_REQUIRE(snapshot.node_count() == node_count(),
                  "snapshot does not match the store");
  for (NodeId v = 0; v < node_count(); ++v) AdmitRow(snapshot, v);
}

void CacheStore::Readmit(const QuotaSnapshot& snapshot,
                         Span<const NodeId> nodes) {
  WEBWAVE_REQUIRE(snapshot.node_count() == node_count(),
                  "snapshot does not match the store");
  for (const NodeId v : nodes) {
    WEBWAVE_REQUIRE(v >= 0 && v < node_count(), "node out of range");
    AdmitRow(snapshot, v);
  }
}

}  // namespace webwave
