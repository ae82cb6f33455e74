// A deduplicating set of small non-negative ids, held as a mark array.
//
// The incremental projection chain keeps building "the union of these id
// lists, ascending, each once" — the nodes holding a dirty lane's cells,
// the documents a layer must re-project.  Concatenating the lists and
// running sort + unique costs O(m log m) in the concatenated length m,
// which dwarfs the handful of distinct ids it ends up with.  MarkSet
// does the same job in O(m) inserts plus one sweep of the id range:
// Insert is a byte write that dedupes for free, and Drain hands the
// members out ascending and leaves the set empty for the next round, so
// one instance serves every epoch without reallocation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace webwave {

class MarkSet {
 public:
  // Empties the set and makes ids [0, universe) insertable.
  void Reset(int universe) {
    mark_.assign(static_cast<std::size_t>(universe), 0);
    count_ = 0;
  }

  // Inserts `id` (must lie in [0, universe)); a repeat is a no-op.
  void Insert(std::int32_t id) {
    std::uint8_t& m = mark_[static_cast<std::size_t>(id)];
    count_ += m ^ 1u;
    m = 1;
  }
  template <typename Range>
  void InsertAll(const Range& ids) {
    for (const std::int32_t id : ids) Insert(id);
  }

  // Replaces *out with the members in ascending order and empties the
  // set.  The sweep stops at the largest member.
  void Drain(std::vector<std::int32_t>* out) {
    out->clear();
    for (std::size_t i = 0; out->size() < count_; ++i)
      if (mark_[i] != 0) {
        mark_[i] = 0;
        out->push_back(static_cast<std::int32_t>(i));
      }
    count_ = 0;
  }

 private:
  std::vector<std::uint8_t> mark_;
  std::size_t count_ = 0;
};

}  // namespace webwave
