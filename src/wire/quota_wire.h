// QuotaWireTable — the serialized form of a QuotaSnapshot, so a cache
// server process can be handed its admission state as a byte blob.
//
// Layout (all fields little-endian, same primitives as wire/codec.h):
//
//   offset  size          field
//   0       4             magic 'WWQT' (0x54515757)
//   4       4             version (u32, currently 1)
//   8       4             node count (i32)
//   12      4             doc count (i32)
//   16      8             cell count (i64)
//   24      8             total rate (f64, exact bit pattern)
//   32      (nodes+1)*8   CSR row offsets (i64 each)
//   ...     cells*4       cell document ids (i32 each)
//   ...     cells*8       cell quota rates (f64 each)
//   ...     cells*8       cell serve fractions (f64 each)
//
// Deserialize(Serialize(s)) is *byte-exact*: every rate, fraction and the
// running total_rate() come back with identical bit patterns (doubles
// travel as their IEEE-754 u64 bits), which is what lets a daemon build
// the same ServingPlane — and therefore make the same admission
// decisions — as the in-process oracle that produced the table.
#pragma once

#include <cstdint>
#include <vector>

#include "serve/quota_snapshot.h"
#include "wire/message.h"

namespace webwave {

class QuotaWireTable {
 public:
  static constexpr std::uint32_t kMagic = 0x54515757;  // "WWQT" LE
  static constexpr std::uint32_t kVersion = 1;

  // Appends the serialized snapshot to *out; returns bytes appended.
  static std::size_t Serialize(const QuotaSnapshot& snapshot,
                               std::vector<std::uint8_t>* out);

  // Reconstructs a snapshot from [data, data+len).  Returns false (and
  // leaves *out untouched) on bad magic/version, a length that disagrees
  // with the stated counts, or CSR invariants that do not hold
  // (non-monotone row offsets, rows with descending documents).
  static bool Deserialize(const std::uint8_t* data, std::size_t len,
                          QuotaSnapshot* out);

  // Epoch delta support (the kQuotaDelta wire frame's payload) ----------
  //
  // DiffSnapshots fills *out with the rows whose cell lists differ
  // between `from` and `to` — comparison is on the raw IEEE-754 bit
  // patterns, so a rate that moved by one ulp ships and a bit-identical
  // row does not — plus `to`'s exact total rate.  Returns false if the
  // snapshots disagree on node or document count (a delta only makes
  // sense between same-shaped tables).  out->epoch is left untouched
  // for the caller to stamp.
  static bool DiffSnapshots(const QuotaSnapshot& from, const QuotaSnapshot& to,
                            QuotaDelta* out);

  // Splices a delta's rows into *snapshot and installs the delta's total
  // rate.  The law: ApplyDelta(DiffSnapshots(a, b), a) == b, cell- and
  // total-bit-identical.  Returns false (snapshot untouched) on a row
  // node outside the table or a document outside [0, docs).
  static bool ApplyDelta(const QuotaDelta& delta, QuotaSnapshot* snapshot);
};

}  // namespace webwave
