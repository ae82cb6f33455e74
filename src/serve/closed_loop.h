// Closing the loop: measured traffic back into the control plane.
//
// The batch diffusion engine balances against *spontaneous rates* it is
// told about; the serving plane sees what clients actually requested.
// ArrivalFold connects the two: it counts served (origin, document)
// arrivals over a measurement window and converts the counts into the
// sparse DemandEvent batch that moves the engine's rates to the measured
// ones — exactly the events ApplyDemandEvents consumes.  Cells whose
// measured rate fell to zero are included (as rate-0 events), so demand
// that moved away is forgotten, not accreted.
//
// The full loop, as run by examples/serving_loop.cpp, bench/tab_serving
// and the serving tests:
//
//   generate -> serve (QuotaSnapshot::FromBatch) -> Count -> Drain ->
//   ApplyDemandEvents -> Step x k -> RefreshFromBatch (dirty lanes only)
//   -> ClearDirtyLanes -> next window
//
// so diffusion re-balances against observed demand and the serving plane
// routes against the re-balanced copies, with no oracle knowledge of the
// generator's true rates anywhere in the loop.
//
// Every stage of the loop but one costs O(what changed), not O(the
// catalog): Count touches the cells requests actually hit,
// ApplyDemandEvents re-projects only affected lanes, and RefreshFromBatch
// rewrites only dirty lanes' snapshot cells.  Drain costs
// O(nodes·docs / 64 + live cells): it scans one bit per cell, a word at a
// time, and visits only the cells hit this window or still carrying a
// non-zero emitted rate — in ascending cell order, so its events come out
// node-major with no sort, byte-identical to a dense grid scan.
#pragma once

#include <cstdint>
#include <vector>

#include "core/webwave_options.h"
#include "serve/request_gen.h"
#include "util/span.h"

namespace webwave {

class ArrivalFold {
 public:
  ArrivalFold(int node_count, int doc_count);

  int node_count() const { return nodes_; }
  int doc_count() const { return docs_; }
  std::uint64_t counted() const { return counted_; }

  // Accumulates a batch of served requests into the current window.
  void Count(Span<Request> batch);

  // Ends the window: every (node, doc) cell whose measured rate
  // (count / window_seconds) differs from the rate the last Drain emitted
  // becomes a DemandEvent, counts reset for the next window.  The first
  // Drain diffs against all-zero, i.e. reports every active cell.
  std::vector<DemandEvent> Drain(double window_seconds);

 private:
  int nodes_;
  int docs_;
  std::uint64_t counted_ = 0;
  std::vector<std::uint32_t> counts_;  // node-major [v][d], current window
  std::vector<double> applied_;        // rates emitted by the last Drain
  // One bit per cell, same order: set iff the cell was hit this window or
  // its applied_ rate is non-zero — the only cells Drain can emit.
  std::vector<std::uint64_t> live_;
};

}  // namespace webwave
