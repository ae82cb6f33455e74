// Deterministic request streams for the serving data plane.
//
// The control plane (WebWave diffusion, TLB, DerivePlacement) works on
// *rates*; the data plane serves *requests*.  RequestGenerator bridges the
// two: it samples (origin node, document) records from a mixture of
// product-form demand components — each component is a total request rate
// times an origin field over the tree's nodes times a catalog popularity
// law (the "Zipf catalog draws × leaf demand fields" of the paper's
// motivation) — and exposes the exact per-document rate lanes the mixture
// implies, so placement and serving face the same demand by construction.
//
// Determinism is counter-based, not stream-based: request i's draws are a
// pure function of (seed, i) via SplitMix64, so the stream is identical no
// matter how it is cut into batches and can be regenerated from any
// position — the property the thread-invariance guarantees of the serving
// plane and the replayability of the benches rest on.
//
// The component factories mirror the demand shapes of sim/churn and
// doc/catalog (rotating hot spot, flash crowd, Zipf leaves) cell for cell,
// which serving_test asserts against ChurnSchedule.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "doc/catalog.h"
#include "tree/routing_tree.h"

namespace webwave {

// One served request: a document demanded at an origin node (a leaf in the
// paper's client-at-the-edge scenarios, but any node is allowed).
struct Request {
  NodeId node = kNoNode;
  DocId doc = 0;
};

// A product-form demand component: requests arrive at `rate` req/s total,
// the origin is drawn proportional to origin_weights, the document
// independently proportional to doc_weights.
struct DemandComponent {
  double rate = 0;                     // total req/s of this component
  std::vector<double> origin_weights;  // per node, >= 0, some > 0
  std::vector<double> doc_weights;     // per document, >= 0, some > 0
};

// Factories matching the repo's demand generators ------------------------

// Every non-root leaf requests at rate_per_leaf, split across the catalog
// by Zipf(exponent) — the LeafZipfDemand shape (without per-leaf jitter).
DemandComponent ZipfLeafComponent(const RoutingTree& tree, int doc_count,
                                  double rate_per_leaf, double exponent);

// The RotatingHotSpotDemand / ChurnSchedule(kRotatingHotSpot) shape at a
// given epoch of rotation_epochs: a circular window of hot_fraction of the
// non-root leaves (ascending id ring) requests at hot_rate, the rest at
// base_rate, every leaf splitting its rate across documents by Zipf(1).
DemandComponent RotatingHotSpotComponent(const RoutingTree& tree,
                                         int doc_count, double base_rate,
                                         double hot_rate, double hot_fraction,
                                         int epoch, int rotation_epochs);

// The FlashCrowdDemand overlay: every node of the subtree rooted at
// `epicenter` requests document hot_doc at rate_per_node.
DemandComponent FlashCrowdComponent(const RoutingTree& tree, int doc_count,
                                    double rate_per_node, DocId hot_doc,
                                    NodeId epicenter);

// The sampler ------------------------------------------------------------

// Inverse-CDF sampling over non-negative weights: Sample(u) is the first
// index whose normalized prefix sum exceeds u, exactly
// std::upper_bound(cdf(), u), for any u in [0, 1).
//
// A guide table makes the lookup O(1) expected instead of O(log m): with
// m = cdf().size(), guide[k] is the upper_bound index of k/m, built once
// by one merge sweep.  A draw u lies in bucket j = ⌊u·m⌋, so its answer lies
// between guide[j-1] and guide[j+2] — one bucket of slack on each side
// absorbs the rounding of u·m and of k/m, which is far below a bucket —
// and the binary search runs only there.  The result is the full
// search's index bit for bit; only its cost changes.
class GuidedCdf {
 public:
  // Normalizes the prefix sums of `weights` (≥ 0, positive total) by
  // their total, forcing the last entry to exactly 1.0 so every u in
  // [0, 1) lands.  Throws on an empty or zero-total weight vector.
  explicit GuidedCdf(const std::vector<double>& weights);
  GuidedCdf() = default;  // empty: Sample must not be called

  const std::vector<double>& cdf() const { return cdf_; }

  std::size_t Sample(double u) const {
    const std::size_t m = cdf_.size();
    std::size_t j = static_cast<std::size_t>(u * static_cast<double>(m));
    if (j >= m) j = m - 1;
    const double* lo = cdf_.data() + guide_[j == 0 ? 0 : j - 1];
    const double* hi = cdf_.data() + guide_[j + 2 < m ? j + 2 : m];
    return static_cast<std::size_t>(std::upper_bound(lo, hi, u) -
                                    cdf_.data());
  }

 private:
  std::vector<double> cdf_;
  std::vector<std::uint32_t> guide_;  // m + 1 entries
};

// The generator ----------------------------------------------------------

class RequestGenerator {
 public:
  // Throws if a component's weights mismatch the tree/catalog or sum to
  // zero while its rate is positive.  Zero-rate components are dropped.
  RequestGenerator(const RoutingTree& tree, int doc_count,
                   std::vector<DemandComponent> components,
                   std::uint64_t seed);

  int doc_count() const { return docs_; }
  double total_rate() const { return total_rate_; }
  // Requests drawn so far (the stream position).
  std::uint64_t position() const { return position_; }

  // Fills `out` with the next `count` records (replacing its contents) and
  // advances the position.  Record k of the call is the stream's request
  // position()+k and depends only on (seed, that index).
  void NextBatch(std::size_t count, std::vector<Request>* out);

  // Rewinds/advances the stream to an absolute position (replay).
  void Seek(std::uint64_t position) { position_ = position; }

  // The exact per-document demand lanes the mixture implies:
  // lanes[d][v] = Σ_c rate_c · origin_pmf_c(v) · doc_pmf_c(d) — the
  // control-plane input (BatchWebWaveSimulator lanes, PlacementPolicy
  // demand) that faces the same load this generator emits.
  std::vector<std::vector<double>> ExpectedLanes() const;

  // ExpectedLanes as a DemandMatrix (DerivePlacement's input form).
  DemandMatrix ExpectedDemand() const;

 private:
  struct Component {
    double rate = 0;
    GuidedCdf origin;        // over nodes
    GuidedCdf doc;           // over documents
    std::size_t source = 0;  // index into components_ (copy-safe)
  };

  int nodes_;
  int docs_;
  std::uint64_t seed_;
  std::uint64_t position_ = 0;
  double total_rate_ = 0;
  std::vector<DemandComponent> components_;  // kept for ExpectedLanes
  std::vector<Component> sampled_;
  GuidedCdf component_cdf_;  // over sampled_, by rate
};

}  // namespace webwave
