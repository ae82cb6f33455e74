#include "serve/request_gen.h"

#include <algorithm>
#include <cmath>

#include "stats/zipf.h"
#include "util/check.h"
#include "util/rng.h"

namespace webwave {

namespace {

// Non-root leaves in ascending id order.
std::vector<NodeId> LeafRing(const RoutingTree& tree) {
  std::vector<NodeId> leaves;
  for (NodeId v = 0; v < tree.size(); ++v)
    if (tree.is_leaf(v) && !tree.is_root(v)) leaves.push_back(v);
  WEBWAVE_REQUIRE(!leaves.empty(), "the tree has no non-root leaves");
  return leaves;
}

std::vector<double> ZipfWeights(int doc_count, double exponent) {
  const ZipfDistribution zipf(doc_count, exponent);
  std::vector<double> w(static_cast<std::size_t>(doc_count));
  for (int d = 0; d < doc_count; ++d) w[static_cast<std::size_t>(d)] = zipf.pmf(d);
  return w;
}

// The counter-based uniform draw: a pure function of (seed, counter), so
// any request's randomness can be recomputed from its stream index alone.
inline double UnitDraw(std::uint64_t seed, std::uint64_t counter) {
  return CounterUnitDouble(seed + counter * 0x9e3779b97f4a7c15ULL);
}

}  // namespace

GuidedCdf::GuidedCdf(const std::vector<double>& weights)
    : cdf_(weights.size()) {
  WEBWAVE_REQUIRE(!weights.empty() && weights.size() < (1ULL << 32),
                  "a CDF needs between 1 and 2^32 - 1 entries");
  double total = 0;
  for (const double w : weights) total += w;
  WEBWAVE_REQUIRE(total > 0, "a CDF needs a positive total weight");
  double acc = 0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    cdf_[i] = acc / total;
  }
  cdf_.back() = 1.0;
  // guide_[k] = upper_bound(k/m): both sequences ascend, so one merge.
  const std::size_t m = cdf_.size();
  guide_.resize(m + 1);
  std::size_t i = 0;
  for (std::size_t k = 0; k <= m; ++k) {
    const double edge = static_cast<double>(k) / static_cast<double>(m);
    while (i < m && cdf_[i] <= edge) ++i;
    guide_[k] = static_cast<std::uint32_t>(i);
  }
}

DemandComponent ZipfLeafComponent(const RoutingTree& tree, int doc_count,
                                  double rate_per_leaf, double exponent) {
  WEBWAVE_REQUIRE(rate_per_leaf >= 0, "rate must be non-negative");
  const std::vector<NodeId> leaves = LeafRing(tree);
  DemandComponent c;
  c.origin_weights.assign(static_cast<std::size_t>(tree.size()), 0.0);
  for (const NodeId v : leaves)
    c.origin_weights[static_cast<std::size_t>(v)] = 1.0;
  c.doc_weights = ZipfWeights(doc_count, exponent);
  c.rate = rate_per_leaf * static_cast<double>(leaves.size());
  return c;
}

DemandComponent RotatingHotSpotComponent(const RoutingTree& tree,
                                         int doc_count, double base_rate,
                                         double hot_rate, double hot_fraction,
                                         int epoch, int rotation_epochs) {
  WEBWAVE_REQUIRE(base_rate >= 0 && hot_rate >= 0,
                  "rates must be non-negative");
  const RotatingHotSpot hot_spot(tree, doc_count, hot_fraction,
                                 rotation_epochs);
  const std::vector<NodeId>& leaves = hot_spot.leaves();
  DemandComponent c;
  c.origin_weights.assign(static_cast<std::size_t>(tree.size()), 0.0);
  double total = 0;
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    const double rate = hot_spot.Hot(epoch, i) ? hot_rate : base_rate;
    c.origin_weights[static_cast<std::size_t>(leaves[i])] = rate;
    total += rate;
  }
  c.doc_weights = hot_spot.doc_weights();
  c.rate = total;
  return c;
}

DemandComponent FlashCrowdComponent(const RoutingTree& tree, int doc_count,
                                    double rate_per_node, DocId hot_doc,
                                    NodeId epicenter) {
  WEBWAVE_REQUIRE(rate_per_node >= 0, "rate must be non-negative");
  WEBWAVE_REQUIRE(hot_doc >= 0 && hot_doc < doc_count,
                  "hot document out of range");
  DemandComponent c;
  c.origin_weights.assign(static_cast<std::size_t>(tree.size()), 0.0);
  const std::vector<NodeId> crowd = tree.subtree(epicenter);
  for (const NodeId v : crowd)
    c.origin_weights[static_cast<std::size_t>(v)] = 1.0;
  c.doc_weights.assign(static_cast<std::size_t>(doc_count), 0.0);
  c.doc_weights[static_cast<std::size_t>(hot_doc)] = 1.0;
  c.rate = rate_per_node * static_cast<double>(crowd.size());
  return c;
}

RequestGenerator::RequestGenerator(const RoutingTree& tree, int doc_count,
                                   std::vector<DemandComponent> components,
                                   std::uint64_t seed)
    : nodes_(tree.size()),
      docs_(doc_count),
      seed_(seed),
      components_(std::move(components)) {
  WEBWAVE_REQUIRE(docs_ >= 1, "need at least one document");
  WEBWAVE_REQUIRE(!components_.empty(), "need at least one demand component");
  for (std::size_t i = 0; i < components_.size(); ++i) {
    const DemandComponent& c = components_[i];
    WEBWAVE_REQUIRE(c.rate >= 0, "component rate must be non-negative");
    WEBWAVE_REQUIRE(
        c.origin_weights.size() == static_cast<std::size_t>(nodes_),
        "origin weights do not match the tree");
    WEBWAVE_REQUIRE(c.doc_weights.size() == static_cast<std::size_t>(docs_),
                    "document weights do not match the catalog");
    if (c.rate == 0) continue;
    double origin_total = 0, doc_total = 0;
    for (const double w : c.origin_weights) {
      WEBWAVE_REQUIRE(w >= 0, "origin weights must be non-negative");
      origin_total += w;
    }
    for (const double w : c.doc_weights) {
      WEBWAVE_REQUIRE(w >= 0, "document weights must be non-negative");
      doc_total += w;
    }
    WEBWAVE_REQUIRE(origin_total > 0 && doc_total > 0,
                    "a component with positive rate needs positive weights");
    sampled_.push_back(
        {c.rate, GuidedCdf(c.origin_weights), GuidedCdf(c.doc_weights), i});
    total_rate_ += c.rate;
  }
  WEBWAVE_REQUIRE(total_rate_ > 0, "the mixture offers no requests");
  std::vector<double> rates;
  for (const Component& comp : sampled_) rates.push_back(comp.rate);
  component_cdf_ = GuidedCdf(rates);
}

void RequestGenerator::NextBatch(std::size_t count,
                                 std::vector<Request>* out) {
  out->resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t k = 3 * (position_ + i);
    const std::size_t c = sampled_.size() == 1
                              ? 0
                              : component_cdf_.Sample(UnitDraw(seed_, k));
    const Component& comp = sampled_[c];
    (*out)[i].node =
        static_cast<NodeId>(comp.origin.Sample(UnitDraw(seed_, k + 1)));
    (*out)[i].doc =
        static_cast<DocId>(comp.doc.Sample(UnitDraw(seed_, k + 2)));
  }
  position_ += count;
}

std::vector<std::vector<double>> RequestGenerator::ExpectedLanes() const {
  std::vector<std::vector<double>> lanes(static_cast<std::size_t>(docs_));
  for (auto& lane : lanes) lane.assign(static_cast<std::size_t>(nodes_), 0.0);
  for (const Component& comp : sampled_) {
    const DemandComponent& src = components_[comp.source];
    double origin_total = 0, doc_total = 0;
    for (const double w : src.origin_weights) origin_total += w;
    for (const double w : src.doc_weights) doc_total += w;
    for (int d = 0; d < docs_; ++d) {
      const double doc_rate =
          comp.rate * src.doc_weights[static_cast<std::size_t>(d)] / doc_total;
      if (doc_rate == 0) continue;
      auto& lane = lanes[static_cast<std::size_t>(d)];
      for (int v = 0; v < nodes_; ++v) {
        const double w = src.origin_weights[static_cast<std::size_t>(v)];
        if (w > 0) lane[static_cast<std::size_t>(v)] += doc_rate * w / origin_total;
      }
    }
  }
  return lanes;
}

}  // namespace webwave
