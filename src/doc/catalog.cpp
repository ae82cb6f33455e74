#include "doc/catalog.h"

#include "core/webwave_batch.h"
#include "util/check.h"

namespace webwave {

Catalog Catalog::MakeUniform(int doc_count, double size_kb) {
  WEBWAVE_REQUIRE(doc_count >= 1, "catalog needs at least one document");
  Catalog c;
  c.docs_.reserve(static_cast<std::size_t>(doc_count));
  for (DocId d = 0; d < doc_count; ++d)
    c.docs_.push_back({d, "doc-" + std::to_string(d), size_kb});
  return c;
}

Catalog Catalog::MakeLogNormal(int doc_count, double median_kb, double sigma,
                               std::uint64_t seed) {
  WEBWAVE_REQUIRE(doc_count >= 1, "catalog needs at least one document");
  // One shared draw (util/rng) keeps this kilobyte view and the store's
  // byte view (DocumentSizes::LogNormal) from ever disagreeing: whole
  // bytes divide 1024 exactly in double, so
  // DocumentSizes::FromCatalog round-trips these sizes bit for bit.
  Catalog c;
  c.docs_.reserve(static_cast<std::size_t>(doc_count));
  for (DocId d = 0; d < doc_count; ++d)
    c.docs_.push_back(
        {d, "doc-" + std::to_string(d),
         static_cast<double>(
             CounterLogNormalBytes(seed, d, median_kb * 1024.0, sigma)) /
             1024.0});
  return c;
}

const Document& Catalog::doc(DocId d) const {
  WEBWAVE_REQUIRE(d >= 0 && d < size(), "document id out of range");
  return docs_[static_cast<std::size_t>(d)];
}

DemandMatrix::DemandMatrix(int node_count, int doc_count)
    : nodes_(node_count),
      docs_(doc_count),
      rates_(static_cast<std::size_t>(node_count) *
                 static_cast<std::size_t>(doc_count),
             0.0) {
  WEBWAVE_REQUIRE(node_count >= 1 && doc_count >= 1, "empty demand matrix");
}

double DemandMatrix::at(NodeId v, DocId d) const {
  WEBWAVE_REQUIRE(v >= 0 && v < nodes_ && d >= 0 && d < docs_,
                  "demand index out of range");
  return rates_[static_cast<std::size_t>(v) * docs_ + d];
}

void DemandMatrix::set(NodeId v, DocId d, double rate) {
  WEBWAVE_REQUIRE(v >= 0 && v < nodes_ && d >= 0 && d < docs_,
                  "demand index out of range");
  WEBWAVE_REQUIRE(rate >= 0, "rates must be non-negative");
  rates_[static_cast<std::size_t>(v) * docs_ + d] = rate;
}

void DemandMatrix::add(NodeId v, DocId d, double rate) {
  set(v, d, at(v, d) + rate);
}

double DemandMatrix::NodeTotal(NodeId v) const {
  WEBWAVE_REQUIRE(v >= 0 && v < nodes_, "node out of range");
  double sum = 0;
  for (DocId d = 0; d < docs_; ++d)
    sum += rates_[static_cast<std::size_t>(v) * docs_ + d];
  return sum;
}

double DemandMatrix::DocTotal(DocId d) const {
  WEBWAVE_REQUIRE(d >= 0 && d < docs_, "doc out of range");
  double sum = 0;
  for (NodeId v = 0; v < nodes_; ++v)
    sum += rates_[static_cast<std::size_t>(v) * docs_ + d];
  return sum;
}

double DemandMatrix::Total() const {
  double sum = 0;
  for (const double r : rates_) sum += r;
  return sum;
}

std::vector<double> DemandMatrix::NodeTotals() const {
  std::vector<double> totals(static_cast<std::size_t>(nodes_));
  for (NodeId v = 0; v < nodes_; ++v) totals[static_cast<std::size_t>(v)] = NodeTotal(v);
  return totals;
}

std::vector<double> DemandMatrix::DocColumn(DocId d) const {
  WEBWAVE_REQUIRE(d >= 0 && d < docs_, "doc out of range");
  std::vector<double> column(static_cast<std::size_t>(nodes_));
  for (NodeId v = 0; v < nodes_; ++v)
    column[static_cast<std::size_t>(v)] =
        rates_[static_cast<std::size_t>(v) * docs_ + d];
  return column;
}

std::vector<std::vector<double>> DemandMatrix::DocColumns() const {
  std::vector<std::vector<double>> columns;
  columns.reserve(static_cast<std::size_t>(docs_));
  for (DocId d = 0; d < docs_; ++d) columns.push_back(DocColumn(d));
  return columns;
}

BatchWebWaveSimulator MakeCatalogBatch(const RoutingTree& tree,
                                       const DemandMatrix& demand,
                                       WebWaveOptions options) {
  WEBWAVE_REQUIRE(demand.node_count() == tree.size(),
                  "demand matrix does not match the tree");
  return BatchWebWaveSimulator(tree, demand.DocColumns(), options);
}

DemandMatrix LeafZipfDemand(const RoutingTree& tree, int doc_count,
                            double rate_per_leaf, double popularity_exponent,
                            Rng& rng) {
  DemandMatrix demand(tree.size(), doc_count);
  const ZipfDistribution zipf(doc_count, popularity_exponent);
  for (NodeId v = 0; v < tree.size(); ++v) {
    if (!tree.is_leaf(v) || tree.is_root(v)) continue;
    // Each leaf's interest profile is an independently permuted Zipf: hot
    // documents differ per region, as real client populations do.
    std::vector<DocId> order(static_cast<std::size_t>(doc_count));
    for (DocId d = 0; d < doc_count; ++d) order[static_cast<std::size_t>(d)] = d;
    rng.Shuffle(order);
    for (DocId rank = 0; rank < doc_count; ++rank)
      demand.add(v, order[static_cast<std::size_t>(rank)],
                 rate_per_leaf * zipf.pmf(rank));
  }
  return demand;
}

DemandMatrix UniformRandomDemand(const RoutingTree& tree, int doc_count,
                                 double max_rate, Rng& rng) {
  DemandMatrix demand(tree.size(), doc_count);
  for (NodeId v = 0; v < tree.size(); ++v)
    for (DocId d = 0; d < doc_count; ++d)
      demand.set(v, d, rng.NextDouble(0, max_rate));
  return demand;
}

RotatingHotSpot::RotatingHotSpot(const RoutingTree& tree, int doc_count,
                                 double hot_fraction, int rotation_epochs)
    : rotation_epochs_(rotation_epochs) {
  WEBWAVE_REQUIRE(hot_fraction >= 0 && hot_fraction <= 1,
                  "hot fraction in [0,1]");
  WEBWAVE_REQUIRE(rotation_epochs >= 1,
                  "rotation must take at least one epoch");
  for (NodeId v = 0; v < tree.size(); ++v)
    if (tree.is_leaf(v) && !tree.is_root(v)) leaves_.push_back(v);
  WEBWAVE_REQUIRE(!leaves_.empty(), "the tree has no non-root leaves");
  const ZipfDistribution zipf(doc_count, 1.0);
  doc_weights_.resize(static_cast<std::size_t>(doc_count));
  for (int d = 0; d < doc_count; ++d)
    doc_weights_[static_cast<std::size_t>(d)] = zipf.pmf(d);
  window_ = static_cast<std::size_t>(
      hot_fraction * static_cast<double>(leaves_.size()) + 0.5);
}

bool RotatingHotSpot::Hot(int epoch, std::size_t i) const {
  const std::size_t n = leaves_.size();
  const double phase = static_cast<double>(epoch % rotation_epochs_) /
                       static_cast<double>(rotation_epochs_);
  const std::size_t start =
      static_cast<std::size_t>(phase * static_cast<double>(n));
  return (i + n - start) % n < window_;
}

DemandMatrix FlashCrowdDemand(const RoutingTree& tree, int doc_count,
                              double base_rate, double hot_rate,
                              DocId hot_doc, NodeId epicenter, Rng& rng) {
  WEBWAVE_REQUIRE(hot_doc >= 0 && hot_doc < doc_count, "hot doc out of range");
  DemandMatrix demand(tree.size(), doc_count);
  const ZipfDistribution zipf(doc_count, 1.0);
  for (NodeId v = 0; v < tree.size(); ++v)
    for (DocId rank = 0; rank < doc_count; ++rank)
      demand.add(v, rank, base_rate * zipf.pmf(rank) *
                              rng.NextDouble(0.5, 1.5));
  for (const NodeId v : tree.subtree(epicenter))
    demand.add(v, hot_doc, hot_rate);
  return demand;
}

}  // namespace webwave
