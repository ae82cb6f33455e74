// Documents, catalogs and per-(node, document) demand.
//
// The per-document machinery of §5.2: a home server publishes a set of
// immutable documents; every node of the routing tree spontaneously
// generates requests for particular documents.  The demand matrix fixes
// the rate of requests for document d originating at node v; its row sums
// are the spontaneous rates E_v of the rate-level model, which ties the
// document layer back to WebFold/TLB.
#pragma once

#include <string>
#include <vector>

#include "core/webwave_options.h"
#include "stats/zipf.h"
#include "tree/routing_tree.h"
#include "util/rng.h"

namespace webwave {

class BatchWebWaveSimulator;

using DocId = std::int32_t;

struct Document {
  DocId id = 0;
  std::string name;
  double size_kb = 8.0;  // transfer cost proxy for the packet-level sim
};

// The set of documents published by one home server.
class Catalog {
 public:
  static Catalog MakeUniform(int doc_count, double size_kb = 8.0);

  // Heavy-tailed per-document sizes: document d is median_kb ·
  // exp(sigma · z_d) kilobytes, z_d the same deterministic standard
  // normal DocumentSizes::LogNormal draws from (seed, d) — the two stay
  // byte-for-byte consistent, so a store built via
  // DocumentSizes::FromCatalog accounts exactly the catalog's sizes
  // (asserted by store_test).
  static Catalog MakeLogNormal(int doc_count, double median_kb, double sigma,
                               std::uint64_t seed);

  int size() const { return static_cast<int>(docs_.size()); }
  const Document& doc(DocId d) const;
  const std::vector<Document>& docs() const { return docs_; }

 private:
  std::vector<Document> docs_;
};

// Dense per-(node, document) spontaneous request rates.
class DemandMatrix {
 public:
  DemandMatrix(int node_count, int doc_count);

  int node_count() const { return nodes_; }
  int doc_count() const { return docs_; }

  double at(NodeId v, DocId d) const;
  void set(NodeId v, DocId d, double rate);
  void add(NodeId v, DocId d, double rate);

  // Node v's doc_count() rates, contiguous: the unchecked bulk form of
  // at/set for whole-matrix sweeps.  Writers keep every rate >= 0.
  const double* row(NodeId v) const {
    return rates_.data() + static_cast<std::size_t>(v) * docs_;
  }
  double* row(NodeId v) {
    return rates_.data() + static_cast<std::size_t>(v) * docs_;
  }

  // Row sum: the node's total spontaneous rate E_v.
  double NodeTotal(NodeId v) const;
  // Column sum: the document's global request rate.
  double DocTotal(DocId d) const;
  double Total() const;

  // E vector for the rate-level algorithms (WebFold, WebWaveSimulator).
  std::vector<double> NodeTotals() const;

  // Column d as a per-node spontaneous-rate vector: document d's own E
  // vector, the lane input of BatchWebWaveSimulator.
  std::vector<double> DocColumn(DocId d) const;
  // All columns at once — demand[d][v] for every document lane.
  std::vector<std::vector<double>> DocColumns() const;

 private:
  int nodes_;
  int docs_;
  std::vector<double> rates_;  // row-major [node][doc]
};

// Steps every document of a demand matrix as its own WebWave lane over the
// shared tree: the batched form of running one WebWaveSimulator per
// document (lane d is seeded options.seed + d; see webwave_batch.h).
BatchWebWaveSimulator MakeCatalogBatch(const RoutingTree& tree,
                                       const DemandMatrix& demand,
                                       WebWaveOptions options = {});

// Demand generators ------------------------------------------------------

// Every leaf generates `rate_per_leaf` total demand, split across documents
// by a Zipf(popularity_exponent) law.  Interior nodes generate nothing —
// the classic "clients at the edge" pattern of the paper's motivation.
DemandMatrix LeafZipfDemand(const RoutingTree& tree, int doc_count,
                            double rate_per_leaf, double popularity_exponent,
                            Rng& rng);

// Every node generates Uniform(0, max_rate) demand for each document.
DemandMatrix UniformRandomDemand(const RoutingTree& tree, int doc_count,
                                 double max_rate, Rng& rng);

// A flash crowd: baseline Zipf demand plus one document suddenly requested
// at `hot_rate` by every node of the subtree rooted at `epicenter`.
DemandMatrix FlashCrowdDemand(const RoutingTree& tree, int doc_count,
                              double base_rate, double hot_rate,
                              DocId hot_doc, NodeId epicenter, Rng& rng);

// A rotating hot spot: the demand state at `phase` of a diurnal-like cycle
// in which the hot region moves around the tree's leaves.  `phase` in
// [0, 1); the hot region is the leaves whose index falls in a window of
// `hot_fraction` of all leaves starting at phase; hot leaves request at
// `hot_rate`, the rest at `base_rate`, split over documents by Zipf(1).
// Calling this with increasing phases yields the erratic-demand sequence
// used by the churn experiments.
DemandMatrix RotatingHotSpotDemand(const RoutingTree& tree, int doc_count,
                                   double base_rate, double hot_rate,
                                   double hot_fraction, double phase);

}  // namespace webwave
