// Offline copy placement implied by TLB (§7).
//
// "WebWave implicitly determines the number and placement of cache copies
// as well as the number of requests allocated to each copy."  This module
// makes that explicit: given the per-(node, document) demand, it computes
// the TLB assignment of node loads (WebFold on the row sums) and then
// realizes it document-by-document — every node is allocated service
// quotas over the documents actually flowing through it, bottom-up, so
// per-document NSS holds by construction.  The result is, for each
// document, the set of nodes that must hold a copy and the request rate
// allocated to each copy.
//
// The allocation is the fewest-copies greedy: each node fills its TLB
// load from its hottest passing documents first, which concentrates each
// document's copies where its demand flows.
#pragma once

#include <functional>
#include <vector>

#include "doc/catalog.h"
#include "tree/routing_tree.h"
#include "util/span.h"

namespace webwave {

struct CopyAssignment {
  NodeId node = kNoNode;
  double rate = 0;  // requests/sec this copy serves
};

struct PlacementResult {
  // quota[v][d]: the service rate node v is allocated for document d
  // (> 0 implies v holds a copy; the home server holds everything).
  std::vector<std::vector<double>> quota;
  // For each document, its copies (excluding zero-rate home copies).
  std::vector<std::vector<CopyAssignment>> copies;
  // The TLB node loads this placement realizes.
  std::vector<double> node_loads;
  // Total copies per document (including the home's authoritative copy).
  std::vector<int> copy_count;
};

// Computes the TLB-realizing placement.  Throws on mismatched sizes.
PlacementResult DerivePlacement(const RoutingTree& tree,
                                const DemandMatrix& demand);

// One copy a node claims in the placement sweep.
struct ClaimedCopy {
  DocId doc = 0;
  double rate = 0;      // the quota the copy serves
  double arriving = 0;  // the document's flow reaching the node, >= rate
};

// The placement rule itself, shared by DerivePlacement and the TLB
// snapshot (WebWaveTlbPolicy): bottom-up over tree.postorder(), each node
// v claims load[v] from the document flows passing it, hottest first
// (rate descending, ties to the lower document), and forwards the rest.
// on_node(v, claims) sees every node once, in postorder, with its claims
// ascending by document.  `arriving` is the flow before the claim, so the
// copy's serve fraction is rate / arriving.
void SweepPlacement(
    const RoutingTree& tree, const DemandMatrix& demand,
    const std::vector<double>& load,
    const std::function<void(NodeId, Span<const ClaimedCopy>)>& on_node);

}  // namespace webwave
