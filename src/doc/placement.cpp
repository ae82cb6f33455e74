#include "doc/placement.h"

#include <algorithm>

#include "core/webfold.h"
#include "util/check.h"
#include "util/row_pool.h"

namespace webwave {

namespace {

// A document flow ranked by value: the higher rate first, ties to the
// lower document.
struct RankedFlow {
  double rate;
  DocId doc;
};
inline bool RanksBefore(const RankedFlow& a, const RankedFlow& b) {
  if (a.rate != b.rate) return a.rate > b.rate;
  return a.doc < b.doc;
}

}  // namespace

void SweepPlacement(
    const RoutingTree& tree, const DemandMatrix& demand,
    const std::vector<double>& load,
    const std::function<void(NodeId, Span<const ClaimedCopy>)>& on_node) {
  WEBWAVE_REQUIRE(demand.node_count() == tree.size() &&
                      load.size() == static_cast<std::size_t>(tree.size()),
                  "demand matrix or loads do not match tree");
  // Bottom-up: at each node the passing flow per document is its own
  // demand plus what children forwarded; the node claims its load from
  // the hottest flows first, forwarding the rest.  v's flow row holds its
  // arriving flow while v is placed and what it forwards once it is
  // done; the parent's visit sums it and frees it.
  const std::size_t dd = static_cast<std::size_t>(demand.doc_count());
  RowPool fwd(dd);
  std::vector<std::int32_t> slot(static_cast<std::size_t>(tree.size()));
  std::vector<RankedFlow> ranked;
  ranked.reserve(dd);
  std::vector<ClaimedCopy> claims;
  claims.reserve(dd);
  // v's claims indexed by document (rate 0: no claim), read back
  // doc-ascending.
  std::vector<ClaimedCopy> claim_of(dd);
  for (const NodeId v : tree.postorder()) {
    const std::int32_t s = fwd.Acquire();
    slot[static_cast<std::size_t>(v)] = s;
    double* arrive = fwd.row(s);
    std::copy(demand.row(v), demand.row(v) + dd, arrive);
    for (const NodeId c : tree.children(v)) {
      const std::int32_t cs = slot[static_cast<std::size_t>(c)];
      const double* crow = fwd.row(cs);
      for (std::size_t d = 0; d < dd; ++d) arrive[d] += crow[d];
      fwd.Release(cs);
    }

    // Flows of at most 1e-12 are never claimed, so they are not ranked.
    ranked.clear();
    for (std::size_t d = 0; d < dd; ++d)
      if (arrive[d] > 1e-12)
        ranked.push_back({arrive[d], static_cast<DocId>(d)});
    std::sort(ranked.begin(), ranked.end(), RanksBefore);
    claims.clear();
    const double tlb_load = load[static_cast<std::size_t>(v)];
    double remaining = tlb_load;
    for (const RankedFlow& f : ranked) {
      if (remaining <= 1e-12) break;
      const double take = std::min(remaining, f.rate);
      arrive[static_cast<std::size_t>(f.doc)] -= take;
      remaining -= take;
      claim_of[static_cast<std::size_t>(f.doc)] = {f.doc, take, f.rate};
    }
    WEBWAVE_ASSERT(remaining <= 1e-6 * (1 + tlb_load),
                   "TLB load exceeded the flow passing the node");
    for (ClaimedCopy& c : claim_of)
      if (c.rate > 0) {
        claims.push_back(c);
        c.rate = 0;
      }
    on_node(v, Span<const ClaimedCopy>(claims.data(), claims.size()));
  }
  // The root absorbs everything left over (it holds all copies).
  const double* root_fwd =
      fwd.row(slot[static_cast<std::size_t>(tree.root())]);
  const double total = demand.Total();
  for (std::size_t d = 0; d < dd; ++d)
    WEBWAVE_ASSERT(root_fwd[d] <= 1e-6 * (1 + total),
                   "flow escaped past the home server");
}

PlacementResult DerivePlacement(const RoutingTree& tree,
                                const DemandMatrix& demand) {
  WEBWAVE_REQUIRE(demand.node_count() == tree.size(),
                  "demand matrix does not match tree");
  const std::size_t dd = static_cast<std::size_t>(demand.doc_count());
  PlacementResult result;
  result.node_loads = WebFold(tree, demand.NodeTotals()).load;
  result.quota.assign(static_cast<std::size_t>(tree.size()),
                      std::vector<double>(dd, 0.0));
  result.copy_count.assign(dd, 1);  // home copy

  result.copies.resize(dd);
  SweepPlacement(tree, demand, result.node_loads,
                 [&](NodeId v, Span<const ClaimedCopy> node_claims) {
                   std::vector<double>& quota =
                       result.quota[static_cast<std::size_t>(v)];
                   for (const ClaimedCopy& c : node_claims) {
                     const std::size_t di = static_cast<std::size_t>(c.doc);
                     quota[di] = c.rate;
                     result.copies[di].push_back({v, c.rate});
                     if (!tree.is_root(v)) ++result.copy_count[di];
                   }
                 });
  return result;
}

}  // namespace webwave
