#include "doc/placement.h"

#include <algorithm>

#include "core/webfold.h"
#include "util/check.h"
#include "util/row_pool.h"

namespace webwave {

PlacementResult DerivePlacement(const RoutingTree& tree,
                                const DemandMatrix& demand) {
  WEBWAVE_REQUIRE(demand.node_count() == tree.size(),
                  "demand matrix does not match tree");
  const int docs = demand.doc_count();
  const WebFoldResult tlb = WebFold(tree, demand.NodeTotals());

  PlacementResult result;
  result.node_loads = tlb.load;
  result.quota.assign(static_cast<std::size_t>(tree.size()),
                      std::vector<double>(static_cast<std::size_t>(docs), 0.0));
  result.copies.assign(static_cast<std::size_t>(docs), {});
  result.copy_count.assign(static_cast<std::size_t>(docs), 1);  // home copy

  // Bottom-up: at each node the passing flow per document is its own
  // demand plus what children forwarded; the node claims its TLB load
  // from the hottest flows first, forwarding the rest.  v's flow row
  // holds its arriving flow while v is placed and what it forwards once
  // it is done; the parent's visit sums it and frees it.
  const std::size_t dd = static_cast<std::size_t>(docs);
  RowPool fwd(dd);
  std::vector<std::int32_t> slot(static_cast<std::size_t>(tree.size()));
  std::vector<DocId> order(dd);
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

    for (DocId d = 0; d < docs; ++d) order[static_cast<std::size_t>(d)] = d;
    std::sort(order.begin(), order.end(), [&](DocId a, DocId b) {
      const double ra = arrive[static_cast<std::size_t>(a)];
      const double rb = arrive[static_cast<std::size_t>(b)];
      if (ra != rb) return ra > rb;
      return a < b;
    });
    std::vector<double>& quota = result.quota[static_cast<std::size_t>(v)];
    double remaining = tlb.load[static_cast<std::size_t>(v)];
    for (const DocId d : order) {
      if (remaining <= 1e-12) break;
      const std::size_t di = static_cast<std::size_t>(d);
      const double take = std::min(remaining, arrive[di]);
      if (take <= 1e-12) continue;
      quota[di] = take;
      arrive[di] -= take;
      remaining -= take;
      result.copies[di].push_back({v, take});
      if (!tree.is_root(v)) ++result.copy_count[di];
    }
    WEBWAVE_ASSERT(remaining <= 1e-6 * (1 + tlb.load[static_cast<std::size_t>(v)]),
                   "TLB load exceeded the flow passing the node");
  }
  // The root absorbs everything left over (it holds all copies).
  const double* root_fwd =
      fwd.row(slot[static_cast<std::size_t>(tree.root())]);
  const double total = demand.Total();
  for (std::size_t d = 0; d < dd; ++d)
    WEBWAVE_ASSERT(root_fwd[d] <= 1e-6 * (1 + total),
                   "flow escaped past the home server");
  return result;
}

}  // namespace webwave
