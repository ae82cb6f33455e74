// The per-period quota exchange of §5.2, shared by the two copy-granular
// engines: DocWebWave (exact flows) and PacketSim (measured EWMA rates and
// gossiped estimates).  On every edge (parent p, child c) a parent
// delegates copies and quota down, a child relinquishes quota up, and a
// child stuck behind a potential barrier tunnels, each acting only on its
// own state and its estimate of the other end.
//
// What differs between the engines is a thin `Book` the functions are
// instantiated over:
//   Load(v), Estimate(v, u)   v's own load; v's estimate of neighbour u's
//   Flow(p, c, d)             rate of d that c forwards to p
//   Spare(p, d)               quota of d that p can hand down
//   Rank(c, d), Cap(c, d)     relinquish order (highest first) and cap
//   Cached, Quota, SetQuota   per-(node, document) copy state
//   Install(v, d), Evict(v, d)  a copy arrives / leaves, with its costs
//   EvictsOnDelegate()        whether a parent whose quota reaches zero by
//                             delegating drops its copy
//   Tunnel(k)                 the engine's barrier escape; true if it acted
// The home server (the root) absorbs: its quota is implicit and never
// changes here.  Loads read through the book must not change during a
// sweep, so every edge decides on the same round (synchronous rounds).
#pragma once

#include <algorithm>
#include <vector>

#include "core/webwave_options.h"
#include "doc/barrier.h"
#include "doc/catalog.h"
#include "tree/routing_tree.h"

namespace webwave {

// Rates and quotas at or below this are treated as zero.
inline constexpr double kQuotaEpsilon = 1e-9;

// Moves up to `amount` of quota from p to its child c, over the documents
// p caches that c forwards, hottest flow first (ties by id), capped by that
// flow (NSS) and by p's spare quota.  Returns how much moved.
template <class Book>
double DelegateDown(const RoutingTree& tree, int docs, Book& book, NodeId p,
                    NodeId c, double amount) {
  std::vector<DocId> candidates;
  for (DocId d = 0; d < docs; ++d)
    if (book.Cached(p, d) && book.Flow(p, c, d) > kQuotaEpsilon &&
        book.Spare(p, d) > kQuotaEpsilon)
      candidates.push_back(d);
  std::sort(candidates.begin(), candidates.end(), [&](DocId a, DocId b) {
    const double fa = book.Flow(p, c, a);
    const double fb = book.Flow(p, c, b);
    return fa != fb ? fa > fb : a < b;
  });
  double moved = 0;
  for (const DocId d : candidates) {
    if (moved >= amount - kQuotaEpsilon) break;
    const double delta =
        std::min({amount - moved, book.Flow(p, c, d), book.Spare(p, d)});
    if (delta <= kQuotaEpsilon) continue;
    if (!book.Cached(c, d)) book.Install(c, d);
    book.SetQuota(c, d, book.Quota(c, d) + delta);
    if (!tree.is_root(p)) {
      book.SetQuota(p, d, std::max(0.0, book.Quota(p, d) - delta));
      if (book.EvictsOnDelegate() && book.Quota(p, d) <= kQuotaEpsilon)
        book.Evict(p, d);
    }
    moved += delta;
  }
  return moved;
}

// Gives up to `amount` of c's quota back up, highest rank first (ties by
// id); a copy whose quota reaches zero is evicted.  The freed requests
// travel up, and the parent absorbs them if it caches the document.
template <class Book>
double RelinquishUp(const RoutingTree& tree, int docs, Book& book, NodeId p,
                    NodeId c, double amount) {
  std::vector<DocId> candidates;
  for (DocId d = 0; d < docs; ++d)
    if (book.Rank(c, d) > kQuotaEpsilon && book.Quota(c, d) > kQuotaEpsilon)
      candidates.push_back(d);
  std::sort(candidates.begin(), candidates.end(), [&](DocId a, DocId b) {
    const double ra = book.Rank(c, a);
    const double rb = book.Rank(c, b);
    return ra != rb ? ra > rb : a < b;
  });
  double moved = 0;
  for (const DocId d : candidates) {
    if (moved >= amount - kQuotaEpsilon) break;
    const double delta = std::min(amount - moved, book.Cap(c, d));
    if (delta <= kQuotaEpsilon) continue;
    book.SetQuota(c, d, std::max(0.0, book.Quota(c, d) - delta));
    if (book.Quota(c, d) <= kQuotaEpsilon) book.Evict(c, d);
    if (!tree.is_root(p) && book.Cached(p, d))
      book.SetQuota(p, d, book.Quota(p, d) + delta);
    moved += delta;
  }
  return moved;
}

// One sweep over the edges in ascending child id, each with the stable α.
// Returns, per node, whether its parent took action toward it this period.
template <class Book>
std::vector<bool> ExchangeQuota(const RoutingTree& tree, int docs,
                                Book& book) {
  std::vector<bool> received(static_cast<std::size_t>(tree.size()), false);
  for (NodeId c = 0; c < tree.size(); ++c) {
    if (tree.is_root(c)) continue;
    const NodeId p = tree.parent(c);
    const double alpha = StableAlpha(tree.degree(p), tree.degree(c));
    const double lp = book.Load(p);
    const double lc_est = book.Estimate(p, c);
    const double lc = book.Load(c);
    const double lp_est = book.Estimate(c, p);
    if (lp > lc_est + kQuotaEpsilon) {
      const double want = alpha * (lp - lc_est);
      // "No action is taken by j" (§5.2): a trickle far below the
      // prescribed diffusion shift does not count as action, or a barrier
      // leaking a trifle would never be detected.
      if (DelegateDown(tree, docs, book, p, c, want) > 0.25 * want)
        received[static_cast<std::size_t>(c)] = true;
    } else if (lc > lp_est + kQuotaEpsilon) {
      RelinquishUp(tree, docs, book, p, c, alpha * (lc - lp_est));
    }
  }
  return received;
}

// Barrier detection and tunneling: a child underloaded against its
// estimate of its parent, with no action received, for more than
// kBarrierPatience periods tunnels; a tunnel that acted resets its count.
template <class Book>
void DetectBarriersAndTunnel(const RoutingTree& tree, Book& book,
                             BarrierMonitor& monitor,
                             const std::vector<bool>& received) {
  for (NodeId k = 0; k < tree.size(); ++k) {
    if (tree.is_root(k)) continue;
    const bool underloaded =
        book.Load(k) < book.Estimate(k, tree.parent(k)) - kQuotaEpsilon;
    if (monitor.Observe(k, underloaded,
                        received[static_cast<std::size_t>(k)]) &&
        book.Tunnel(k))
      monitor.Reset(k);
  }
}

}  // namespace webwave
