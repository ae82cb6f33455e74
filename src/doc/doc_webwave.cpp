#include "doc/doc_webwave.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "stats/summary.h"
#include "util/check.h"

namespace webwave {

namespace {

// Rates and quotas at or below this are treated as zero.
constexpr double kEpsilon = 1e-9;

}  // namespace

DocWebWave::DocWebWave(const RoutingTree& tree, const DemandMatrix& demand,
                       DocWebWaveOptions options)
    : tree_(tree),
      demand_(demand),
      options_(options),
      docs_(demand.doc_count()),
      quota_(static_cast<std::size_t>(tree.size()) * demand.doc_count(), 0.0),
      served_(quota_.size(), 0.0),
      forwarded_(quota_.size(), 0.0),
      cached_(quota_.size(), 0),
      loads_(static_cast<std::size_t>(tree.size()), 0.0),
      barrier_monitor_(tree.size()),
      received_this_period_(static_cast<std::size_t>(tree.size()), false) {
  WEBWAVE_REQUIRE(demand.node_count() == tree.size(),
                  "demand matrix does not match tree");
  // The home server (root) holds the authoritative copy of every document.
  for (DocId d = 0; d < docs_; ++d)
    cached_[static_cast<std::size_t>(tree_.root()) * docs_ + d] = 1;
  RecomputeFlows();
}

void DocWebWave::SeedCopy(NodeId v, DocId d, double initial_quota) {
  WEBWAVE_REQUIRE(v >= 0 && v < tree_.size() && d >= 0 && d < docs_,
                  "index out of range");
  WEBWAVE_REQUIRE(!tree_.is_root(v), "the root already caches everything");
  WEBWAVE_REQUIRE(initial_quota >= 0, "quota must be non-negative");
  WEBWAVE_REQUIRE(period_ == 0, "seed placements before the first Step()");
  cached_[static_cast<std::size_t>(v) * docs_ + d] = 1;
  quota(v, d) = initial_quota;
  RecomputeFlows();
}

void DocWebWave::RecomputeFlows() {
  // Bottom-up: arrive = own demand + children's forwarded; non-root nodes
  // serve min(quota, arrive) of cached documents; the home server absorbs
  // everything that reaches it (it is the authoritative copy).
  for (const NodeId v : tree_.postorder()) {
    for (DocId d = 0; d < docs_; ++d) {
      double arrive = demand_.at(v, d);
      for (const NodeId c : tree_.children(v)) arrive += fwd_at(c, d);
      const bool has_copy =
          cached_[static_cast<std::size_t>(v) * docs_ + d] != 0;
      double serve = 0;
      if (tree_.is_root(v)) {
        serve = arrive;
      } else if (has_copy) {
        serve = std::min(quota_at(v, d), arrive);
      }
      served(v, d) = serve;
      fwd(v, d) = arrive - serve;
    }
  }
  for (NodeId v = 0; v < tree_.size(); ++v) {
    double total = 0;
    for (DocId d = 0; d < docs_; ++d) total += served_at(v, d);
    loads_[static_cast<std::size_t>(v)] = total;
  }
}

double DocWebWave::EdgeAlpha(NodeId parent, NodeId child) const {
  return 1.0 / (1.0 + std::max(tree_.degree(parent), tree_.degree(child)));
}

double DocWebWave::DelegateDown(NodeId p, NodeId c, double amount) {
  // Pick documents p caches whose requests flow through c, hottest flow
  // first, and hand over copies plus quota.
  std::vector<DocId> candidates;
  for (DocId d = 0; d < docs_; ++d) {
    if (cached_[static_cast<std::size_t>(p) * docs_ + d] == 0) continue;
    if (fwd_at(c, d) <= kEpsilon) continue;
    const double avail = tree_.is_root(p) ? served_at(p, d) : quota_at(p, d);
    if (avail <= kEpsilon) continue;
    candidates.push_back(d);
  }
  std::sort(candidates.begin(), candidates.end(), [&](DocId a, DocId b) {
    if (fwd_at(c, a) != fwd_at(c, b)) return fwd_at(c, a) > fwd_at(c, b);
    return a < b;
  });
  double moved = 0;
  for (const DocId d : candidates) {
    if (moved >= amount - kEpsilon) break;
    // Quotas were tightened to realized service at the start of the
    // period and are updated incrementally here, so a node that both
    // receives and gives quota within one period keeps its books straight.
    const double parent_available =
        tree_.is_root(p) ? served_at(p, d) : quota_at(p, d);
    const double delta =
        std::min({amount - moved, fwd_at(c, d), parent_available});
    if (delta <= kEpsilon) continue;
    if (cached_[static_cast<std::size_t>(c) * docs_ + d] == 0) {
      cached_[static_cast<std::size_t>(c) * docs_ + d] = 1;
      ++replications_;
    }
    quota(c, d) += delta;
    if (!tree_.is_root(p)) {
      // The home server's quota is implicit (it absorbs); only interior
      // caches track explicit quotas.
      quota(p, d) = std::max(0.0, quota_at(p, d) - delta);
      if (quota_at(p, d) <= kEpsilon) {
        cached_[static_cast<std::size_t>(p) * docs_ + d] = 0;
        quota(p, d) = 0;
        ++evictions_;
      }
    }
    moved += delta;
  }
  return moved;
}

double DocWebWave::RelinquishUp(NodeId p, NodeId c, double amount) {
  // The child gives up quota, most-served documents first; freed requests
  // flow toward the home server.  If the parent caches the document it
  // raises its own quota to absorb them en route.
  std::vector<DocId> candidates;
  for (DocId d = 0; d < docs_; ++d)
    if (quota_at(c, d) > kEpsilon) candidates.push_back(d);
  std::sort(candidates.begin(), candidates.end(), [&](DocId a, DocId b) {
    if (quota_at(c, a) != quota_at(c, b))
      return quota_at(c, a) > quota_at(c, b);
    return a < b;
  });
  double moved = 0;
  for (const DocId d : candidates) {
    if (moved >= amount - kEpsilon) break;
    const double delta = std::min(amount - moved, quota_at(c, d));
    if (delta <= kEpsilon) continue;
    quota(c, d) = std::max(0.0, quota_at(c, d) - delta);
    if (quota_at(c, d) <= kEpsilon) {
      cached_[static_cast<std::size_t>(c) * docs_ + d] = 0;
      quota(c, d) = 0;
      ++evictions_;
    }
    if (!tree_.is_root(p) &&
        cached_[static_cast<std::size_t>(p) * docs_ + d] != 0) {
      quota(p, d) += delta;
    }
    moved += delta;
  }
  return moved;
}

void DocWebWave::Tunnel(NodeId k) {
  // "Server k identifies one or more documents for which it is forwarding
  // requests to its parent, and requests them directly."  Pick the
  // document k forwards at the highest rate; when k does not yet hold a
  // copy, fetch it from the nearest ancestor caching it — across the
  // barrier parent.  When k already holds the copy (a previous tunnel),
  // the stalled diffusion is repaired by raising k's own service quota on
  // the passing flow.
  DocId best = -1;
  for (DocId d = 0; d < docs_; ++d) {
    if (fwd_at(k, d) <= kEpsilon) continue;
    if (best < 0 || fwd_at(k, d) > fwd_at(k, best)) best = d;
  }
  if (best < 0) return;  // nothing flows past k at all

  const NodeId p = tree_.parent(k);
  const double gap = loads_[static_cast<std::size_t>(p)] -
                     loads_[static_cast<std::size_t>(k)];
  const double quota_grant =
      std::min(fwd_at(k, best), EdgeAlpha(p, k) * gap);
  if (quota_grant <= kEpsilon) return;

  if (cached_[static_cast<std::size_t>(k) * docs_ + best] == 0) {
    NodeId source = kNoNode;
    for (NodeId a = tree_.parent(k); a != kNoNode; a = tree_.parent(a)) {
      if (cached_[static_cast<std::size_t>(a) * docs_ + best] != 0) {
        source = a;
        break;
      }
    }
    WEBWAVE_ASSERT(source != kNoNode, "home server must cache everything");
    cached_[static_cast<std::size_t>(k) * docs_ + best] = 1;
    ++replications_;
    tunnels_.push_back({period_, k, p, source, best, quota_grant});
  }
  quota(k, best) += quota_grant;
  barrier_monitor_.Reset(k);
  received_this_period_[static_cast<std::size_t>(k)] = true;
}

void DocWebWave::Step() {
  RecomputeFlows();
  std::fill(received_this_period_.begin(), received_this_period_.end(),
            false);

  // Tighten quotas to the service actually realized this period: quota
  // exchanges below are then exact increments, and a node that both
  // receives and gives within one period keeps consistent books.
  for (NodeId v = 0; v < tree_.size(); ++v) {
    if (tree_.is_root(v)) continue;
    for (DocId d = 0; d < docs_; ++d)
      if (cached_[static_cast<std::size_t>(v) * docs_ + d] != 0)
        quota(v, d) = served_at(v, d);
  }

  // Snapshot the loads the decisions are based on (synchronous rounds).
  const std::vector<double> loads = loads_;

  for (NodeId c = 0; c < tree_.size(); ++c) {
    if (tree_.is_root(c)) continue;
    const NodeId p = tree_.parent(c);
    const double lp = loads[static_cast<std::size_t>(p)];
    const double lc = loads[static_cast<std::size_t>(c)];
    const double alpha = EdgeAlpha(p, c);
    if (lp > lc + kEpsilon) {
      const double want = alpha * (lp - lc);
      const double moved = DelegateDown(p, c, want);
      // "No action is taken by j" (§5.2): a trickle far below the
      // prescribed diffusion shift does not count as action, or a barrier
      // leaking a trifle would never be detected.
      if (moved > 0.25 * want)
        received_this_period_[static_cast<std::size_t>(c)] = true;
    } else if (lc > lp + kEpsilon) {
      RelinquishUp(p, c, alpha * (lc - lp));
    }
  }

  RecomputeFlows();

  // Barrier detection and tunneling, on the post-exchange state.
  if (options_.enable_tunneling) {
    for (NodeId k = 0; k < tree_.size(); ++k) {
      if (tree_.is_root(k)) continue;
      const NodeId p = tree_.parent(k);
      const bool underloaded =
          loads_[static_cast<std::size_t>(k)] <
          loads_[static_cast<std::size_t>(p)] - kEpsilon;
      if (barrier_monitor_.Observe(
              k, underloaded,
              received_this_period_[static_cast<std::size_t>(k)])) {
        Tunnel(k);
      }
    }
    RecomputeFlows();
  }
  ++period_;
}

std::vector<double> DocWebWave::NodeLoads() const { return loads_; }

double DocWebWave::ServedRate(NodeId v, DocId d) const {
  return served_at(v, d);
}

double DocWebWave::ForwardedRate(NodeId v, DocId d) const {
  return fwd_at(v, d);
}

bool DocWebWave::IsCached(NodeId v, DocId d) const {
  WEBWAVE_REQUIRE(v >= 0 && v < tree_.size() && d >= 0 && d < docs_,
                  "index out of range");
  return cached_[static_cast<std::size_t>(v) * docs_ + d] != 0;
}

int DocWebWave::CopyCount(DocId d) const {
  int count = 0;
  for (NodeId v = 0; v < tree_.size(); ++v)
    if (cached_[static_cast<std::size_t>(v) * docs_ + d] != 0) ++count;
  return count;
}

double DocWebWave::DistanceTo(const std::vector<double>& target) const {
  return EuclideanDistance(loads_, target);
}

std::vector<double> DocWebWave::RunUntil(const std::vector<double>& target,
                                         double tol, int max_steps) {
  std::vector<double> trajectory = {DistanceTo(target)};
  for (int s = 0; s < max_steps && trajectory.back() > tol; ++s) {
    Step();
    trajectory.push_back(DistanceTo(target));
  }
  return trajectory;
}

std::vector<std::vector<bool>> DocWebWave::CacheSnapshot() const {
  std::vector<std::vector<bool>> snap(static_cast<std::size_t>(tree_.size()));
  for (NodeId v = 0; v < tree_.size(); ++v) {
    snap[static_cast<std::size_t>(v)].resize(static_cast<std::size_t>(docs_));
    for (DocId d = 0; d < docs_; ++d)
      snap[static_cast<std::size_t>(v)][static_cast<std::size_t>(d)] =
          cached_[static_cast<std::size_t>(v) * docs_ + d] != 0;
  }
  return snap;
}

std::vector<std::vector<double>> DocWebWave::ForwardedSnapshot() const {
  std::vector<std::vector<double>> snap(static_cast<std::size_t>(tree_.size()));
  for (NodeId v = 0; v < tree_.size(); ++v) {
    snap[static_cast<std::size_t>(v)].resize(static_cast<std::size_t>(docs_));
    for (DocId d = 0; d < docs_; ++d)
      snap[static_cast<std::size_t>(v)][static_cast<std::size_t>(d)] =
          fwd_at(v, d);
  }
  return snap;
}

void DocWebWave::CheckInvariants(double tol) const {
  const double total_demand = demand_.Total();
  double total_served = 0;
  for (NodeId v = 0; v < tree_.size(); ++v) {
    for (DocId d = 0; d < docs_; ++d) {
      WEBWAVE_ASSERT(quota_at(v, d) >= -tol, "negative quota");
      WEBWAVE_ASSERT(served_at(v, d) >= -tol, "negative served rate");
      WEBWAVE_ASSERT(fwd_at(v, d) >= -tol, "negative forwarded rate (NSS)");
      if (served_at(v, d) > tol)
        WEBWAVE_ASSERT(cached_[static_cast<std::size_t>(v) * docs_ + d] != 0,
                       "serving a document without a cache copy");
      total_served += served_at(v, d);
    }
  }
  for (DocId d = 0; d < docs_; ++d) {
    WEBWAVE_ASSERT(
        cached_[static_cast<std::size_t>(tree_.root()) * docs_ + d] != 0,
        "home server must keep the authoritative copy");
    WEBWAVE_ASSERT(fwd_at(tree_.root(), d) <= tol,
                   "the root must absorb all remaining requests");
  }
  WEBWAVE_ASSERT(
      std::abs(total_served - total_demand) <= tol * (1 + total_demand),
      "flow conservation violated");
}

}  // namespace webwave
