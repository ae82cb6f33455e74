#include "doc/doc_webwave.h"

#include <algorithm>
#include <cmath>

#include "doc/quota_exchange.h"
#include "stats/summary.h"
#include "util/check.h"

namespace webwave {

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
      barrier_monitor_(tree.size()) {
  WEBWAVE_REQUIRE(demand.node_count() == tree.size(),
                  "demand matrix does not match tree");
  // The home server (root) holds the authoritative copy of every document.
  for (DocId d = 0; d < docs_; ++d) cached(tree_.root(), d) = 1;
  RecomputeFlows();
}

void DocWebWave::SeedCopy(NodeId v, DocId d, double initial_quota) {
  WEBWAVE_REQUIRE(v >= 0 && v < tree_.size() && d >= 0 && d < docs_,
                  "index out of range");
  WEBWAVE_REQUIRE(!tree_.is_root(v), "the root already caches everything");
  WEBWAVE_REQUIRE(initial_quota >= 0, "quota must be non-negative");
  WEBWAVE_REQUIRE(period_ == 0, "seed placements before the first Step()");
  cached(v, d) = 1;
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
      double serve = 0;
      if (tree_.is_root(v)) {
        serve = arrive;
      } else if (cached_at(v, d)) {
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

bool DocWebWave::Tunnel(NodeId k) {
  // "Server k identifies one or more documents for which it is forwarding
  // requests to its parent, and requests them directly."  Pick the
  // document k forwards at the highest rate; when k does not yet hold a
  // copy, fetch it from the nearest ancestor caching it — across the
  // barrier parent.  When k already holds the copy (a previous tunnel),
  // the stalled diffusion is repaired by raising k's own service quota on
  // the passing flow.
  DocId best = -1;
  for (DocId d = 0; d < docs_; ++d) {
    if (fwd_at(k, d) <= kQuotaEpsilon) continue;
    if (best < 0 || fwd_at(k, d) > fwd_at(k, best)) best = d;
  }
  if (best < 0) return false;  // nothing flows past k at all

  const NodeId p = tree_.parent(k);
  const double gap = loads_[static_cast<std::size_t>(p)] -
                     loads_[static_cast<std::size_t>(k)];
  const double quota_grant =
      std::min(fwd_at(k, best),
               StableAlpha(tree_.degree(p), tree_.degree(k)) * gap);
  if (quota_grant <= kQuotaEpsilon) return false;

  if (!cached_at(k, best)) {
    NodeId source = kNoNode;
    for (NodeId a = p; a != kNoNode; a = tree_.parent(a)) {
      if (cached_at(a, best)) {
        source = a;
        break;
      }
    }
    WEBWAVE_ASSERT(source != kNoNode, "home server must cache everything");
    cached(k, best) = 1;
    ++replications_;
    tunnels_.push_back({period_, k, p, source, best, quota_grant});
  }
  quota(k, best) += quota_grant;
  return true;
}

void DocWebWave::Step() {
  RecomputeFlows();

  // Tighten quotas to the service actually realized this period: quota
  // exchanges below are then exact increments, and a node that both
  // receives and gives within one period keeps consistent books.
  for (NodeId v = 0; v < tree_.size(); ++v) {
    if (tree_.is_root(v)) continue;
    for (DocId d = 0; d < docs_; ++d)
      if (cached_at(v, d)) quota(v, d) = served_at(v, d);
  }

  // The exchange reads exact loads and flows from the last RecomputeFlows.
  // The home's spare quota is what it serves (it absorbs); elsewhere it is
  // the tightened quota.  A delegating parent evicts at zero quota.
  struct Book {
    DocWebWave& w;
    double Load(NodeId v) { return w.loads_[static_cast<std::size_t>(v)]; }
    double Estimate(NodeId, NodeId u) { return Load(u); }
    double Flow(NodeId, NodeId c, DocId d) { return w.fwd_at(c, d); }
    double Spare(NodeId p, DocId d) {
      return w.tree_.is_root(p) ? w.served_at(p, d) : w.quota_at(p, d);
    }
    double Rank(NodeId c, DocId d) { return w.quota_at(c, d); }
    double Cap(NodeId c, DocId d) { return w.quota_at(c, d); }
    bool Cached(NodeId v, DocId d) { return w.cached_at(v, d); }
    double Quota(NodeId v, DocId d) { return w.quota_at(v, d); }
    void SetQuota(NodeId v, DocId d, double q) { w.quota(v, d) = q; }
    void Install(NodeId v, DocId d) {
      w.cached(v, d) = 1;
      ++w.replications_;
    }
    void Evict(NodeId v, DocId d) {
      w.cached(v, d) = 0;
      w.quota(v, d) = 0;
      ++w.evictions_;
    }
    bool EvictsOnDelegate() { return true; }
    bool Tunnel(NodeId k) { return w.Tunnel(k); }
  } book{*this};
  const std::vector<bool> received = ExchangeQuota(tree_, docs_, book);
  RecomputeFlows();

  // Barrier detection and tunneling, on the post-exchange state.
  if (options_.enable_tunneling) {
    DetectBarriersAndTunnel(tree_, book, barrier_monitor_, received);
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
  return cached_at(v, d);
}

int DocWebWave::CopyCount(DocId d) const {
  int count = 0;
  for (NodeId v = 0; v < tree_.size(); ++v)
    if (cached_at(v, d)) ++count;
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
          cached_at(v, d);
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
        WEBWAVE_ASSERT(cached_at(v, d),
                       "serving a document without a cache copy");
      total_served += served_at(v, d);
    }
  }
  for (DocId d = 0; d < docs_; ++d) {
    WEBWAVE_ASSERT(cached_at(tree_.root(), d),
                   "home server must keep the authoritative copy");
    WEBWAVE_ASSERT(fwd_at(tree_.root(), d) <= tol,
                   "the root must absorb all remaining requests");
  }
  WEBWAVE_ASSERT(
      std::abs(total_served - total_demand) <= tol * (1 + total_demand),
      "flow conservation violated");
}

}  // namespace webwave
