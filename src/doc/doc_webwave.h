// Document-level WebWave (§5.2): the diffusion protocol operating on real
// cache copies instead of infinitely divisible load.
//
// Every node holds a set of cached documents with a *service quota* per
// document: of the requests for d that arrive at the node (its own demand
// plus what its children forward), it serves up to the quota and forwards
// the rest toward the home server, which holds the authoritative copy of
// everything and absorbs whatever reaches it.  This realizes the paper's
// architecture: requests stumble on copies en route, no directory exists.
//
// The protocol per period, per edge (parent p, child c), with total loads
// L measured from the current flows:
//   * L_p > L_c: p delegates future requests to c, capped by what flows
//     through c (NSS) *and by the documents p actually caches* — p hands c
//     a copy of one or more of its cached documents and gives up the
//     corresponding quota.  When p caches none of the documents c
//     forwards, nothing moves: that is a potential barrier.
//   * L_c > L_p: c relinquishes quota; the freed requests travel up and
//     are absorbed by the first ancestor caching the document (ultimately
//     the home server).  A quota that reaches zero drops the copy.
//
// Tunneling (§5.2): a child underloaded w.r.t. its parent for more than
// kBarrierPatience periods with no load received fetches a copy of a
// document it is forwarding directly from the nearest ancestor that caches
// it, across the barrier.
#pragma once

#include <cstdint>
#include <vector>

#include "doc/barrier.h"
#include "doc/catalog.h"
#include "tree/routing_tree.h"

namespace webwave {

// Each edge diffuses with α = 1/(1 + max degree of its endpoints), and a
// copy whose service quota falls to zero is evicted.
struct DocWebWaveOptions {
  bool enable_tunneling = true;
};

// A record of one tunneling event, for experiment output.
struct TunnelEvent {
  int period = 0;
  NodeId node = kNoNode;     // the underloaded child that tunneled
  NodeId barrier = kNoNode;  // its parent (the potential barrier)
  NodeId source = kNoNode;   // the ancestor the copy came from
  DocId doc = 0;
  double quota = 0;          // service quota installed with the copy
};

class DocWebWave {
 public:
  DocWebWave(const RoutingTree& tree, const DemandMatrix& demand,
             DocWebWaveOptions options = {});

  // Installs an initial cache copy with a service quota before the
  // protocol starts — used to reproduce prescribed placements like
  // Figure 7(a).  Must not target the root (which caches everything).
  void SeedCopy(NodeId v, DocId d, double quota);

  // One diffusion period: measure flows, exchange load with neighbors,
  // tunnel where barriers are detected.
  void Step();
  int period() const { return period_; }

  // Total served rate per node (the L vector).
  std::vector<double> NodeLoads() const;
  double ServedRate(NodeId v, DocId d) const;
  double ForwardedRate(NodeId v, DocId d) const;
  bool IsCached(NodeId v, DocId d) const;
  // Number of cache copies of d in the tree (including the home copy).
  int CopyCount(DocId d) const;

  const std::vector<TunnelEvent>& tunnel_events() const { return tunnels_; }
  int replication_count() const { return replications_; }
  int eviction_count() const { return evictions_; }

  // Euclidean distance from NodeLoads() to a target assignment.
  double DistanceTo(const std::vector<double>& target) const;

  // Steps until DistanceTo(target) <= tol or max_steps; returns the
  // distance trajectory (index 0 = initial state).
  std::vector<double> RunUntil(const std::vector<double>& target, double tol,
                               int max_steps);

  // Cache snapshot for barrier analysis: caches()[v][d].
  std::vector<std::vector<bool>> CacheSnapshot() const;
  std::vector<std::vector<double>> ForwardedSnapshot() const;

  // Invariants: flows conserve demand; quotas non-negative; only cached
  // documents are served; home caches everything.  Throws on violation.
  void CheckInvariants(double tol = 1e-6) const;

 private:
  double& quota(NodeId v, DocId d) {
    return quota_[static_cast<std::size_t>(v) * docs_ + d];
  }
  double quota_at(NodeId v, DocId d) const {
    return quota_[static_cast<std::size_t>(v) * docs_ + d];
  }
  double& served(NodeId v, DocId d) {
    return served_[static_cast<std::size_t>(v) * docs_ + d];
  }
  double served_at(NodeId v, DocId d) const {
    return served_[static_cast<std::size_t>(v) * docs_ + d];
  }
  double& fwd(NodeId v, DocId d) {
    return forwarded_[static_cast<std::size_t>(v) * docs_ + d];
  }
  double fwd_at(NodeId v, DocId d) const {
    return forwarded_[static_cast<std::size_t>(v) * docs_ + d];
  }

  // Recomputes arrive/served/forwarded flows bottom-up from quotas.
  void RecomputeFlows();
  double EdgeAlpha(NodeId parent, NodeId child) const;
  // Moves up to `amount` of quota from p to c across documents p caches
  // that flow through c; returns how much actually moved.
  double DelegateDown(NodeId p, NodeId c, double amount);
  // Relinquishes up to `amount` of c's quota upward; returns amount moved.
  double RelinquishUp(NodeId p, NodeId c, double amount);
  void Tunnel(NodeId k);

  const RoutingTree& tree_;
  const DemandMatrix& demand_;
  DocWebWaveOptions options_;
  int docs_;
  int period_ = 0;

  std::vector<double> quota_;      // [node][doc] intended service rate
  std::vector<double> served_;     // [node][doc] realized service rate
  std::vector<double> forwarded_;  // [node][doc] rate forwarded to parent
  std::vector<std::uint8_t> cached_;  // [node][doc]
  std::vector<double> loads_;      // per-node total served, after flows

  BarrierMonitor barrier_monitor_;
  std::vector<bool> received_this_period_;
  std::vector<TunnelEvent> tunnels_;
  int replications_ = 0;
  int evictions_ = 0;
};

}  // namespace webwave
