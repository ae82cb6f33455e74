// Test-only oracle for the diffusion engine: a single-document WebWave
// simulator.  Lane d of a BatchWebWaveSimulator must evolve as
// WebWaveSimulator(tree, spontaneous[d], opt_d) does here, bit for bit,
// where opt_d is the batch's options with seed = options.seed + d — under
// the paper's assumptions and their relaxations (gossip period and delay,
// asynchronous activation, capacities), under churn, and at every lane
// block width and SIMD variant.
//
// The oracle is frozen: it keeps its own copy of the two-phase round of
// Figure 5 and of the churn projection, written for one lane, so a change
// to the engine's kernel cannot move the reference with it.  It shares
// only internal::BuildEdgeArrays (tree topology and per-edge alpha) and
// the dead band with src/.  It runs in original node ids, so it also
// checks the engine's relabelling.
//
// Layout: the tree's edges in ascending child-id order
// (internal::EdgeArrays); a node-indexed estimate plane that gossip
// refreshes by copying the served vector as it was gossip_delay steps
// ago, out of a flat ring of gossip_delay + 1 past served vectors.  Under
// instantaneous gossip (period 1, delay 0) no plane is kept and the round
// reads the live served vector, which is bitwise what a per-step refresh
// would have copied.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "core/load_model.h"
#include "core/webwave_kernel.h"
#include "core/webwave_options.h"
#include "stats/summary.h"
#include "tree/routing_tree.h"
#include "util/rng.h"

namespace webwave {

class WebWaveSimulator {
 public:
  WebWaveSimulator(const RoutingTree& tree, std::vector<double> spontaneous,
                   WebWaveOptions options = {})
      : tree_(tree),
        spontaneous_(std::move(spontaneous)),
        options_(std::move(options)),
        rng_(options_.seed),
        edges_(internal::BuildEdgeArrays(tree_, options_)) {
    const std::size_t n = static_cast<std::size_t>(tree_.size());
    capacity_ = options_.capacities.empty() ? std::vector<double>(n, 1.0)
                                            : options_.capacities;
    served_.assign(n, 0.0);
    switch (options_.initial_load) {
      case InitialLoad::kAllAtRoot:
        served_[static_cast<std::size_t>(tree_.root())] =
            TotalRate(spontaneous_);
        break;
      case InitialLoad::kSelfService:
        served_ = spontaneous_;
        break;
    }
    forwarded_ = ForwardedRates(tree_, spontaneous_, served_);
    if (!InstantGossip()) est_plane_.assign(n, 0.0);
    delta_.assign(edges_.size(), 0.0);
    if (options_.gossip_delay > 0) {
      history_.assign(
          (static_cast<std::size_t>(options_.gossip_delay) + 1) * n, 0.0);
      std::copy(served_.begin(), served_.end(), history_.begin());
    }
    RefreshEstimates();
  }

  // One diffusion period: phase 1 decides every edge's transfer from one
  // snapshot, phase 2 applies them edge-atomically with feasibility
  // clamps (see webwave_kernel.h for the rule).
  void Step() {
    const internal::EdgeArrays& edges = edges_;
    const double* est =
        InstantGossip() ? served_.data() : est_plane_.data();
    for (std::size_t k = 0; k < edges.size(); ++k) {
      const std::size_t p = static_cast<std::size_t>(edges.parent[k]);
      const std::size_t c = static_cast<std::size_t>(edges.child[k]);
      const double cp = capacity_[p];
      const double cc = capacity_[c];
      const double scale = std::min(cp, cc);
      delta_[k] = 0;
      if (options_.asynchronous &&
          !rng_.NextBernoulli(options_.activation_probability))
        continue;
      const double up = served_[p] / cp;
      const double uc = served_[c] / cc;
      const double parent_view = est[c] / cc;
      const double child_view = est[p] / cp;
      if (up - parent_view > internal::kImbalanceDeadband * up) {
        delta_[k] = std::min(edges.alpha[k] * (up - parent_view) * scale,
                             forwarded_[c]);
      } else if (uc - child_view > internal::kImbalanceDeadband * uc) {
        delta_[k] = -std::min(edges.alpha[k] * (uc - child_view) * scale,
                              served_[c]);
      }
    }
    for (std::size_t k = 0; k < edges.size(); ++k) {
      const std::size_t p = static_cast<std::size_t>(edges.parent[k]);
      const std::size_t c = static_cast<std::size_t>(edges.child[k]);
      double d = delta_[k];
      if (d == 0) continue;
      if (d > 0) {
        d = std::min({d, forwarded_[c], served_[p]});
        if (d <= 0) continue;
        served_[p] -= d;
        served_[c] += d;
        forwarded_[c] -= d;
      } else {
        const double up_amt = std::min(-d, served_[c]);
        if (up_amt <= 0) continue;
        served_[c] -= up_amt;
        served_[p] += up_amt;
        forwarded_[c] += up_amt;
      }
    }
    ++steps_;
    PushHistory();
    if (steps_ % options_.gossip_period == 0) RefreshEstimates();
  }

  // Replaces the spontaneous rates and projects the served vector onto the
  // new feasible set: in postorder every node keeps min(L_v, arriving
  // flow), the shortfall climbs and the root absorbs it.  The gossip
  // history restarts and the estimates refresh at once.
  void UpdateSpontaneous(std::vector<double> spontaneous) {
    spontaneous_ = std::move(spontaneous);
    for (const NodeId v : tree_.postorder()) {
      const std::size_t i = static_cast<std::size_t>(v);
      double arrive = spontaneous_[i];
      for (const NodeId c : tree_.children(v))
        arrive += forwarded_[static_cast<std::size_t>(c)];
      double serve = std::min(served_[i], arrive);
      if (tree_.is_root(v)) serve = arrive;
      served_[i] = serve;
      forwarded_[i] = arrive - serve;
    }
    if (options_.gossip_delay > 0) {
      history_head_ = 0;
      history_filled_ = 1;
      std::copy(served_.begin(), served_.end(), history_.begin());
    }
    RefreshEstimates();
  }

  const std::vector<double>& served() const { return served_; }

  double DistanceTo(const std::vector<double>& target) const {
    return EuclideanDistance(served_, target);
  }

  // Steps until DistanceTo(target) <= tol or max_steps is reached; returns
  // the distance trajectory including the initial state.
  std::vector<double> RunUntil(const std::vector<double>& target, double tol,
                               int max_steps) {
    std::vector<double> trajectory = {DistanceTo(target)};
    for (int s = 0; s < max_steps && trajectory.back() > tol; ++s) {
      Step();
      trajectory.push_back(DistanceTo(target));
    }
    return trajectory;
  }

 private:
  bool InstantGossip() const {
    return options_.gossip_period == 1 && options_.gossip_delay == 0;
  }

  // The served vector as it looked gossip_delay steps ago, clamped to the
  // oldest recorded state.
  const double* DelayedServedView() const {
    if (options_.gossip_delay == 0) return served_.data();
    const std::size_t slots =
        static_cast<std::size_t>(options_.gossip_delay) + 1;
    const std::size_t lag = std::min(
        static_cast<std::size_t>(options_.gossip_delay), history_filled_ - 1);
    return history_.data() +
           ((history_head_ + slots - lag) % slots) * served_.size();
  }

  void PushHistory() {
    if (options_.gossip_delay == 0) return;
    const std::size_t slots =
        static_cast<std::size_t>(options_.gossip_delay) + 1;
    history_head_ = (history_head_ + 1) % slots;
    history_filled_ = std::min(history_filled_ + 1, slots);
    std::copy(served_.begin(), served_.end(),
              history_.begin() +
                  static_cast<std::ptrdiff_t>(history_head_ * served_.size()));
  }

  void RefreshEstimates() {
    if (InstantGossip()) return;
    const double* view = DelayedServedView();
    std::copy(view, view + served_.size(), est_plane_.begin());
  }

  const RoutingTree& tree_;
  std::vector<double> spontaneous_;
  WebWaveOptions options_;
  Rng rng_;
  internal::EdgeArrays edges_;
  std::vector<double> capacity_;
  std::vector<double> served_;     // L
  std::vector<double> forwarded_;  // A
  std::vector<double> est_plane_;  // node-indexed gossiped load estimates
  std::vector<double> delta_;      // per-edge transfer scratch
  int steps_ = 0;
  // Ring of past served vectors: slot history_head_ is the current step.
  std::vector<double> history_;
  std::size_t history_head_ = 0;
  std::size_t history_filled_ = 1;
};

}  // namespace webwave
