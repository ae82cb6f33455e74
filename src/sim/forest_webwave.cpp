#include "sim/forest_webwave.h"

#include <algorithm>

#include "core/load_model.h"
#include "core/webwave_options.h"
#include "util/check.h"

namespace webwave {

ForestWebWave::ForestWebWave(const std::vector<RoutingTree>& trees,
                             std::vector<std::vector<double>> demands,
                             ForestWebWaveOptions options)
    : trees_(trees), demands_(std::move(demands)), options_(options) {
  // trees_ is a copy: the protocol often outlives caller temporaries.
  WEBWAVE_REQUIRE(!trees_.empty(), "need at least one tree");
  WEBWAVE_REQUIRE(demands_.size() == trees_.size(),
                  "one demand vector per tree");
  const int n = trees_.front().size();
  for (const RoutingTree& t : trees_)
    WEBWAVE_REQUIRE(t.size() == n, "trees must share the node set");
  served_.resize(trees_.size());
  forwarded_.resize(trees_.size());
  for (std::size_t t = 0; t < trees_.size(); ++t) {
    WEBWAVE_REQUIRE(demands_[t].size() == static_cast<std::size_t>(n),
                    "demand size mismatch");
    for (const double e : demands_[t])
      WEBWAVE_REQUIRE(e >= 0, "rates must be non-negative");
    // Cold start: each home serves its whole document family.
    served_[t].assign(static_cast<std::size_t>(n), 0.0);
    served_[t][static_cast<std::size_t>(trees_[t].root())] =
        TotalRate(demands_[t]);
    forwarded_[t] = ForwardedRates(trees_[t], demands_[t], served_[t]);
  }

  // Flatten every tree's edges (ascending child id, root skipped) with
  // their diffusion parameters into one contiguous layout.
  edge_offset_.reserve(trees_.size() + 1);
  edge_offset_.push_back(0);
  edge_parent_.reserve(trees_.size() * static_cast<std::size_t>(n - 1));
  edge_child_.reserve(edge_parent_.capacity());
  edge_alpha_.reserve(edge_parent_.capacity());
  for (const RoutingTree& tree : trees_) {
    for (NodeId c = 0; c < tree.size(); ++c) {
      if (tree.is_root(c)) continue;
      const NodeId p = tree.parent(c);
      edge_parent_.push_back(p);
      edge_child_.push_back(c);
      edge_alpha_.push_back(
          options_.alpha > 0
              ? options_.alpha
              : StableAlpha(tree.degree(p), tree.degree(c)));
    }
    edge_offset_.push_back(edge_parent_.size());
  }
}

std::vector<double> ForestWebWave::TotalLoads() const {
  std::vector<double> total(served_.front().size(), 0.0);
  for (const auto& per_tree : served_)
    for (std::size_t v = 0; v < per_tree.size(); ++v) total[v] += per_tree[v];
  return total;
}

double ForestWebWave::MaxTotalLoad() const {
  const std::vector<double> total = TotalLoads();
  double mx = 0;
  for (const double l : total) mx = std::max(mx, l);
  return mx;
}

void ForestWebWave::Step() {
  // Coordinated mode: imbalances are measured on the nodes' *total* load
  // and each tree contributes its proportional share of the prescribed
  // shift (so K overlapping trees do not move K times the diffusion
  // amount).  Transfers update the running totals immediately —
  // Gauss-Seidel style — which damps overshoot between trees within a
  // round.  Independent mode reproduces the paper's per-tree protocol.
  std::vector<double> total = TotalLoads();

  for (std::size_t t = 0; t < trees_.size(); ++t) {
    auto& served = served_[t];
    auto& forwarded = forwarded_[t];
    const std::size_t end = edge_offset_[t + 1];
    for (std::size_t k = edge_offset_[t]; k < end; ++k) {
      const std::size_t pi = static_cast<std::size_t>(edge_parent_[k]);
      const std::size_t ci = static_cast<std::size_t>(edge_child_[k]);
      const double alpha = edge_alpha_[k];
      double d = 0;
      if (options_.coordinate_across_trees) {
        if (total[pi] > total[ci]) {
          const double share = total[pi] > 0 ? served[pi] / total[pi] : 0;
          d = std::min({alpha * (total[pi] - total[ci]) * share,
                        forwarded[ci], served[pi]});
        } else if (total[ci] > total[pi]) {
          const double share = total[ci] > 0 ? served[ci] / total[ci] : 0;
          d = -std::min(alpha * (total[ci] - total[pi]) * share, served[ci]);
        }
      } else {
        if (served[pi] > served[ci]) {
          d = std::min({alpha * (served[pi] - served[ci]), forwarded[ci],
                        served[pi]});
        } else if (served[ci] > served[pi]) {
          d = -std::min(alpha * (served[ci] - served[pi]), served[ci]);
        }
      }
      if (d > 0) {
        served[pi] -= d;
        served[ci] += d;
        forwarded[ci] -= d;
        total[pi] -= d;
        total[ci] += d;
      } else if (d < 0) {
        served[ci] += d;
        served[pi] -= d;
        forwarded[ci] -= d;
        total[ci] += d;
        total[pi] -= d;
      }
    }
  }
  ++steps_;
}

void ForestWebWave::CheckInvariants(double tol) const {
  for (std::size_t t = 0; t < trees_.size(); ++t) {
    const double total = TotalRate(demands_[t]);
    WEBWAVE_ASSERT(
        std::abs(TotalRate(served_[t]) - total) <= tol * (1 + total),
        "per-tree flow conservation violated");
    const std::vector<double> expect =
        ForwardedRates(trees_[t], demands_[t], served_[t]);
    for (std::size_t v = 0; v < served_[t].size(); ++v) {
      WEBWAVE_ASSERT(served_[t][v] >= -tol, "negative served rate");
      WEBWAVE_ASSERT(forwarded_[t][v] >= -tol, "per-tree NSS violated");
      WEBWAVE_ASSERT(std::abs(forwarded_[t][v] - expect[v]) <=
                         tol * (1 + total),
                     "tracked A diverged");
    }
  }
}

}  // namespace webwave
