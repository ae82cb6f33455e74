// Test-only reference for the §2 diffusion method: the dense n × n
// diffusion matrix.  SparseDiffusionMatrix (src/core/diffusion.h) must
// agree with it entry for entry, sweep for sweep and in its spectral γ.
//
// The reference is frozen: it builds every entry into a row-major n²
// array straight from the graph, sweeps whole rows (exact zeros
// included), and runs its own iteration loop, so a change to the CSR
// assembly or the sparse sweep cannot move the reference with it.  It
// shares only UndirectedGraph and the DiffusionRun record with src/.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <utility>
#include <vector>

#include "core/diffusion.h"
#include "stats/summary.h"
#include "util/check.h"

namespace webwave {

// Dense row-major diffusion matrix: D_ij = α_ij for neighbours,
// D_ii = 1 − Σ_j α_ij.
class DiffusionMatrix {
 public:
  // Uniform α on every edge; requires α·max_degree < 1 (Cybenko (1)).
  static DiffusionMatrix Uniform(const UndirectedGraph& graph, double alpha) {
    WEBWAVE_REQUIRE(alpha > 0, "alpha must be positive");
    WEBWAVE_REQUIRE(alpha * graph.MaxDegree() < 1.0 + 1e-12,
                    "alpha too large: diagonal would go negative");
    return Build(graph, [alpha](int, int) { return alpha; });
  }

  // α_ij = 1/(1 + max(deg i, deg j)).
  static DiffusionMatrix DegreeBased(const UndirectedGraph& graph) {
    return Build(graph, [&graph](int i, int j) {
      return 1.0 / (1.0 + std::max(graph.degree(i), graph.degree(j)));
    });
  }

  int size() const { return n_; }
  double at(int i, int j) const {
    return data_[static_cast<std::size_t>(i) * n_ + j];
  }

  // One synchronous sweep over whole rows: returns D·x.
  std::vector<double> Apply(const std::vector<double>& x) const {
    WEBWAVE_REQUIRE(x.size() == static_cast<std::size_t>(n_), "size mismatch");
    std::vector<double> y(x.size(), 0.0);
    for (int i = 0; i < n_; ++i) {
      double acc = 0;
      const double* row = data_.data() + static_cast<std::size_t>(i) * n_;
      for (int j = 0; j < n_; ++j)
        acc += row[j] * x[static_cast<std::size_t>(j)];
      y[static_cast<std::size_t>(i)] = acc;
    }
    return y;
  }

  // γ by power iteration orthogonal to the all-ones eigenvector.
  double SpectralGamma(int iterations = 2000) const {
    if (n_ == 1) return 0;
    std::vector<double> x(static_cast<std::size_t>(n_));
    for (int i = 0; i < n_; ++i)
      x[static_cast<std::size_t>(i)] =
          std::sin(1.0 + 0.7 * i) + (i % 2 != 0 ? 0.3 : 0.0);
    const auto deflate = [&](std::vector<double>& v) {
      double mean = 0;
      for (const double e : v) mean += e;
      mean /= static_cast<double>(n_);
      for (double& e : v) e -= mean;
    };
    deflate(x);
    double gamma = 0;
    for (int it = 0; it < iterations; ++it) {
      std::vector<double> y = Apply(x);
      deflate(y);
      double norm = 0;
      for (const double e : y) norm += e * e;
      norm = std::sqrt(norm);
      if (norm < 1e-300) return 0;
      double xnorm = 0;
      for (const double e : x) xnorm += e * e;
      xnorm = std::sqrt(xnorm);
      gamma = norm / xnorm;
      for (double& e : y) e /= norm;
      x = std::move(y);
    }
    return gamma;
  }

 private:
  template <typename AlphaOf>
  static DiffusionMatrix Build(const UndirectedGraph& graph,
                               const AlphaOf& alpha_of) {
    DiffusionMatrix m(graph.size());
    for (int i = 0; i < graph.size(); ++i) {
      double off = 0;
      for (const int j : graph.neighbors(i)) {
        const double a = alpha_of(i, j);
        m.data_[static_cast<std::size_t>(i) * m.n_ + j] = a;
        off += a;
      }
      m.data_[static_cast<std::size_t>(i) * m.n_ + i] = 1.0 - off;
    }
    return m;
  }

  explicit DiffusionMatrix(int n)
      : n_(n), data_(static_cast<std::size_t>(n) * n, 0) {}
  int n_;
  std::vector<double> data_;
};

// The synchronous iteration over dense sweeps, recording ‖x(t) − u‖
// after each one; same stopping rule as the sparse RunDiffusion.
inline DiffusionRun RunDiffusion(const DiffusionMatrix& matrix,
                                 std::vector<double> initial, double tol,
                                 int max_steps) {
  WEBWAVE_REQUIRE(initial.size() == static_cast<std::size_t>(matrix.size()),
                  "size mismatch");
  double total = 0;
  for (const double v : initial) total += v;
  const std::vector<double> uniform(
      initial.size(), total / static_cast<double>(initial.size()));
  DiffusionRun run;
  run.distances.push_back(EuclideanDistance(initial, uniform));
  std::vector<double> x = std::move(initial);
  for (int t = 0; t < max_steps && run.distances.back() > tol; ++t) {
    x = matrix.Apply(x);
    run.distances.push_back(EuclideanDistance(x, uniform));
  }
  run.reached_tolerance = run.distances.back() <= tol;
  run.final_load = std::move(x);
  return run;
}

}  // namespace webwave
