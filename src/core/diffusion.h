// The load diffusion method of §2 on general graphs.
//
// The classic dynamic load-balancing iteration (Cybenko 1989; Bertsekas &
// Tsitsiklis 1989): x(t) = D·x(t−1), where the diffusion matrix D has
// D_ij = α_ij for neighbors, D_ii = 1 − Σ_j α_ij.  When the graph is
// connected and 1 − Σ_j α_ij > 0, the iteration converges to the uniform
// (GLE) vector exponentially fast:
//
//     ‖D^t x(0) − u‖ <= γ^t ‖x(0) − u‖,
//
// where γ is the second-largest eigenvalue magnitude of D.  WebWave is
// this method specialized to routing trees with the NSS cap; this module
// provides the unconstrained version for the §2 baselines, plus the
// spectral machinery to compute γ and verify the bound, and the k-ary
// n-cube optimal parameter of Xu & Lau (ref. [29]).
#pragma once

#include <cstdint>
#include <vector>

#include "tree/routing_tree.h"

namespace webwave {

// A simple undirected graph on nodes 0..n-1.
class UndirectedGraph {
 public:
  explicit UndirectedGraph(int n);

  int size() const { return static_cast<int>(adjacency_.size()); }
  void AddEdge(int u, int v);
  const std::vector<int>& neighbors(int v) const;
  int degree(int v) const;
  int edge_count() const { return edge_count_; }
  bool IsConnected() const;
  int MaxDegree() const;

 private:
  std::vector<std::vector<int>> adjacency_;
  int edge_count_ = 0;
};

// Regular topologies used in the diffusion literature the paper cites.
UndirectedGraph MakeRingGraph(int n);
UndirectedGraph MakePathGraph(int n);
UndirectedGraph MakeCompleteGraph(int n);
UndirectedGraph MakeHypercubeGraph(int dimensions);
UndirectedGraph MakeTorusGraph(int width, int height);
// k-ary n-cube: n dimensions of k positions each, wrap-around links
// (k = 2 gives the hypercube, n = 1 the ring).
UndirectedGraph MakeKAryNCubeGraph(int k, int n);
UndirectedGraph GraphFromTree(const RoutingTree& tree);

// The diffusion matrix in compressed-sparse-row (CSR) form.  Each row
// stores its diagonal entry plus one entry per neighbor, in ascending
// column order, so Apply costs O(n + E) and a million-node tree fits in a
// few dozen megabytes where a dense matrix would need terabytes.  The
// spectral machinery is matrix-free: SpectralGamma runs a deflated power
// iteration, n² entries are never materialized.  The dense n × n matrix
// survives only as the test reference (tests/diffusion_reference.h): the
// CSR rows hold its nonzero entries in its column order, so every sweep
// adds the same products in the same order and skips only exact zeros.
class SparseDiffusionMatrix {
 public:
  // Uniform α on every edge; requires α·max_degree < 1 (Cybenko (1)).
  static SparseDiffusionMatrix Uniform(const UndirectedGraph& graph,
                                       double alpha);

  // α_ij = 1/(1 + max(deg i, deg j)) — always satisfies the condition.
  static SparseDiffusionMatrix DegreeBased(const UndirectedGraph& graph);

  int size() const { return n_; }
  // Stored entries (diagonal + one per edge endpoint).
  std::size_t nonzeros() const { return values_.size(); }

  // O(row degree) entry lookup, for tests and cross-checks.
  double at(int i, int j) const;

  // One synchronous diffusion sweep: returns D·x in O(n + E).
  std::vector<double> Apply(const std::vector<double>& x) const;
  // Allocation-free form: y = D·x (y is resized; must not alias x).
  void ApplyInto(const std::vector<double>& x, std::vector<double>& y) const;

  // γ: second-largest eigenvalue magnitude via power iteration deflated
  // against the all-ones eigenvector, one sparse sweep per iteration.
  double SpectralGamma(int iterations = 2000) const;

 private:
  explicit SparseDiffusionMatrix(int n)
      : n_(n), row_ptr_(static_cast<std::size_t>(n) + 1, 0) {}

  int n_;
  std::vector<std::size_t> row_ptr_;  // n + 1 offsets into col_/values_
  std::vector<std::int32_t> col_;
  std::vector<double> values_;
};

// The optimal uniform diffusion parameter for a k-ary n-cube (Xu & Lau):
// α* = 2 / (μ_min + μ_max) where μ are the extreme nonzero Laplacian
// eigenvalues, balancing the two ends of the spectrum.
double OptimalAlphaKAryNCube(int k, int n);

// Runs the synchronous diffusion iteration, recording the Euclidean
// distance to the uniform vector after each sweep.
struct DiffusionRun {
  std::vector<double> distances;  // distances[t] = ‖x(t) − u‖
  std::vector<double> final_load;
  bool reached_tolerance = false;
};
DiffusionRun RunDiffusion(const SparseDiffusionMatrix& matrix,
                          std::vector<double> initial, double tol,
                          int max_steps);

// Verifies Cybenko's bound ‖D^t x − u‖ <= γ^t ‖x(0) − u‖ on a recorded run.
bool CybenkoBoundHolds(const DiffusionRun& run, double gamma,
                       double slack = 1e-9);

// Asynchronous diffusion under partial asynchronism (Bertsekas &
// Tsitsiklis): each sweep, every node independently updates with
// probability `activation`, using neighbor values that are up to
// `max_delay` sweeps stale (per-edge random delays).  Converges to the
// uniform vector whenever the graph is connected, the diagonal is
// positive, and the delays are bounded — the citation the paper relies on
// for WebWave's realistic (non-instantaneous) setting.
struct AsyncDiffusionOptions {
  double activation = 0.7;
  int max_delay = 2;
  std::uint64_t seed = 1;
};

DiffusionRun RunAsyncDiffusion(const UndirectedGraph& graph, double alpha,
                               std::vector<double> initial,
                               const AsyncDiffusionOptions& options,
                               double tol, int max_steps);

}  // namespace webwave
