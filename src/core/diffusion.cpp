#include "core/diffusion.h"

#include <algorithm>
#include <cmath>

#include "stats/summary.h"
#include "util/check.h"
#include "util/rng.h"

namespace webwave {

UndirectedGraph::UndirectedGraph(int n)
    : adjacency_(static_cast<std::size_t>(n)) {
  WEBWAVE_REQUIRE(n >= 1, "graph needs at least one node");
}

void UndirectedGraph::AddEdge(int u, int v) {
  WEBWAVE_REQUIRE(u >= 0 && u < size() && v >= 0 && v < size(),
                  "edge endpoint out of range");
  WEBWAVE_REQUIRE(u != v, "self loops not allowed");
  adjacency_[static_cast<std::size_t>(u)].push_back(v);
  adjacency_[static_cast<std::size_t>(v)].push_back(u);
  ++edge_count_;
}

const std::vector<int>& UndirectedGraph::neighbors(int v) const {
  WEBWAVE_REQUIRE(v >= 0 && v < size(), "node out of range");
  return adjacency_[static_cast<std::size_t>(v)];
}

int UndirectedGraph::degree(int v) const {
  return static_cast<int>(neighbors(v).size());
}

bool UndirectedGraph::IsConnected() const {
  std::vector<bool> seen(static_cast<std::size_t>(size()), false);
  std::vector<int> stack = {0};
  seen[0] = true;
  int count = 0;
  while (!stack.empty()) {
    const int v = stack.back();
    stack.pop_back();
    ++count;
    for (const int w : adjacency_[static_cast<std::size_t>(v)]) {
      if (!seen[static_cast<std::size_t>(w)]) {
        seen[static_cast<std::size_t>(w)] = true;
        stack.push_back(w);
      }
    }
  }
  return count == size();
}

int UndirectedGraph::MaxDegree() const {
  int m = 0;
  for (int v = 0; v < size(); ++v) m = std::max(m, degree(v));
  return m;
}

UndirectedGraph MakeRingGraph(int n) {
  WEBWAVE_REQUIRE(n >= 3, "ring needs >= 3 nodes");
  UndirectedGraph g(n);
  for (int v = 0; v < n; ++v) g.AddEdge(v, (v + 1) % n);
  return g;
}

UndirectedGraph MakePathGraph(int n) {
  UndirectedGraph g(n);
  for (int v = 0; v + 1 < n; ++v) g.AddEdge(v, v + 1);
  return g;
}

UndirectedGraph MakeCompleteGraph(int n) {
  UndirectedGraph g(n);
  for (int u = 0; u < n; ++u)
    for (int v = u + 1; v < n; ++v) g.AddEdge(u, v);
  return g;
}

UndirectedGraph MakeHypercubeGraph(int dimensions) {
  WEBWAVE_REQUIRE(dimensions >= 1 && dimensions <= 20, "dimensions in 1..20");
  const int n = 1 << dimensions;
  UndirectedGraph g(n);
  for (int v = 0; v < n; ++v)
    for (int d = 0; d < dimensions; ++d)
      if ((v ^ (1 << d)) > v) g.AddEdge(v, v ^ (1 << d));
  return g;
}

UndirectedGraph MakeTorusGraph(int width, int height) {
  WEBWAVE_REQUIRE(width >= 2 && height >= 2, "torus needs >= 2x2");
  UndirectedGraph g(width * height);
  auto id = [&](int x, int y) { return y * width + x; };
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      if (width > 2 || x + 1 < width) g.AddEdge(id(x, y), id((x + 1) % width, y));
      if (height > 2 || y + 1 < height) g.AddEdge(id(x, y), id(x, (y + 1) % height));
    }
  }
  return g;
}

UndirectedGraph MakeKAryNCubeGraph(int k, int n) {
  WEBWAVE_REQUIRE(k >= 2, "k must be >= 2");
  WEBWAVE_REQUIRE(n >= 1, "n must be >= 1");
  int total = 1;
  for (int i = 0; i < n; ++i) {
    WEBWAVE_REQUIRE(total <= 1'000'000 / k, "k-ary n-cube too large");
    total *= k;
  }
  UndirectedGraph g(total);
  // Node id encodes its coordinate vector in base k.  Every node links to
  // its +1 neighbor in each dimension; that enumerates each cycle edge
  // exactly once, except for k = 2 where both endpoints generate the same
  // pair (a 2-cycle collapses to a single edge).
  std::vector<int> stride(static_cast<std::size_t>(n), 1);
  for (int d = 1; d < n; ++d)
    stride[static_cast<std::size_t>(d)] = stride[static_cast<std::size_t>(d - 1)] * k;
  for (int v = 0; v < total; ++v) {
    for (int d = 0; d < n; ++d) {
      const int coord = (v / stride[static_cast<std::size_t>(d)]) % k;
      const int next = (coord + 1) % k;
      const int w = v + (next - coord) * stride[static_cast<std::size_t>(d)];
      if (k == 2 && w < v) continue;
      g.AddEdge(v, w);
    }
  }
  return g;
}

UndirectedGraph GraphFromTree(const RoutingTree& tree) {
  UndirectedGraph g(tree.size());
  for (NodeId v = 0; v < tree.size(); ++v)
    if (!tree.is_root(v)) g.AddEdge(v, tree.parent(v));
  return g;
}

namespace {

// Assembles CSR rows from a per-row list of (column, value) off-diagonal
// entries plus the doubly-stochastic diagonal 1 − Σ off-diagonal.
template <typename EdgeAlphaFn>
void BuildCsrRows(const UndirectedGraph& graph, EdgeAlphaFn&& alpha_of,
                  std::vector<std::size_t>& row_ptr,
                  std::vector<std::int32_t>& col,
                  std::vector<double>& values) {
  const int n = graph.size();
  col.reserve(static_cast<std::size_t>(n) + 2u * graph.edge_count());
  values.reserve(col.capacity());
  std::vector<std::pair<std::int32_t, double>> row;
  for (int i = 0; i < n; ++i) {
    row.clear();
    double off = 0;
    for (const int j : graph.neighbors(i)) {
      const double a = alpha_of(i, j);
      row.push_back({static_cast<std::int32_t>(j), a});
      off += a;
    }
    row.push_back({static_cast<std::int32_t>(i), 1.0 - off});
    std::sort(row.begin(), row.end());
    for (const auto& [j, a] : row) {
      col.push_back(j);
      values.push_back(a);
    }
    row_ptr[static_cast<std::size_t>(i) + 1] = col.size();
  }
}

}  // namespace

SparseDiffusionMatrix SparseDiffusionMatrix::Uniform(
    const UndirectedGraph& graph, double alpha) {
  WEBWAVE_REQUIRE(alpha > 0, "alpha must be positive");
  WEBWAVE_REQUIRE(alpha * graph.MaxDegree() < 1.0 + 1e-12,
                  "alpha too large: diagonal would go negative");
  SparseDiffusionMatrix m(graph.size());
  BuildCsrRows(graph, [alpha](int, int) { return alpha; }, m.row_ptr_,
               m.col_, m.values_);
  return m;
}

SparseDiffusionMatrix SparseDiffusionMatrix::DegreeBased(
    const UndirectedGraph& graph) {
  SparseDiffusionMatrix m(graph.size());
  BuildCsrRows(
      graph,
      [&graph](int i, int j) {
        return 1.0 / (1.0 + std::max(graph.degree(i), graph.degree(j)));
      },
      m.row_ptr_, m.col_, m.values_);
  return m;
}

double SparseDiffusionMatrix::at(int i, int j) const {
  WEBWAVE_REQUIRE(i >= 0 && i < n_ && j >= 0 && j < n_, "index out of range");
  for (std::size_t k = row_ptr_[static_cast<std::size_t>(i)];
       k < row_ptr_[static_cast<std::size_t>(i) + 1]; ++k)
    if (col_[k] == j) return values_[k];
  return 0.0;
}

void SparseDiffusionMatrix::ApplyInto(const std::vector<double>& x,
                                      std::vector<double>& y) const {
  WEBWAVE_REQUIRE(x.size() == static_cast<std::size_t>(n_), "size mismatch");
  WEBWAVE_REQUIRE(&x != &y, "ApplyInto output must not alias the input");
  y.resize(x.size());
  const std::int32_t* cols = col_.data();
  const double* vals = values_.data();
  for (int i = 0; i < n_; ++i) {
    double acc = 0;
    const std::size_t end = row_ptr_[static_cast<std::size_t>(i) + 1];
    for (std::size_t k = row_ptr_[static_cast<std::size_t>(i)]; k < end; ++k)
      acc += vals[k] * x[static_cast<std::size_t>(cols[k])];
    y[static_cast<std::size_t>(i)] = acc;
  }
}

std::vector<double> SparseDiffusionMatrix::Apply(
    const std::vector<double>& x) const {
  std::vector<double> y;
  ApplyInto(x, y);
  return y;
}

double SparseDiffusionMatrix::SpectralGamma(int iterations) const {
  if (n_ == 1) return 0;
  // Power iteration orthogonal to the all-ones eigenvector (eigenvalue 1),
  // one O(n + E) sweep per iteration and no per-iteration allocation.
  // D is symmetric for the constructors above, so this converges to the
  // second-largest |eigenvalue|; the norm growth estimates it.
  std::vector<double> x(static_cast<std::size_t>(n_));
  for (int i = 0; i < n_; ++i)
    x[static_cast<std::size_t>(i)] =
        std::sin(1.0 + 0.7 * i) + (i % 2 != 0 ? 0.3 : 0.0);
  auto deflate = [&](std::vector<double>& v) {
    double mean = 0;
    for (const double e : v) mean += e;
    mean /= static_cast<double>(n_);
    for (double& e : v) e -= mean;
  };
  deflate(x);
  std::vector<double> y;
  double gamma = 0;
  for (int it = 0; it < iterations; ++it) {
    ApplyInto(x, y);
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
    std::swap(x, y);
  }
  return gamma;
}

double OptimalAlphaKAryNCube(int k, int n) {
  WEBWAVE_REQUIRE(k >= 2 && n >= 1, "invalid k-ary n-cube");
  // Laplacian eigenvalues of the k-ary n-cube are Σ_d 2(1 − cos(2π m_d/k)).
  const double pi = 3.14159265358979323846;
  const double mu_min = 2.0 * (1.0 - std::cos(2.0 * pi / k));
  // Max over a single dimension: m = floor(k/2).
  const double mu_dim_max =
      2.0 * (1.0 - std::cos(2.0 * pi * std::floor(k / 2.0) / k));
  const double mu_max = n * mu_dim_max;
  return 2.0 / (mu_min + mu_max);
}

DiffusionRun RunDiffusion(const SparseDiffusionMatrix& matrix,
                          std::vector<double> initial, double tol,
                          int max_steps) {
  WEBWAVE_REQUIRE(initial.size() == static_cast<std::size_t>(matrix.size()),
                  "size mismatch");
  double total = 0;
  for (const double v : initial) total += v;
  const std::vector<double> uniform(initial.size(),
                                    total / static_cast<double>(initial.size()));
  DiffusionRun run;
  run.distances.push_back(EuclideanDistance(initial, uniform));
  std::vector<double> x = std::move(initial);
  std::vector<double> next;
  for (int t = 0; t < max_steps; ++t) {
    if (run.distances.back() <= tol) {
      run.reached_tolerance = true;
      break;
    }
    matrix.ApplyInto(x, next);
    std::swap(x, next);
    run.distances.push_back(EuclideanDistance(x, uniform));
  }
  if (run.distances.back() <= tol) run.reached_tolerance = true;
  run.final_load = std::move(x);
  return run;
}

DiffusionRun RunAsyncDiffusion(const UndirectedGraph& graph, double alpha,
                               std::vector<double> initial,
                               const AsyncDiffusionOptions& options,
                               double tol, int max_steps) {
  WEBWAVE_REQUIRE(initial.size() == static_cast<std::size_t>(graph.size()),
                  "size mismatch");
  WEBWAVE_REQUIRE(alpha > 0 && alpha * graph.MaxDegree() < 1.0 + 1e-12,
                  "alpha violates the positive-diagonal condition");
  WEBWAVE_REQUIRE(options.activation > 0 && options.activation <= 1,
                  "activation probability in (0, 1]");
  WEBWAVE_REQUIRE(options.max_delay >= 0, "delay must be non-negative");
  Rng rng(options.seed);

  double total = 0;
  for (const double v : initial) total += v;
  const std::vector<double> uniform(
      initial.size(), total / static_cast<double>(initial.size()));

  // Sparse edge path: the undirected edge list is flattened once so every
  // sweep is a single pass over two index arrays instead of a nested
  // adjacency traversal with a skip test per direction.
  const std::size_t n = static_cast<std::size_t>(graph.size());
  std::vector<std::int32_t> edge_u, edge_v;
  edge_u.reserve(static_cast<std::size_t>(graph.edge_count()));
  edge_v.reserve(static_cast<std::size_t>(graph.edge_count()));
  for (int i = 0; i < graph.size(); ++i)
    for (const int j : graph.neighbors(i))
      if (j > i) {
        edge_u.push_back(i);
        edge_v.push_back(j);
      }

  // History ring for stale reads, stored as a flat (max_delay + 1) × n
  // buffer: slot `head` is the current sweep, slot (head − d) the vector d
  // sweeps ago.  Transfers are edge-atomic (the donor decides from its own
  // current value and a possibly stale view of the receiver, then both
  // endpoints are updated together), so total load is conserved *exactly*
  // no matter how stale the views are — the same discipline WebWave uses.
  const std::size_t slots = static_cast<std::size_t>(options.max_delay) + 1;
  std::vector<double> history(slots * n);
  std::copy(initial.begin(), initial.end(), history.begin());
  std::size_t head = 0;
  std::size_t filled = 1;
  const auto view = [&](std::size_t delay) {
    const std::size_t d = std::min(delay, filled - 1);
    return history.data() + ((head + slots - d) % slots) * n;
  };

  DiffusionRun run;
  run.distances.push_back(EuclideanDistance(initial, uniform));
  std::vector<double> x = std::move(initial);
  for (int t = 0; t < max_steps && run.distances.back() > tol; ++t) {
    for (std::size_t k = 0; k < edge_u.size(); ++k) {
      if (!rng.NextBernoulli(options.activation)) continue;
      const std::size_t i = static_cast<std::size_t>(edge_u[k]);
      const std::size_t j = static_cast<std::size_t>(edge_v[k]);
      const std::size_t di = static_cast<std::size_t>(rng.NextBelow(
          static_cast<std::uint64_t>(options.max_delay) + 1));
      const std::size_t dj = static_cast<std::size_t>(rng.NextBelow(
          static_cast<std::uint64_t>(options.max_delay) + 1));
      const double view_of_j = view(di)[j];
      const double view_of_i = view(dj)[i];
      double transfer = 0;  // positive: i -> j
      if (x[i] > view_of_j) {
        transfer = std::min(alpha * (x[i] - view_of_j), x[i]);
      } else if (x[j] > view_of_i) {
        transfer = std::max(-alpha * (x[j] - view_of_i), -x[j]);
      }
      x[i] -= transfer;
      x[j] += transfer;
    }
    head = (head + 1) % slots;
    filled = std::min(filled + 1, slots);
    std::copy(x.begin(), x.end(), history.begin() + head * n);
    run.distances.push_back(EuclideanDistance(x, uniform));
  }
  run.reached_tolerance = run.distances.back() <= tol;
  run.final_load = std::move(x);
  return run;
}

bool CybenkoBoundHolds(const DiffusionRun& run, double gamma, double slack) {
  const double d0 = run.distances.empty() ? 0 : run.distances.front();
  double bound = d0;
  for (std::size_t t = 1; t < run.distances.size(); ++t) {
    bound *= gamma;
    if (run.distances[t] > bound + slack * (1 + d0)) return false;
  }
  return true;
}

}  // namespace webwave
