#include "stats/fit.h"

#include <cmath>

#include "util/check.h"

namespace webwave {

LinearFit FitLinear(const std::vector<double>& x,
                    const std::vector<double>& y) {
  WEBWAVE_REQUIRE(x.size() == y.size(), "x and y sizes differ");
  WEBWAVE_REQUIRE(x.size() >= 2, "linear fit needs >= 2 points");
  const double n = static_cast<double>(x.size());
  double sx = 0, sy = 0, sxx = 0, sxy = 0, syy = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sx += x[i];
    sy += y[i];
    sxx += x[i] * x[i];
    sxy += x[i] * y[i];
    syy += y[i] * y[i];
  }
  const double denom = n * sxx - sx * sx;
  WEBWAVE_REQUIRE(denom != 0, "degenerate x values for linear fit");
  LinearFit f;
  f.slope = (n * sxy - sx * sy) / denom;
  f.intercept = (sy - f.slope * sx) / n;
  const double ss_tot = syy - sy * sy / n;
  double ss_res = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double r = y[i] - (f.intercept + f.slope * x[i]);
    ss_res += r * r;
  }
  f.r_squared = ss_tot > 0 ? 1.0 - ss_res / ss_tot : 1.0;
  return f;
}

ExponentialFit FitExponential(const std::vector<double>& y) {
  WEBWAVE_REQUIRE(y.size() >= 3, "exponential fit needs >= 3 points");
  const int n = static_cast<int>(y.size());

  // Initial guess from a log-linear fit over strictly positive values.
  std::vector<double> tx, ty;
  for (int t = 0; t < n; ++t) {
    if (y[static_cast<std::size_t>(t)] > 0) {
      tx.push_back(static_cast<double>(t));
      ty.push_back(std::log(y[static_cast<std::size_t>(t)]));
    }
  }
  double a = y[0] > 0 ? y[0] : 1.0;
  double g = 0.9;
  if (tx.size() >= 2) {
    const LinearFit lf = FitLinear(tx, ty);
    g = std::exp(lf.slope);
    a = std::exp(lf.intercept);
  }
  g = std::min(std::max(g, 1e-6), 1.0 - 1e-9);

  // Gauss–Newton on r_t = y_t − a·γ^t with Levenberg damping fallback.
  auto rss_of = [&](double aa, double gg) {
    double rss = 0;
    double p = 1;  // gg^t
    for (int t = 0; t < n; ++t) {
      const double r = y[static_cast<std::size_t>(t)] - aa * p;
      rss += r * r;
      p *= gg;
    }
    return rss;
  };

  ExponentialFit fit;
  double rss = rss_of(a, g);
  double lambda = 1e-8;
  const int kMaxIter = 200;
  int iter = 0;
  for (; iter < kMaxIter; ++iter) {
    // Jacobian: ∂f/∂a = γ^t, ∂f/∂γ = a·t·γ^(t−1).
    double jaa = 0, jag = 0, jgg = 0, ra = 0, rg = 0;
    double p = 1;        // γ^t
    double pm1 = 0;      // γ^(t−1); 0 for t = 0 term of the derivative
    for (int t = 0; t < n; ++t) {
      const double fa = p;
      const double fg = a * static_cast<double>(t) * pm1;
      const double r = y[static_cast<std::size_t>(t)] - a * p;
      jaa += fa * fa;
      jag += fa * fg;
      jgg += fg * fg;
      ra += fa * r;
      rg += fg * r;
      pm1 = (t == 0) ? 1 : pm1 * g;
      p *= g;
    }
    // Solve (JᵀJ + λ·diag) δ = Jᵀr.
    const double d0 = jaa * (1 + lambda);
    const double d1 = jgg * (1 + lambda);
    const double det = d0 * d1 - jag * jag;
    if (std::abs(det) < 1e-300) break;
    const double da = (ra * d1 - jag * rg) / det;
    const double dg = (d0 * rg - jag * ra) / det;
    double na = a + da;
    double ng = std::min(std::max(g + dg, 1e-9), 1.0 - 1e-12);
    const double new_rss = rss_of(na, ng);
    if (new_rss < rss) {
      const double improvement = rss - new_rss;
      a = na;
      g = ng;
      rss = new_rss;
      lambda = std::max(lambda * 0.5, 1e-12);
      if (improvement < 1e-14 * (1 + rss)) {
        fit.converged = true;
        break;
      }
    } else {
      lambda *= 10;
      if (lambda > 1e12) {
        fit.converged = true;  // cannot improve further
        break;
      }
    }
  }

  fit.a = a;
  fit.gamma = g;
  fit.rss = rss;
  fit.iterations = iter;
  if (iter >= kMaxIter) fit.converged = true;  // ran to budget; best effort

  // Asymptotic standard errors: s² = RSS/(n−p), cov = s²·(JᵀJ)⁻¹.
  if (n > 2) {
    double jaa = 0, jag = 0, jgg = 0;
    double p = 1, pm1 = 0;
    for (int t = 0; t < n; ++t) {
      const double fa = p;
      const double fg = a * static_cast<double>(t) * pm1;
      jaa += fa * fa;
      jag += fa * fg;
      jgg += fg * fg;
      pm1 = (t == 0) ? 1 : pm1 * g;
      p *= g;
    }
    const double det = jaa * jgg - jag * jag;
    if (det > 0) {
      const double s2 = rss / static_cast<double>(n - 2);
      fit.stderr_a = std::sqrt(s2 * jgg / det);
      fit.stderr_gamma = std::sqrt(s2 * jaa / det);
    }
  }
  return fit;
}

}  // namespace webwave
