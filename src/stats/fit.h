// Regression fits used in the paper's convergence analysis (§5.1).
//
// The paper models WebWave's distance-to-TLB trajectory as a·γ^t and uses
// S-PLUS nonlinear least squares to estimate γ with a standard error (the
// quoted example: depth-9 random tree ⇒ γ = 0.830734, SE = 0.005786).  We
// provide the same estimator: Gauss–Newton on the model a·γ^t, seeded by a
// log-linear fit, with asymptotic standard errors from the Jacobian.
#pragma once

#include <vector>

namespace webwave {

struct LinearFit {
  double slope = 0;
  double intercept = 0;
  double r_squared = 0;
};

// Ordinary least squares y = intercept + slope·x.
LinearFit FitLinear(const std::vector<double>& x, const std::vector<double>& y);

struct ExponentialFit {
  double a = 0;            // amplitude
  double gamma = 0;        // per-step convergence rate, 0 < γ < 1 when converging
  double stderr_a = 0;     // asymptotic std. error of a
  double stderr_gamma = 0; // asymptotic std. error of γ
  double rss = 0;          // residual sum of squares
  int iterations = 0;      // Gauss–Newton iterations used
  bool converged = false;
};

// Nonlinear least squares fit of y_t ≈ a·γ^t for t = 0..n-1.
//
// Observations with y <= 0 are permitted (they simply contribute residuals);
// the initial guess comes from a log-linear fit over the positive prefix.
// Throws std::invalid_argument when fewer than 3 observations are given.
ExponentialFit FitExponential(const std::vector<double>& y);

}  // namespace webwave
