// Gaussian-process regression with an RBF kernel — the surrogate model
// behind DeAR's Bayesian-optimization tensor fusion (paper §IV-B).
//
// One-dimensional inputs (the buffer size knob), exact inference via
// Cholesky factorization. Observation counts are tens at most, so the
// O(n^3) fit is irrelevant. Targets are standardized internally; predicted
// moments are returned in the original scale.
#pragma once

#include <cstddef>
#include <vector>

#include "common/status.h"

namespace dear::tune {

struct GpParams {
  double length_scale{0.15};   // RBF length scale, in input units
  double signal_variance{1.0}; // scaled by observed target variance at fit
  double noise_variance{1e-4}; // observation noise (after standardization)
};

struct Prediction {
  double mean{0.0};
  double variance{0.0};
  [[nodiscard]] double stddev() const noexcept;
};

class GaussianProcess {
 public:
  explicit GaussianProcess(GpParams params = {}) : params_(params) {}

  /// Fits the posterior to observations. Fails on size mismatch, empty
  /// data, or a non-positive-definite kernel matrix (duplicate x with zero
  /// noise). Refitting replaces the previous posterior.
  Status Fit(const std::vector<double>& xs, const std::vector<double>& ys);

  [[nodiscard]] bool fitted() const noexcept { return fitted_; }
  [[nodiscard]] std::size_t num_observations() const noexcept {
    return xs_.size();
  }

  /// Posterior mean and variance at x. Precondition: fitted().
  [[nodiscard]] Prediction Predict(double x) const;
  /// Same result, computed in the caller-owned `scratch` (resized to
  /// num_observations()), so a sweep over many x allocates nothing after
  /// its first point.
  [[nodiscard]] Prediction Predict(double x,
                                   std::vector<double>& scratch) const;

 private:
  [[nodiscard]] double Kernel(double a, double b) const noexcept;

  GpParams params_;
  bool fitted_{false};
  std::vector<double> xs_;
  std::vector<double> chol_;   // lower-triangular factor of K + noise*I
  std::vector<double> alpha_;  // (K + noise*I)^-1 (y - mean)
  double y_mean_{0.0};
  double y_scale_{1.0};
  double fitted_signal_{1.0};
};

/// In-place Cholesky factorization of a symmetric positive-definite n x n
/// row-major matrix (lower triangle). Returns false if not SPD. Exposed for
/// testing.
bool CholeskyFactor(std::vector<double>& a, std::size_t n);

/// Solves L L^T x = b given the lower-triangular factor from CholeskyFactor.
std::vector<double> CholeskySolve(const std::vector<double>& chol,
                                  std::size_t n, std::vector<double> b);

}  // namespace dear::tune
