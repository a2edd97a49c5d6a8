// Gaussian-process regression with an RBF kernel — the surrogate model
// behind DeAR's Bayesian-optimization tensor fusion (paper §IV-B).
//
// One-dimensional inputs (the buffer size knob), exact inference via
// Cholesky factorization. Observation counts are tens at most, so the
// O(n^3) fit is irrelevant. Targets are standardized internally; predicted
// moments are returned in the original scale.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "common/status.h"

namespace dear::tune {

struct GpParams {
  double length_scale{0.15};   // RBF length scale, in input units
  double signal_variance{1.0}; // scaled by observed target variance at fit
  double noise_variance{1e-4}; // observation noise (after standardization)
  bool operator==(const GpParams&) const = default;
};

struct Prediction {
  double mean{0.0};
  double variance{0.0};
  [[nodiscard]] double stddev() const noexcept;
};

/// A fixed list of inputs whose posterior is asked for after every fit, as
/// Bayesian optimization's acquisition grid is: observations are only ever
/// appended between fits. Appending leaves the leading block of the
/// Cholesky factor unchanged, and with it each input's kernel column k*,
/// the leading part of its forward solve L^-1 k* and the running sum of
/// squares v^T v. The grid caches those, so a sweep after one more
/// observation costs one kernel entry and one solve row per input, plus
/// the mean against the new alpha. Filled by GaussianProcess::Predict.
class PredictionGrid {
 public:
  explicit PredictionGrid(std::vector<double> inputs)
      : inputs_(std::move(inputs)) {}

  [[nodiscard]] const std::vector<double>& inputs() const noexcept {
    return inputs_;
  }
  /// Times the cache was rebuilt from scratch: on first use, and when a
  /// fit's inputs or kernel do not extend the cached ones.
  [[nodiscard]] int resets() const noexcept { return resets_; }

 private:
  friend class GaussianProcess;

  std::vector<double> inputs_;
  int resets_{0};
  // The fit the cache was solved against: kernel and observed inputs.
  GpParams params_;
  std::vector<double> xs_;
  // Observation-major: row r holds every input's entry for xs_[r], input i
  // at [r * inputs_.size() + i], so a new observation appends one row.
  std::vector<double> kstar_;  // k(input, xs_[r])
  std::vector<double> solve_;  // L^-1 k*
  std::vector<double> vtv_;    // per input: sum of solve_ squared, in order
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
  /// The posterior at every input of `grid` into `out` (resized), each bit
  /// for bit Predict(grid.inputs()[i]), reusing what `grid` cached from
  /// earlier fits whose inputs this fit's extend. Allocates only to grow
  /// the cache by new observations' rows. Precondition: fitted().
  void Predict(PredictionGrid& grid, std::vector<Prediction>& out) const;

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
