#include "tune/gp.h"

#include <cmath>

#include "common/logging.h"

namespace dear::tune {

double Prediction::stddev() const noexcept {
  return variance > 0 ? std::sqrt(variance) : 0.0;
}

bool CholeskyFactor(std::vector<double>& a, std::size_t n) {
  DEAR_CHECK(a.size() == n * n);
  for (std::size_t j = 0; j < n; ++j) {
    double diag = a[j * n + j];
    for (std::size_t k = 0; k < j; ++k) diag -= a[j * n + k] * a[j * n + k];
    if (diag <= 0.0) return false;
    const double ljj = std::sqrt(diag);
    a[j * n + j] = ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      double v = a[i * n + j];
      for (std::size_t k = 0; k < j; ++k) v -= a[i * n + k] * a[j * n + k];
      a[i * n + j] = v / ljj;
    }
  }
  // Zero the (unused) upper triangle for hygiene.
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j) a[i * n + j] = 0.0;
  return true;
}

std::vector<double> CholeskySolve(const std::vector<double>& chol,
                                  std::size_t n, std::vector<double> b) {
  DEAR_CHECK(chol.size() == n * n && b.size() == n);
  // Forward solve L y = b.
  for (std::size_t i = 0; i < n; ++i) {
    double v = b[i];
    for (std::size_t k = 0; k < i; ++k) v -= chol[i * n + k] * b[k];
    b[i] = v / chol[i * n + i];
  }
  // Back solve L^T x = y.
  for (std::size_t ii = n; ii-- > 0;) {
    double v = b[ii];
    for (std::size_t k = ii + 1; k < n; ++k) v -= chol[k * n + ii] * b[k];
    b[ii] = v / chol[ii * n + ii];
  }
  return b;
}

double GaussianProcess::Kernel(double a, double b) const noexcept {
  const double d = (a - b) / params_.length_scale;
  return fitted_signal_ * std::exp(-0.5 * d * d);
}

Status GaussianProcess::Fit(const std::vector<double>& xs,
                            const std::vector<double>& ys) {
  if (xs.empty()) return Status::InvalidArgument("no observations");
  if (xs.size() != ys.size())
    return Status::InvalidArgument("xs/ys size mismatch");
  const std::size_t n = xs.size();

  // Standardize targets so the kernel's signal variance is scale-free.
  double mean = 0.0;
  for (double y : ys) mean += y;
  mean /= static_cast<double>(n);
  double var = 0.0;
  for (double y : ys) var += (y - mean) * (y - mean);
  var = n > 1 ? var / static_cast<double>(n - 1) : 1.0;
  const double scale = var > 1e-12 ? std::sqrt(var) : 1.0;

  xs_ = xs;
  y_mean_ = mean;
  y_scale_ = scale;
  fitted_signal_ = params_.signal_variance;

  std::vector<double> k(n * n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) k[i * n + j] = Kernel(xs[i], xs[j]);
    k[i * n + i] += params_.noise_variance;
  }
  if (!CholeskyFactor(k, n)) {
    fitted_ = false;
    return Status::FailedPrecondition(
        "kernel matrix not positive definite (duplicate inputs with zero "
        "noise?)");
  }
  chol_ = std::move(k);

  std::vector<double> resid(n);
  for (std::size_t i = 0; i < n; ++i) resid[i] = (ys[i] - mean) / scale;
  alpha_ = CholeskySolve(chol_, n, std::move(resid));
  fitted_ = true;
  return Status::Ok();
}

Prediction GaussianProcess::Predict(double x) const {
  std::vector<double> scratch;
  return Predict(x, scratch);
}

Prediction GaussianProcess::Predict(double x,
                                    std::vector<double>& scratch) const {
  DEAR_CHECK_MSG(fitted_, "Predict before Fit");
  const std::size_t n = xs_.size();
  scratch.resize(n);
  double* v = scratch.data();
  for (std::size_t i = 0; i < n; ++i) v[i] = Kernel(x, xs_[i]);  // k*

  double mu = 0.0;
  for (std::size_t i = 0; i < n; ++i) mu += v[i] * alpha_[i];

  // v = L^-1 k*, solved in place; posterior variance = k(x,x) - v^T v.
  for (std::size_t i = 0; i < n; ++i) {
    double val = v[i];
    for (std::size_t k = 0; k < i; ++k) val -= chol_[i * n + k] * v[k];
    v[i] = val / chol_[i * n + i];
  }
  double vtv = 0.0;
  for (std::size_t i = 0; i < n; ++i) vtv += v[i] * v[i];
  double variance = Kernel(x, x) - vtv;
  if (variance < 0.0) variance = 0.0;

  return {y_mean_ + y_scale_ * mu, y_scale_ * y_scale_ * variance};
}

}  // namespace dear::tune
