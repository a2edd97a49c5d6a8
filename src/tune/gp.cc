#include "tune/gp.h"

#include <algorithm>
#include <cmath>
#include <utility>

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
  DEAR_CHECK_MSG(fitted_, "Predict before Fit");
  const std::size_t n = xs_.size();
  std::vector<double> v(n);
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

void GaussianProcess::Predict(PredictionGrid& grid,
                              std::vector<Prediction>& out) const {
  DEAR_CHECK_MSG(fitted_, "Predict before Fit");
  const std::size_t n = xs_.size();
  const std::size_t m = grid.inputs_.size();
  // The cached rows stay valid while this fit's kernel is the cached one
  // and its inputs extend the cached inputs.
  const bool extends =
      grid.resets_ > 0 && grid.params_ == params_ && grid.xs_.size() <= n &&
      std::equal(grid.xs_.begin(), grid.xs_.end(), xs_.begin());
  if (!extends) {
    grid.params_ = params_;
    grid.xs_.clear();
    grid.vtv_.assign(m, 0.0);
    ++grid.resets_;
  }
  const std::size_t cached = grid.xs_.size();
  grid.kstar_.resize(n * m);
  grid.solve_.resize(n * m);
  const double* x = grid.inputs_.data();
  double* vtv = grid.vtv_.data();

  // The same arithmetic as Predict(x), in the same order for each input,
  // one new row at a time for every input at once.
  for (std::size_t r = cached; r < n; ++r) {
    double* k = grid.kstar_.data() + r * m;
    double* v = grid.solve_.data() + r * m;
    for (std::size_t i = 0; i < m; ++i) {
      k[i] = Kernel(x[i], xs_[r]);
      v[i] = k[i];
    }
    for (std::size_t c = 0; c < r; ++c) {
      const double l = chol_[r * n + c];
      const double* vc = grid.solve_.data() + c * m;
      for (std::size_t i = 0; i < m; ++i) v[i] -= l * vc[i];
    }
    const double diag = chol_[r * n + r];
    for (std::size_t i = 0; i < m; ++i) {
      v[i] /= diag;
      vtv[i] += v[i] * v[i];
    }
  }
  grid.xs_.insert(grid.xs_.end(),
                  xs_.begin() + static_cast<std::ptrdiff_t>(cached), xs_.end());

  // Means against this fit's alpha, accumulated row by row in `out`.
  out.assign(m, Prediction{});
  for (std::size_t r = 0; r < n; ++r) {
    const double a = alpha_[r];
    const double* k = grid.kstar_.data() + r * m;
    for (std::size_t i = 0; i < m; ++i) out[i].mean += k[i] * a;
  }
  for (std::size_t i = 0; i < m; ++i) {
    double variance = Kernel(x[i], x[i]) - vtv[i];
    if (variance < 0.0) variance = 0.0;
    out[i] = {y_mean_ + y_scale_ * out[i].mean,
              y_scale_ * y_scale_ * variance};
  }
}

}  // namespace dear::tune
