#include "tune/search.h"

#include <cmath>

#include "common/logging.h"

namespace dear::tune {
namespace {

double NormalPdf(double z) {
  return std::exp(-0.5 * z * z) / std::sqrt(2.0 * 3.141592653589793);
}

double NormalCdf(double z) { return 0.5 * std::erfc(-z / std::sqrt(2.0)); }

}  // namespace

double ExpectedImprovement(const Prediction& pred, double best, double xi) {
  const double sigma = pred.stddev();
  const double improve = pred.mean - best - xi;
  if (sigma < 1e-12) return improve > 0 ? improve : 0.0;
  const double z = improve / sigma;
  return improve * NormalCdf(z) + sigma * NormalPdf(z);
}

double UpperConfidenceBound(const Prediction& pred, double kappa) {
  return pred.mean + kappa * pred.stddev();
}

BayesianOptimizer::BayesianOptimizer(double lo, double hi, BoOptions options)
    : lo_(lo), hi_(hi), options_(options) {
  DEAR_CHECK(hi > lo);
  DEAR_CHECK(!options_.log_scale || lo > 0.0);
  // The acquisition grid spans [lo, hi] end to end, so it needs both ends;
  // a non-positive length scale has no posterior.
  DEAR_CHECK(options_.acquisition_grid >= 2);
  DEAR_CHECK(options_.length_scale_frac > 0.0);
  GpParams params;
  params.length_scale =
      options_.length_scale_frac * (ToModel(hi) - ToModel(lo));
  params.noise_variance = options_.noise_variance;
  gp_ = GaussianProcess(params);
  const int points = options_.acquisition_grid;
  std::vector<double> inputs;
  for (int i = 0; i < points; ++i) {
    grid_x_.push_back(lo_ + (hi_ - lo_) * i / double(points - 1));
    inputs.push_back(ToModel(grid_x_.back()));
  }
  grid_ = PredictionGrid(std::move(inputs));
}

double BayesianOptimizer::ToModel(double x) const {
  return options_.log_scale ? std::log(x) : x;
}

void BayesianOptimizer::Observe(double x, double y) {
  Record(x, y);
  gp_stale_ = true;
}

void BayesianOptimizer::Refit() const {
  if (!gp_stale_) return;
  std::vector<double> model_xs(xs_.size());
  for (std::size_t i = 0; i < xs_.size(); ++i) model_xs[i] = ToModel(xs_[i]);
  const Status st = gp_.Fit(model_xs, ys_);
  DEAR_CHECK_MSG(st.ok(), st.ToString());
  gp_stale_ = false;
}

Prediction BayesianOptimizer::Posterior(double x) const {
  DEAR_CHECK_MSG(!xs_.empty(), "no observations yet");
  Refit();
  return gp_.Predict(ToModel(x));
}

double BayesianOptimizer::SuggestNext() {
  if (xs_.empty()) {
    return options_.first_point != 0.0 ? options_.first_point
                                       : 0.5 * (lo_ + hi_);
  }
  Refit();
  // EI works on standardized scale implicitly via the GP; evaluate on the
  // observed-best in raw units, normalizing xi by the data spread so its
  // meaning ("0.1 of a standard deviation of throughput") is scale-free.
  double spread = 0.0;
  for (double y : ys_) spread = std::max(spread, std::abs(y - best_y()));
  const double xi = options_.xi * (spread > 1e-12 ? spread : 1.0);

  double best_score = -1e300;
  double best_point = 0.5 * (lo_ + hi_);
  gp_.Predict(grid_, grid_pred_);
  for (std::size_t i = 0; i < grid_x_.size(); ++i) {
    const Prediction& pred = grid_pred_[i];
    const double score =
        options_.acquisition == Acquisition::kUpperConfidenceBound
            ? UpperConfidenceBound(pred, options_.kappa)
            : ExpectedImprovement(pred, best_y(), xi);
    if (score > best_score) {
      best_score = score;
      best_point = grid_x_[i];
    }
  }
  return best_point;
}

RandomSearch::RandomSearch(double lo, double hi, std::uint64_t seed)
    : lo_(lo), hi_(hi), rng_(seed) {
  DEAR_CHECK(hi > lo);
}

double RandomSearch::SuggestNext() { return rng_.Uniform(lo_, hi_); }

GridSearch::GridSearch(double lo, double hi, int points)
    : lo_(lo), hi_(hi), points_(points) {
  DEAR_CHECK(hi > lo && points >= 2);
}

double GridSearch::SuggestNext() {
  const int i = next_ % points_;
  ++next_;
  return lo_ + (hi_ - lo_) * i / double(points_ - 1);
}

}  // namespace dear::tune
