// Search strategies over a 1-D parameter (the fusion buffer size).
//
// A Tuner proposes configurations and absorbs measured performance; the
// training loop (or simulator harness) owns evaluation. Maximization:
// higher y is better. Implementations: Bayesian optimization with Expected
// Improvement (the paper's method), plus the random- and grid-search
// baselines of Fig. 10.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "tune/gp.h"

namespace dear::tune {

class Tuner {
 public:
  virtual ~Tuner() = default;
  /// Next x to evaluate, in [lo, hi].
  virtual double SuggestNext() = 0;
  /// Records a measurement of the objective at x.
  virtual void Observe(double x, double y) = 0;
  [[nodiscard]] virtual std::string name() const = 0;

  [[nodiscard]] double best_x() const noexcept { return best_x_; }
  [[nodiscard]] double best_y() const noexcept { return best_y_; }
  [[nodiscard]] int num_observations() const noexcept {
    return static_cast<int>(xs_.size());
  }

 protected:
  void Record(double x, double y) {
    xs_.push_back(x);
    ys_.push_back(y);
    if (xs_.size() == 1 || y > best_y_) {
      best_x_ = x;
      best_y_ = y;
    }
  }
  std::vector<double> xs_, ys_;

 private:
  double best_x_{0.0};
  double best_y_{-1e300};
};

/// Expected improvement acquisition: EI(x) = (mu - best - xi) Phi(z) +
/// sigma phi(z) with z = (mu - best - xi) / sigma. xi > 0 favors
/// exploration (the paper sets xi = 0.1 on normalized throughput).
double ExpectedImprovement(const Prediction& pred, double best, double xi);

/// Upper confidence bound acquisition: UCB(x) = mu + kappa * sigma.
double UpperConfidenceBound(const Prediction& pred, double kappa);

enum class Acquisition { kExpectedImprovement, kUpperConfidenceBound };

struct BoOptions {
  Acquisition acquisition{Acquisition::kExpectedImprovement};
  double xi{0.1};              // EI exploration hyper-parameter (§IV-B)
  double kappa{2.0};           // UCB exploration weight
  int acquisition_grid{256};   // acquisition maximized on a grid of [lo, hi];
                               // >= 2 (the grid includes both ends)
  double length_scale_frac{0.15};  // GP length scale as a fraction of hi-lo;
                                   // > 0
  double noise_variance{1e-3};     // throughput measurement noise
  double first_point{0.0};    // initial suggestion; 0 = midpoint of range
  /// Model the objective over log(x) instead of x — appropriate when the
  /// knob spans orders of magnitude (buffer bytes from KBs to 100s of MB).
  bool log_scale{false};
};

class BayesianOptimizer final : public Tuner {
 public:
  BayesianOptimizer(double lo, double hi, BoOptions options = {});

  double SuggestNext() override;
  void Observe(double x, double y) override;
  [[nodiscard]] std::string name() const override { return "bo"; }

  /// Posterior over the objective (for plots like Fig. 3). Only valid after
  /// at least one observation.
  [[nodiscard]] Prediction Posterior(double x) const;

 private:
  double lo_, hi_;
  BoOptions options_;
  // The GP posterior is a cache over the observations; refitting it lazily
  // does not change observable tuner state, hence mutable.
  mutable GaussianProcess gp_;
  mutable bool gp_stale_{true};
  // The acquisition grid: its points in [lo, hi], and the posterior cache
  // over their model inputs that every suggestion extends.
  std::vector<double> grid_x_;
  PredictionGrid grid_{{}};
  std::vector<Prediction> grid_pred_;
  void Refit() const;
  [[nodiscard]] double ToModel(double x) const;
};

/// Uniform random search over [lo, hi] (Fig. 10 baseline).
class RandomSearch final : public Tuner {
 public:
  RandomSearch(double lo, double hi, std::uint64_t seed = 1);
  double SuggestNext() override;
  void Observe(double x, double y) override { Record(x, y); }
  [[nodiscard]] std::string name() const override { return "random"; }

 private:
  double lo_, hi_;
  Rng rng_;
};

/// Fixed-resolution sweep lo -> hi (Fig. 10 baseline). Cycles if asked for
/// more suggestions than grid points.
class GridSearch final : public Tuner {
 public:
  GridSearch(double lo, double hi, int points = 20);
  double SuggestNext() override;
  void Observe(double x, double y) override { Record(x, y); }
  [[nodiscard]] std::string name() const override { return "grid"; }

 private:
  double lo_, hi_;
  int points_;
  int next_{0};
};

}  // namespace dear::tune
