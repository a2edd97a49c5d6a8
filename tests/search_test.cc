// Search strategies: EI acquisition math, BO convergence on synthetic
// objectives, the Fig. 10 claim that BO needs far fewer trials than
// random/grid search, and BO's cached acquisition sweep suggesting exactly
// what a sweep of uncached predictions suggests.
#include "tune/search.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

namespace dear::tune {
namespace {

TEST(EiTest, ZeroVarianceReturnsClampedImprovement) {
  EXPECT_DOUBLE_EQ(ExpectedImprovement({5.0, 0.0}, 3.0, 0.0), 2.0);
  EXPECT_DOUBLE_EQ(ExpectedImprovement({2.0, 0.0}, 3.0, 0.0), 0.0);
}

TEST(EiTest, PositiveForUncertainPoints) {
  // Mean below best but high variance: still some expected improvement.
  EXPECT_GT(ExpectedImprovement({2.0, 4.0}, 3.0, 0.0), 0.0);
}

TEST(EiTest, IncreasesWithMean) {
  const double lo = ExpectedImprovement({3.0, 1.0}, 3.0, 0.1);
  const double hi = ExpectedImprovement({4.0, 1.0}, 3.0, 0.1);
  EXPECT_GT(hi, lo);
}

TEST(EiTest, IncreasesWithVarianceAtEqualMean) {
  const double lo = ExpectedImprovement({3.0, 0.01}, 3.0, 0.0);
  const double hi = ExpectedImprovement({3.0, 1.0}, 3.0, 0.0);
  EXPECT_GT(hi, lo);
}

TEST(EiTest, XiPenalizesExploitation) {
  // Larger xi shrinks EI at a point barely above best.
  const double small_xi = ExpectedImprovement({3.1, 0.04}, 3.0, 0.0);
  const double large_xi = ExpectedImprovement({3.1, 0.04}, 3.0, 0.5);
  EXPECT_GT(small_xi, large_xi);
}

double Objective(double x) {
  // Smooth unimodal function peaking at x = 35 (Fig. 3's shape: optimum
  // buffer size ~35 MB for DenseNet-201).
  return 10.0 - 0.01 * (x - 35.0) * (x - 35.0);
}

int TrialsToReach(Tuner& tuner, double target, int max_trials) {
  for (int i = 1; i <= max_trials; ++i) {
    const double x = tuner.SuggestNext();
    tuner.Observe(x, Objective(x));
    if (tuner.best_y() >= target) return i;
  }
  return max_trials + 1;
}

TEST(BoTest, FirstSuggestionIsConfiguredStart) {
  BoOptions opts;
  opts.first_point = 25.0;  // the paper's 25 MB default
  BayesianOptimizer bo(1.0, 100.0, opts);
  EXPECT_DOUBLE_EQ(bo.SuggestNext(), 25.0);
}

TEST(BoTest, DefaultFirstSuggestionIsMidpoint) {
  BayesianOptimizer bo(0.0, 10.0);
  EXPECT_DOUBLE_EQ(bo.SuggestNext(), 5.0);
}

TEST(BoTest, FindsNearOptimumInFewTrials) {
  // Paper Fig. 3: ~9 samples suffice for a near-optimal buffer size.
  BoOptions opts;
  opts.first_point = 25.0;
  BayesianOptimizer bo(1.0, 100.0, opts);
  const int trials = TrialsToReach(bo, Objective(35.0) - 0.2, 15);
  EXPECT_LE(trials, 12);
  EXPECT_NEAR(bo.best_x(), 35.0, 8.0);
}

TEST(BoTest, BeatsRandomAndGridOnTrialCount) {
  // Fig. 10's qualitative claim. Average random over seeds for stability.
  const double target = Objective(35.0) - 0.2;
  BoOptions opts;
  opts.first_point = 25.0;
  BayesianOptimizer bo(1.0, 100.0, opts);
  const int bo_trials = TrialsToReach(bo, target, 60);

  double random_avg = 0.0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    RandomSearch rs(1.0, 100.0, seed);
    random_avg += TrialsToReach(rs, target, 60);
  }
  random_avg /= 5.0;

  GridSearch gs(1.0, 100.0, 20);
  const int grid_trials = TrialsToReach(gs, target, 60);

  EXPECT_LT(bo_trials, random_avg);
  EXPECT_LT(bo_trials, grid_trials);
}

TEST(BoTest, PosteriorTracksObservations) {
  BayesianOptimizer bo(0.0, 10.0);
  bo.Observe(2.0, 5.0);
  bo.Observe(8.0, 1.0);
  const auto near2 = bo.Posterior(2.0);
  const auto near8 = bo.Posterior(8.0);
  EXPECT_GT(near2.mean, near8.mean);
}

TEST(BoTest, SuggestionsStayInRange) {
  BayesianOptimizer bo(1.0, 100.0);
  for (int i = 0; i < 10; ++i) {
    const double x = bo.SuggestNext();
    EXPECT_GE(x, 1.0);
    EXPECT_LE(x, 100.0);
    bo.Observe(x, Objective(x));
  }
}

TEST(BoTest, TracksBestObservation) {
  BayesianOptimizer bo(0.0, 10.0);
  bo.Observe(1.0, 5.0);
  bo.Observe(2.0, 9.0);
  bo.Observe(3.0, 7.0);
  EXPECT_DOUBLE_EQ(bo.best_x(), 2.0);
  EXPECT_DOUBLE_EQ(bo.best_y(), 9.0);
  EXPECT_EQ(bo.num_observations(), 3);
}

/// BO's next suggestion computed without the acquisition cache: a fresh
/// GP fit and one Predict(x) per grid point.
double UncachedSuggestion(double lo, double hi, const BoOptions& opts,
                          const std::vector<double>& xs,
                          const std::vector<double>& ys) {
  const auto to_model = [&](double x) {
    return opts.log_scale ? std::log(x) : x;
  };
  GpParams params;
  params.length_scale = opts.length_scale_frac * (to_model(hi) - to_model(lo));
  params.noise_variance = opts.noise_variance;
  GaussianProcess gp(params);
  std::vector<double> model_xs;
  for (double x : xs) model_xs.push_back(to_model(x));
  EXPECT_TRUE(gp.Fit(model_xs, ys).ok());
  const double best = *std::max_element(ys.begin(), ys.end());
  double spread = 0.0;
  for (double y : ys) spread = std::max(spread, std::abs(y - best));
  const double xi = opts.xi * (spread > 1e-12 ? spread : 1.0);
  double best_score = -1e300;
  double best_point = 0.5 * (lo + hi);
  for (int i = 0; i < opts.acquisition_grid; ++i) {
    const double x = lo + (hi - lo) * i / double(opts.acquisition_grid - 1);
    const Prediction pred = gp.Predict(to_model(x));
    const double score =
        opts.acquisition == Acquisition::kUpperConfidenceBound
            ? UpperConfidenceBound(pred, opts.kappa)
            : ExpectedImprovement(pred, best, xi);
    if (score > best_score) {
      best_score = score;
      best_point = x;
    }
  }
  return best_point;
}

class CachedSweep
    : public ::testing::TestWithParam<std::tuple<Acquisition, bool>> {};

TEST_P(CachedSweep, SuggestsWhatAnUncachedSweepSuggests) {
  const auto [acquisition, log_scale] = GetParam();
  BoOptions opts;
  opts.acquisition = acquisition;
  opts.log_scale = log_scale;
  opts.first_point = 25.0;
  BayesianOptimizer bo(1.0, 100.0, opts);
  std::vector<double> xs, ys;
  // Many trials: a converged BO re-suggests points, so inputs repeat.
  for (int t = 0; t < 24; ++t) {
    const double x = bo.SuggestNext();
    if (!xs.empty()) {
      ASSERT_EQ(x, UncachedSuggestion(1.0, 100.0, opts, xs, ys))
          << "trial " << t;
    }
    const double y = Objective(x) + 0.05 * std::sin(7.0 * x);
    bo.Observe(x, y);
    xs.push_back(x);
    ys.push_back(y);
  }
  // Observing a point twice is a duplicate input the sweep must absorb.
  bo.Observe(xs.back(), ys.back());
  xs.push_back(xs.back());
  ys.push_back(ys.back());
  EXPECT_EQ(bo.SuggestNext(), UncachedSuggestion(1.0, 100.0, opts, xs, ys));
}

INSTANTIATE_TEST_SUITE_P(
    AcquisitionsAndScales, CachedSweep,
    ::testing::Combine(::testing::Values(Acquisition::kExpectedImprovement,
                                         Acquisition::kUpperConfidenceBound),
                       ::testing::Bool()));

TEST(UcbTest, BasicProperties) {
  EXPECT_DOUBLE_EQ(UpperConfidenceBound({3.0, 4.0}, 2.0), 7.0);
  EXPECT_DOUBLE_EQ(UpperConfidenceBound({3.0, 0.0}, 2.0), 3.0);
  // More exploration weight favors uncertain points.
  EXPECT_GT(UpperConfidenceBound({1.0, 4.0}, 3.0),
            UpperConfidenceBound({1.0, 4.0}, 1.0));
}

TEST(BoTest, UcbAcquisitionAlsoConverges) {
  BoOptions opts;
  opts.acquisition = Acquisition::kUpperConfidenceBound;
  opts.first_point = 25.0;
  BayesianOptimizer bo(1.0, 100.0, opts);
  const int trials = TrialsToReach(bo, Objective(35.0) - 0.3, 25);
  EXPECT_LE(trials, 20);
  EXPECT_NEAR(bo.best_x(), 35.0, 10.0);
}

TEST(BoTest, LogScaleHandlesWideRanges) {
  // Objective peaks at x = 1000 on a [1, 1e6] range: linear-scale GPs see
  // a spike near the origin; log-scale models it smoothly.
  auto objective = [](double x) {
    const double l = std::log10(x);
    return 10.0 - (l - 3.0) * (l - 3.0);
  };
  BoOptions opts;
  opts.log_scale = true;
  opts.first_point = 10.0;
  BayesianOptimizer bo(1.0, 1e6, opts);
  for (int i = 0; i < 15; ++i) {
    const double x = bo.SuggestNext();
    bo.Observe(x, objective(x));
  }
  EXPECT_GT(bo.best_y(), 9.5);  // within ~0.7 decades of the optimum
}

TEST(BoDeathTest, LogScaleRequiresPositiveRange) {
  BoOptions opts;
  opts.log_scale = true;
  EXPECT_DEATH(BayesianOptimizer(0.0, 1.0, opts), "CHECK");
}

TEST(BoDeathTest, RejectsDegenerateAcquisitionGridAndLengthScale) {
  // A grid of 1 would divide by zero and predict at NaN; a grid <= 0 would
  // skip the sweep. Either way BO would silently suggest the midpoint
  // forever, so both are rejected at construction, as is a length scale
  // with no posterior.
  for (int grid : {1, 0, -3}) {
    BoOptions opts;
    opts.acquisition_grid = grid;
    EXPECT_DEATH(BayesianOptimizer(0.0, 1.0, opts), "acquisition_grid");
  }
  for (double frac : {0.0, -0.5, std::nan("")}) {
    BoOptions opts;
    opts.length_scale_frac = frac;
    EXPECT_DEATH(BayesianOptimizer(0.0, 1.0, opts), "length_scale_frac");
  }
  BoOptions smallest;
  smallest.acquisition_grid = 2;
  BayesianOptimizer bo(0.0, 1.0, smallest);
  bo.Observe(bo.SuggestNext(), 1.0);
  const double x = bo.SuggestNext();
  EXPECT_TRUE(x == 0.0 || x == 1.0);  // a grid of 2 is its two ends
}

TEST(RandomSearchTest, DeterministicPerSeed) {
  RandomSearch a(0.0, 1.0, 42), b(0.0, 1.0, 42);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a.SuggestNext(), b.SuggestNext());
}

TEST(RandomSearchTest, SuggestionsInRange) {
  RandomSearch rs(5.0, 6.0, 7);
  for (int i = 0; i < 100; ++i) {
    const double x = rs.SuggestNext();
    EXPECT_GE(x, 5.0);
    EXPECT_LT(x, 6.0);
  }
}

TEST(GridSearchTest, SweepsEndpointsAndCycles) {
  GridSearch gs(0.0, 10.0, 6);  // step 2
  EXPECT_DOUBLE_EQ(gs.SuggestNext(), 0.0);
  EXPECT_DOUBLE_EQ(gs.SuggestNext(), 2.0);
  for (int i = 0; i < 3; ++i) gs.SuggestNext();
  EXPECT_DOUBLE_EQ(gs.SuggestNext(), 10.0);
  EXPECT_DOUBLE_EQ(gs.SuggestNext(), 0.0);  // cycles
}

TEST(TunerTest, NamesAreStable) {
  BayesianOptimizer bo(0.0, 1.0);
  RandomSearch rs(0.0, 1.0);
  GridSearch gs(0.0, 1.0);
  EXPECT_EQ(bo.name(), "bo");
  EXPECT_EQ(rs.name(), "random");
  EXPECT_EQ(gs.name(), "grid");
}

}  // namespace
}  // namespace dear::tune
