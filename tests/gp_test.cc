// Gaussian-process regression: linear-algebra kernels, interpolation and
// uncertainty behavior, robustness to degenerate inputs, and the cached
// grid sweep matching Predict bit for bit.
#include "tune/gp.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

namespace dear::tune {
namespace {

TEST(CholeskyTest, FactorsKnownMatrix) {
  // A = [[4,2],[2,3]] -> L = [[2,0],[1,sqrt(2)]].
  std::vector<double> a{4, 2, 2, 3};
  ASSERT_TRUE(CholeskyFactor(a, 2));
  EXPECT_DOUBLE_EQ(a[0], 2.0);
  EXPECT_DOUBLE_EQ(a[2], 1.0);
  EXPECT_NEAR(a[3], std::sqrt(2.0), 1e-12);
  EXPECT_DOUBLE_EQ(a[1], 0.0);  // upper triangle zeroed
}

TEST(CholeskyTest, RejectsIndefiniteMatrix) {
  std::vector<double> a{1, 2, 2, 1};  // eigenvalues 3, -1
  EXPECT_FALSE(CholeskyFactor(a, 2));
}

TEST(CholeskyTest, SolveRecoversKnownSolution) {
  // A x = b with A = [[4,2],[2,3]], x = [1,2] -> b = [8,8].
  std::vector<double> a{4, 2, 2, 3};
  ASSERT_TRUE(CholeskyFactor(a, 2));
  const auto x = CholeskySolve(a, 2, {8, 8});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(CholeskyTest, IdentityIsItsOwnFactor) {
  std::vector<double> a{1, 0, 0, 0, 1, 0, 0, 0, 1};
  ASSERT_TRUE(CholeskyFactor(a, 3));
  const auto x = CholeskySolve(a, 3, {3, 5, 7});
  EXPECT_DOUBLE_EQ(x[0], 3.0);
  EXPECT_DOUBLE_EQ(x[1], 5.0);
  EXPECT_DOUBLE_EQ(x[2], 7.0);
}

TEST(GpTest, FitRejectsBadInput) {
  GaussianProcess gp;
  EXPECT_FALSE(gp.Fit({}, {}).ok());
  EXPECT_FALSE(gp.Fit({1.0}, {1.0, 2.0}).ok());
  EXPECT_FALSE(gp.fitted());
}

TEST(GpTest, InterpolatesObservationsWithSmallNoise) {
  GpParams params;
  params.length_scale = 0.5;
  params.noise_variance = 1e-8;
  GaussianProcess gp(params);
  const std::vector<double> xs{0.0, 1.0, 2.0, 3.0};
  const std::vector<double> ys{1.0, 3.0, 2.0, 5.0};
  ASSERT_TRUE(gp.Fit(xs, ys).ok());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const auto pred = gp.Predict(xs[i]);
    EXPECT_NEAR(pred.mean, ys[i], 1e-3);
    EXPECT_LT(pred.stddev(), 0.05);
  }
}

TEST(GpTest, UncertaintyGrowsAwayFromData) {
  GpParams params;
  params.length_scale = 0.3;
  GaussianProcess gp(params);
  ASSERT_TRUE(gp.Fit({0.0, 1.0}, {0.0, 1.0}).ok());
  const double near = gp.Predict(0.5).variance;
  const double far = gp.Predict(5.0).variance;
  EXPECT_GT(far, near);
}

TEST(GpTest, RevertsToMeanFarFromData) {
  GaussianProcess gp;
  ASSERT_TRUE(gp.Fit({0.0, 0.1}, {10.0, 12.0}).ok());
  EXPECT_NEAR(gp.Predict(100.0).mean, 11.0, 0.1);  // prior = data mean
}

TEST(GpTest, SmoothPredictionBetweenPoints) {
  GpParams params;
  params.length_scale = 1.0;
  params.noise_variance = 1e-6;
  GaussianProcess gp(params);
  ASSERT_TRUE(gp.Fit({0.0, 2.0}, {0.0, 2.0}).ok());
  const double mid = gp.Predict(1.0).mean;
  EXPECT_GT(mid, 0.5);
  EXPECT_LT(mid, 1.5);
}

TEST(GpTest, HandlesConstantTargets) {
  GaussianProcess gp;
  ASSERT_TRUE(gp.Fit({0.0, 0.5, 1.0}, {7.0, 7.0, 7.0}).ok());
  EXPECT_NEAR(gp.Predict(0.25).mean, 7.0, 1e-6);
}

TEST(GpTest, DuplicateInputsToleratedByNoise) {
  GaussianProcess gp;  // default noise 1e-4 keeps K SPD
  EXPECT_TRUE(gp.Fit({1.0, 1.0}, {2.0, 2.2}).ok());
  EXPECT_NEAR(gp.Predict(1.0).mean, 2.1, 0.1);
}

TEST(GpTest, RefitReplacesPosterior) {
  GaussianProcess gp;
  ASSERT_TRUE(gp.Fit({0.0}, {1.0}).ok());
  const double before = gp.Predict(0.0).mean;
  ASSERT_TRUE(gp.Fit({0.0}, {5.0}).ok());
  const double after = gp.Predict(0.0).mean;
  EXPECT_NEAR(before, 1.0, 0.2);
  EXPECT_NEAR(after, 5.0, 0.2);
  EXPECT_EQ(gp.num_observations(), 1u);
}

// The grid sweep against Predict(x), bit for bit (signed zeros included).
void ExpectGridMatchesPredict(const GaussianProcess& gp, PredictionGrid& grid) {
  std::vector<Prediction> swept;
  gp.Predict(grid, swept);
  ASSERT_EQ(swept.size(), grid.inputs().size());
  for (std::size_t i = 0; i < swept.size(); ++i) {
    const Prediction want = gp.Predict(grid.inputs()[i]);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(swept[i].mean),
              std::bit_cast<std::uint64_t>(want.mean))
        << "input " << i;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(swept[i].variance),
              std::bit_cast<std::uint64_t>(want.variance))
        << "input " << i;
  }
}

std::vector<double> Inputs(int points, double lo, double hi) {
  std::vector<double> xs;
  for (int i = 0; i < points; ++i)
    xs.push_back(lo + (hi - lo) * i / double(points - 1));
  return xs;
}

TEST(PredictionGridTest, AppendedObservationsExtendTheCache) {
  GpParams params;
  params.length_scale = 0.2;
  GaussianProcess gp(params);
  PredictionGrid grid(Inputs(64, -0.5, 1.5));
  std::vector<double> xs, ys;
  for (int i = 0; i < 12; ++i) {
    xs.push_back(std::fmod(0.37 * i, 1.0));
    ys.push_back(std::sin(5.0 * xs.back()) + 0.1 * i);
    ASSERT_TRUE(gp.Fit(xs, ys).ok());
    ExpectGridMatchesPredict(gp, grid);
  }
  EXPECT_EQ(grid.resets(), 1);  // built once, then only extended
}

TEST(PredictionGridTest, NewTargetsOnTheSameInputsKeepTheCache) {
  GaussianProcess gp;
  PredictionGrid grid(Inputs(32, 0.0, 1.0));
  ASSERT_TRUE(gp.Fit({0.1, 0.5, 0.9}, {1.0, 2.0, 0.5}).ok());
  ExpectGridMatchesPredict(gp, grid);
  ASSERT_TRUE(gp.Fit({0.1, 0.5, 0.9}, {-4.0, 7.0, 3.0}).ok());
  ExpectGridMatchesPredict(gp, grid);
  EXPECT_EQ(grid.resets(), 1);
}

TEST(PredictionGridTest, NonPrefixRefitResetsTheCache) {
  GaussianProcess gp;
  PredictionGrid grid(Inputs(32, 0.0, 1.0));
  ASSERT_TRUE(gp.Fit({0.1, 0.5, 0.9}, {1.0, 2.0, 0.5}).ok());
  ExpectGridMatchesPredict(gp, grid);
  // The second input changed: the cached solve rows no longer apply.
  ASSERT_TRUE(gp.Fit({0.1, 0.6, 0.9, 0.3}, {1.0, 2.0, 0.5, 1.5}).ok());
  ExpectGridMatchesPredict(gp, grid);
  EXPECT_EQ(grid.resets(), 2);
  // Fewer observations than cached is not an extension either.
  ASSERT_TRUE(gp.Fit({0.1, 0.6}, {1.0, 2.0}).ok());
  ExpectGridMatchesPredict(gp, grid);
  EXPECT_EQ(grid.resets(), 3);
}

TEST(PredictionGridTest, AnotherKernelResetsTheCache) {
  PredictionGrid grid(Inputs(16, 0.0, 1.0));
  GaussianProcess narrow(GpParams{0.05, 1.0, 1e-4});
  GaussianProcess wide(GpParams{0.5, 1.0, 1e-4});
  ASSERT_TRUE(narrow.Fit({0.2, 0.7}, {1.0, 3.0}).ok());
  ASSERT_TRUE(wide.Fit({0.2, 0.7}, {1.0, 3.0}).ok());
  ExpectGridMatchesPredict(narrow, grid);
  ExpectGridMatchesPredict(wide, grid);
  EXPECT_EQ(grid.resets(), 2);
}

TEST(PredictionGridTest, LongSequenceExtendsOneCacheExactly) {
  GaussianProcess gp;
  PredictionGrid grid(Inputs(20, 0.0, 2.0));
  std::vector<double> xs, ys;
  for (int i = 0; i < 40; ++i) {
    xs.push_back(std::fmod(0.21 * i, 2.0));
    ys.push_back(std::cos(3.0 * xs.back()));
    ASSERT_TRUE(gp.Fit(xs, ys).ok());
    ExpectGridMatchesPredict(gp, grid);
  }
  EXPECT_EQ(grid.resets(), 1);
}

TEST(PredictionGridTest, DuplicateInputsMatchPredict) {
  GaussianProcess gp;  // noise keeps K positive definite
  PredictionGrid grid(Inputs(33, 0.0, 2.0));
  std::vector<double> xs, ys;
  for (const double x : {1.0, 1.0, 0.5, 1.0, 1.5, 0.5}) {
    xs.push_back(x);
    ys.push_back(2.0 + x + 0.01 * static_cast<double>(xs.size()));
    ASSERT_TRUE(gp.Fit(xs, ys).ok());
    ExpectGridMatchesPredict(gp, grid);
  }
  EXPECT_EQ(grid.resets(), 1);
}

TEST(GpDeathTest, PredictBeforeFit) {
  GaussianProcess gp;
  EXPECT_DEATH((void)gp.Predict(0.0), "Predict before Fit");
  PredictionGrid grid({0.0});
  std::vector<Prediction> out;
  EXPECT_DEATH(gp.Predict(grid, out), "Predict before Fit");
}

}  // namespace
}  // namespace dear::tune
