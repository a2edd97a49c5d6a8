// The real network substrate: forward correctness on hand-computed cases,
// backward correctness against numerical differentiation, and hook order.
#include "train/mlp.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <span>
#include <utility>

#include "common/rng.h"
#include "train/data.h"
#include "train/sgd.h"

namespace dear::train {
namespace {

TEST(DenseLayerTest, ForwardComputesAffineMap) {
  DenseLayer layer;
  layer.in = 2;
  layer.out = 2;
  layer.relu = false;
  layer.w = {1.0f, 2.0f,   // row for x0
             3.0f, 4.0f};  // row for x1
  layer.b = {0.5f, -0.5f};
  layer.gw.assign(4, 0.0f);
  layer.gb.assign(2, 0.0f);
  const auto y = layer.Forward(std::vector<float>{1.0f, 1.0f}, 1);
  ASSERT_EQ(y.size(), 2u);
  EXPECT_FLOAT_EQ(y[0], 1.0f + 3.0f + 0.5f);
  EXPECT_FLOAT_EQ(y[1], 2.0f + 4.0f - 0.5f);
}

TEST(DenseLayerTest, ReluClampsNegativePreactivations) {
  DenseLayer layer;
  layer.in = 1;
  layer.out = 2;
  layer.relu = true;
  layer.w = {1.0f, -1.0f};
  layer.b = {0.0f, 0.0f};
  layer.gw.assign(2, 0.0f);
  layer.gb.assign(2, 0.0f);
  const auto y = layer.Forward(std::vector<float>{2.0f}, 1);
  EXPECT_FLOAT_EQ(y[0], 2.0f);
  EXPECT_FLOAT_EQ(y[1], 0.0f);
}

TEST(DenseLayerTest, BatchedForward) {
  DenseLayer layer;
  layer.in = 1;
  layer.out = 1;
  layer.relu = false;
  layer.w = {3.0f};
  layer.b = {1.0f};
  layer.gw.assign(1, 0.0f);
  layer.gb.assign(1, 0.0f);
  const auto y = layer.Forward(std::vector<float>{1.0f, 2.0f, 3.0f}, 3);
  EXPECT_FLOAT_EQ(y[0], 4.0f);
  EXPECT_FLOAT_EQ(y[1], 7.0f);
  EXPECT_FLOAT_EQ(y[2], 10.0f);
}

// The dense backward as it was written before the vector kernel: one
// serial dot-product chain per input row. Kept verbatim as the bitwise
// reference for DenseLayer::Backward.
std::vector<float> ReferenceBackward(DenseLayer& layer,
                                     std::span<const float> dy, int batch) {
  const int in = layer.in;
  const int out = layer.out;
  std::vector<float> dpre(dy.begin(), dy.end());
  if (layer.relu) {
    for (std::size_t i = 0; i < dpre.size(); ++i)
      if (layer.last_preact[i] <= 0.0f) dpre[i] = 0.0f;
  }
  std::vector<float> dx(static_cast<std::size_t>(batch) * in, 0.0f);
  for (int n = 0; n < batch; ++n) {
    const float* xr =
        layer.last_input.data() + static_cast<std::size_t>(n) * in;
    const float* dr = dpre.data() + static_cast<std::size_t>(n) * out;
    float* dxr = dx.data() + static_cast<std::size_t>(n) * in;
    for (int j = 0; j < out; ++j)
      layer.gb[static_cast<std::size_t>(j)] += dr[j];
    for (int i = 0; i < in; ++i) {
      float* gwr = layer.gw.data() + static_cast<std::size_t>(i) * out;
      const float* wr = layer.w.data() + static_cast<std::size_t>(i) * out;
      const float xi = xr[i];
      float acc = 0.0f;
      for (int j = 0; j < out; ++j) {
        gwr[j] += xi * dr[j];
        acc += wr[j] * dr[j];
      }
      dxr[i] = acc;
    }
  }
  return dx;
}

void ExpectBitwiseEqual(const std::vector<float>& got,
                        const std::vector<float>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(float)),
            0)
      << what;
}

TEST(DenseLayerTest, BackwardBitwiseEqualsSerialReference) {
  // in % 8 != 0 and out % 4 != 0 exercise the scalar row and column
  // tails; multiples of 8 and 4 run the vector path alone.
  const std::pair<int, int> shapes[] = {{1, 1},   {7, 3},   {13, 6},
                                        {19, 11}, {37, 23}, {16, 8},
                                        {24, 12}, {9, 5},   {64, 33}};
  Rng rng(2024);
  for (const auto& [in, out] : shapes) {
    for (const int batch : {1, 3}) {
      for (const bool relu : {false, true}) {
        DenseLayer layer;
        layer.in = in;
        layer.out = out;
        layer.relu = relu;
        layer.Init(rng);
        for (float& v : layer.b) v = static_cast<float>(rng.Uniform(-1, 1));
        DenseLayer ref = layer;
        DenseLayer no_dx = layer;  // the first layer's path: gw, gb only
        std::vector<float> x(static_cast<std::size_t>(batch) * in);
        std::vector<float> dy(static_cast<std::size_t>(batch) * out);
        // Two back-to-back backwards: the second accumulates into the
        // first's gw/gb.
        for (int pass = 0; pass < 2; ++pass) {
          for (float& v : x) v = static_cast<float>(rng.Uniform(-2, 2));
          for (float& v : dy) v = static_cast<float>(rng.Uniform(-1, 1));
          layer.Forward(x, batch);
          ref.Forward(x, batch);
          no_dx.Forward(x, batch);
          const std::vector<float> dx = layer.Backward(dy, batch);
          const std::vector<float> none =
              no_dx.Backward(dy, batch, /*want_dx=*/false);
          const std::vector<float> want = ReferenceBackward(ref, dy, batch);
          SCOPED_TRACE(testing::Message()
                       << in << "x" << out << " batch " << batch << " relu "
                       << relu << " pass " << pass);
          ExpectBitwiseEqual(dx, want, "dx");
          ExpectBitwiseEqual(layer.gw, ref.gw, "gw");
          ExpectBitwiseEqual(layer.gb, ref.gb, "gb");
          EXPECT_TRUE(none.empty());
          ExpectBitwiseEqual(no_dx.gw, ref.gw, "gw without dx");
          ExpectBitwiseEqual(no_dx.gb, ref.gb, "gb without dx");
        }
      }
    }
  }
}

// Numerical gradient check: perturb every parameter and input, compare the
// analytic gradients of a scalar loss against central differences.
TEST(MlpTest, GradientsMatchNumericalDifferentiation) {
  const std::vector<int> dims{3, 4, 2};
  Mlp mlp(dims, /*seed=*/5);
  const int batch = 2;
  const std::vector<float> x{0.3f, -0.2f, 0.8f, -0.5f, 0.1f, 0.4f};
  const std::vector<float> target{0.5f, -0.5f, 0.25f, 0.75f};

  auto loss_at = [&]() {
    Mlp probe = mlp;  // copy current parameters
    const auto pred = probe.Forward(x, batch);
    return Mlp::MseLoss(pred, target, nullptr);
  };

  mlp.ZeroGrad();
  std::vector<float> grad;
  const auto pred = mlp.Forward(x, batch);
  Mlp::MseLoss(pred, target, &grad);
  mlp.Backward(grad, batch);

  const float eps = 1e-3f;
  for (auto& layer : mlp.layers()) {
    for (std::size_t i = 0; i < layer.w.size(); i += 3) {  // sample-check
      const float saved = layer.w[i];
      layer.w[i] = saved + eps;
      const float up = loss_at();
      layer.w[i] = saved - eps;
      const float down = loss_at();
      layer.w[i] = saved;
      const float numeric = (up - down) / (2 * eps);
      EXPECT_NEAR(layer.gw[i], numeric, 2e-2f * std::max(1.0f, std::abs(numeric)));
    }
    for (std::size_t i = 0; i < layer.b.size(); ++i) {
      const float saved = layer.b[i];
      layer.b[i] = saved + eps;
      const float up = loss_at();
      layer.b[i] = saved - eps;
      const float down = loss_at();
      layer.b[i] = saved;
      const float numeric = (up - down) / (2 * eps);
      EXPECT_NEAR(layer.gb[i], numeric, 2e-2f * std::max(1.0f, std::abs(numeric)));
    }
  }
}

TEST(MlpTest, HooksFireInPipelineOrder) {
  Mlp mlp({2, 3, 3, 1}, 7);
  const std::vector<float> x{0.1f, 0.2f};
  std::vector<int> forward_order, backward_order;
  const auto pred = mlp.Forward(x, 1, [&](int l) { forward_order.push_back(l); });
  std::vector<float> grad;
  Mlp::MseLoss(pred, std::vector<float>{0.0f}, &grad);
  mlp.Backward(grad, 1, [&](int l) { backward_order.push_back(l); });
  EXPECT_EQ(forward_order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(backward_order, (std::vector<int>{2, 1, 0}));
}

TEST(MlpTest, ZeroGradClearsAccumulation) {
  Mlp mlp({2, 2}, 3);
  const std::vector<float> x{1.0f, 1.0f};
  std::vector<float> grad;
  const auto pred = mlp.Forward(x, 1);
  Mlp::MseLoss(pred, std::vector<float>{0.0f, 0.0f}, &grad);
  mlp.Backward(grad, 1);
  mlp.ZeroGrad();
  for (auto& layer : mlp.layers()) {
    for (float g : layer.gw) EXPECT_EQ(g, 0.0f);
    for (float g : layer.gb) EXPECT_EQ(g, 0.0f);
  }
}

TEST(MlpTest, GradientsAccumulateAcrossBackwards) {
  Mlp mlp({1, 1}, 3);
  const std::vector<float> x{1.0f};
  std::vector<float> grad;
  auto run = [&] {
    const auto pred = mlp.Forward(x, 1);
    Mlp::MseLoss(pred, std::vector<float>{1.0f}, &grad);
    mlp.Backward(grad, 1);
  };
  run();
  const float once = mlp.layers()[0].gw[0];
  run();
  EXPECT_NEAR(mlp.layers()[0].gw[0], 2 * once, 1e-6f);
}

TEST(MlpTest, MseLossKnownValue) {
  std::vector<float> grad;
  const float loss = Mlp::MseLoss(std::vector<float>{1.0f, 2.0f},
                                  std::vector<float>{0.0f, 0.0f}, &grad);
  EXPECT_FLOAT_EQ(loss, 2.5f);  // (1+4)/2
  EXPECT_FLOAT_EQ(grad[0], 1.0f);   // 2*1/2
  EXPECT_FLOAT_EQ(grad[1], 2.0f);
}

TEST(SoftmaxTest, UniformLogitsGiveLogCLoss) {
  const std::vector<float> logits{0.0f, 0.0f, 0.0f, 0.0f};
  const std::vector<int> labels{2};
  std::vector<float> grad;
  const float loss = Mlp::SoftmaxCrossEntropy(logits, labels, 4, &grad);
  EXPECT_NEAR(loss, std::log(4.0f), 1e-5f);
  // Gradient: softmax (0.25 each) minus one-hot at the label.
  EXPECT_NEAR(grad[0], 0.25f, 1e-5f);
  EXPECT_NEAR(grad[2], -0.75f, 1e-5f);
}

TEST(SoftmaxTest, ConfidentCorrectPredictionHasLowLoss) {
  const std::vector<float> logits{10.0f, 0.0f};
  const std::vector<int> labels{0};
  const float loss = Mlp::SoftmaxCrossEntropy(logits, labels, 2, nullptr);
  EXPECT_LT(loss, 1e-3f);
}

TEST(SoftmaxTest, StableForHugeLogits) {
  const std::vector<float> logits{5000.0f, 4999.0f};
  const std::vector<int> labels{1};
  const float loss = Mlp::SoftmaxCrossEntropy(logits, labels, 2, nullptr);
  EXPECT_TRUE(std::isfinite(loss));
  EXPECT_NEAR(loss, 1.3133f, 1e-3f);  // log(1 + e^1)
}

TEST(SoftmaxTest, GradientMatchesNumericalDifferentiation) {
  std::vector<float> logits{0.3f, -1.2f, 0.8f, 0.1f, 2.0f, -0.5f};
  const std::vector<int> labels{2, 0};
  std::vector<float> grad;
  Mlp::SoftmaxCrossEntropy(logits, labels, 3, &grad);
  const float eps = 1e-3f;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    logits[i] += eps;
    const float up = Mlp::SoftmaxCrossEntropy(logits, labels, 3, nullptr);
    logits[i] -= 2 * eps;
    const float down = Mlp::SoftmaxCrossEntropy(logits, labels, 3, nullptr);
    logits[i] += eps;
    EXPECT_NEAR(grad[i], (up - down) / (2 * eps), 1e-3f) << i;
  }
}

TEST(SoftmaxTest, AccuracyCountsArgmaxMatches) {
  const std::vector<float> logits{1.0f, 2.0f,   // argmax 1
                                  5.0f, 0.0f,   // argmax 0
                                  0.1f, 0.2f};  // argmax 1
  const std::vector<int> labels{1, 0, 0};
  EXPECT_NEAR(Mlp::Accuracy(logits, labels, 2), 2.0f / 3.0f, 1e-6f);
}

TEST(ClassificationTrainingTest, MlpLearnsGaussianBlobs) {
  const auto ds = MakeClassificationDataset(128, 4, 3, 17);
  Mlp mlp({4, 16, 3}, 23);
  std::vector<float> x;
  std::vector<int> y;
  std::vector<float> grad;
  std::vector<std::size_t> sizes;
  for (auto& layer : mlp.layers()) {
    sizes.push_back(layer.w.size());
    sizes.push_back(layer.b.size());
  }
  Sgd sgd(sizes, {.lr = 0.1f, .momentum = 0.9f});
  for (int it = 0; it < 60; ++it) {
    ds.Batch((it * 32) % 96, 32, &x, &y);
    mlp.ZeroGrad();
    const auto logits = mlp.Forward(x, 32);
    Mlp::SoftmaxCrossEntropy(logits, y, 3, &grad);
    mlp.Backward(grad, 32);
    int t = 0;
    for (auto& layer : mlp.layers()) {
      sgd.Step(t++, layer.w, layer.gw);
      sgd.Step(t++, layer.b, layer.gb);
    }
  }
  ds.Batch(0, 128, &x, &y);
  const auto logits = mlp.Forward(x, 128);
  EXPECT_GT(Mlp::Accuracy(logits, y, 3), 0.9f);
}

TEST(MlpTest, SpecMatchesArchitecture) {
  Mlp mlp({4, 8, 2}, 11);
  const auto spec = mlp.Spec();
  EXPECT_EQ(spec.num_layers(), 2);
  EXPECT_EQ(spec.num_tensors(), 4);
  EXPECT_EQ(spec.tensor(0).elems, 32u);  // 4x8 weights
  EXPECT_EQ(spec.tensor(1).elems, 8u);   // bias
  EXPECT_EQ(spec.total_params(), 32u + 8 + 16 + 2);
}

TEST(MlpTest, BindingsAliasLiveParameters) {
  Mlp mlp({2, 2}, 13);
  auto bindings = mlp.Bindings();
  ASSERT_EQ(bindings.size(), 2u);
  bindings[0].values[0] = 123.0f;
  EXPECT_EQ(mlp.layers()[0].w[0], 123.0f);
}

TEST(MlpTest, SameSeedSameInit) {
  Mlp a({3, 5, 1}, 99), b({3, 5, 1}, 99);
  EXPECT_EQ(a.layers()[0].w, b.layers()[0].w);
  Mlp c({3, 5, 1}, 100);
  EXPECT_NE(a.layers()[0].w, c.layers()[0].w);
}

TEST(MlpDeathTest, BackwardWithoutForward) {
  Mlp mlp({2, 1}, 1);
  std::vector<float> dy{1.0f};
  EXPECT_DEATH(mlp.Backward(dy, 1), "batch mismatch|matching Forward");
}

}  // namespace
}  // namespace dear::train
