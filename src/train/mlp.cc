#include "train/mlp.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

// SSE2 is part of the x86-64 baseline: the vector backward needs neither a
// -m flag nor runtime dispatch. Other targets keep the portable loop.
#if defined(__x86_64__)
#define DEAR_DENSE_SSE2 1
#include <emmintrin.h>
#endif

namespace dear::train {

void DenseLayer::Init(Rng& rng) {
  w.assign(static_cast<std::size_t>(in) * out, 0.0f);
  b.assign(static_cast<std::size_t>(out), 0.0f);
  gw.assign(w.size(), 0.0f);
  gb.assign(b.size(), 0.0f);
  // Xavier-uniform initialization.
  const float bound = std::sqrt(6.0f / static_cast<float>(in + out));
  for (auto& v : w)
    v = static_cast<float>(rng.Uniform(-bound, bound));
}

std::vector<float> DenseLayer::Forward(std::span<const float> x, int batch) {
  DEAR_CHECK(static_cast<int>(x.size()) == batch * in);
  last_input.assign(x.begin(), x.end());
  std::vector<float> y(static_cast<std::size_t>(batch) * out);
  for (int n = 0; n < batch; ++n) {
    const float* xr = x.data() + static_cast<std::size_t>(n) * in;
    float* yr = y.data() + static_cast<std::size_t>(n) * out;
    for (int j = 0; j < out; ++j) yr[j] = b[static_cast<std::size_t>(j)];
    for (int i = 0; i < in; ++i) {
      const float xi = xr[i];
      if (xi == 0.0f) continue;
      const float* wr = w.data() + static_cast<std::size_t>(i) * out;
      for (int j = 0; j < out; ++j) yr[j] += xi * wr[j];
    }
  }
  last_preact = y;
  if (relu)
    for (auto& v : y)
      if (v < 0.0f) v = 0.0f;
  return y;
}

namespace {

// One batch row of the dense backward: gw[i][j] += x[i] * d[j] and
// dx[i] = sum_j w[i][j] * d[j], summed in j order from 0. Rows i in
// [0, in); the portable loop below is the reference every path matches.
void BackwardRowScalar(const float* w, const float* x, const float* d,
                       float* gw, float* dx, int i_begin, int in, int out) {
  for (int i = i_begin; i < in; ++i) {
    float* gwr = gw + static_cast<std::size_t>(i) * out;
    const float* wr = w + static_cast<std::size_t>(i) * out;
    const float xi = x[i];
    float acc = 0.0f;
    for (int j = 0; j < out; ++j) {
      gwr[j] += xi * d[j];
      acc += wr[j] * d[j];
    }
    dx[i] = acc;
  }
}

// gw[i][j] += x[i] * d[j] alone, for a layer whose dx nobody reads. Each
// element gets the multiply and add of the loop above, so gw is bitwise
// the same; skipping dx skips every read of W.
void WeightGradRows(const float* x, const float* d, float* gw, int in,
                    int out) {
  for (int i = 0; i < in; ++i) {
    float* gwr = gw + static_cast<std::size_t>(i) * out;
    const float xi = x[i];
    for (int j = 0; j < out; ++j) gwr[j] += xi * d[j];
  }
}

#if defined(DEAR_DENSE_SSE2)
// Eight rows at a time. dx's chain over j cannot vectorize along j (that
// would reassociate the sum), so it vectorizes across rows instead: each
// 4x4 tile of W is transposed so that lane k holds w[i + k][j], and lane k
// then accumulates exactly row i + k's serial chain — the same multiply
// and add, in the same j order, as the scalar loop. gw's update is
// elementwise and rides the same pass. SSE2 only (the x86-64 baseline):
// no FMA, so nothing is contracted, and no runtime dispatch is needed.

/// The four lanes of `v`, each broadcast to a whole register.
struct Lanes4 {
  __m128 l0, l1, l2, l3;
};
inline Lanes4 Splat(__m128 v) {
  return {_mm_shuffle_ps(v, v, _MM_SHUFFLE(0, 0, 0, 0)),
          _mm_shuffle_ps(v, v, _MM_SHUFFLE(1, 1, 1, 1)),
          _mm_shuffle_ps(v, v, _MM_SHUFFLE(2, 2, 2, 2)),
          _mm_shuffle_ps(v, v, _MM_SHUFFLE(3, 3, 3, 3))};
}

/// Rows r..r+3 (`w`, `gw` point at row r), columns j..j+3: gw row k +=
/// x_k * d, and lane k of the returned `acc` adds w[r + k][j + c] * d[j + c]
/// for c = 0..3 in order.
inline __m128 Rows4(const float* w, float* gw, std::size_t out, int j,
                    const Lanes4& x, __m128 d, const Lanes4& dj, __m128 acc) {
  float* g = gw + j;
  _mm_storeu_ps(g, _mm_add_ps(_mm_loadu_ps(g), _mm_mul_ps(x.l0, d)));
  g += out;
  _mm_storeu_ps(g, _mm_add_ps(_mm_loadu_ps(g), _mm_mul_ps(x.l1, d)));
  g += out;
  _mm_storeu_ps(g, _mm_add_ps(_mm_loadu_ps(g), _mm_mul_ps(x.l2, d)));
  g += out;
  _mm_storeu_ps(g, _mm_add_ps(_mm_loadu_ps(g), _mm_mul_ps(x.l3, d)));
  const float* r = w + j;
  __m128 c0 = _mm_loadu_ps(r);
  __m128 c1 = _mm_loadu_ps(r + out);
  __m128 c2 = _mm_loadu_ps(r + 2 * out);
  __m128 c3 = _mm_loadu_ps(r + 3 * out);
  _MM_TRANSPOSE4_PS(c0, c1, c2, c3);  // c_c = column j + c of the 4 rows
  acc = _mm_add_ps(acc, _mm_mul_ps(c0, dj.l0));
  acc = _mm_add_ps(acc, _mm_mul_ps(c1, dj.l1));
  acc = _mm_add_ps(acc, _mm_mul_ps(c2, dj.l2));
  return _mm_add_ps(acc, _mm_mul_ps(c3, dj.l3));
}

void BackwardRows8(const float* w, const float* x, const float* d, float* gw,
                   float* dx, int i, int out) {
  const auto o = static_cast<std::size_t>(out);
  const float* w0 = w + static_cast<std::size_t>(i) * o;
  float* g0 = gw + static_cast<std::size_t>(i) * o;
  const Lanes4 x_lo = Splat(_mm_loadu_ps(x + i));
  const Lanes4 x_hi = Splat(_mm_loadu_ps(x + i + 4));
  __m128 lo = _mm_setzero_ps();  // dx[i .. i+3]
  __m128 hi = _mm_setzero_ps();  // dx[i+4 .. i+7]
  int j = 0;
  for (; j + 4 <= out; j += 4) {
    const __m128 dv = _mm_loadu_ps(d + j);
    const Lanes4 dj = Splat(dv);
    lo = Rows4(w0, g0, o, j, x_lo, dv, dj, lo);
    hi = Rows4(w0 + 4 * o, g0 + 4 * o, o, j, x_hi, dv, dj, hi);
  }
  float acc[8];
  _mm_storeu_ps(acc, lo);
  _mm_storeu_ps(acc + 4, hi);
  for (int k = 0; k < 8; ++k) {
    // Columns past the last multiple of 4: the tail of each chain, still
    // in j order.
    const float* wr = w0 + static_cast<std::size_t>(k) * o;
    float* gr = g0 + static_cast<std::size_t>(k) * o;
    const float xk = x[i + k];
    for (int jt = j; jt < out; ++jt) {
      gr[jt] += xk * d[jt];
      acc[k] += wr[jt] * d[jt];
    }
    dx[i + k] = acc[k];
  }
}
#endif

}  // namespace

std::vector<float> DenseLayer::Backward(std::span<const float> dy, int batch,
                                        bool want_dx) {
  DEAR_CHECK(static_cast<int>(dy.size()) == batch * out);
  DEAR_CHECK_MSG(static_cast<int>(last_input.size()) == batch * in,
                 "Backward without matching Forward");
  std::vector<float> dpre(dy.begin(), dy.end());
  if (relu) {
    for (std::size_t i = 0; i < dpre.size(); ++i)
      if (last_preact[i] <= 0.0f) dpre[i] = 0.0f;
  }
  std::vector<float> dx(want_dx ? static_cast<std::size_t>(batch) * in : 0,
                        0.0f);
  // Batch rows accumulate into gw/gb in n order, as a sequential sum would.
  for (int n = 0; n < batch; ++n) {
    const float* xr = last_input.data() + static_cast<std::size_t>(n) * in;
    const float* dr = dpre.data() + static_cast<std::size_t>(n) * out;
    for (int j = 0; j < out; ++j) gb[static_cast<std::size_t>(j)] += dr[j];
    if (!want_dx) {
      WeightGradRows(xr, dr, gw.data(), in, out);
      continue;
    }
    float* dxr = dx.data() + static_cast<std::size_t>(n) * in;
    int i = 0;
#if defined(DEAR_DENSE_SSE2)
    for (; i + 8 <= in; i += 8)
      BackwardRows8(w.data(), xr, dr, gw.data(), dxr, i, out);
#endif
    BackwardRowScalar(w.data(), xr, dr, gw.data(), dxr, i, in, out);
  }
  return dx;
}

Mlp::Mlp(const std::vector<int>& dims, std::uint64_t seed) {
  DEAR_CHECK_MSG(dims.size() >= 2, "need at least input and output dims");
  Rng rng(seed);
  layers_.resize(dims.size() - 1);
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    layers_[l].in = dims[l];
    layers_[l].out = dims[l + 1];
    layers_[l].relu = (l + 1 < layers_.size());
    layers_[l].Init(rng);
  }
}

std::vector<float> Mlp::Forward(std::span<const float> x, int batch,
                                const std::function<void(int)>& pre_layer) {
  last_batch_ = batch;
  std::vector<float> act(x.begin(), x.end());
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    if (pre_layer) pre_layer(static_cast<int>(l));
    act = layers_[l].Forward(act, batch);
  }
  return act;
}

void Mlp::Backward(std::span<const float> dy, int batch,
                   const std::function<void(int)>& post_layer) {
  DEAR_CHECK_MSG(batch == last_batch_, "Backward batch mismatch");
  std::vector<float> grad(dy.begin(), dy.end());
  for (int l = num_layers() - 1; l >= 0; --l) {
    grad = layers_[static_cast<std::size_t>(l)].Backward(grad, batch,
                                                         /*want_dx=*/l > 0);
    if (post_layer) post_layer(l);
  }
}

void Mlp::ZeroGrad() {
  for (auto& layer : layers_) {
    std::fill(layer.gw.begin(), layer.gw.end(), 0.0f);
    std::fill(layer.gb.begin(), layer.gb.end(), 0.0f);
  }
}

float Mlp::MseLoss(std::span<const float> pred, std::span<const float> target,
                   std::vector<float>* grad_out) {
  DEAR_CHECK(pred.size() == target.size() && !pred.empty());
  const auto n = static_cast<float>(pred.size());
  float loss = 0.0f;
  if (grad_out) grad_out->resize(pred.size());
  for (std::size_t i = 0; i < pred.size(); ++i) {
    const float diff = pred[i] - target[i];
    loss += diff * diff;
    if (grad_out) (*grad_out)[i] = 2.0f * diff / n;
  }
  return loss / n;
}

float Mlp::SoftmaxCrossEntropy(std::span<const float> logits,
                               std::span<const int> labels, int classes,
                               std::vector<float>* grad_out) {
  DEAR_CHECK(classes > 0 &&
             logits.size() == labels.size() * static_cast<std::size_t>(classes));
  const auto batch = labels.size();
  DEAR_CHECK(batch > 0);
  if (grad_out) grad_out->assign(logits.size(), 0.0f);
  float loss = 0.0f;
  for (std::size_t n = 0; n < batch; ++n) {
    const float* row = logits.data() + n * static_cast<std::size_t>(classes);
    // Stable softmax: subtract the row max before exponentiating.
    float row_max = row[0];
    for (int c = 1; c < classes; ++c) row_max = std::max(row_max, row[c]);
    float denom = 0.0f;
    for (int c = 0; c < classes; ++c) denom += std::exp(row[c] - row_max);
    const int label = labels[n];
    DEAR_CHECK(label >= 0 && label < classes);
    const float log_prob = row[label] - row_max - std::log(denom);
    loss -= log_prob;
    if (grad_out) {
      float* g = grad_out->data() + n * static_cast<std::size_t>(classes);
      for (int c = 0; c < classes; ++c) {
        const float softmax = std::exp(row[c] - row_max) / denom;
        g[c] = (softmax - (c == label ? 1.0f : 0.0f)) /
               static_cast<float>(batch);
      }
    }
  }
  return loss / static_cast<float>(batch);
}

float Mlp::Accuracy(std::span<const float> logits, std::span<const int> labels,
                    int classes) {
  DEAR_CHECK(classes > 0 &&
             logits.size() == labels.size() * static_cast<std::size_t>(classes));
  if (labels.empty()) return 0.0f;
  std::size_t correct = 0;
  for (std::size_t n = 0; n < labels.size(); ++n) {
    const float* row = logits.data() + n * static_cast<std::size_t>(classes);
    int best = 0;
    for (int c = 1; c < classes; ++c)
      if (row[c] > row[best]) best = c;
    if (best == labels[n]) ++correct;
  }
  return static_cast<float>(correct) / static_cast<float>(labels.size());
}

model::ModelSpec Mlp::Spec() const {
  model::ModelSpec spec("mlp", 1);
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    spec.AddLayer("dense" + std::to_string(l),
                  {layers_[l].w.size(), layers_[l].b.size()});
  }
  spec.AssignComputeTimes(Microseconds(100.0 * layers_.size()));
  return spec;
}

std::vector<ParamBinding> Mlp::Bindings() {
  std::vector<ParamBinding> bindings;
  bindings.reserve(layers_.size() * 2);
  for (auto& layer : layers_) {
    bindings.push_back({std::span<float>(layer.w), std::span<float>(layer.gw)});
    bindings.push_back({std::span<float>(layer.b), std::span<float>(layer.gb)});
  }
  return bindings;
}

}  // namespace dear::train
