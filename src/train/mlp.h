// Minimal real neural network used to exercise the DeAR runtime end to end:
// a fully-connected network with ReLU hidden activations and explicit
// per-layer forward/backward so the runtime's hooks (per-layer gradient
// readiness in BP, per-layer parameter need in FF) have real call sites.
//
// This plays the role PyTorch plays in the paper's implementation (§V):
// the DistOptim registers hooks here exactly as it would on autograd.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "common/rng.h"
#include "model/model_spec.h"

namespace dear::train {

/// One dense layer y = act(x W + b); W is in x out row-major.
struct DenseLayer {
  int in{0};
  int out{0};
  bool relu{false};

  std::vector<float> w, b;    // parameters
  std::vector<float> gw, gb;  // parameter gradients (filled by Backward)

  // Cached activations from the last Forward, needed by Backward.
  std::vector<float> last_input;
  std::vector<float> last_preact;

  void Init(Rng& rng);
  /// x: batch x in. Returns batch x out.
  std::vector<float> Forward(std::span<const float> x, int batch);
  /// dy: batch x out gradient. Accumulates into gw/gb (caller zeroes),
  /// returns batch x in gradient — or nothing when `want_dx` is false (the
  /// first layer's input gradient has no consumer).
  std::vector<float> Backward(std::span<const float> dy, int batch,
                              bool want_dx = true);
};

/// Parameter tensor exposed to the distributed optimizer.
struct ParamBinding {
  std::span<float> values;
  std::span<float> grads;
};

class Mlp {
 public:
  /// dims = {in, h1, ..., out}; hidden layers get ReLU, the last is linear.
  Mlp(const std::vector<int>& dims, std::uint64_t seed);

  [[nodiscard]] int num_layers() const noexcept {
    return static_cast<int>(layers_.size());
  }

  /// `pre_layer(l)` runs before layer l's forward — the FeedPipe hook.
  std::vector<float> Forward(std::span<const float> x, int batch,
                             const std::function<void(int)>& pre_layer = {});

  /// `post_layer(l)` runs after layer l's gradients are computed — the
  /// BackPipe hook. dy is the loss gradient w.r.t. the network output.
  void Backward(std::span<const float> dy, int batch,
                const std::function<void(int)>& post_layer = {});

  void ZeroGrad();

  /// Mean-squared-error loss and its gradient; target is batch x out.
  static float MseLoss(std::span<const float> pred,
                       std::span<const float> target,
                       std::vector<float>* grad_out);

  /// Softmax cross-entropy over `classes` logits per sample; labels holds
  /// one class index per sample. Returns mean loss; grad_out (optional)
  /// gets dLoss/dLogits, already averaged over the batch.
  static float SoftmaxCrossEntropy(std::span<const float> logits,
                                   std::span<const int> labels, int classes,
                                   std::vector<float>* grad_out);

  /// Fraction of samples whose argmax logit equals the label.
  static float Accuracy(std::span<const float> logits,
                        std::span<const int> labels, int classes);

  /// Scheduling metadata for this network: layer l owns tensors [W_l, b_l].
  /// Compute times are nominal (they matter for the simulator, not for the
  /// real runtime).
  [[nodiscard]] model::ModelSpec Spec() const;

  /// Tensor bindings index-aligned with Spec().tensors().
  [[nodiscard]] std::vector<ParamBinding> Bindings();

  [[nodiscard]] std::vector<DenseLayer>& layers() noexcept { return layers_; }

 private:
  std::vector<DenseLayer> layers_;
  int last_batch_{0};
};

}  // namespace dear::train
