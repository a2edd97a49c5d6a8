// Tensor fusion plans: which gradient tensors are merged into one
// communication buffer.
//
// A plan partitions the model's tensors into contiguous groups (contiguity
// is in feed-forward tensor order), so a group is a range of tensor ids
// and a plan is its list of cut points. Groups fill up in
// *backpropagation* arrival order — from the last tensor toward the
// first — matching how PyTorch-DDP/Horovod buckets and the paper's §IV-B
// fill their buffers as hooks fire. In DeAR a group is the unit of both
// the reduce-scatter (BackPipe) and the all-gather (FeedPipe), so group
// boundaries trade startup savings against feed-forward pipelining
// granularity — the exact tension the BO tuner resolves.
#pragma once

#include <cstddef>
#include <ranges>
#include <string>
#include <vector>

#include "model/model_spec.h"

namespace dear::fusion {

/// A half-open, ascending run of tensor or group indices.
using IndexRange = std::ranges::iota_view<int, int>;

/// One fused communication buffer: a range of tensors in FF order.
struct Group {
  IndexRange tensors;
  std::size_t bytes{0};
  int first_layer{0};  // lowest owning layer — gates the next FF
  int last_layer{0};   // highest owning layer — last BP contribution
};

class FusionPlan {
 public:
  FusionPlan() = default;
  /// Group g holds tensors [cuts[g], cuts[g + 1]). The cuts must rise
  /// strictly from 0 to model.num_tensors(); violations CHECK-fail (plans
  /// are produced by code, not user input).
  FusionPlan(const model::ModelSpec& model, const std::vector<int>& cuts);

  [[nodiscard]] int num_groups() const noexcept {
    return static_cast<int>(groups_.size());
  }
  [[nodiscard]] const std::vector<Group>& groups() const noexcept {
    return groups_;
  }
  [[nodiscard]] const Group& group(int g) const {
    return groups_.at(static_cast<std::size_t>(g));
  }
  /// Group index owning tensor t.
  [[nodiscard]] int group_of_tensor(int t) const {
    return tensor_to_group_.at(static_cast<std::size_t>(t));
  }
  /// Groups owning any tensor of layer l: a layer's tensors are
  /// contiguous, so its groups are too.
  [[nodiscard]] IndexRange groups_of_layer(int l) const {
    return layer_to_groups_.at(static_cast<std::size_t>(l));
  }
  [[nodiscard]] std::size_t max_group_bytes() const noexcept;

  [[nodiscard]] std::string DebugString() const;

 private:
  std::vector<Group> groups_;
  std::vector<int> tensor_to_group_;
  std::vector<IndexRange> layer_to_groups_;
};

/// No fusion: one group per tensor (WFBP / "DeAR w/o TF").
FusionPlan PerTensor(const model::ModelSpec& model);

/// Whole model in a single group (fully synchronous gradient aggregation).
FusionPlan SingleGroup(const model::ModelSpec& model);

/// Greedy bucketing by buffer size: walk tensors in BP order (last to
/// first), close the current group before it would exceed `buffer_bytes`.
/// A single tensor larger than the buffer gets its own group. This is the
/// paper's buffer-size knob x (§IV-B) and the PyTorch-DDP/Horovod scheme.
FusionPlan ByBufferBytes(const model::ModelSpec& model,
                         std::size_t buffer_bytes);

/// Fixed number of consecutive *layers* per group (DeAR-NL, §VI-G).
FusionPlan ByLayerCount(const model::ModelSpec& model, int layers_per_group);

/// MG-WFBP-style merge [Shi et al., INFOCOM'19]: walking in BP order, a
/// tensor is merged into the current group when the extra wait for its
/// gradient (the gap between the two tensors' BP-readiness times) is
/// smaller than the per-message startup cost the merge saves
/// ((P-1) * alpha for the ring). Needs the cluster's latency and the
/// model's per-layer BP times.
FusionPlan MergeGradientsWisely(const model::ModelSpec& model,
                                double alpha_s, int world_size);

}  // namespace dear::fusion
