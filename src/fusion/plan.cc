#include "fusion/plan.h"

#include <algorithm>
#include <functional>

#include "common/logging.h"
#include "common/math_util.h"
#include "common/sim_time.h"

namespace dear::fusion {

FusionPlan::FusionPlan(const model::ModelSpec& model,
                       const std::vector<int>& cuts) {
  const int num_tensors = model.num_tensors();
  DEAR_CHECK_MSG(!cuts.empty() && cuts.front() == 0 &&
                     cuts.back() == num_tensors,
                 "fusion plan must cover every tensor");
  DEAR_CHECK_MSG(std::ranges::adjacent_find(cuts, std::greater_equal<>{}) ==
                     cuts.end(),
                 "empty fusion group: cuts must rise");

  const auto& tensors = model.tensors();
  groups_.reserve(cuts.size() - 1);
  tensor_to_group_.resize(static_cast<std::size_t>(num_tensors));
  for (std::size_t g = 0; g + 1 < cuts.size(); ++g) {
    Group group{.tensors = IndexRange(cuts[g], cuts[g + 1]),
                .first_layer = tensors[static_cast<std::size_t>(cuts[g])].layer,
                .last_layer =
                    tensors[static_cast<std::size_t>(cuts[g + 1] - 1)].layer};
    for (int t : group.tensors) {
      group.bytes += tensors[static_cast<std::size_t>(t)].bytes();
      tensor_to_group_[static_cast<std::size_t>(t)] = static_cast<int>(g);
    }
    groups_.push_back(group);
  }
  layer_to_groups_.reserve(model.layers().size());
  for (const auto& layer : model.layers()) {
    const int last = layer.first_tensor + layer.num_tensors - 1;
    layer_to_groups_.push_back(
        layer.num_tensors == 0
            ? IndexRange()
            : IndexRange(group_of_tensor(layer.first_tensor),
                         group_of_tensor(last) + 1));
  }
}

std::size_t FusionPlan::max_group_bytes() const noexcept {
  std::size_t m = 0;
  for (const auto& g : groups_) m = std::max(m, g.bytes);
  return m;
}

std::string FusionPlan::DebugString() const {
  std::string s = std::to_string(groups_.size()) + " groups:";
  for (const auto& g : groups_) {
    s += " [" + std::to_string(g.tensors.front()) + ".." +
         std::to_string(g.tensors.back()) + ":" + FormatBytes(g.bytes) + "]";
  }
  return s;
}

namespace {

/// A cut list filled in BP arrival order: it starts at the model's end and
/// has room for `max_groups` groups, so it never reallocates.
std::vector<int> BpCuts(const model::ModelSpec& model, int max_groups) {
  std::vector<int> cuts;
  cuts.reserve(static_cast<std::size_t>(max_groups) + 1);
  cuts.push_back(model.num_tensors());
  return cuts;
}

/// Closes the group at tensor 0 and restores FF order.
std::vector<int> FfCuts(std::vector<int> cuts) {
  if (cuts.back() != 0) cuts.push_back(0);
  std::reverse(cuts.begin(), cuts.end());
  return cuts;
}

}  // namespace

FusionPlan PerTensor(const model::ModelSpec& model) {
  std::vector<int> cuts(static_cast<std::size_t>(model.num_tensors()) + 1);
  for (std::size_t t = 0; t < cuts.size(); ++t)
    cuts[t] = static_cast<int>(t);
  return {model, cuts};
}

FusionPlan SingleGroup(const model::ModelSpec& model) {
  return {model, {0, model.num_tensors()}};
}

FusionPlan ByBufferBytes(const model::ModelSpec& model,
                         std::size_t buffer_bytes) {
  DEAR_CHECK(buffer_bytes > 0);
  // The current group is [t + 1, cuts.back()); close it before tensor t
  // when t would overflow it.
  std::vector<int> cuts = BpCuts(model, model.num_tensors());
  std::size_t current_bytes = 0;
  for (int t = model.num_tensors() - 1; t >= 0; --t) {
    const std::size_t b = model.tensor(t).bytes();
    if (cuts.back() > t + 1 && current_bytes + b > buffer_bytes) {
      cuts.push_back(t + 1);
      current_bytes = 0;
    }
    current_bytes += b;
  }
  return {model, FfCuts(std::move(cuts))};
}

FusionPlan ByLayerCount(const model::ModelSpec& model, int layers_per_group) {
  DEAR_CHECK(layers_per_group >= 1);
  // Group boundaries at every `layers_per_group` layers, counted from the
  // output end (BP arrival order), so the first BP group is full-sized.
  std::vector<int> cuts =
      BpCuts(model, model.num_layers() / layers_per_group + 1);
  for (int l = model.num_layers() - layers_per_group; l > 0;
       l -= layers_per_group)
    cuts.push_back(model.layer(l).first_tensor);
  return {model, FfCuts(std::move(cuts))};
}

FusionPlan MergeGradientsWisely(const model::ModelSpec& model,
                                double alpha_s, int world_size) {
  // BP-readiness time of each tensor: the cumulative BP compute from the
  // output end down to (and including) its owning layer.
  const int num_layers = model.num_layers();
  std::vector<SimTime> layer_ready(static_cast<std::size_t>(num_layers), 0);
  SimTime acc = 0;
  for (int l = num_layers - 1; l >= 0; --l) {
    acc += model.layer(l).bp_time;
    layer_ready[static_cast<std::size_t>(l)] = acc;
  }

  const SimTime startup = Seconds(alpha_s * std::max(0, world_size - 1));

  std::vector<int> cuts = BpCuts(model, model.num_tensors());
  SimTime group_start_ready = 0;
  for (int t = model.num_tensors() - 1; t >= 0; --t) {
    const SimTime ready =
        layer_ready[static_cast<std::size_t>(model.tensor(t).layer)];
    if (t == model.num_tensors() - 1) {
      group_start_ready = ready;  // the last tensor opens the first group
    } else if (ready - group_start_ready > startup) {
      // The wait this merge would add exceeds the startup it saves.
      cuts.push_back(t + 1);
      group_start_ready = ready;
    }
  }
  return {model, FfCuts(std::move(cuts))};
}

}  // namespace dear::fusion
