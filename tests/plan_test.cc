// Fusion plans: partition validity (property checked over every generator
// and model), bucketing semantics, the MG-WFBP merge rule, and equality
// with the nested-vector builders the cut-point builders replaced.
#include "fusion/plan.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/math_util.h"
#include "common/sim_time.h"
#include "model/zoo.h"

namespace dear::fusion {
namespace {

// The nested-vector FusionPlan and its builders, kept verbatim as the
// reference the cut-point plans must equal group for group.
namespace ref {

struct Group {
  std::vector<int> tensors;
  std::size_t bytes{0};
  int first_layer{0};
  int last_layer{0};
};

class FusionPlan {
 public:
  FusionPlan(const model::ModelSpec& model,
             std::vector<std::vector<int>> groups);

  [[nodiscard]] int num_groups() const noexcept {
    return static_cast<int>(groups_.size());
  }
  [[nodiscard]] const Group& group(int g) const {
    return groups_.at(static_cast<std::size_t>(g));
  }
  [[nodiscard]] int group_of_tensor(int t) const {
    return tensor_to_group_.at(static_cast<std::size_t>(t));
  }
  [[nodiscard]] const std::vector<int>& groups_of_layer(int l) const {
    return layer_to_groups_.at(static_cast<std::size_t>(l));
  }

 private:
  std::vector<Group> groups_;
  std::vector<int> tensor_to_group_;
  std::vector<std::vector<int>> layer_to_groups_;
};

FusionPlan::FusionPlan(const model::ModelSpec& model,
                       std::vector<std::vector<int>> groups) {
  const int num_tensors = model.num_tensors();
  tensor_to_group_.assign(static_cast<std::size_t>(num_tensors), -1);
  layer_to_groups_.assign(static_cast<std::size_t>(model.num_layers()), {});

  int expected_next = 0;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    DEAR_CHECK_MSG(!groups[g].empty(), "empty fusion group");
    Group group;
    group.tensors = std::move(groups[g]);
    group.first_layer = model.tensor(group.tensors.front()).layer;
    group.last_layer = group.first_layer;
    for (int t : group.tensors) {
      DEAR_CHECK_MSG(t == expected_next,
                     "fusion groups must cover tensors contiguously");
      ++expected_next;
      const auto& spec = model.tensor(t);
      group.bytes += spec.bytes();
      group.first_layer = std::min(group.first_layer, spec.layer);
      group.last_layer = std::max(group.last_layer, spec.layer);
      tensor_to_group_[static_cast<std::size_t>(t)] = static_cast<int>(g);
      auto& lg = layer_to_groups_[static_cast<std::size_t>(spec.layer)];
      if (lg.empty() || lg.back() != static_cast<int>(g))
        lg.push_back(static_cast<int>(g));
    }
    groups_.push_back(std::move(group));
  }
  DEAR_CHECK_MSG(expected_next == num_tensors,
                 "fusion plan must cover every tensor");
}

FusionPlan PerTensor(const model::ModelSpec& model) {
  std::vector<std::vector<int>> groups;
  groups.reserve(static_cast<std::size_t>(model.num_tensors()));
  for (int t = 0; t < model.num_tensors(); ++t) groups.push_back({t});
  return {model, std::move(groups)};
}

FusionPlan SingleGroup(const model::ModelSpec& model) {
  std::vector<int> all(static_cast<std::size_t>(model.num_tensors()));
  for (int t = 0; t < model.num_tensors(); ++t)
    all[static_cast<std::size_t>(t)] = t;
  return {model, {std::move(all)}};
}

FusionPlan ByBufferBytes(const model::ModelSpec& model,
                         std::size_t buffer_bytes) {
  DEAR_CHECK(buffer_bytes > 0);
  // Fill in BP arrival order (descending tensor index), then reverse both
  // the group list and each group's members to restore FF order.
  std::vector<std::vector<int>> groups;
  std::vector<int> current;
  std::size_t current_bytes = 0;
  for (int t = model.num_tensors() - 1; t >= 0; --t) {
    const std::size_t b = model.tensor(t).bytes();
    if (!current.empty() && current_bytes + b > buffer_bytes) {
      std::reverse(current.begin(), current.end());
      groups.push_back(std::move(current));
      current.clear();
      current_bytes = 0;
    }
    current.push_back(t);
    current_bytes += b;
  }
  if (!current.empty()) {
    std::reverse(current.begin(), current.end());
    groups.push_back(std::move(current));
  }
  std::reverse(groups.begin(), groups.end());
  return {model, std::move(groups)};
}

FusionPlan ByLayerCount(const model::ModelSpec& model, int layers_per_group) {
  DEAR_CHECK(layers_per_group >= 1);
  // Group boundaries at every `layers_per_group` layers, counted from the
  // output end (BP arrival order), so the first BP group is full-sized.
  std::vector<std::vector<int>> groups;
  std::vector<int> current;
  int layers_in_current = 0;
  int last_layer = -1;
  for (int t = model.num_tensors() - 1; t >= 0; --t) {
    const int layer = model.tensor(t).layer;
    if (layer != last_layer) {
      if (layers_in_current == layers_per_group) {
        std::reverse(current.begin(), current.end());
        groups.push_back(std::move(current));
        current.clear();
        layers_in_current = 0;
      }
      ++layers_in_current;
      last_layer = layer;
    }
    current.push_back(t);
  }
  if (!current.empty()) {
    std::reverse(current.begin(), current.end());
    groups.push_back(std::move(current));
  }
  std::reverse(groups.begin(), groups.end());
  return {model, std::move(groups)};
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

  std::vector<std::vector<int>> groups;
  std::vector<int> current;
  SimTime group_start_ready = 0;
  for (int t = model.num_tensors() - 1; t >= 0; --t) {
    const SimTime ready =
        layer_ready[static_cast<std::size_t>(model.tensor(t).layer)];
    if (current.empty()) {
      group_start_ready = ready;
    } else if (ready - group_start_ready > startup) {
      // The wait this merge would add exceeds the startup it saves.
      std::reverse(current.begin(), current.end());
      groups.push_back(std::move(current));
      current.clear();
      group_start_ready = ready;
    }
    current.push_back(t);
  }
  if (!current.empty()) {
    std::reverse(current.begin(), current.end());
    groups.push_back(std::move(current));
  }
  std::reverse(groups.begin(), groups.end());
  return {model, std::move(groups)};
}

}  // namespace ref

/// Group-for-group equality with the reference plan: tensor ranges, bytes,
/// layer span, tensor -> group and layer -> groups.
void ExpectSamePlan(const model::ModelSpec& m, const FusionPlan& plan,
                    const ref::FusionPlan& want) {
  ASSERT_EQ(plan.num_groups(), want.num_groups());
  for (int g = 0; g < want.num_groups(); ++g) {
    const Group& got = plan.group(g);
    const ref::Group& exp = want.group(g);
    ASSERT_EQ(got.tensors.size(), exp.tensors.size()) << "group " << g;
    EXPECT_EQ(got.tensors.front(), exp.tensors.front()) << "group " << g;
    EXPECT_EQ(got.tensors.back(), exp.tensors.back()) << "group " << g;
    EXPECT_EQ(got.bytes, exp.bytes) << "group " << g;
    EXPECT_EQ(got.first_layer, exp.first_layer) << "group " << g;
    EXPECT_EQ(got.last_layer, exp.last_layer) << "group " << g;
  }
  for (int t = 0; t < m.num_tensors(); ++t) {
    ASSERT_EQ(plan.group_of_tensor(t), want.group_of_tensor(t))
        << "tensor " << t;
  }
  for (int l = 0; l < m.num_layers(); ++l) {
    const auto got = plan.groups_of_layer(l);
    ASSERT_EQ(std::vector<int>(got.begin(), got.end()),
              want.groups_of_layer(l))
        << "layer " << l;
  }
}

/// Every builder over the reference grid on one model.
void ExpectSameAsReference(const model::ModelSpec& m) {
  SCOPED_TRACE(m.name() + " (" + std::to_string(m.num_tensors()) +
               " tensors)");
  {
    SCOPED_TRACE("PerTensor");
    ExpectSamePlan(m, PerTensor(m), ref::PerTensor(m));
  }
  {
    SCOPED_TRACE("SingleGroup");
    ExpectSamePlan(m, SingleGroup(m), ref::SingleGroup(m));
  }
  std::set<std::size_t> buffers = {1, m.total_bytes(), m.total_bytes() + 1,
                                   2 * m.total_bytes()};
  for (const auto& t : m.tensors()) buffers.insert(t.bytes());
  for (std::size_t buf : buffers) {
    SCOPED_TRACE("ByBufferBytes " + std::to_string(buf));
    ExpectSamePlan(m, ByBufferBytes(m, buf), ref::ByBufferBytes(m, buf));
  }
  for (double alpha : {0.0, 1e-6, 26e-6, 1.0}) {
    for (int world : {1, 2, 16, 64}) {
      SCOPED_TRACE("MergeGradientsWisely alpha " + std::to_string(alpha) +
                   " world " + std::to_string(world));
      ExpectSamePlan(m, MergeGradientsWisely(m, alpha, world),
                     ref::MergeGradientsWisely(m, alpha, world));
    }
  }
  for (int n = 1; n <= m.num_layers() + 1; ++n) {
    SCOPED_TRACE("ByLayerCount " + std::to_string(n));
    ExpectSamePlan(m, ByLayerCount(m, n), ref::ByLayerCount(m, n));
  }
}

TEST(PlanReferenceTest, ZooModelsEqualTheNestedVectorBuilders) {
  for (const auto& m : model::PaperModels()) ExpectSameAsReference(m);
  for (const auto& m : model::ExtensionModels()) ExpectSameAsReference(m);
}

TEST(PlanReferenceTest, EdgeSizesEqualTheNestedVectorBuilders) {
  for (int layers : {1, 2, 3, 1000})
    for (std::size_t elems : {1u, 100u})
      ExpectSameAsReference(model::UniformTestModel(layers, elems));
}

TEST(PlanReferenceTest, ModelWithoutTensorsHasNoGroups) {
  const model::ModelSpec m("empty", 1);
  ExpectSamePlan(m, PerTensor(m), ref::PerTensor(m));
  ExpectSamePlan(m, ByBufferBytes(m, 1), ref::ByBufferBytes(m, 1));
  ExpectSamePlan(m, ByLayerCount(m, 1), ref::ByLayerCount(m, 1));
  ExpectSamePlan(m, MergeGradientsWisely(m, 1e-6, 16),
                 ref::MergeGradientsWisely(m, 1e-6, 16));
  EXPECT_EQ(PerTensor(m).num_groups(), 0);
}

// Partition property: groups cover all tensors exactly once, contiguously
// and in ascending order, with correct byte/layer metadata.
void ExpectValidPartition(const model::ModelSpec& m, const FusionPlan& plan) {
  int next = 0;
  for (int g = 0; g < plan.num_groups(); ++g) {
    const Group& group = plan.group(g);
    ASSERT_FALSE(group.tensors.empty());
    std::size_t bytes = 0;
    int lo = m.num_layers(), hi = -1;
    for (int t : group.tensors) {
      ASSERT_EQ(t, next) << "group " << g;
      ++next;
      bytes += m.tensor(t).bytes();
      lo = std::min(lo, m.tensor(t).layer);
      hi = std::max(hi, m.tensor(t).layer);
      EXPECT_EQ(plan.group_of_tensor(t), g);
    }
    EXPECT_EQ(group.bytes, bytes);
    EXPECT_EQ(group.first_layer, lo);
    EXPECT_EQ(group.last_layer, hi);
  }
  EXPECT_EQ(next, m.num_tensors());
  // layer -> groups mapping is consistent.
  for (int l = 0; l < m.num_layers(); ++l) {
    for (int g : plan.groups_of_layer(l)) {
      EXPECT_GE(plan.group(g).first_layer, 0);
      EXPECT_LE(plan.group(g).first_layer, l);
      EXPECT_GE(plan.group(g).last_layer, l);
    }
  }
}

TEST(PlanTest, PerTensorIsOneGroupEach) {
  const auto m = model::UniformTestModel(4, 100);
  const FusionPlan plan = PerTensor(m);
  EXPECT_EQ(plan.num_groups(), 4);
  ExpectValidPartition(m, plan);
}

TEST(PlanTest, SingleGroupHoldsEverything) {
  const auto m = model::UniformTestModel(4, 100);
  const FusionPlan plan = SingleGroup(m);
  EXPECT_EQ(plan.num_groups(), 1);
  EXPECT_EQ(plan.group(0).bytes, m.total_bytes());
  ExpectValidPartition(m, plan);
}

TEST(PlanTest, ByBufferBytesRespectsLimit) {
  const auto m = model::UniformTestModel(10, 100);  // 400 B per tensor
  const FusionPlan plan = ByBufferBytes(m, 1000);   // fits 2 tensors
  ExpectValidPartition(m, plan);
  for (const auto& g : plan.groups()) EXPECT_LE(g.bytes, 1000u);
  EXPECT_EQ(plan.num_groups(), 5);
}

TEST(PlanTest, ByBufferBytesOversizedTensorGetsOwnGroup) {
  model::ModelSpec m("test", 1);
  m.AddLayer("small", {10});
  m.AddLayer("huge", {100000});
  m.AddLayer("small2", {10});
  m.AssignComputeTimes(Milliseconds(1.0));
  const FusionPlan plan = ByBufferBytes(m, 1024);
  ExpectValidPartition(m, plan);
  // The huge tensor cannot share a group.
  const int huge_group = plan.group_of_tensor(1);
  EXPECT_EQ(plan.group(huge_group).tensors.size(), 1u);
}

TEST(PlanTest, ByBufferBytesFillsInBpOrder) {
  // 5 tensors of 400 B, buffer 800 B: filling from the last tensor gives
  // groups {0}, {1,2}, {3,4} — the leftover lands at the front (layer 0),
  // as in DDP bucketing.
  const auto m = model::UniformTestModel(5, 100);
  const FusionPlan plan = ByBufferBytes(m, 800);
  ASSERT_EQ(plan.num_groups(), 3);
  const std::pair<int, int> want[] = {{0, 0}, {1, 2}, {3, 4}};
  for (int g = 0; g < 3; ++g) {
    EXPECT_EQ(plan.group(g).tensors.front(), want[g].first) << "group " << g;
    EXPECT_EQ(plan.group(g).tensors.back(), want[g].second) << "group " << g;
  }
}

TEST(PlanTest, HugeBufferCollapsesToSingleGroup) {
  const auto m = model::UniformTestModel(7, 50);
  const FusionPlan plan = ByBufferBytes(m, MiB(100));
  EXPECT_EQ(plan.num_groups(), 1);
}

TEST(PlanTest, ByLayerCountGroupsLayers) {
  const auto m = model::UniformTestModel(8, 100);
  const FusionPlan plan = ByLayerCount(m, 4);  // DeAR-NL
  ExpectValidPartition(m, plan);
  EXPECT_EQ(plan.num_groups(), 2);
  EXPECT_EQ(plan.group(0).tensors.size(), 4u);
}

TEST(PlanTest, ByLayerCountRemainderAtFront) {
  // 10 layers in groups of 4, counted from the output end: 2 + 4 + 4.
  const auto m = model::UniformTestModel(10, 100);
  const FusionPlan plan = ByLayerCount(m, 4);
  ExpectValidPartition(m, plan);
  ASSERT_EQ(plan.num_groups(), 3);
  EXPECT_EQ(plan.group(0).tensors.size(), 2u);
  EXPECT_EQ(plan.group(1).tensors.size(), 4u);
  EXPECT_EQ(plan.group(2).tensors.size(), 4u);
}

TEST(PlanTest, ByLayerCountHandlesMultiTensorLayers) {
  model::ModelSpec m("test", 1);
  for (int i = 0; i < 4; ++i)
    m.AddLayer("l" + std::to_string(i), {10, 2});  // weight + bias
  m.AssignComputeTimes(Milliseconds(1.0));
  const FusionPlan plan = ByLayerCount(m, 2);
  ExpectValidPartition(m, plan);
  EXPECT_EQ(plan.num_groups(), 2);
  EXPECT_EQ(plan.group(0).tensors.size(), 4u);  // 2 layers x 2 tensors
}

TEST(PlanTest, MergeGradientsWiselyZeroLatencyMeansNoFusion) {
  // With alpha = 0 there is no startup to save, so nothing merges (beyond
  // tensors that become ready simultaneously, i.e. same-layer tensors).
  const auto m = model::UniformTestModel(6, 1000);
  const FusionPlan plan = MergeGradientsWisely(m, 0.0, 64);
  ExpectValidPartition(m, plan);
  EXPECT_EQ(plan.num_groups(), 6);
}

TEST(PlanTest, MergeGradientsWiselyHugeLatencyMergesEverything) {
  const auto m = model::UniformTestModel(6, 1000);
  const FusionPlan plan = MergeGradientsWisely(m, 10.0, 64);  // 10 s startup
  ExpectValidPartition(m, plan);
  EXPECT_EQ(plan.num_groups(), 1);
}

TEST(PlanTest, MergeGradientsWiselyIntermediateLatency) {
  // Each layer's BP takes 200us (uniform model, bp = 2 x 100us ff).
  // Startup (P-1) * alpha = 63 * 8us ~= 504us: merges spans of ~3 layers.
  const auto m = model::UniformTestModel(12, 1000);
  const FusionPlan plan = MergeGradientsWisely(m, 8e-6, 64);
  ExpectValidPartition(m, plan);
  EXPECT_GT(plan.num_groups(), 1);
  EXPECT_LT(plan.num_groups(), 12);
}

TEST(PlanTest, AllGeneratorsValidOnPaperModels) {
  for (const auto& m : model::PaperModels()) {
    ExpectValidPartition(m, PerTensor(m));
    ExpectValidPartition(m, SingleGroup(m));
    ExpectValidPartition(m, ByBufferBytes(m, MiB(25)));
    ExpectValidPartition(m, ByBufferBytes(m, MiB(1)));
    ExpectValidPartition(m, ByLayerCount(m, 4));
    ExpectValidPartition(m, MergeGradientsWisely(m, 23.5e-6, 64));
  }
}

TEST(PlanTest, BufferSizeMonotonicallyCoarsens) {
  const auto m = model::BertBase();
  int prev = m.num_tensors() + 1;
  for (std::size_t mb : {1u, 5u, 25u, 100u, 400u}) {
    const int n = ByBufferBytes(m, MiB(mb)).num_groups();
    EXPECT_LE(n, prev) << mb << " MiB";
    prev = n;
  }
  EXPECT_EQ(ByBufferBytes(m, MiB(500)).num_groups(), 1);
}

TEST(PlanTest, MaxGroupBytes) {
  const auto m = model::UniformTestModel(5, 100);
  EXPECT_EQ(ByBufferBytes(m, 800).max_group_bytes(), 800u);
  EXPECT_EQ(SingleGroup(m).max_group_bytes(), m.total_bytes());
}

TEST(PlanTest, DebugStringMentionsGroups) {
  const auto m = model::UniformTestModel(4, 100);
  const std::string s = ByBufferBytes(m, 800).DebugString();
  EXPECT_NE(s.find("groups:"), std::string::npos);
}

// Property fuzz: every generator must produce a valid partition on
// randomized model shapes (random layer counts, tensors per layer, and
// heavily skewed tensor sizes).
class RandomModelFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomModelFuzz, AllGeneratorsValid) {
  std::uint64_t state = GetParam() * 0x9e3779b97f4a7c15ULL + 1;
  auto next = [&]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  model::ModelSpec m("fuzz", 1);
  const int layers = 1 + static_cast<int>(next() % 40);
  for (int l = 0; l < layers; ++l) {
    std::vector<std::size_t> tensors;
    const int nt = 1 + static_cast<int>(next() % 3);
    for (int t = 0; t < nt; ++t) {
      // Log-uniform-ish sizes from 1 element to ~4M elements.
      const std::size_t magnitude = next() % 23;
      tensors.push_back((static_cast<std::size_t>(1) << magnitude) +
                        next() % 7);
    }
    m.AddLayer("l" + std::to_string(l), tensors);
  }
  m.AssignComputeTimes(Milliseconds(5.0));

  auto check = [&](const FusionPlan& plan) { ExpectValidPartition(m, plan); };
  check(PerTensor(m));
  check(SingleGroup(m));
  for (std::size_t buf : {1u, 4097u, 1u << 20, 64u << 20})
    check(ByBufferBytes(m, buf));
  for (int n : {1, 3, 7}) check(ByLayerCount(m, n));
  for (double alpha : {0.0, 1e-5, 1e-3})
    check(MergeGradientsWisely(m, alpha, 64));
  ExpectSameAsReference(m);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomModelFuzz,
                         ::testing::Range<std::uint64_t>(1, 16));

TEST(PlanDeathTest, CutsThatDoNotRiseRejected) {
  const auto m = model::UniformTestModel(3, 100);
  EXPECT_DEATH(FusionPlan(m, {0, 2, 1, 3}), "cuts must rise");
  EXPECT_DEATH(FusionPlan(m, {0, 1, 1, 3}), "cuts must rise");
}

TEST(PlanDeathTest, IncompleteCoverRejected) {
  const auto m = model::UniformTestModel(3, 100);
  EXPECT_DEATH(FusionPlan(m, {0, 1, 2}), "every tensor");
  EXPECT_DEATH(FusionPlan(m, {1, 2, 3}), "every tensor");
  EXPECT_DEATH(FusionPlan(m, {}), "every tensor");
}

}  // namespace
}  // namespace dear::fusion
