#include "sched/schedule.h"

#include <algorithm>

#include "common/math_util.h"

namespace dear::sched {

std::string PolicyName(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kSequential: return "sequential";
    case PolicyKind::kWFBP: return "wfbp";
    case PolicyKind::kDDP: return "pytorch-ddp";
    case PolicyKind::kHorovod: return "horovod";
    case PolicyKind::kMGWFBP: return "mg-wfbp";
    case PolicyKind::kByteScheduler: return "bytescheduler";
    case PolicyKind::kDeAR: return "dear";
    case PolicyKind::kZeRO: return "zero";
    case PolicyKind::kZeRO1: return "zero1";
  }
  return "?";
}

void ScheduleTable::Add(const ScheduleRow& row) {
  gates_ += static_cast<std::size_t>(
      std::max(0, row.gate_last - row.gate_first + 1));
  rows_.push_back(row);
}

void ScheduleTable::Build(PolicyKind kind, const model::ModelSpec& model,
                          const fusion::FusionPlan& plan, bool op1_barrier,
                          std::size_t partition_bytes) {
  rows_.clear();
  gates_ = 0;
  const auto& groups = plan.groups();
  const int num_groups = plan.num_groups();
  if (kind == PolicyKind::kByteScheduler) {
    // Per tensor, in credit-sized chunks, each gating its own layer's FF.
    rows_.reserve(static_cast<std::size_t>(model.num_tensors()));
    for (int t = 0; t < model.num_tensors(); ++t) {
      const std::size_t bytes = model.tensor(t).bytes();
      const int layer = model.tensor(t).layer;
      const std::size_t chunks =
          partition_bytes == 0
              ? 1
              : std::max<std::size_t>(1, CeilDiv(bytes, partition_bytes));
      for (std::size_t c = 0; c < chunks; ++c)
        Add({.op = RowOp::kAllReduce,
             .chunk = static_cast<int>(c),
             .bytes = ChunkRange(bytes, chunks, c).size(),
             .after_layer = layer,
             .gate_first = layer,
             .gate_last = layer});
    }
    return;
  }
  const bool decoupled = kind == PolicyKind::kDeAR ||
                         kind == PolicyKind::kZeRO1 ||
                         kind == PolicyKind::kZeRO;
  const bool zero3 = kind == PolicyKind::kZeRO;
  rows_.reserve(groups.size() * (zero3 ? 3 : 2) + 1);
  // One all-reduce (or reduce-scatter, row g) per group, launched as BP
  // finishes the group (kSequential: all of BP); every all-reduce gates
  // the next FF_0.
  for (int g = 0; g < num_groups; ++g) {
    const auto& group = groups[static_cast<std::size_t>(g)];
    Add({.op = decoupled ? RowOp::kReduceScatter : RowOp::kAllReduce,
         .group = g,
         .bytes = group.bytes,
         .after_layer =
             kind == PolicyKind::kSequential ? 0 : group.first_layer,
         .gate_last = decoupled ? -1 : 0});
  }
  if (!decoupled) return;
  const bool sync = op1_barrier || zero3;
  const int sync_row = num_groups;
  if (sync) Add({.op = RowOp::kOp1Sync});
  // All-gathers in FF order, each gating the next FF of its group's
  // layers; ZeRO-3 then re-gathers for the next BP, the last group first.
  for (int k = 0; k < (zero3 ? 2 : 1) * num_groups; ++k) {
    const bool regather = k >= num_groups;
    const int g = regather ? 2 * num_groups - 1 - k : k;
    const auto& group = groups[static_cast<std::size_t>(g)];
    Add({.op = kind == PolicyKind::kDeAR ? RowOp::kAllGather
                                         : RowOp::kParamAllGather,
         .group = g,
         .bytes = group.bytes,
         .after_row = sync ? sync_row : g,
         .gate_first = group.first_layer,
         .gate_last = group.last_layer,
         .gate_backward = regather});
  }
}

}  // namespace dear::sched
