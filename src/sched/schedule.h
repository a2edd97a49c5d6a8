// The schedule table: one period's communication ops, the static
// BackPipe/FeedPipe order (paper §III-B) that lets every rank run without
// negotiation. sched::BuildTaskGraph prices each row as a comm task (its
// trigger the in-period dependency, its gates carried ones); core::DistOptim
// launches each row at its trigger hook and waits for it at its gate hook.
//
// Rows are in insertion order. The comm stream runs them as their triggers
// fire (BP of the last layer first, the OP1 sync last), rows sharing a
// trigger in row order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "fusion/plan.h"
#include "model/model_spec.h"

namespace dear::sched {

// Policies (paper baselines in §VI-A plus DeAR variants):
//   kSequential     no overlap: all BP, then all communication, then FF
//   kWFBP / kDDP    per-tensor / buffer-fused all-reduce as gradients
//                   become ready [13-15]; kHorovod adds a negotiation [16]
//   kMGWFBP         WFBP + merged-gradient fusion [23]
//   kByteScheduler  priority + tensor partitioning + negotiation [25]
//   kDeAR           RS pipelined with BP (BackPipe), AG with the next FF
//   kZeRO           ZeRO-3/FSDP (§VII-B): RS, then a parameter AG before
//                   the next FF and another before the next BP (simulated)
//   kZeRO1          ZeRO-1 (§VII-B): DeAR's rows, the AG carrying the
//                   owners' updated fp32 parameters
enum class PolicyKind {
  kSequential,
  kWFBP,
  kDDP,
  kHorovod,
  kMGWFBP,
  kByteScheduler,
  kDeAR,
  kZeRO,
  kZeRO1,
};

std::string PolicyName(PolicyKind kind);

enum class RowOp : std::uint8_t {
  kAllReduce,       // gradient all-reduce of a group (or chunk)
  kReduceScatter,   // OP1
  kAllGather,       // OP2 of the reduced gradients
  kParamAllGather,  // OP2 of updated fp32 parameters (never compressed)
  kOp1Sync,         // zero-cost synchronization of every reduce-scatter
};

[[nodiscard]] constexpr bool IsGather(RowOp op) noexcept {
  return op == RowOp::kAllGather || op == RowOp::kParamAllGather;
}

struct ScheduleRow {
  RowOp op{RowOp::kAllReduce};
  int group{-1};  // fusion group; -1 for the OP1 sync and chunk rows
  int chunk{-1};  // ByteScheduler chunk within its tensor, else -1
  std::size_t bytes{0};  // raw payload, before compression
  /// Trigger: launched once BP of `after_layer` is done; when that is -1,
  /// once row `after_row` is done; when both are -1 (the OP1 sync), once
  /// every row before it (the reduce-scatters) is done.
  int after_layer{-1};
  int after_row{-1};
  /// Gates: the next iteration's FF_l (BP_l when gate_backward) waits on
  /// the row, for l in [gate_first, gate_last] (none when empty).
  int gate_first{0};
  int gate_last{-1};
  bool gate_backward{false};
};

class ScheduleTable {
 public:
  /// Lists one period of `kind` over `plan`; ByteScheduler instead splits
  /// each tensor into `partition_bytes` chunks (0: none). Without
  /// `op1_barrier` each DeAR/ZeRO-1 all-gather follows only its own
  /// reduce-scatter. Rebuilding reuses the storage.
  void Build(PolicyKind kind, const model::ModelSpec& model,
             const fusion::FusionPlan& plan, bool op1_barrier,
             std::size_t partition_bytes);

  [[nodiscard]] const std::vector<ScheduleRow>& rows() const noexcept {
    return rows_;
  }
  [[nodiscard]] std::size_t num_gates() const noexcept { return gates_; }

 private:
  void Add(const ScheduleRow& row);

  std::vector<ScheduleRow> rows_;
  std::size_t gates_{0};  // total over the rows
};

}  // namespace dear::sched
