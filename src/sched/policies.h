// Scheduling policies: each prices the rows of its schedule table
// (sched/schedule.h) as the per-iteration task DAG the discrete-event
// engine runs.
//
// Because data-parallel S-SGD with collective communication is bulk-
// synchronous with symmetric workers (identical replicas, identical compute
// times, collectives that synchronize everyone), the timeline of one worker
// is the timeline of the job; the simulator therefore models a single
// worker's two streams — compute and communication — with collective
// durations supplied by the alpha-beta cost model. This is the standard
// reduction used by the paper's own analysis (Eq. 6-9).
#pragma once

#include <cstddef>
#include <string>

#include "comm/cost_model.h"
#include "fusion/plan.h"
#include "model/model_spec.h"
#include "sched/schedule.h"
#include "sim/task_graph.h"

namespace dear::sched {

struct ClusterSpec {
  int world_size{1};
  comm::NetworkModel network{comm::NetworkModel::TenGbE()};
  int ranks_per_node{4};  // the paper's testbed: 4 GPUs per node

  [[nodiscard]] comm::CostModel cost_model() const {
    return {network, world_size};
  }
};

struct PolicyConfig {
  PolicyKind kind{PolicyKind::kWFBP};
  /// Fusion plan: one communication op (or decoupled pair) per group.
  /// Every kind but kByteScheduler reads it and CHECKs that it is non-empty;
  /// DefaultConfig gives kWFBP and kSequential the per-tensor plan.
  fusion::FusionPlan plan;
  /// ByteScheduler: tensors larger than this are split into this-sized
  /// chunks (its "credit"); 0 disables partitioning.
  std::size_t partition_bytes{4u << 20};
  /// ByteScheduler/Horovod: charge the readiness-consensus latency.
  /// Disabling it is the ablation knob for bench/ablation_negotiation.
  bool charge_negotiation{true};
  /// ByteScheduler only: fixed per-operation scheduling cost of its
  /// Python-layer coordinator (credit accounting, priority queue, RPC to
  /// the core), paid on the communication stream in addition to the
  /// negotiation round. 500 us reproduces Fig. 6's "< 0.9x on CNNs over
  /// 10GbE" behaviour; set 0 to ablate.
  double coordinator_overhead_s{500e-6};
  /// DeAR time-breakdown variants (Fig. 8): drop one of the two phases.
  bool include_reduce_scatter{true};
  bool include_all_gather{true};
  /// Ablation: drop the global OP1 synchronization (paper §III-B inserts
  /// it to keep OP1/OP2 dependencies simple); each all-gather then depends
  /// only on its own group's reduce-scatter. Quantifies what the barrier
  /// costs — in a real system skipping it would require per-group
  /// bookkeeping, not extra communication.
  bool dear_op1_barrier{true};
  /// Which all-reduce algorithm DeAR decouples (paper §VII-A future work):
  /// kRing -> RS + AG; kDoubleBinaryTree -> tree reduce + tree broadcast;
  /// kHierarchical -> intra/inter RS + AG (uses cluster.ranks_per_node).
  comm::Algorithm dear_algorithm{comm::Algorithm::kRing};
  /// Gradient compression (paper future work, §VI-D): communicated bytes
  /// are multiplied by this ratio (1.0 = off, 0.5 = fp16, ~0.01 = top-k),
  /// and each collective pays `compression_overhead_s` of encode/decode
  /// compute on the communication stream.
  double compression_ratio{1.0};
  double compression_overhead_s{0.0};
  /// Host copy bandwidth for fusion-buffer packing (GB/s); every fused
  /// collective pays bytes/bw on each side (copy-in before OP1, copy-out
  /// after the last OP). 0 disables the cost (the paper's evaluation
  /// ignores it; MG-WFBP's journal version models it). Charged on the
  /// communication stream.
  double host_copy_gbps{0.0};
};

/// Stream ids used by every policy.
constexpr std::int16_t kComputeStream = 0;
constexpr std::int16_t kCommStream = 1;

struct BuiltGraph {
  /// One iteration, repeated `iterations` times.
  sim::TaskGraph graph;
  std::vector<sim::StreamPolicy> stream_policies;
  int iterations{0};
};

/// Builds `iterations` training iterations under the given policy. Every
/// iteration is the same DAG, so the graph holds one period and repeats it;
/// the unrolled task id / period() is the iteration, which task(id) also
/// reports for attribution.
BuiltGraph BuildTaskGraph(const model::ModelSpec& model,
                          const ClusterSpec& cluster,
                          const PolicyConfig& config, int iterations);

/// `kind` with its plan recipe (per-tensor for kWFBP, kByteScheduler and
/// kSequential; MG-WFBP's merge; else buffer fusion at `buffer_bytes`).
PolicyConfig DefaultConfig(PolicyKind kind, const model::ModelSpec& model,
                           const ClusterSpec& cluster,
                           std::size_t buffer_bytes);

}  // namespace dear::sched
