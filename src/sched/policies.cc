#include "sched/policies.h"

#include <algorithm>

#include "common/logging.h"

namespace dear::sched {

namespace {

using sim::Task;
using sim::TaskGraph;
using sim::TaskId;
using sim::TaskKind;

// A gate: compute task `waiter` of the next iteration waits on
// communication task `on` of this one.
struct Gate {
  TaskId waiter;
  TaskId on;
};

class GraphBuilder {
 public:
  GraphBuilder(const model::ModelSpec& model, const ClusterSpec& cluster,
               const PolicyConfig& config)
      : model_(model),
        cluster_(cluster),
        config_(config),
        cost_(cluster.cost_model()),
        num_layers_(model.num_layers()),
        ff_(static_cast<std::size_t>(num_layers_)),
        bp_(static_cast<std::size_t>(num_layers_)) {}

  // Every iteration is the same DAG, so the graph stores iteration 0 and
  // repeats it: the gates one iteration hands to the next become carried
  // dependencies.
  BuiltGraph Build(int iterations) {
    table_.Build(config_.kind, model_, config_.plan, config_.dear_op1_barrier,
                 config_.partition_bytes);
    // Exact sizes of one period, so the graph is allocated once: the FF and
    // BP chains (2L tasks, L-1 + L deps), then one task per row with one
    // dep, its trigger (the OP1 sync: every row before it).
    const auto& rows = table_.rows();
    const auto layers = static_cast<std::size_t>(num_layers_);
    std::size_t deps = layers > 0 ? 2 * layers - 1 : 0;
    for (std::size_t r = 0; r < rows.size(); ++r)
      deps += rows[r].op == RowOp::kOp1Sync ? r : 1;
    const std::size_t tasks = 2 * layers + rows.size();
    const std::size_t carried = table_.num_gates();
    graph_.Reserve(tasks, deps, carried);
    gates_.reserve(carried);
    BuildIteration();
    CarryGates();
    DEAR_CHECK(graph_.period() == tasks && graph_.num_deps() == deps &&
               graph_.num_carried() == carried);
    graph_.Repeat(iterations);
    BuiltGraph out;
    out.graph = std::move(graph_);
    out.stream_policies = {sim::StreamPolicy::kFifoByReady,
                           config_.kind == PolicyKind::kByteScheduler
                               ? sim::StreamPolicy::kPriority
                               : sim::StreamPolicy::kFifoByReady};
    out.iterations = iterations;
    return out;
  }

 private:
  // Adds `t` with the dependencies collected in deps_, then empties deps_.
  TaskId Add(const Task& t) {
    const TaskId id = graph_.Add(t, deps_);
    deps_.clear();
    return id;
  }

  // Builds iteration 0: FF + BP chains, then one comm task per row,
  // recording in gates_ what the next iteration must wait for.
  void BuildIteration() {
    // Feed-forward chain; the previous iteration's gates are carried.
    for (int l = 0; l < num_layers_; ++l) {
      Task t;
      t.kind = TaskKind::kForward;
      t.stream = kComputeStream;
      t.duration = model_.layer(l).ff_time;
      t.iteration = 0;
      t.layer = l;
      if (l > 0) deps_.push_back(ff_[static_cast<std::size_t>(l - 1)]);
      ff_[static_cast<std::size_t>(l)] = Add(t);
    }

    // Backpropagation chain, last layer first.
    for (int l = num_layers_ - 1; l >= 0; --l) {
      Task t;
      t.kind = TaskKind::kBackward;
      t.stream = kComputeStream;
      t.duration = model_.layer(l).bp_time;
      t.iteration = 0;
      t.layer = l;
      deps_.push_back(l == num_layers_ - 1
                          ? ff_[static_cast<std::size_t>(l)]
                          : bp_[static_cast<std::size_t>(l + 1)]);
      bp_[static_cast<std::size_t>(l)] = Add(t);
    }

    // Row r is task first_row + r.
    const auto& rows = table_.rows();
    const auto first_row = static_cast<TaskId>(2 * num_layers_);
    for (std::size_t r = 0; r < rows.size(); ++r) {
      const ScheduleRow& row = rows[r];
      Task t;
      t.kind = row.op == RowOp::kAllReduce       ? TaskKind::kAllReduce
               : row.op == RowOp::kReduceScatter ? TaskKind::kReduceScatter
               : IsGather(row.op)                ? TaskKind::kAllGather
                                                 : TaskKind::kSync;
      t.stream = kCommStream;
      t.duration = Duration(row);
      t.iteration = 0;
      t.group = row.group;
      if (row.chunk >= 0) {
        // ByteScheduler dispatches chunks by layer priority.
        t.layer = row.after_layer;
        t.priority = static_cast<double>(row.after_layer);
      }
      if (row.after_layer >= 0) {
        deps_.push_back(bp_[static_cast<std::size_t>(row.after_layer)]);
      } else if (row.after_row >= 0) {
        deps_.push_back(first_row + row.after_row);
      } else {
        for (std::size_t k = 0; k < r; ++k)
          deps_.push_back(first_row + static_cast<TaskId>(k));
      }
      const TaskId id = Add(t);
      for (int l = row.gate_first; l <= row.gate_last; ++l) {
        const auto waiter = static_cast<std::size_t>(l);
        gates_.push_back({row.gate_backward ? bp_[waiter] : ff_[waiter], id});
      }
    }
  }

  // Attaches gates_ as carried dependencies: waiters in task order, each
  // waiter's gates in the order they were recorded.
  void CarryGates() {
    std::stable_sort(gates_.begin(), gates_.end(),
                     [](const Gate& a, const Gate& b) {
                       return a.waiter < b.waiter;
                     });
    for (std::size_t k = 0; k < gates_.size();) {
      const TaskId waiter = gates_[k].waiter;
      for (; k < gates_.size() && gates_[k].waiter == waiter; ++k)
        deps_.push_back(gates_[k].on);
      graph_.SetCarried(waiter, deps_);
      deps_.clear();
    }
  }

  // The row's time on the comm stream under the configured cost model,
  // compression and copy costs.
  [[nodiscard]] SimTime Duration(const ScheduleRow& row) const {
    // ZeRO-3 prices its ring halves directly: no copy cost, no ablation
    // switches, and parameter gathers never compressed.
    const bool zero3 = config_.kind == PolicyKind::kZeRO;
    switch (row.op) {
      case RowOp::kAllReduce: {
        SimTime d = cost_.RingAllReduce(CommBytes(row.bytes)) +
                    CompressionOverhead();
        if (row.chunk >= 0) {
          // ByteScheduler's negotiation + coordinator cost, once per tensor
          // (partitioning already pays a ring startup per chunk).
          if (config_.charge_negotiation && row.chunk == 0)
            d += cost_.NegotiationLatency() +
                 Seconds(config_.coordinator_overhead_s);
          return d;
        }
        d += 2 * CopyOverhead(row.group);
        if (config_.kind == PolicyKind::kHorovod && config_.charge_negotiation)
          d += cost_.NegotiationLatency();
        return d;
      }
      case RowOp::kReduceScatter:
        if (zero3)
          return cost_.ReduceScatter(CommBytes(row.bytes)) +
                 CompressionOverhead();
        return config_.include_reduce_scatter
                   ? Op1Duration(CommBytes(row.bytes)) +
                         CompressionOverhead() + CopyOverhead(row.group)
                   : 0;
      case RowOp::kAllGather:
        return config_.include_all_gather
                   ? Op2Duration(CommBytes(row.bytes)) +
                         CompressionOverhead() + CopyOverhead(row.group)
                   : 0;
      case RowOp::kParamAllGather:
        if (zero3) return cost_.AllGather(row.bytes);
        return config_.include_all_gather
                   ? Op2Duration(row.bytes) + CopyOverhead(row.group)
                   : 0;
      case RowOp::kOp1Sync:
        break;
    }
    return 0;
  }

  // Bytes actually communicated for a group, after optional compression.
  [[nodiscard]] std::size_t CommBytes(std::size_t raw) const {
    if (config_.compression_ratio >= 1.0) return raw;
    const auto compressed = static_cast<std::size_t>(
        static_cast<double>(raw) * config_.compression_ratio);
    return compressed > 0 ? compressed : 1;
  }

  [[nodiscard]] SimTime CompressionOverhead() const {
    return Seconds(config_.compression_overhead_s);
  }

  // One-sided pack (or unpack) cost of a fused buffer; groups holding a
  // single tensor communicate in place and pay nothing.
  [[nodiscard]] SimTime CopyOverhead(int g) const {
    const fusion::Group& group = config_.plan.group(g);
    if (config_.host_copy_gbps <= 0.0 || group.tensors.size() <= 1) return 0;
    return Seconds(static_cast<double>(group.bytes) /
                   (config_.host_copy_gbps * 1e9));
  }

  // DeAR's decoupled halves on `bytes` wire bytes, configured algorithm.
  [[nodiscard]] SimTime Op1Duration(std::size_t bytes) const {
    switch (config_.dear_algorithm) {
      case comm::Algorithm::kDoubleBinaryTree:
        return cost_.DoubleBinaryTreeReduce(bytes);
      case comm::Algorithm::kHierarchical:
        return cost_.HierarchicalReduceScatter(bytes,
                                               cluster_.ranks_per_node);
      case comm::Algorithm::kRecursiveHalvingDoubling:
        return cost_.RecursiveHalvingReduceScatter(bytes);
      default:
        return cost_.ReduceScatter(bytes);
    }
  }

  [[nodiscard]] SimTime Op2Duration(std::size_t bytes) const {
    switch (config_.dear_algorithm) {
      case comm::Algorithm::kDoubleBinaryTree:
        return cost_.DoubleBinaryTreeBroadcast(bytes);
      case comm::Algorithm::kHierarchical:
        return cost_.HierarchicalAllGather(bytes, cluster_.ranks_per_node);
      case comm::Algorithm::kRecursiveHalvingDoubling:
        return cost_.RecursiveDoublingAllGather(bytes);
      default:
        return cost_.AllGather(bytes);
    }
  }

  const model::ModelSpec& model_;
  const ClusterSpec& cluster_;
  const PolicyConfig& config_;
  comm::CostModel cost_;
  int num_layers_;
  ScheduleTable table_;
  TaskGraph graph_;
  // Scratch reused so building allocates per graph, not per task.
  std::vector<TaskId> ff_, bp_;  // the period's FF/BP task per layer
  std::vector<TaskId> deps_;     // dependencies of the task being added
  std::vector<Gate> gates_;      // what the next iteration waits on
};

}  // namespace

BuiltGraph BuildTaskGraph(const model::ModelSpec& model,
                          const ClusterSpec& cluster,
                          const PolicyConfig& config, int iterations) {
  DEAR_CHECK(iterations >= 1);
  if (config.kind != PolicyKind::kByteScheduler) {
    DEAR_CHECK_MSG(config.plan.num_groups() > 0,
                   "policy requires a fusion plan (use fusion::PerTensor for "
                   "unfused WFBP/DeAR)");
  }
  GraphBuilder builder(model, cluster, config);
  return builder.Build(iterations);
}

PolicyConfig DefaultConfig(PolicyKind kind, const model::ModelSpec& model,
                           const ClusterSpec& cluster,
                           std::size_t buffer_bytes) {
  PolicyConfig cfg;
  cfg.kind = kind;
  if (kind == PolicyKind::kWFBP || kind == PolicyKind::kByteScheduler ||
      kind == PolicyKind::kSequential) {
    cfg.plan = fusion::PerTensor(model);
  } else if (kind == PolicyKind::kMGWFBP) {
    cfg.plan = fusion::MergeGradientsWisely(model, cluster.network.alpha_s,
                                            cluster.world_size);
  } else {
    cfg.plan = fusion::ByBufferBytes(model, buffer_bytes);
  }
  return cfg;
}

}  // namespace dear::sched
