#include "sched/policies.h"

#include <algorithm>

#include "common/logging.h"
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
  }
  return "?";
}

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
    const auto [tasks, deps, carried] = GraphSize();
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
  struct Size {
    std::size_t tasks;
    std::size_t deps;
    std::size_t carried;
  };

  // Exact task, dependency and carried-dependency counts of one period, so
  // the graph is allocated once.
  [[nodiscard]] Size GraphSize() const {
    const auto& groups = config_.plan.groups();
    const std::size_t layers = static_cast<std::size_t>(num_layers_);
    const std::size_t g = groups.size();
    std::size_t spans = 0;  // (group, gated layer) pairs
    for (const auto& group : groups)
      spans += static_cast<std::size_t>(group.last_layer - group.first_layer +
                                        1);
    // Communication tasks, their dependencies, and the gates they hand to
    // the next iteration's FF/BP.
    std::size_t comm_tasks = g, comm_deps = g, gate_deps = g;
    switch (config_.kind) {
      case PolicyKind::kByteScheduler: {
        std::size_t chunks = 0;
        for (int ti = 0; ti < model_.num_tensors(); ++ti)
          chunks += Chunks(model_.tensor(ti).bytes());
        comm_tasks = comm_deps = gate_deps = chunks;
        break;
      }
      case PolicyKind::kDeAR:
        comm_tasks = 2 * g + (config_.dear_op1_barrier ? 1 : 0);
        comm_deps = (config_.dear_op1_barrier ? 3 : 2) * g;
        gate_deps = spans;
        break;
      case PolicyKind::kZeRO:
        comm_tasks = 3 * g + 1;
        comm_deps = 4 * g;
        gate_deps = 2 * spans;
        break;
      default:
        break;
    }
    // FF and BP chains: 2L tasks, L-1 + L chain dependencies.
    const std::size_t chain_deps = layers > 0 ? 2 * layers - 1 : 0;
    return {2 * layers + comm_tasks, chain_deps + comm_deps, gate_deps};
  }

  // Adds `t` with the dependencies collected in deps_, then empties deps_.
  TaskId Add(const Task& t) {
    const TaskId id = graph_.Add(t, deps_);
    deps_.clear();
    return id;
  }

  // Builds iteration 0: FF + BP chains and the policy's communication
  // tasks, recording in gates_ what the next iteration must wait for.
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

    switch (config_.kind) {
      case PolicyKind::kSequential:
        return BuildBarrierComm(/*overlap_bp=*/false, /*negotiate=*/false);
      case PolicyKind::kWFBP:
      case PolicyKind::kDDP:
      case PolicyKind::kMGWFBP:
        return BuildBarrierComm(/*overlap_bp=*/true, /*negotiate=*/false);
      case PolicyKind::kHorovod:
        return BuildBarrierComm(/*overlap_bp=*/true,
                                /*negotiate=*/config_.charge_negotiation);
      case PolicyKind::kByteScheduler:
        return BuildByteScheduler();
      case PolicyKind::kDeAR:
        return BuildDeAR();
      case PolicyKind::kZeRO:
        return BuildZeRO();
    }
    DEAR_CHECK_MSG(false, "unreachable policy kind");
  }

  // The next iteration's FF_l / BP_l waits on `on`.
  void GateForward(int layer, TaskId on) {
    gates_.push_back({ff_[static_cast<std::size_t>(layer)], on});
  }
  void GateBackward(int layer, TaskId on) {
    gates_.push_back({bp_[static_cast<std::size_t>(layer)], on});
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

  // ByteScheduler: number of credit-sized chunks a tensor is split into.
  [[nodiscard]] std::size_t Chunks(std::size_t bytes) const {
    return config_.partition_bytes == 0
               ? 1
               : std::max<std::size_t>(
                     1, CeilDiv(bytes, config_.partition_bytes));
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
  [[nodiscard]] SimTime CopyOverhead(const fusion::Group& group) const {
    if (config_.host_copy_gbps <= 0.0 || group.tensors.size() <= 1) return 0;
    return Seconds(static_cast<double>(group.bytes) /
                   (config_.host_copy_gbps * 1e9));
  }

  // Durations of DeAR's decoupled halves under the configured algorithm.
  [[nodiscard]] SimTime Op1Duration(std::size_t raw_bytes) const {
    const std::size_t bytes = CommBytes(raw_bytes);
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

  [[nodiscard]] SimTime Op2Duration(std::size_t raw_bytes) const {
    const std::size_t bytes = CommBytes(raw_bytes);
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

  // WFBP-family: one all-reduce per fusion group, started when the group's
  // last gradient is ready (overlap_bp) or when all of BP is done
  // (sequential); the next iteration's FF_0 waits for every all-reduce.
  void BuildBarrierComm(bool overlap_bp, bool negotiate) {
    const auto& groups = config_.plan.groups();
    for (std::size_t g = 0; g < groups.size(); ++g) {
      Task t;
      t.kind = TaskKind::kAllReduce;
      t.stream = kCommStream;
      t.duration = cost_.RingAllReduce(CommBytes(groups[g].bytes)) +
                   CompressionOverhead() + 2 * CopyOverhead(groups[g]);
      if (negotiate) t.duration += cost_.NegotiationLatency();
      t.iteration = 0;
      t.group = static_cast<int>(g);
      const int ready_layer = overlap_bp ? groups[g].first_layer : 0;
      deps_.push_back(bp_[static_cast<std::size_t>(ready_layer)]);
      GateForward(0, Add(t));
    }
  }

  // ByteScheduler: per-tensor granularity, large tensors partitioned into
  // credit-sized chunks, each chunk an independent all-reduce carrying a
  // negotiation round, dispatched by layer priority; FF_l of the next
  // iteration waits only for its own layer's chunks (the fine-grained
  // dependency its re-ordering buys).
  void BuildByteScheduler() {
    for (int ti = 0; ti < model_.num_tensors(); ++ti) {
      const auto& tensor = model_.tensor(ti);
      const std::size_t bytes = tensor.bytes();
      const std::size_t chunks = Chunks(bytes);
      for (std::size_t c = 0; c < chunks; ++c) {
        const Range r = ChunkRange(bytes, chunks, c);
        Task t;
        t.kind = TaskKind::kAllReduce;
        t.stream = kCommStream;
        t.duration =
            cost_.RingAllReduce(CommBytes(r.size())) + CompressionOverhead();
        // Negotiation + coordinator cost is paid once per scheduled tensor
        // (the readiness consensus and the Python-layer decision), charged
        // on its first chunk; partitioning's own penalty is the extra ring
        // startup each additional chunk already pays.
        if (config_.charge_negotiation && c == 0) {
          t.duration += cost_.NegotiationLatency() +
                        Seconds(config_.coordinator_overhead_s);
        }
        t.iteration = 0;
        t.layer = tensor.layer;
        t.priority = static_cast<double>(tensor.layer);
        deps_.push_back(bp_[static_cast<std::size_t>(tensor.layer)]);
        GateForward(tensor.layer, Add(t));
      }
    }
  }

  // DeAR: reduce-scatter per group during BP (BackPipe, FIFO), a global
  // synchronization of all OP1 tasks (paper §III-B), then all-gathers in
  // FF order (FeedPipe); FF_l of the next iteration waits only for the
  // all-gather of the group(s) owning layer l's tensors.
  void BuildDeAR() {
    const auto& groups = config_.plan.groups();

    rs_.clear();
    for (std::size_t g = 0; g < groups.size(); ++g) {
      Task t;
      t.kind = TaskKind::kReduceScatter;
      t.stream = kCommStream;
      t.duration = config_.include_reduce_scatter
                       ? Op1Duration(groups[g].bytes) + CompressionOverhead() +
                             CopyOverhead(groups[g])
                       : 0;
      t.iteration = 0;
      t.group = static_cast<int>(g);
      deps_.push_back(bp_[static_cast<std::size_t>(groups[g].first_layer)]);
      rs_.push_back(Add(t));
    }

    TaskId rs_done = sim::kInvalidTask;
    if (config_.dear_op1_barrier) rs_done = AddOp1Sync();

    // All-gathers added in ascending group (= FF) order; they all become
    // ready at rs_done, and the FIFO comm stream preserves insertion order.
    // Without the barrier each all-gather waits only on its own group's
    // reduce-scatter (ablation; see PolicyConfig::dear_op1_barrier).
    for (std::size_t g = 0; g < groups.size(); ++g) {
      Task t;
      t.kind = TaskKind::kAllGather;
      t.stream = kCommStream;
      t.duration = config_.include_all_gather
                       ? Op2Duration(groups[g].bytes) + CompressionOverhead() +
                             CopyOverhead(groups[g])
                       : 0;
      t.iteration = 0;
      t.group = static_cast<int>(g);
      deps_.push_back(config_.dear_op1_barrier ? rs_done : rs_[g]);
      const TaskId ag = Add(t);
      for (int l = groups[g].first_layer; l <= groups[g].last_layer; ++l)
        GateForward(l, ag);
    }
  }

  // Zero-duration OP1 synchronization on every reduce-scatter in rs_.
  TaskId AddOp1Sync() {
    Task sync;
    sync.kind = TaskKind::kSync;
    sync.stream = kCommStream;
    sync.duration = 0;
    sync.iteration = 0;
    return graph_.Add(sync, rs_);
  }

  // ZeRO-3 / FSDP (paper §VII-B): gradients reduce-scatter during BP; the
  // sharded parameters must be re-gathered before the next iteration's
  // forward AND again before its backward — three collectives per group.
  // All re-gathers are enqueued behind the OP1 sync (FSDP's prefetch order),
  // forward-order gathers first, then backward-order ones.
  void BuildZeRO() {
    const auto& groups = config_.plan.groups();

    rs_.clear();
    for (std::size_t g = 0; g < groups.size(); ++g) {
      Task t;
      t.kind = TaskKind::kReduceScatter;
      t.stream = kCommStream;
      t.duration =
          cost_.ReduceScatter(CommBytes(groups[g].bytes)) +
          CompressionOverhead();
      t.iteration = 0;
      t.group = static_cast<int>(g);
      deps_.push_back(bp_[static_cast<std::size_t>(groups[g].first_layer)]);
      rs_.push_back(Add(t));
    }
    const TaskId rs_done = AddOp1Sync();

    // Forward parameter gathers, ascending (FeedPipe-like).
    for (std::size_t g = 0; g < groups.size(); ++g) {
      Task t;
      t.kind = TaskKind::kAllGather;
      t.stream = kCommStream;
      t.duration = cost_.AllGather(groups[g].bytes);
      t.iteration = 0;
      t.group = static_cast<int>(g);
      deps_.push_back(rs_done);
      const TaskId ag = Add(t);
      for (int l = groups[g].first_layer; l <= groups[g].last_layer; ++l)
        GateForward(l, ag);
    }
    // Backward parameter re-gathers, descending (BP encounters the last
    // group first).
    for (std::size_t g = groups.size(); g-- > 0;) {
      Task t;
      t.kind = TaskKind::kAllGather;
      t.stream = kCommStream;
      t.duration = cost_.AllGather(groups[g].bytes);
      t.iteration = 0;
      t.group = static_cast<int>(g);
      deps_.push_back(rs_done);
      const TaskId ag = Add(t);
      for (int l = groups[g].first_layer; l <= groups[g].last_layer; ++l)
        GateBackward(l, ag);
    }
  }

  const model::ModelSpec& model_;
  const ClusterSpec& cluster_;
  const PolicyConfig& config_;
  comm::CostModel cost_;
  int num_layers_;
  TaskGraph graph_;
  // Scratch reused so building allocates per graph, not per task.
  std::vector<TaskId> ff_, bp_;  // the period's FF/BP task per layer
  std::vector<TaskId> rs_;       // the period's reduce-scatters
  std::vector<TaskId> deps_;     // dependencies of the task being added
  std::vector<Gate> gates_;       // what the next iteration waits on
};

}  // namespace

BuiltGraph BuildTaskGraph(const model::ModelSpec& model,
                          const ClusterSpec& cluster,
                          const PolicyConfig& config, int iterations) {
  DEAR_CHECK(iterations >= 1);
  const bool needs_plan = config.kind == PolicyKind::kSequential ||
                          config.kind == PolicyKind::kDDP ||
                          config.kind == PolicyKind::kHorovod ||
                          config.kind == PolicyKind::kMGWFBP ||
                          config.kind == PolicyKind::kWFBP ||
                          config.kind == PolicyKind::kDeAR ||
                          config.kind == PolicyKind::kZeRO;
  if (needs_plan) {
    DEAR_CHECK_MSG(config.plan.num_groups() > 0,
                   "policy requires a fusion plan (use fusion::PerTensor for "
                   "unfused WFBP/DeAR)");
  }
  GraphBuilder builder(model, cluster, config);
  return builder.Build(iterations);
}

}  // namespace dear::sched
