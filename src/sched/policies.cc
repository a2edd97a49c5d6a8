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

// Communication tasks of one iteration that gate the next iteration's
// compute: per-layer dependency lists (empty list = no gate). One instance
// is recycled across iterations: an iteration reads its predecessor's gates
// while it builds FF and BP, then clears them (keeping their capacity)
// before its communication tasks record the gates for the next one.
struct CommGates {
  // FF_l of the next iteration must wait for these tasks.
  std::vector<std::vector<TaskId>> per_layer;
  // BP_l of the next iteration must wait for these tasks (kZeRO's backward
  // parameter re-gather; empty for every other policy).
  std::vector<std::vector<TaskId>> per_layer_bp;
  // ... and FF_0 additionally waits for these (whole-model barrier).
  std::vector<TaskId> global;

  explicit CommGates(int num_layers)
      : per_layer(static_cast<std::size_t>(num_layers)),
        per_layer_bp(static_cast<std::size_t>(num_layers)) {}

  void Clear() {
    for (auto& g : per_layer) g.clear();
    for (auto& g : per_layer_bp) g.clear();
    global.clear();
  }
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
        bp_(static_cast<std::size_t>(num_layers_)),
        gates_(num_layers_) {}

  BuiltGraph Build(int iterations) {
    const auto [tasks, deps] = GraphSize(iterations);
    graph_.Reserve(tasks, deps);
    for (int i = 0; i < iterations; ++i) BuildIteration(i);
    DEAR_CHECK(graph_.size() == tasks && graph_.num_deps() == deps);
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
  };

  // Exact task and dependency counts of `iterations` iterations, so the
  // graph is allocated once.
  [[nodiscard]] Size GraphSize(int iterations) const {
    const auto& groups = config_.plan.groups();
    const std::size_t layers = static_cast<std::size_t>(num_layers_);
    const std::size_t g = groups.size();
    std::size_t spans = 0;  // (group, gated layer) pairs
    for (const auto& group : groups)
      spans += static_cast<std::size_t>(group.last_layer - group.first_layer +
                                        1);
    // Per iteration: communication tasks, their dependencies, and the
    // gates they hand to the next iteration's FF/BP.
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
    const auto iters = static_cast<std::size_t>(iterations);
    // FF and BP chains: 2L tasks, L-1 + L chain dependencies.
    const std::size_t chain_deps = layers > 0 ? 2 * layers - 1 : 0;
    return {iters * (2 * layers + comm_tasks),
            iters * (chain_deps + comm_deps) + (iters - 1) * gate_deps};
  }

  // Adds `t` with the dependencies collected in deps_, then empties deps_.
  TaskId Add(const Task& t) {
    const TaskId id = graph_.Add(t, deps_);
    deps_.clear();
    return id;
  }

  // Builds FF + BP chains and the policy's communication tasks for
  // iteration `iter`, consuming the previous iteration's gates and
  // recording the gates for the next one.
  void BuildIteration(int iter) {
    // Feed-forward chain, gated by the previous iteration's communication.
    for (int l = 0; l < num_layers_; ++l) {
      Task t;
      t.kind = TaskKind::kForward;
      t.stream = kComputeStream;
      t.duration = model_.layer(l).ff_time;
      t.iteration = iter;
      t.layer = l;
      if (l > 0) deps_.push_back(ff_[static_cast<std::size_t>(l - 1)]);
      if (l == 0)
        deps_.insert(deps_.end(), gates_.global.begin(), gates_.global.end());
      const auto& layer_gates = gates_.per_layer[static_cast<std::size_t>(l)];
      deps_.insert(deps_.end(), layer_gates.begin(), layer_gates.end());
      ff_[static_cast<std::size_t>(l)] = Add(t);
    }

    // Backpropagation chain, last layer first.
    for (int l = num_layers_ - 1; l >= 0; --l) {
      Task t;
      t.kind = TaskKind::kBackward;
      t.stream = kComputeStream;
      t.duration = model_.layer(l).bp_time;
      t.iteration = iter;
      t.layer = l;
      deps_.push_back(l == num_layers_ - 1
                          ? ff_[static_cast<std::size_t>(l)]
                          : bp_[static_cast<std::size_t>(l + 1)]);
      const auto& bp_gates = gates_.per_layer_bp[static_cast<std::size_t>(l)];
      deps_.insert(deps_.end(), bp_gates.begin(), bp_gates.end());
      bp_[static_cast<std::size_t>(l)] = Add(t);
    }

    gates_.Clear();
    switch (config_.kind) {
      case PolicyKind::kSequential:
        return BuildBarrierComm(iter, /*overlap_bp=*/false,
                                /*negotiate=*/false);
      case PolicyKind::kWFBP:
      case PolicyKind::kDDP:
      case PolicyKind::kMGWFBP:
        return BuildBarrierComm(iter, /*overlap_bp=*/true,
                                /*negotiate=*/false);
      case PolicyKind::kHorovod:
        return BuildBarrierComm(iter, /*overlap_bp=*/true,
                                /*negotiate=*/config_.charge_negotiation);
      case PolicyKind::kByteScheduler:
        return BuildByteScheduler(iter);
      case PolicyKind::kDeAR:
        return BuildDeAR(iter);
      case PolicyKind::kZeRO:
        return BuildZeRO(iter);
    }
    DEAR_CHECK_MSG(false, "unreachable policy kind");
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
  void BuildBarrierComm(int iter, bool overlap_bp, bool negotiate) {
    const auto& groups = config_.plan.groups();
    for (std::size_t g = 0; g < groups.size(); ++g) {
      Task t;
      t.kind = TaskKind::kAllReduce;
      t.stream = kCommStream;
      t.duration = cost_.RingAllReduce(CommBytes(groups[g].bytes)) +
                   CompressionOverhead() + 2 * CopyOverhead(groups[g]);
      if (negotiate) t.duration += cost_.NegotiationLatency();
      t.iteration = iter;
      t.group = static_cast<int>(g);
      const int ready_layer = overlap_bp ? groups[g].first_layer : 0;
      deps_.push_back(bp_[static_cast<std::size_t>(ready_layer)]);
      gates_.global.push_back(Add(t));
    }
  }

  // ByteScheduler: per-tensor granularity, large tensors partitioned into
  // credit-sized chunks, each chunk an independent all-reduce carrying a
  // negotiation round, dispatched by layer priority; FF_l of the next
  // iteration waits only for its own layer's chunks (the fine-grained
  // dependency its re-ordering buys).
  void BuildByteScheduler(int iter) {
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
        t.iteration = iter;
        t.layer = tensor.layer;
        t.priority = static_cast<double>(tensor.layer);
        deps_.push_back(bp_[static_cast<std::size_t>(tensor.layer)]);
        gates_.per_layer[static_cast<std::size_t>(tensor.layer)].push_back(
            Add(t));
      }
    }
  }

  // DeAR: reduce-scatter per group during BP (BackPipe, FIFO), a global
  // synchronization of all OP1 tasks (paper §III-B), then all-gathers in
  // FF order (FeedPipe); FF_l of the next iteration waits only for the
  // all-gather of the group(s) owning layer l's tensors.
  void BuildDeAR(int iter) {
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
      t.iteration = iter;
      t.group = static_cast<int>(g);
      deps_.push_back(bp_[static_cast<std::size_t>(groups[g].first_layer)]);
      rs_.push_back(Add(t));
    }

    TaskId rs_done = sim::kInvalidTask;
    if (config_.dear_op1_barrier) rs_done = AddOp1Sync(iter);

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
      t.iteration = iter;
      t.group = static_cast<int>(g);
      deps_.push_back(config_.dear_op1_barrier ? rs_done : rs_[g]);
      const TaskId ag = Add(t);
      for (int l = groups[g].first_layer; l <= groups[g].last_layer; ++l)
        gates_.per_layer[static_cast<std::size_t>(l)].push_back(ag);
    }
  }

  // Zero-duration OP1 synchronization on every reduce-scatter in rs_.
  TaskId AddOp1Sync(int iter) {
    Task sync;
    sync.kind = TaskKind::kSync;
    sync.stream = kCommStream;
    sync.duration = 0;
    sync.iteration = iter;
    return graph_.Add(sync, rs_);
  }

  // ZeRO-3 / FSDP (paper §VII-B): gradients reduce-scatter during BP; the
  // sharded parameters must be re-gathered before the next iteration's
  // forward AND again before its backward — three collectives per group.
  // All re-gathers are enqueued behind the OP1 sync (FSDP's prefetch order),
  // forward-order gathers first, then backward-order ones.
  void BuildZeRO(int iter) {
    const auto& groups = config_.plan.groups();

    rs_.clear();
    for (std::size_t g = 0; g < groups.size(); ++g) {
      Task t;
      t.kind = TaskKind::kReduceScatter;
      t.stream = kCommStream;
      t.duration =
          cost_.ReduceScatter(CommBytes(groups[g].bytes)) +
          CompressionOverhead();
      t.iteration = iter;
      t.group = static_cast<int>(g);
      deps_.push_back(bp_[static_cast<std::size_t>(groups[g].first_layer)]);
      rs_.push_back(Add(t));
    }
    const TaskId rs_done = AddOp1Sync(iter);

    // Forward parameter gathers, ascending (FeedPipe-like).
    for (std::size_t g = 0; g < groups.size(); ++g) {
      Task t;
      t.kind = TaskKind::kAllGather;
      t.stream = kCommStream;
      t.duration = cost_.AllGather(groups[g].bytes);
      t.iteration = iter;
      t.group = static_cast<int>(g);
      deps_.push_back(rs_done);
      const TaskId ag = Add(t);
      for (int l = groups[g].first_layer; l <= groups[g].last_layer; ++l)
        gates_.per_layer[static_cast<std::size_t>(l)].push_back(ag);
    }
    // Backward parameter re-gathers, descending (BP encounters the last
    // group first).
    for (std::size_t g = groups.size(); g-- > 0;) {
      Task t;
      t.kind = TaskKind::kAllGather;
      t.stream = kCommStream;
      t.duration = cost_.AllGather(groups[g].bytes);
      t.iteration = iter;
      t.group = static_cast<int>(g);
      deps_.push_back(rs_done);
      const TaskId ag = Add(t);
      for (int l = groups[g].first_layer; l <= groups[g].last_layer; ++l)
        gates_.per_layer_bp[static_cast<std::size_t>(l)].push_back(ag);
    }
  }

  const model::ModelSpec& model_;
  const ClusterSpec& cluster_;
  const PolicyConfig& config_;
  comm::CostModel cost_;
  int num_layers_;
  TaskGraph graph_;
  // Per-iteration scratch, reused so building allocates per graph, not
  // per task.
  std::vector<TaskId> ff_, bp_;  // this iteration's FF/BP task per layer
  std::vector<TaskId> rs_;       // this iteration's reduce-scatters
  std::vector<TaskId> deps_;     // dependencies of the task being added
  CommGates gates_;
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
