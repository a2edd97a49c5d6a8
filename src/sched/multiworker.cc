#include "sched/multiworker.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/rng.h"
#include "sim/engine.h"

namespace dear::sched {
namespace {

using sim::Task;
using sim::TaskGraph;
using sim::TaskId;
using sim::TaskKind;

constexpr std::int16_t ComputeStream(int worker) {
  return static_cast<std::int16_t>(2 * worker);
}
constexpr std::int16_t CommStream(int worker) {
  return static_cast<std::int16_t>(2 * worker + 1);
}

class MultiWorkerBuilder {
 public:
  MultiWorkerBuilder(const model::ModelSpec& model, const ClusterSpec& cluster,
                     const PolicyConfig& config,
                     const MultiWorkerOptions& options)
      : model_(model),
        config_(config),
        options_(options),
        cost_(cluster.cost_model()),
        workers_(cluster.world_size),
        num_layers_(model.num_layers()),
        rng_(options.seed),
        ff_(static_cast<std::size_t>(workers_ * num_layers_)),
        bp_(ff_.size()),
        layer_gates_(ff_.size()),
        global_gates_(static_cast<std::size_t>(workers_)),
        rs_done_(static_cast<std::size_t>(workers_)) {}

  TaskGraph Build() {
    const auto [tasks, deps] = GraphSize();
    graph_.Reserve(tasks, deps);
    for (int iter = 0; iter < options_.iterations; ++iter)
      BuildIteration(iter);
    DEAR_CHECK(graph_.size() == tasks && graph_.num_deps() == deps);
    return std::move(graph_);
  }

 private:
  struct Size {
    std::size_t tasks;
    std::size_t deps;
  };

  // Exact task and dependency counts, so the graph is allocated once.
  [[nodiscard]] Size GraphSize() const {
    const auto& groups = config_.plan.groups();
    const auto w = static_cast<std::size_t>(workers_);
    const auto layers = static_cast<std::size_t>(num_layers_);
    const std::size_t g = groups.size();
    std::size_t spans = 0;  // (group, gated layer) pairs
    for (const auto& group : groups)
      spans += static_cast<std::size_t>(group.last_layer - group.first_layer +
                                        1);
    const bool dear = config_.kind == PolicyKind::kDeAR;
    // Per worker and iteration: FF/BP chains (L-1 + L chain dependencies)
    // and the communication tasks. Each collective waits on every worker's
    // BP; DeAR's sync waits on all g*w reduce-scatters, each all-gather on
    // its worker's sync.
    const std::size_t tasks = w * (2 * layers + (dear ? 2 * g + 1 : g));
    const std::size_t deps =
        w * (2 * layers - 1 + (dear ? 2 * g * w + g : g * w));
    const std::size_t gate_deps = w * (dear ? spans : g);
    const auto iters = static_cast<std::size_t>(options_.iterations);
    return {iters * tasks, iters * deps + (iters - 1) * gate_deps};
  }

  // Index into the per-worker x per-layer tables.
  [[nodiscard]] std::size_t Slot(int w, int l) const {
    return static_cast<std::size_t>(w) *
               static_cast<std::size_t>(num_layers_) +
           static_cast<std::size_t>(l);
  }

  SimTime Jittered(SimTime base) {
    if (options_.jitter_sigma <= 0.0) return base;
    const double scale =
        std::exp(options_.jitter_sigma * rng_.NextGaussian());
    return static_cast<SimTime>(static_cast<double>(base) * scale);
  }

  // Adds `t` with the dependencies collected in deps_, then empties deps_.
  TaskId Add(const Task& t) {
    const TaskId id = graph_.Add(t, deps_);
    deps_.clear();
    return id;
  }

  void BuildIteration(int iter) {
    // Per-worker FF and BP chains; FF consumes the gates the previous
    // iteration's communication recorded, which are then cleared for this
    // iteration's communication to refill.
    for (int w = 0; w < workers_; ++w) {
      for (int l = 0; l < num_layers_; ++l) {
        Task t;
        t.kind = TaskKind::kForward;
        t.stream = ComputeStream(w);
        t.duration = Jittered(model_.layer(l).ff_time);
        t.iteration = iter;
        t.layer = l;
        if (l > 0) deps_.push_back(ff_[Slot(w, l - 1)]);
        if (l == 0) {
          const auto& gg = global_gates_[static_cast<std::size_t>(w)];
          deps_.insert(deps_.end(), gg.begin(), gg.end());
        }
        const auto& lg = layer_gates_[Slot(w, l)];
        deps_.insert(deps_.end(), lg.begin(), lg.end());
        ff_[Slot(w, l)] = Add(t);
      }
      for (int l = num_layers_ - 1; l >= 0; --l) {
        Task t;
        t.kind = TaskKind::kBackward;
        t.stream = ComputeStream(w);
        t.duration = Jittered(model_.layer(l).bp_time);
        t.iteration = iter;
        t.layer = l;
        deps_.push_back(l == num_layers_ - 1 ? ff_[Slot(w, l)]
                                             : bp_[Slot(w, l + 1)]);
        bp_[Slot(w, l)] = Add(t);
      }
      global_gates_[static_cast<std::size_t>(w)].clear();
      for (int l = 0; l < num_layers_; ++l) layer_gates_[Slot(w, l)].clear();
    }

    if (config_.kind == PolicyKind::kDeAR) {
      BuildDeARComm(iter);
    } else {
      BuildBarrierComm(iter);
    }
  }

  // WFBP family: all-reduce per group; each worker's task starts once every
  // worker's gating BP finished (the collective's entry barrier) and gates
  // that worker's next FF_0.
  void BuildBarrierComm(int iter) {
    const bool overlap_bp = config_.kind != PolicyKind::kSequential;
    const bool negotiate = config_.kind == PolicyKind::kHorovod &&
                           config_.charge_negotiation;
    const auto& groups = config_.plan.groups();
    for (std::size_t g = 0; g < groups.size(); ++g) {
      const int ready_layer = overlap_bp ? groups[g].first_layer : 0;
      for (int w = 0; w < workers_; ++w) {
        Task t;
        t.kind = TaskKind::kAllReduce;
        t.stream = CommStream(w);
        t.duration = cost_.RingAllReduce(groups[g].bytes);
        if (negotiate) t.duration += cost_.NegotiationLatency();
        t.iteration = iter;
        t.group = static_cast<int>(g);
        for (int peer = 0; peer < workers_; ++peer)
          deps_.push_back(bp_[Slot(peer, ready_layer)]);
        global_gates_[static_cast<std::size_t>(w)].push_back(Add(t));
      }
    }
  }

  void BuildDeARComm(int iter) {
    const auto& groups = config_.plan.groups();
    // OP1: per-worker reduce-scatter tasks, entry-synchronized on all
    // workers' producing BP.
    all_rs_.clear();
    for (std::size_t g = 0; g < groups.size(); ++g) {
      for (int w = 0; w < workers_; ++w) {
        Task t;
        t.kind = TaskKind::kReduceScatter;
        t.stream = CommStream(w);
        t.duration = cost_.ReduceScatter(groups[g].bytes);
        t.iteration = iter;
        t.group = static_cast<int>(g);
        for (int peer = 0; peer < workers_; ++peer)
          deps_.push_back(bp_[Slot(peer, groups[g].first_layer)]);
        all_rs_.push_back(Add(t));
      }
    }
    // OP1 synchronization point (paper §III-B): one zero-duration task per
    // worker depending on every reduce-scatter everywhere.
    for (int w = 0; w < workers_; ++w) {
      Task t;
      t.kind = TaskKind::kSync;
      t.stream = CommStream(w);
      t.duration = 0;
      t.iteration = iter;
      rs_done_[static_cast<std::size_t>(w)] = graph_.Add(t, all_rs_);
    }
    // OP2: all-gathers in FF order on each worker, gating its own FF.
    for (std::size_t g = 0; g < groups.size(); ++g) {
      for (int w = 0; w < workers_; ++w) {
        Task t;
        t.kind = TaskKind::kAllGather;
        t.stream = CommStream(w);
        t.duration = cost_.AllGather(groups[g].bytes);
        t.iteration = iter;
        t.group = static_cast<int>(g);
        deps_.push_back(rs_done_[static_cast<std::size_t>(w)]);
        const TaskId id = Add(t);
        for (int l = groups[g].first_layer; l <= groups[g].last_layer; ++l)
          layer_gates_[Slot(w, l)].push_back(id);
      }
    }
  }

  const model::ModelSpec& model_;
  const PolicyConfig& config_;
  const MultiWorkerOptions& options_;
  comm::CostModel cost_;
  int workers_;
  int num_layers_;
  Rng rng_;
  TaskGraph graph_;
  // Scratch reused across iterations.
  std::vector<TaskId> ff_, bp_;  // [w * layers + l]: this iteration's task
  // Gates for each worker's next-iteration FF: per layer ([w * layers + l])
  // and whole-model (FF_0, per worker).
  std::vector<std::vector<TaskId>> layer_gates_;
  std::vector<std::vector<TaskId>> global_gates_;
  std::vector<TaskId> all_rs_;   // this iteration's reduce-scatters
  std::vector<TaskId> rs_done_;  // per worker: this iteration's OP1 sync
  std::vector<TaskId> deps_;     // dependencies of the task being added
};

}  // namespace

sim::TaskGraph BuildMultiWorkerGraph(const model::ModelSpec& model,
                                     const ClusterSpec& cluster,
                                     const PolicyConfig& config,
                                     const MultiWorkerOptions& options) {
  DEAR_CHECK_MSG(config.kind != PolicyKind::kByteScheduler &&
                     config.kind != PolicyKind::kZeRO &&
                     config.kind != PolicyKind::kZeRO1,
                 "ByteScheduler/ZeRO are not supported by the multi-worker "
                 "model");
  DEAR_CHECK_MSG(config.plan.num_groups() > 0, "policy requires a fusion plan");
  return MultiWorkerBuilder(model, cluster, config, options).Build();
}

RunResult EvaluateMultiWorker(const model::ModelSpec& model,
                              const ClusterSpec& cluster,
                              const PolicyConfig& config,
                              const MultiWorkerOptions& options) {
  DEAR_CHECK(options.iterations > options.warmup + 1);
  const sim::TaskGraph graph =
      BuildMultiWorkerGraph(model, cluster, config, options);
  // Every stream is FIFO; there is no priority policy in this family.
  auto sim = sim::Simulate(graph, {});
  DEAR_CHECK_MSG(sim.ok(), sim.status().ToString());

  std::vector<SimTime> iter_end(static_cast<std::size_t>(options.iterations),
                                0);
  for (std::size_t i = 0; i < graph.size(); ++i) {
    const sim::Task task = graph.task(static_cast<sim::TaskId>(i));
    if (task.iteration < 0) continue;
    auto& end = iter_end[static_cast<std::size_t>(task.iteration)];
    end = std::max(end, sim->timings[i].end);
  }
  const auto last = static_cast<std::size_t>(options.iterations - 1);
  const auto warm = static_cast<std::size_t>(options.warmup);
  return SteadyState(model, cluster, iter_end[last] - iter_end[warm],
                     options.iterations - 1 - options.warmup);
}

}  // namespace dear::sched
