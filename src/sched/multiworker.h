// Multi-worker simulation: every worker gets its own compute and
// communication stream, and collectives synchronize across workers — so
// per-worker compute jitter (stragglers) propagates the way it does on a
// real cluster. The single-timeline evaluator in runner.h assumes perfectly
// symmetric workers (the paper's setting); this module relaxes that
// assumption to study how DeAR's two synchronization points per iteration
// behave under noise — an extension beyond the paper's evaluation.
//
// Supported policies: kSequential, kWFBP, kDDP, kHorovod, kMGWFBP (the
// barrier-communication family) and kDeAR. ByteScheduler's per-worker
// re-ordering is out of scope here.
#pragma once

#include <cstdint>

#include "sched/runner.h"
#include "sim/task_graph.h"

namespace dear::sched {

struct MultiWorkerOptions {
  int iterations{8};
  int warmup{3};
  /// Lognormal jitter on every compute task: duration *= exp(sigma * N(0,1)).
  /// 0 disables jitter, making the run equivalent to the symmetric model.
  double jitter_sigma{0.0};
  std::uint64_t seed{1};
};

/// The task graph EvaluateMultiWorker simulates: one compute and one
/// communication stream per worker (streams 2w and 2w + 1, all FIFO), every
/// iteration written out (repeats() == 1).
sim::TaskGraph BuildMultiWorkerGraph(const model::ModelSpec& model,
                                     const ClusterSpec& cluster,
                                     const PolicyConfig& config,
                                     const MultiWorkerOptions& options = {});

/// Simulates cluster.world_size explicit workers. Graph size grows linearly
/// with workers; keep world_size moderate (<= 32) for large models.
RunResult EvaluateMultiWorker(const model::ModelSpec& model,
                              const ClusterSpec& cluster,
                              const PolicyConfig& config,
                              const MultiWorkerOptions& options = {});

}  // namespace dear::sched
