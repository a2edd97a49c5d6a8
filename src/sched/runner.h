// Evaluates a scheduling policy on the simulator: steady-state iteration
// time, throughput, speedup, and the Fig. 8-style time breakdown.
#pragma once

#include "sched/policies.h"
#include "sim/engine.h"

namespace dear::sched {

struct Breakdown {
  SimTime ff{0};            // feed-forward compute per iteration
  SimTime bp{0};            // backpropagation compute per iteration
  SimTime comm_exposed{0};  // communication NOT hidden by computation
};

struct RunResult {
  SimTime iter_time{0};  // steady-state time per iteration
  double throughput_samples_per_s{0.0};  // cluster-wide
  double speedup_vs_single_gpu{0.0};     // Table II's S
  Breakdown breakdown;
};

struct RunOptions {
  int iterations{8};
  int warmup{3};  // iterations discarded before measuring
};

/// Builds the policy's task graph, simulates it, and extracts steady-state
/// per-iteration metrics: the mean gap between successive iteration ends
/// after `warmup`. The simulation stops once the schedule repeats
/// (sim::SimulateRepetitionEnds); the result is the full horizon's, bit
/// for bit. CHECK-fails on simulation errors (malformed graphs indicate
/// policy bugs, not runtime conditions).
RunResult EvaluatePolicy(const model::ModelSpec& model,
                         const ClusterSpec& cluster,
                         const PolicyConfig& config,
                         const RunOptions& options = {});

/// Steady-state metrics of a run whose iterations after warmup took `span`
/// over `gaps` iteration gaps: the mean gap is the iteration time (integer
/// division), and the rest follows from it.
RunResult SteadyState(const model::ModelSpec& model,
                      const ClusterSpec& cluster, SimTime span, int gaps);

/// Eq. 6: the theoretical maximum speedup of any overlap-based scheduler on
/// this model/cluster, using the bandwidth-bound all-reduce time
/// t_ar = 2m/B and t_rs = t_ag = t_ar / 2.
double MaxSpeedup(const model::ModelSpec& model, const ClusterSpec& cluster);

/// Eq. 7: DeAR's optimal iteration time under perfect overlap.
SimTime OptimalDeARIterTime(SimTime ff, SimTime bp, SimTime rs, SimTime ag);
/// Eq. 8: the baseline's (WFBP-family) optimal iteration time.
SimTime OptimalBaselineIterTime(SimTime ff, SimTime bp, SimTime ar);

}  // namespace dear::sched
