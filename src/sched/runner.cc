#include "sched/runner.h"

#include <algorithm>

#include "common/logging.h"

namespace dear::sched {

RunResult EvaluatePolicy(const model::ModelSpec& model,
                         const ClusterSpec& cluster,
                         const PolicyConfig& config,
                         const RunOptions& options) {
  DEAR_CHECK(options.iterations > options.warmup + 1);
  BuiltGraph built = BuildTaskGraph(model, cluster, config, options.iterations);
  // Iteration i is the graph's i-th repetition, and it completes when its
  // last task (over both streams) finishes.
  auto ends =
      sim::SimulateRepetitionEnds(built.graph, built.stream_policies);
  DEAR_CHECK_MSG(ends.ok(), ends.status().ToString());
  const auto last = static_cast<std::size_t>(options.iterations - 1);
  const auto warm = static_cast<std::size_t>(options.warmup);
  return SteadyState(model, cluster, (*ends)[last] - (*ends)[warm],
                     options.iterations - 1 - options.warmup);
}

RunResult SteadyState(const model::ModelSpec& model,
                      const ClusterSpec& cluster, SimTime span, int gaps) {
  DEAR_CHECK(gaps > 0);
  RunResult result;
  result.iter_time = span / gaps;
  result.breakdown.ff = model.total_ff_time();
  result.breakdown.bp = model.total_bp_time();
  result.breakdown.comm_exposed = std::max<SimTime>(
      0, result.iter_time - result.breakdown.ff - result.breakdown.bp);
  const double iter_s = ToSeconds(result.iter_time);
  DEAR_CHECK(iter_s > 0);
  result.throughput_samples_per_s =
      cluster.world_size * model.batch_size() / iter_s;
  const SimTime single_gpu = model.total_ff_time() + model.total_bp_time();
  result.speedup_vs_single_gpu =
      cluster.world_size * ToSeconds(single_gpu) / iter_s;
  return result;
}

double MaxSpeedup(const model::ModelSpec& model, const ClusterSpec& cluster) {
  const auto cost = cluster.cost_model();
  const SimTime ff = model.total_ff_time();
  const SimTime bp = model.total_bp_time();
  const SimTime ar = cost.AllReduceBandwidthBound(model.total_bytes());
  const SimTime rs = ar / 2;
  const SimTime ag = ar / 2;
  const SimTime denom =
      ff + bp + ar - std::min(rs, bp) - std::min(ag, ff);
  if (denom <= 0) return static_cast<double>(cluster.world_size);
  return cluster.world_size * ToSeconds(ff + bp) / ToSeconds(denom);
}

SimTime OptimalDeARIterTime(SimTime ff, SimTime bp, SimTime rs, SimTime ag) {
  return std::max(ff, ag) + std::max(bp, rs);
}

SimTime OptimalBaselineIterTime(SimTime ff, SimTime bp, SimTime ar) {
  return ff + std::max(bp, ar);
}

}  // namespace dear::sched
