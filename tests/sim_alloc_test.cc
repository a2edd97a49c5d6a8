// Heap allocations of the simulator and of the BO acquisition sweep,
// counted exactly through the shared counting operator new
// (perflab/alloc_counter.h): Simulate allocates per graph, never per task,
// a policy's graph allocates per period, never per iteration,
// EvaluatePolicy's heap bytes do not grow with the iterations it averages,
// the acquisition sweep over a sized grid allocates nothing, and a fusion
// plan allocates per plan, never per group or per layer.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "fusion/plan.h"
#include "model/zoo.h"
#include "perflab/alloc_counter.h"
#include "sched/policies.h"
#include "sched/runner.h"
#include "sim/engine.h"
#include "tune/gp.h"
#include "tune/search.h"

namespace dear {
namespace {

/// A dependency chain of `n` tasks alternating between a FIFO stream and a
/// priority stream.
sim::TaskGraph Chain(int n) {
  sim::TaskGraph g;
  g.Reserve(static_cast<std::size_t>(n), static_cast<std::size_t>(n - 1));
  for (int i = 0; i < n; ++i) {
    sim::Task t;
    t.stream = static_cast<std::int16_t>(i % 2);
    t.duration = 1 + i % 3;
    const sim::TaskId prev = i - 1;
    g.Add(t, i == 0 ? std::span<const sim::TaskId>{}
                    : std::span<const sim::TaskId>(&prev, 1));
  }
  return g;
}

/// Allocations made by one Simulate call (result included).
long SimulateAllocs(const sim::TaskGraph& g) {
  const std::vector<sim::StreamPolicy> policies = {
      sim::StreamPolicy::kFifoByReady, sim::StreamPolicy::kPriority};
  const long before = perflab::ThreadAllocs();
  {
    const auto r = sim::Simulate(g, policies);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r->timings.size(), g.size());
  }
  return perflab::ThreadAllocs() - before;
}

// Every count below would read 0 in a binary built without the counter.
TEST(SimAllocTest, CounterIsLinked) {
  EXPECT_TRUE(perflab::AllocCounterLive());
}

TEST(SimAllocTest, SimulateAllocationsDoNotGrowWithTasks) {
  const auto small = Chain(1000);
  const auto large = Chain(10000);
  const long small_allocs = SimulateAllocs(small);
  const long large_allocs = SimulateAllocs(large);
  EXPECT_EQ(small_allocs, large_allocs);
  EXPECT_LT(small_allocs, 20);  // a handful of per-graph arrays
}

/// Allocations made by building a policy's graph for `iterations`
/// iterations and simulating it (graph and result included).
long BuildAndSimulateAllocs(const model::ModelSpec& m,
                            const sched::PolicyConfig& cfg, int iterations) {
  sched::ClusterSpec cluster;
  cluster.world_size = 16;
  const long before = perflab::ThreadAllocs();
  {
    const auto built = sched::BuildTaskGraph(m, cluster, cfg, iterations);
    const auto r = sim::Simulate(built.graph, built.stream_policies);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r->timings.size(), built.graph.size());
  }
  return perflab::ThreadAllocs() - before;
}

// The graph stores one iteration however many it repeats, so building and
// simulating 64 iterations allocates exactly as often as 8.
TEST(SimAllocTest, BuildAndSimulateAllocationsDoNotGrowWithIterations) {
  const auto m = model::ByName("resnet50");
  for (const auto kind :
       {sched::PolicyKind::kWFBP, sched::PolicyKind::kByteScheduler,
        sched::PolicyKind::kDeAR, sched::PolicyKind::kZeRO}) {
    sched::PolicyConfig cfg;
    cfg.kind = kind;
    cfg.plan = fusion::ByBufferBytes(m, 25u << 20);
    EXPECT_EQ(BuildAndSimulateAllocs(m, cfg, 8),
              BuildAndSimulateAllocs(m, cfg, 64))
        << sched::PolicyName(kind);
  }
}

/// Heap bytes one EvaluatePolicy call asks for, at `iterations`.
long EvaluateBytes(const model::ModelSpec& m, const sched::PolicyConfig& cfg,
                   int iterations) {
  sched::ClusterSpec cluster;
  cluster.world_size = 16;
  const long before = perflab::ThreadAllocBytes();
  const auto r =
      sched::EvaluatePolicy(m, cluster, cfg, sched::RunOptions{iterations, 3});
  EXPECT_GT(r.iter_time, 0);
  return perflab::ThreadAllocBytes() - before;
}

// EvaluatePolicy simulates until the schedule repeats and keeps only
// per-repetition ends, in rings sized by the period: no per-task timing
// vector and no per-iteration array, so 64 iterations take exactly the
// bytes of 8.
TEST(SimAllocTest, EvaluatePolicyBytesDoNotGrowWithIterations) {
  const auto m = model::ByName("resnet50");
  for (const auto kind :
       {sched::PolicyKind::kWFBP, sched::PolicyKind::kByteScheduler,
        sched::PolicyKind::kDeAR, sched::PolicyKind::kZeRO}) {
    sched::PolicyConfig cfg;
    cfg.kind = kind;
    cfg.plan = kind == sched::PolicyKind::kDeAR ||
                       kind == sched::PolicyKind::kZeRO
                   ? fusion::ByBufferBytes(m, 25u << 20)
                   : fusion::PerTensor(m);
    const long bytes = EvaluateBytes(m, cfg, 8);
    EXPECT_GT(bytes, 0) << sched::PolicyName(kind);
    EXPECT_EQ(EvaluateBytes(m, cfg, 64), bytes) << sched::PolicyName(kind);
  }
}

/// Builds one fusion plan.
using PlanBuilder = fusion::FusionPlan (*)(const model::ModelSpec&);

/// Allocations made by one fusion-plan builder (the plan included).
long PlanAllocs(PlanBuilder build, const model::ModelSpec& m) {
  const long before = perflab::ThreadAllocs();
  {
    const fusion::FusionPlan plan = build(m);
    EXPECT_GT(plan.num_groups(), 0);
  }
  return perflab::ThreadAllocs() - before;
}

// A plan is flat: its groups, tensor -> group and layer -> group range are
// one array each, and the builders collect cut points into one array sized
// up front, so 1000 tensors allocate exactly as often as 10. Every builder
// but SingleGroup makes about 100x the groups on the larger model.
TEST(SimAllocTest, PlanAllocationsDoNotGrowWithTensors) {
  const auto small = model::UniformTestModel(10, 100);  // 400 B tensors
  const auto large = model::UniformTestModel(1000, 100);
  const std::pair<const char*, PlanBuilder> builders[] = {
      {"PerTensor", fusion::PerTensor},
      {"SingleGroup", fusion::SingleGroup},
      {"ByBufferBytes",
       [](const model::ModelSpec& m) {
         return fusion::ByBufferBytes(m, 1200);
       }},
      {"ByLayerCount",
       [](const model::ModelSpec& m) { return fusion::ByLayerCount(m, 3); }},
      {"MergeGradientsWisely", [](const model::ModelSpec& m) {
         return fusion::MergeGradientsWisely(m, 8e-6, 64);
       }}};
  for (const auto& [name, build] : builders) {
    const long allocs = PlanAllocs(build, small);
    EXPECT_GT(allocs, 0) << name;
    EXPECT_EQ(PlanAllocs(build, large), allocs) << name;
  }
}

/// Allocations of one cached grid sweep over `points` inputs: the sweep
/// after `observations` observations (`extend`) or a second sweep of the
/// same fit.
long GridSweepAllocs(int points, int observations, bool extend) {
  tune::GaussianProcess gp;
  std::vector<double> xs, ys;
  for (int i = 0; i < observations; ++i) {
    xs.push_back(0.1 * i);
    ys.push_back(static_cast<double>((i * 7) % 5));
  }
  EXPECT_TRUE(gp.Fit(xs, ys).ok());
  std::vector<double> inputs;
  for (int i = 0; i < points; ++i) inputs.push_back(i / (points - 1.0));
  tune::PredictionGrid grid(inputs);
  std::vector<tune::Prediction> out;
  gp.Predict(grid, out);  // builds the cache and sizes `out`
  if (extend) {
    xs.push_back(0.95);
    ys.push_back(2.0);
    EXPECT_TRUE(gp.Fit(xs, ys).ok());
  }
  const long before = perflab::ThreadAllocs();
  gp.Predict(grid, out);
  const long allocs = perflab::ThreadAllocs() - before;
  double sum = 0.0;
  for (const auto& p : out) sum += p.mean + p.variance;
  EXPECT_TRUE(sum == sum);  // keep the sweep observable
  return allocs;
}

TEST(SimAllocTest, GridSweepAllocationsDoNotGrowWithTheGrid) {
  // Re-sweeping the same fit allocates nothing.
  EXPECT_EQ(GridSweepAllocs(256, 10, false), 0);
  // One more observation appends a row to each cached array: at most one
  // growth each (k*, the solve, the observed inputs), whatever the grid.
  const long small = GridSweepAllocs(16, 10, true);
  EXPECT_LE(small, 3);
  EXPECT_EQ(GridSweepAllocs(4096, 10, true), small);
}

/// Allocations of one SuggestNext over a `grid`-point sweep, after five
/// observations.
long SuggestAllocs(int grid) {
  tune::BoOptions opts;
  opts.acquisition_grid = grid;
  tune::BayesianOptimizer bo(1.0, 100.0, opts);
  for (int i = 0; i < 5; ++i) {
    const double x = bo.SuggestNext();
    bo.Observe(x, 100.0 - (x - 30.0) * (x - 30.0) / 50.0);
  }
  (void)bo.SuggestNext();  // refits the GP for the observations so far
  const long before = perflab::ThreadAllocs();
  (void)bo.SuggestNext();
  return perflab::ThreadAllocs() - before;
}

TEST(SimAllocTest, SuggestionAllocationsDoNotGrowWithGrid) {
  EXPECT_EQ(SuggestAllocs(16), SuggestAllocs(1024));
}

}  // namespace
}  // namespace dear
