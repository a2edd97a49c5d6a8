// EvaluatePolicy metrics: steady-state iteration time, breakdown identity,
// throughput/speedup arithmetic, equality with the full-horizon
// simulation, and the Eq. 6-9 helpers.
#include "sched/runner.h"

#include <gtest/gtest.h>

#include "fusion/plan.h"
#include "model/zoo.h"
#include "sim/engine.h"

namespace dear::sched {
namespace {

ClusterSpec Cluster(int p, comm::NetworkModel net) {
  ClusterSpec c;
  c.world_size = p;
  c.network = net;
  return c;
}

PolicyConfig Config(PolicyKind kind, const model::ModelSpec& m) {
  PolicyConfig cfg;
  cfg.kind = kind;
  cfg.plan = fusion::PerTensor(m);
  return cfg;
}

TEST(RunnerTest, SequentialIterationTimeIsExact) {
  const auto m = model::UniformTestModel(3, 1000);
  const auto cluster = Cluster(4, comm::NetworkModel::TenGbE());
  PolicyConfig cfg;
  cfg.kind = PolicyKind::kSequential;
  cfg.plan = fusion::SingleGroup(m);
  const RunResult r = EvaluatePolicy(m, cluster, cfg);
  const SimTime want = m.total_ff_time() + m.total_bp_time() +
                       cluster.cost_model().RingAllReduce(m.total_bytes());
  EXPECT_EQ(r.iter_time, want);
}

TEST(RunnerTest, BreakdownSumsToIterationTime) {
  const auto m = model::UniformTestModel(6, 200000);
  const auto cluster = Cluster(8, comm::NetworkModel::TenGbE());
  for (auto kind : {PolicyKind::kWFBP, PolicyKind::kDeAR,
                    PolicyKind::kByteScheduler}) {
    const RunResult r = EvaluatePolicy(m, cluster, Config(kind, m));
    EXPECT_EQ(r.breakdown.ff + r.breakdown.bp + r.breakdown.comm_exposed,
              r.iter_time)
        << PolicyName(kind);
    EXPECT_GE(r.breakdown.comm_exposed, 0) << PolicyName(kind);
  }
}

TEST(RunnerTest, ThroughputMatchesIterationTime) {
  const auto m = model::UniformTestModel(4, 1000);
  const auto cluster = Cluster(4, comm::NetworkModel::HundredGbIB());
  const RunResult r = EvaluatePolicy(m, cluster, Config(PolicyKind::kWFBP, m));
  EXPECT_NEAR(r.throughput_samples_per_s,
              4.0 * m.batch_size() / ToSeconds(r.iter_time), 1e-6);
}

TEST(RunnerTest, SpeedupBoundedByWorldSize) {
  const auto m = model::UniformTestModel(4, 100000);
  for (int p : {2, 4, 8}) {
    const auto cluster = Cluster(p, comm::NetworkModel::TenGbE());
    const RunResult r =
        EvaluatePolicy(m, cluster, Config(PolicyKind::kDeAR, m));
    EXPECT_LE(r.speedup_vs_single_gpu, p + 1e-9);
    EXPECT_GT(r.speedup_vs_single_gpu, 0.0);
  }
}

TEST(RunnerTest, SteadyStateIndependentOfIterationCount) {
  const auto m = model::UniformTestModel(5, 50000);
  const auto cluster = Cluster(8, comm::NetworkModel::TenGbE());
  RunOptions a{6, 2}, b{10, 4};
  const auto ra = EvaluatePolicy(m, cluster, Config(PolicyKind::kDeAR, m), a);
  const auto rb = EvaluatePolicy(m, cluster, Config(PolicyKind::kDeAR, m), b);
  EXPECT_EQ(ra.iter_time, rb.iter_time);
}

// EvaluatePolicy stops simulating once the schedule repeats. Over every
// RunOptions with 5-12 iterations and each legal warmup, on four zoo models
// and every policy, its result must equal, field by field, the one computed
// from the fallback's full-horizon iteration ends, and the early path's
// ends must be the full horizon's.
TEST(RunnerTest, EvaluatePolicyEqualsTheFullHorizon) {
  const PolicyKind kinds[] = {
      PolicyKind::kSequential, PolicyKind::kWFBP, PolicyKind::kByteScheduler,
      PolicyKind::kHorovod,    PolicyKind::kDDP,  PolicyKind::kMGWFBP,
      PolicyKind::kZeRO,       PolicyKind::kDeAR};
  int early = 0, runs = 0;
  for (const char* name : {"resnet50", "vgg16", "bert_base", "inception_v4"}) {
    const auto m = model::ByName(name);
    const bool ib = m.name() == "vgg16" || m.name() == "bert_base";
    const auto cluster =
        Cluster(ib ? 64 : 16, ib ? comm::NetworkModel::HundredGbIB()
                                 : comm::NetworkModel::TenGbE());
    for (const PolicyKind kind : kinds) {
      PolicyConfig cfg = Config(kind, m);
      if (kind != PolicyKind::kSequential && kind != PolicyKind::kWFBP &&
          kind != PolicyKind::kByteScheduler)
        cfg.plan = fusion::ByBufferBytes(m, 25u << 20);
      for (int iterations = 5; iterations <= 12; ++iterations) {
        SCOPED_TRACE(m.name() + " " + PolicyName(kind) + " x" +
                     std::to_string(iterations));
        const BuiltGraph built = BuildTaskGraph(m, cluster, cfg, iterations);
        const auto full = sim::SimulateRepetitionEndsFullHorizon(
            built.graph, built.stream_policies);
        const auto ends =
            sim::SimulateRepetitionEnds(built.graph, built.stream_policies);
        ASSERT_TRUE(full.ok() && ends.ok());
        ASSERT_EQ(full->size(), static_cast<std::size_t>(iterations));
        ASSERT_EQ(ends->size(), static_cast<std::size_t>(iterations));
        for (int i = 0; i < iterations; ++i)
          EXPECT_EQ((*ends)[i], (*full)[i]) << "iteration " << i;
        early += ends->skipped > 0;
        ++runs;
        for (int warmup = 0; warmup + 1 < iterations; ++warmup) {
          const auto want = SteadyState(
              m, cluster, (*full)[iterations - 1] - (*full)[warmup],
              iterations - 1 - warmup);
          const auto got =
              EvaluatePolicy(m, cluster, cfg, RunOptions{iterations, warmup});
          EXPECT_EQ(got.iter_time, want.iter_time) << "warmup " << warmup;
          EXPECT_EQ(got.throughput_samples_per_s,
                    want.throughput_samples_per_s)
              << "warmup " << warmup;
          EXPECT_EQ(got.speedup_vs_single_gpu, want.speedup_vs_single_gpu)
              << "warmup " << warmup;
          EXPECT_EQ(got.breakdown.ff, want.breakdown.ff);
          EXPECT_EQ(got.breakdown.bp, want.breakdown.bp);
          EXPECT_EQ(got.breakdown.comm_exposed, want.breakdown.comm_exposed)
              << "warmup " << warmup;
        }
      }
    }
  }
  // Every run here has a boundary to skip; a silent fallback everywhere
  // would still pass the equalities above.
  EXPECT_EQ(early, runs);
}

TEST(RunnerTest, MaxSpeedupReproducesTableTwo10GbE) {
  // Table II, 10GbE row: S^max = 61.6, 64, 59.8, 25.5, 12.1. We use the
  // exact ring bandwidth bound (the paper's 2m/B is its large-P limit), so
  // allow ~3% slack; DenseNet caps at P = 64 exactly.
  const auto cluster = Cluster(64, comm::NetworkModel::TenGbE());
  const double want[5] = {61.6, 64.0, 59.8, 25.5, 12.1};
  const auto models = model::PaperModels();
  for (int i = 0; i < 5; ++i) {
    const double got = MaxSpeedup(models[static_cast<std::size_t>(i)], cluster);
    EXPECT_NEAR(got, want[i], want[i] * 0.03)
        << models[static_cast<std::size_t>(i)].name();
  }
}

TEST(RunnerTest, MaxSpeedupReproducesTableTwo100GbIB) {
  // Table II, 100GbIB row: 64, 64, 64, 64, 51.8.
  const auto cluster = Cluster(64, comm::NetworkModel::HundredGbIB());
  const double want[5] = {64.0, 64.0, 64.0, 64.0, 51.8};
  const auto models = model::PaperModels();
  for (int i = 0; i < 5; ++i) {
    const double got = MaxSpeedup(models[static_cast<std::size_t>(i)], cluster);
    EXPECT_NEAR(got, want[i], want[i] * 0.04)
        << models[static_cast<std::size_t>(i)].name();
  }
}

TEST(RunnerTest, OptimalIterTimesEq7Eq8) {
  // Eq. 7/8 with t_ar = 2 t_rs = 2 t_ag and t_bp = 2 t_ff.
  const SimTime ff = Milliseconds(10), bp = Milliseconds(20);
  // Case t_ag <= t_ff: both optimal times equal ff+bp.
  EXPECT_EQ(OptimalDeARIterTime(ff, bp, Milliseconds(8), Milliseconds(8)),
            ff + bp);
  EXPECT_EQ(OptimalBaselineIterTime(ff, bp, Milliseconds(16)), ff + bp);
  // Case t_ff < t_ag <= 2 t_ff: gap = t_ag - t_ff (Eq. 9 middle branch).
  {
    const SimTime ag = Milliseconds(15);
    const SimTime gap = OptimalBaselineIterTime(ff, bp, 2 * ag) -
                        OptimalDeARIterTime(ff, bp, ag, ag);
    EXPECT_EQ(gap, ag - ff);
  }
  // Case t_ag > 2 t_ff: gap = t_ff (Eq. 9 last branch).
  {
    const SimTime ag = Milliseconds(50);
    const SimTime gap = OptimalBaselineIterTime(ff, bp, 2 * ag) -
                        OptimalDeARIterTime(ff, bp, ag, ag);
    EXPECT_EQ(gap, ff);
  }
}

TEST(RunnerTest, DeARApproachesEq7OnUniformModel) {
  // With per-tensor pipelining and plentiful groups, DeAR's simulated
  // steady-state iteration should be within a few percent of Eq. 7.
  const auto m = model::UniformTestModel(32, 400000, /*ff_us=*/2000.0);
  const auto cluster = Cluster(16, comm::NetworkModel::TenGbE());
  const auto cost = cluster.cost_model();
  const RunResult r = EvaluatePolicy(m, cluster, Config(PolicyKind::kDeAR, m));
  // Per-group costs sum to RS/AG of the whole model plus per-group startup.
  SimTime rs = 0, ag = 0;
  for (const auto& t : m.tensors()) {
    rs += cost.ReduceScatter(t.bytes());
    ag += cost.AllGather(t.bytes());
  }
  const SimTime optimal =
      OptimalDeARIterTime(m.total_ff_time(), m.total_bp_time(), rs, ag);
  EXPECT_GE(r.iter_time, optimal - Microseconds(1));
  EXPECT_LE(static_cast<double>(r.iter_time),
            1.10 * static_cast<double>(optimal));
}

}  // namespace
}  // namespace dear::sched
