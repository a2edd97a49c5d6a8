// Multi-worker simulation: equivalence with the symmetric single-timeline
// model at zero jitter, sane straggler behavior under noise, and the
// engine timing its 2W-stream graphs exactly as the reference engine does.
#include "sched/multiworker.h"

#include <gtest/gtest.h>

#include "model/zoo.h"
#include "sim/engine.h"
#include "sim_reference.h"
#include "sim_unroll.h"

namespace dear::sched {
namespace {

ClusterSpec Cluster(int workers) {
  ClusterSpec c;
  c.world_size = workers;
  c.network = comm::NetworkModel::TenGbE();
  return c;
}

PolicyConfig Config(PolicyKind kind, const model::ModelSpec& m,
                    std::size_t buffer = 64 * 1024) {
  PolicyConfig cfg;
  cfg.kind = kind;
  cfg.plan = fusion::ByBufferBytes(m, buffer);
  return cfg;
}

class ZeroJitterEquivalence : public ::testing::TestWithParam<PolicyKind> {};

TEST_P(ZeroJitterEquivalence, MatchesSymmetricModel) {
  // With identical workers, the explicit multi-worker simulation must give
  // exactly the single-timeline result — strong cross-validation of both.
  const auto m = model::UniformTestModel(10, 100000);
  const auto cluster = Cluster(4);
  const auto cfg = Config(GetParam(), m);
  const auto symmetric = EvaluatePolicy(m, cluster, cfg);
  const auto multi = EvaluateMultiWorker(m, cluster, cfg);
  EXPECT_EQ(multi.iter_time, symmetric.iter_time);
}

INSTANTIATE_TEST_SUITE_P(Policies, ZeroJitterEquivalence,
                         ::testing::Values(PolicyKind::kSequential,
                                           PolicyKind::kDDP,
                                           PolicyKind::kHorovod,
                                           PolicyKind::kDeAR),
                         [](const auto& info) {
                           std::string name = PolicyName(info.param);
                           for (char& c : name)
                             if (c == '-') c = '_';
                           return name;
                         });

TEST(MultiWorkerTest, WfbpZeroJitterMatches) {
  const auto m = model::UniformTestModel(8, 50000);
  const auto cluster = Cluster(3);
  PolicyConfig cfg;
  cfg.kind = PolicyKind::kWFBP;
  cfg.plan = fusion::PerTensor(m);
  EXPECT_EQ(EvaluateMultiWorker(m, cluster, cfg).iter_time,
            EvaluatePolicy(m, cluster, cfg).iter_time);
}

TEST(MultiWorkerTest, JitterSlowsTraining) {
  const auto m = model::UniformTestModel(10, 100000);
  const auto cluster = Cluster(8);
  const auto cfg = Config(PolicyKind::kDDP, m);
  const auto clean = EvaluateMultiWorker(m, cluster, cfg);
  MultiWorkerOptions noisy;
  noisy.jitter_sigma = 0.3;
  const auto jittered = EvaluateMultiWorker(m, cluster, cfg, noisy);
  // Synchronization waits on the slowest worker: expected iteration time
  // strictly grows under multiplicative noise.
  EXPECT_GT(jittered.iter_time, clean.iter_time);
}

TEST(MultiWorkerTest, MoreJitterMoreSlowdown) {
  const auto m = model::UniformTestModel(10, 100000);
  const auto cluster = Cluster(8);
  const auto cfg = Config(PolicyKind::kDeAR, m);
  SimTime prev = EvaluateMultiWorker(m, cluster, cfg).iter_time;
  for (double sigma : {0.1, 0.3, 0.6}) {
    MultiWorkerOptions opts;
    opts.jitter_sigma = sigma;
    opts.iterations = 10;
    const SimTime t = EvaluateMultiWorker(m, cluster, cfg, opts).iter_time;
    EXPECT_GT(t, prev) << "sigma=" << sigma;
    prev = t;
  }
}

TEST(MultiWorkerTest, DeARStillBeatsBaselineUnderJitter) {
  const auto m = model::UniformTestModel(12, 500000);
  const auto cluster = Cluster(8);
  MultiWorkerOptions opts;
  opts.jitter_sigma = 0.2;
  opts.iterations = 10;
  const auto dear =
      EvaluateMultiWorker(m, cluster, Config(PolicyKind::kDeAR, m), opts);
  const auto ddp =
      EvaluateMultiWorker(m, cluster, Config(PolicyKind::kDDP, m), opts);
  EXPECT_LT(dear.iter_time, ddp.iter_time);
}

TEST(MultiWorkerTest, DeterministicPerSeed) {
  const auto m = model::UniformTestModel(6, 100000);
  const auto cluster = Cluster(4);
  const auto cfg = Config(PolicyKind::kDeAR, m);
  MultiWorkerOptions opts;
  opts.jitter_sigma = 0.4;
  const auto a = EvaluateMultiWorker(m, cluster, cfg, opts);
  const auto b = EvaluateMultiWorker(m, cluster, cfg, opts);
  EXPECT_EQ(a.iter_time, b.iter_time);
  opts.seed = 2;
  const auto c = EvaluateMultiWorker(m, cluster, cfg, opts);
  EXPECT_NE(c.iter_time, a.iter_time);
}

TEST(MultiWorkerTest, World16GraphsMatchTheReferenceEngine) {
  // 32 FIFO streams (a compute and a communication stream per worker) and
  // no repetition: every task timed exactly as sim_reference.h times it,
  // with and without straggler jitter.
  const auto cluster = Cluster(16);
  for (const auto& m :
       {model::ByName("resnet50"), model::UniformTestModel(12, 200000)}) {
    for (const auto kind : {PolicyKind::kWFBP, PolicyKind::kDDP,
                            PolicyKind::kMGWFBP, PolicyKind::kDeAR}) {
      for (const double sigma : {0.0, 0.3}) {
        SCOPED_TRACE(m.name() + " " + PolicyName(kind) + " sigma " +
                     std::to_string(sigma));
        MultiWorkerOptions opts;
        opts.jitter_sigma = sigma;
        const auto g = BuildMultiWorkerGraph(m, cluster,
                                             Config(kind, m, 1 << 20), opts);
        ASSERT_EQ(g.repeats(), 1u);
        const auto got = sim::Simulate(g, {});
        const auto want = sim::ReferenceSimulate(g, {});
        ASSERT_TRUE(got.ok() && want.ok());
        sim::ExpectSameTimings(*got, *want);
      }
    }
  }
}

TEST(MultiWorkerDeathTest, ByteSchedulerRejected) {
  const auto m = model::UniformTestModel(4, 1000);
  PolicyConfig cfg;
  cfg.kind = PolicyKind::kByteScheduler;
  cfg.plan = fusion::PerTensor(m);
  EXPECT_DEATH(EvaluateMultiWorker(m, Cluster(2), cfg), "not supported");
}

}  // namespace
}  // namespace dear::sched
