// Task-graph construction per policy: structural invariants (dependency
// correctness, task counts) and hand-computable timelines on tiny models.
#include "sched/policies.h"

#include <gtest/gtest.h>

#include "model/zoo.h"
#include "sched/runner.h"
#include "sim/engine.h"
#include "sim_reference.h"
#include "sim_unroll.h"

namespace dear::sched {
namespace {

using sim::Simulate;
using sim::TaskKind;

ClusterSpec SmallCluster() {
  ClusterSpec c;
  c.world_size = 4;
  c.network = comm::NetworkModel::TenGbE();
  return c;
}

PolicyConfig Config(PolicyKind kind, const model::ModelSpec& m) {
  PolicyConfig cfg;
  cfg.kind = kind;
  cfg.plan = fusion::PerTensor(m);
  return cfg;
}

int CountKind(const sim::TaskGraph& g, TaskKind kind) {
  int n = 0;
  for (std::size_t i = 0; i < g.size(); ++i)
    if (g.task(static_cast<sim::TaskId>(i)).kind == kind) ++n;
  return n;
}

TEST(PoliciesTest, WfbpTaskCounts) {
  const auto m = model::UniformTestModel(5, 1000);
  const auto built =
      BuildTaskGraph(m, SmallCluster(), Config(PolicyKind::kWFBP, m), 3);
  EXPECT_EQ(built.iterations, 3);
  EXPECT_EQ(CountKind(built.graph, TaskKind::kForward), 15);
  EXPECT_EQ(CountKind(built.graph, TaskKind::kBackward), 15);
  EXPECT_EQ(CountKind(built.graph, TaskKind::kAllReduce), 15);
  EXPECT_EQ(CountKind(built.graph, TaskKind::kReduceScatter), 0);
}

TEST(PoliciesTest, DeARTaskCounts) {
  const auto m = model::UniformTestModel(5, 1000);
  const auto built =
      BuildTaskGraph(m, SmallCluster(), Config(PolicyKind::kDeAR, m), 2);
  EXPECT_EQ(CountKind(built.graph, TaskKind::kReduceScatter), 10);
  EXPECT_EQ(CountKind(built.graph, TaskKind::kAllGather), 10);
  EXPECT_EQ(CountKind(built.graph, TaskKind::kSync), 2);  // one per iter
  EXPECT_EQ(CountKind(built.graph, TaskKind::kAllReduce), 0);
}

TEST(PoliciesTest, ByteSchedulerPartitionsLargeTensors) {
  model::ModelSpec m("test", 1);
  m.AddLayer("big", {3u << 20});  // 12 MiB -> 3 chunks at 4 MiB credit
  m.AddLayer("small", {100});
  m.AssignComputeTimes(Milliseconds(1.0));
  PolicyConfig cfg;
  cfg.kind = PolicyKind::kByteScheduler;
  cfg.partition_bytes = 4u << 20;
  const auto built = BuildTaskGraph(m, SmallCluster(), cfg, 1);
  EXPECT_EQ(CountKind(built.graph, TaskKind::kAllReduce), 4);  // 3 + 1
}

TEST(PoliciesTest, ByteSchedulerUsesPriorityStream) {
  const auto m = model::UniformTestModel(3, 100);
  PolicyConfig cfg;
  cfg.kind = PolicyKind::kByteScheduler;
  const auto built = BuildTaskGraph(m, SmallCluster(), cfg, 1);
  ASSERT_GE(built.stream_policies.size(), 2u);
  EXPECT_EQ(built.stream_policies[kCommStream], sim::StreamPolicy::kPriority);
}

TEST(PoliciesTest, FifoPoliciesUseFifoStream) {
  const auto m = model::UniformTestModel(3, 100);
  for (auto kind : {PolicyKind::kWFBP, PolicyKind::kDeAR, PolicyKind::kDDP}) {
    const auto built = BuildTaskGraph(m, SmallCluster(), Config(kind, m), 1);
    EXPECT_EQ(built.stream_policies[kCommStream],
              sim::StreamPolicy::kFifoByReady);
  }
}

// Structural invariant, checked by simulating and inspecting timings:
// no communication task of a tensor starts before the BP of its layer ends,
// and no FF of iteration i+1's layer l starts before the communication that
// gates it ends.
void ExpectDependencyCorrectness(const model::ModelSpec& m,
                                 PolicyKind kind) {
  auto cfg = Config(kind, m);
  const auto built = BuildTaskGraph(m, SmallCluster(), cfg, 4);
  auto sim = Simulate(built.graph, built.stream_policies);
  ASSERT_TRUE(sim.ok());
  for (std::size_t i = 0; i < built.graph.size(); ++i) {
    ASSERT_TRUE(sim->timings[i].executed);
    built.graph.ForEachDep(static_cast<sim::TaskId>(i), [&](sim::TaskId dep) {
      EXPECT_GE(sim->timings[i].start,
                sim->timings[static_cast<std::size_t>(dep)].end)
          << PolicyName(kind);
    });
  }
}

class DependencySweep : public ::testing::TestWithParam<PolicyKind> {};

TEST_P(DependencySweep, AllTasksRespectDependencies) {
  ExpectDependencyCorrectness(model::UniformTestModel(6, 50000), GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Policies, DependencySweep,
    ::testing::Values(PolicyKind::kSequential, PolicyKind::kWFBP,
                      PolicyKind::kDDP, PolicyKind::kHorovod,
                      PolicyKind::kMGWFBP, PolicyKind::kByteScheduler,
                      PolicyKind::kDeAR, PolicyKind::kZeRO,
                      PolicyKind::kZeRO1),
    [](const auto& info) {
      std::string name = PolicyName(info.param);
      for (char& c : name)
        if (c == '-') c = '_';
      return name;
    });

TEST(PoliciesTest, SequentialTimelineIsExact) {
  // 2 layers, ff=100us bp=200us each; one tensor per layer; sequential:
  // iter = ff + bp + sum(allreduce). Second iteration identical.
  const auto m = model::UniformTestModel(2, 1000);
  ClusterSpec cluster = SmallCluster();
  auto cfg = Config(PolicyKind::kSequential, m);
  const auto built = BuildTaskGraph(m, cluster, cfg, 2);
  auto sim = Simulate(built.graph, built.stream_policies);
  ASSERT_TRUE(sim.ok());
  const auto cost = cluster.cost_model();
  const SimTime ar = cost.RingAllReduce(4000);
  const SimTime iter = Microseconds(600.0) + 2 * ar;
  EXPECT_EQ(sim->makespan, 2 * iter);
}

TEST(PoliciesTest, WfbpOverlapsCommWithBackprop) {
  // WFBP hides the last layer's all-reduce under the remaining BP; the
  // sequential schedule cannot. Use compute-heavy layers so there is room.
  const auto m = model::UniformTestModel(8, 1000, /*ff_us=*/5000.0);
  ClusterSpec cluster = SmallCluster();
  const auto seq = BuildTaskGraph(m, cluster,
                                  Config(PolicyKind::kSequential, m), 2);
  const auto wfbp =
      BuildTaskGraph(m, cluster, Config(PolicyKind::kWFBP, m), 2);
  auto seq_sim = Simulate(seq.graph, seq.stream_policies);
  auto wfbp_sim = Simulate(wfbp.graph, wfbp.stream_policies);
  ASSERT_TRUE(seq_sim.ok() && wfbp_sim.ok());
  EXPECT_LT(wfbp_sim->makespan, seq_sim->makespan);
}

TEST(PoliciesTest, DeAROverlapsAllGatherWithForward) {
  // DeAR's makespan must beat WFBP's when communication dominates: the AG
  // half overlaps the next forward. 16 MB per layer keeps per-iteration
  // communication well above backward+forward compute, far from the
  // crossover where the two policies tie (near the crossover the winner is
  // decided by sub-α drain effects, not by the overlap property).
  const auto m = model::UniformTestModel(8, 4000000, /*ff_us=*/3000.0);
  ClusterSpec cluster = SmallCluster();
  const auto wfbp =
      BuildTaskGraph(m, cluster, Config(PolicyKind::kWFBP, m), 4);
  const auto dear =
      BuildTaskGraph(m, cluster, Config(PolicyKind::kDeAR, m), 4);
  auto wfbp_sim = Simulate(wfbp.graph, wfbp.stream_policies);
  auto dear_sim = Simulate(dear.graph, dear.stream_policies);
  ASSERT_TRUE(wfbp_sim.ok() && dear_sim.ok());
  EXPECT_LT(dear_sim->makespan, wfbp_sim->makespan);
}

TEST(PoliciesTest, HorovodNegotiationCostsShowUp) {
  const auto m = model::UniformTestModel(6, 1000);
  ClusterSpec cluster = SmallCluster();
  auto with = Config(PolicyKind::kHorovod, m);
  auto without = Config(PolicyKind::kHorovod, m);
  without.charge_negotiation = false;
  auto sim_with = Simulate(BuildTaskGraph(m, cluster, with, 2).graph,
                           {sim::StreamPolicy::kFifoByReady,
                            sim::StreamPolicy::kFifoByReady});
  auto sim_without = Simulate(BuildTaskGraph(m, cluster, without, 2).graph,
                              {sim::StreamPolicy::kFifoByReady,
                               sim::StreamPolicy::kFifoByReady});
  ASSERT_TRUE(sim_with.ok() && sim_without.ok());
  EXPECT_GT(sim_with->makespan, sim_without->makespan);
}

TEST(PoliciesTest, DeARBreakdownVariantsDropOnePhase) {
  const auto m = model::UniformTestModel(4, 100000);
  ClusterSpec cluster = SmallCluster();
  auto full = Config(PolicyKind::kDeAR, m);
  auto rs_only = full;
  rs_only.include_all_gather = false;
  auto ag_only = full;
  ag_only.include_reduce_scatter = false;
  auto sim_full = Simulate(BuildTaskGraph(m, cluster, full, 3).graph,
                           {sim::StreamPolicy::kFifoByReady,
                            sim::StreamPolicy::kFifoByReady});
  auto sim_rs = Simulate(BuildTaskGraph(m, cluster, rs_only, 3).graph,
                         {sim::StreamPolicy::kFifoByReady,
                          sim::StreamPolicy::kFifoByReady});
  auto sim_ag = Simulate(BuildTaskGraph(m, cluster, ag_only, 3).graph,
                         {sim::StreamPolicy::kFifoByReady,
                          sim::StreamPolicy::kFifoByReady});
  ASSERT_TRUE(sim_full.ok() && sim_rs.ok() && sim_ag.ok());
  EXPECT_LE(sim_rs->makespan, sim_full->makespan);
  EXPECT_LE(sim_ag->makespan, sim_full->makespan);
}

TEST(PoliciesTest, PolicyNamesAreHuman) {
  EXPECT_EQ(PolicyName(PolicyKind::kDeAR), "dear");
  EXPECT_EQ(PolicyName(PolicyKind::kByteScheduler), "bytescheduler");
  EXPECT_EQ(PolicyName(PolicyKind::kMGWFBP), "mg-wfbp");
}

TEST(PoliciesDeathTest, MissingPlanRejected) {
  const auto m = model::UniformTestModel(3, 100);
  PolicyConfig cfg;
  cfg.kind = PolicyKind::kDeAR;  // plan left empty
  EXPECT_DEATH(BuildTaskGraph(m, SmallCluster(), cfg, 1), "fusion plan");
}

TEST(PoliciesTest, ZeROTaskCounts) {
  // Per group per iteration: one grad reduce-scatter + two param
  // all-gathers (forward + backward re-gather), paper §VII-B.
  const auto m = model::UniformTestModel(6, 1000);
  const auto built =
      BuildTaskGraph(m, SmallCluster(), Config(PolicyKind::kZeRO, m), 2);
  EXPECT_EQ(CountKind(built.graph, TaskKind::kReduceScatter), 12);
  EXPECT_EQ(CountKind(built.graph, TaskKind::kAllGather), 24);
}

TEST(PoliciesTest, ZeROCommunicatesMoreThanDeAR) {
  const auto m = model::UniformTestModel(8, 1000000);
  ClusterSpec cluster = SmallCluster();
  auto dear_sim = Simulate(
      BuildTaskGraph(m, cluster, Config(PolicyKind::kDeAR, m), 4).graph, {});
  auto zero_sim = Simulate(
      BuildTaskGraph(m, cluster, Config(PolicyKind::kZeRO, m), 4).graph, {});
  ASSERT_TRUE(dear_sim.ok() && zero_sim.ok());
  EXPECT_GT(zero_sim->makespan, dear_sim->makespan);
}

// ZeRO-1 runs DeAR's rows; only its all-gather differs, carrying fp32
// parameters that compression does not shrink.
TEST(PoliciesTest, ZeRO1PricesDeARsRowsWithAnUncompressedGather) {
  const auto m = model::ByName("resnet50");
  ClusterSpec cluster;
  cluster.world_size = 16;
  const auto iter = [&](PolicyKind kind, double ratio) {
    auto cfg = DefaultConfig(kind, m, cluster, 25u << 20);
    cfg.compression_ratio = ratio;
    return EvaluatePolicy(m, cluster, cfg).iter_time;
  };
  EXPECT_EQ(iter(PolicyKind::kZeRO1, 1.0), iter(PolicyKind::kDeAR, 1.0));
  EXPECT_GE(iter(PolicyKind::kZeRO1, 0.5), iter(PolicyKind::kDeAR, 0.5));
  EXPECT_GT(iter(PolicyKind::kZeRO1, 0.5), iter(PolicyKind::kZeRO1, 1.0) / 2);
}

TEST(PoliciesTest, Op1BarrierAblation) {
  // The paper's OP1 synchronization (§III-B) is not just for dependency
  // bookkeeping: on the shared FIFO communication stream it also prevents
  // the all-gathers of LATE layers (whose reduce-scatters finish first,
  // since BP runs last-to-first) from jumping ahead of the still-pending
  // reduce-scatters of EARLY layers — which would delay exactly the
  // all-gather the next forward pass needs first. Dropping the barrier
  // must therefore never help on this workload, and costs a few percent.
  const auto m = model::UniformTestModel(12, 300000);
  ClusterSpec cluster = SmallCluster();
  auto with = Config(PolicyKind::kDeAR, m);
  auto without = with;
  without.dear_op1_barrier = false;
  auto sim_with = Simulate(BuildTaskGraph(m, cluster, with, 4).graph, {});
  auto sim_without =
      Simulate(BuildTaskGraph(m, cluster, without, 4).graph, {});
  ASSERT_TRUE(sim_with.ok() && sim_without.ok());
  EXPECT_LE(sim_with->makespan, sim_without->makespan);
  // ... but the re-ordering damage is bounded on this uniform workload.
  EXPECT_LE(static_cast<double>(sim_without->makespan),
            1.10 * static_cast<double>(sim_with->makespan));
}

TEST(PoliciesTest, CompressionShrinksCommTime) {
  const auto m = model::UniformTestModel(6, 500000);
  ClusterSpec cluster = SmallCluster();
  auto plain = Config(PolicyKind::kDeAR, m);
  auto fp16 = plain;
  fp16.compression_ratio = 0.5;
  auto topk = plain;
  topk.compression_ratio = 0.01;
  topk.compression_overhead_s = 100e-6;
  auto sim_plain = Simulate(BuildTaskGraph(m, cluster, plain, 3).graph, {});
  auto sim_fp16 = Simulate(BuildTaskGraph(m, cluster, fp16, 3).graph, {});
  auto sim_topk = Simulate(BuildTaskGraph(m, cluster, topk, 3).graph, {});
  ASSERT_TRUE(sim_plain.ok() && sim_fp16.ok() && sim_topk.ok());
  EXPECT_LT(sim_fp16->makespan, sim_plain->makespan);
  EXPECT_LT(sim_topk->makespan, sim_fp16->makespan);
}

TEST(PoliciesTest, DeARAlternateAlgorithmsBuildAndRespectDeps) {
  const auto m = model::UniformTestModel(6, 50000);
  ClusterSpec cluster = SmallCluster();
  for (auto alg : {comm::Algorithm::kRing, comm::Algorithm::kDoubleBinaryTree,
                   comm::Algorithm::kHierarchical,
                   comm::Algorithm::kRecursiveHalvingDoubling}) {
    auto cfg = Config(PolicyKind::kDeAR, m);
    cfg.dear_algorithm = alg;
    const auto built = BuildTaskGraph(m, cluster, cfg, 3);
    auto sim = Simulate(built.graph, built.stream_policies);
    ASSERT_TRUE(sim.ok()) << comm::AlgorithmName(alg);
    for (std::size_t i = 0; i < built.graph.size(); ++i) {
      built.graph.ForEachDep(static_cast<sim::TaskId>(i), [&](sim::TaskId dep) {
        ASSERT_GE(sim->timings[i].start,
                  sim->timings[static_cast<std::size_t>(dep)].end);
      });
    }
  }
}

TEST(PoliciesTest, TreeDecouplingWinsAtSmallMessages) {
  // Latency-bound regime: log(P) startup beats the ring's linear startup,
  // so DeAR-over-double-binary-tree should finish sooner than DeAR-ring.
  const auto m = model::UniformTestModel(16, 64);  // 256-byte tensors
  ClusterSpec cluster;
  cluster.world_size = 64;
  auto ring = Config(PolicyKind::kDeAR, m);
  auto tree = Config(PolicyKind::kDeAR, m);
  tree.dear_algorithm = comm::Algorithm::kDoubleBinaryTree;
  auto sim_ring = Simulate(BuildTaskGraph(m, cluster, ring, 3).graph, {});
  auto sim_tree = Simulate(BuildTaskGraph(m, cluster, tree, 3).graph, {});
  ASSERT_TRUE(sim_ring.ok() && sim_tree.ok());
  EXPECT_LT(sim_tree->makespan, sim_ring->makespan);
}

TEST(PoliciesTest, HostCopyCostChargesFusedGroupsOnly) {
  const auto m = model::UniformTestModel(8, 250000);  // 1 MB per tensor
  ClusterSpec cluster = SmallCluster();
  // Fused: pays pack/unpack. Per-tensor: communicates in place, free.
  auto fused = Config(PolicyKind::kDDP, m);
  fused.plan = fusion::SingleGroup(m);
  auto fused_copy = fused;
  fused_copy.host_copy_gbps = 10.0;
  auto sim_plain = Simulate(BuildTaskGraph(m, cluster, fused, 2).graph, {});
  auto sim_copy =
      Simulate(BuildTaskGraph(m, cluster, fused_copy, 2).graph, {});
  ASSERT_TRUE(sim_plain.ok() && sim_copy.ok());
  // 8 MB group, 2 copies, 10 GB/s -> 1.6 ms per iteration, on the comm
  // stream in a comm-bound config, so the makespan grows by exactly that.
  EXPECT_EQ(sim_copy->makespan - sim_plain->makespan,
            2 * 2 * Seconds(8.0 * 250000 * 4 / 10e9));

  auto per_tensor = Config(PolicyKind::kWFBP, m);
  per_tensor.host_copy_gbps = 10.0;
  auto base = Config(PolicyKind::kWFBP, m);
  auto sim_pt = Simulate(BuildTaskGraph(m, cluster, per_tensor, 2).graph, {});
  auto sim_base = Simulate(BuildTaskGraph(m, cluster, base, 2).graph, {});
  ASSERT_TRUE(sim_pt.ok() && sim_base.ok());
  EXPECT_EQ(sim_pt->makespan, sim_base->makespan);
}

TEST(PoliciesTest, SingleWorkerCommIsFree) {
  const auto m = model::UniformTestModel(4, 100000);
  ClusterSpec cluster;
  cluster.world_size = 1;
  const auto built =
      BuildTaskGraph(m, cluster, Config(PolicyKind::kDeAR, m), 2);
  auto sim = Simulate(built.graph, built.stream_policies);
  ASSERT_TRUE(sim.ok());
  EXPECT_EQ(sim->makespan, 2 * (m.total_ff_time() + m.total_bp_time()));
}

// A built graph stores one iteration and repeats it. Simulating it must
// time every task exactly as its unrolled copy (repeats = 1) does, and as
// the reference engine (sim_reference.h) does; task(id) must report
// iteration id / period.
void ExpectPeriodicMatchesUnrolled(const model::ModelSpec& m,
                                   const ClusterSpec& cluster,
                                   const PolicyConfig& cfg, int iterations) {
  const auto built = BuildTaskGraph(m, cluster, cfg, iterations);
  const auto& g = built.graph;
  ASSERT_EQ(g.repeats(), static_cast<std::size_t>(iterations));
  ASSERT_EQ(g.size(), g.period() * g.repeats());
  for (std::size_t i = 0; i < g.size(); ++i)
    ASSERT_EQ(g.task(static_cast<sim::TaskId>(i)).iteration,
              static_cast<int>(i / g.period()));
  const auto periodic = Simulate(g, built.stream_policies);
  const auto flat = Simulate(sim::Unroll(g), built.stream_policies);
  const auto reference = sim::ReferenceSimulate(g, built.stream_policies);
  ASSERT_TRUE(periodic.ok() && flat.ok() && reference.ok());
  sim::ExpectSameTimings(*periodic, *flat);
  sim::ExpectSameTimings(*periodic, *reference);
}

/// The plan `dearsim compare` gives each policy.
std::vector<model::ModelSpec> ZooModels() {
  auto models = model::PaperModels();
  for (auto& m : model::ExtensionModels()) models.push_back(std::move(m));
  return models;
}

class PeriodicEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(PeriodicEquivalence, EveryPolicyMatchesItsUnrolledGraph) {
  const auto m = ZooModels()[static_cast<std::size_t>(GetParam())];
  for (const int world : {16, 64}) {
    for (const auto& net : {comm::NetworkModel::TenGbE(),
                            comm::NetworkModel::HundredGbIB()}) {
      ClusterSpec cluster;
      cluster.world_size = world;
      cluster.network = net;
      for (const auto kind :
           {PolicyKind::kSequential, PolicyKind::kWFBP, PolicyKind::kDDP,
            PolicyKind::kHorovod, PolicyKind::kMGWFBP,
            PolicyKind::kByteScheduler, PolicyKind::kDeAR,
            PolicyKind::kZeRO, PolicyKind::kZeRO1}) {
        for (const int iterations : {1, 2, 3, 8}) {
          SCOPED_TRACE(m.name() + " x" + std::to_string(world) + " " +
                       net.name + " " + PolicyName(kind) + " iterations " +
                       std::to_string(iterations));
          ExpectPeriodicMatchesUnrolled(
              m, cluster, DefaultConfig(kind, m, cluster, 25u << 20),
              iterations);
        }
      }
    }
  }
}

TEST_P(PeriodicEquivalence, AblationsMatchTheirUnrolledGraphs) {
  const auto m = ZooModels()[static_cast<std::size_t>(GetParam())];
  ClusterSpec cluster;
  cluster.world_size = 16;
  std::vector<std::pair<std::string, PolicyConfig>> variants;
  const auto dear = DefaultConfig(PolicyKind::kDeAR, m, cluster, 25u << 20);
  auto v = dear;
  v.dear_op1_barrier = false;
  variants.emplace_back("no OP1 barrier", v);
  v = dear;
  v.include_reduce_scatter = false;
  variants.emplace_back("RS excluded", v);
  v = dear;
  v.include_all_gather = false;
  variants.emplace_back("AG excluded", v);
  for (const auto alg :
       {comm::Algorithm::kHierarchical,
        comm::Algorithm::kRecursiveHalvingDoubling,
        comm::Algorithm::kDoubleBinaryTree}) {
    v = dear;
    v.dear_algorithm = alg;
    variants.emplace_back(comm::AlgorithmName(alg), v);
  }
  for (const std::size_t bytes : {std::size_t{0}, std::size_t{1} << 20}) {
    v = DefaultConfig(PolicyKind::kByteScheduler, m, cluster, 25u << 20);
    v.partition_bytes = bytes;
    variants.emplace_back("partition " + std::to_string(bytes), v);
  }
  for (const auto& [name, cfg] : variants) {
    for (const int iterations : {1, 2, 3, 8}) {
      SCOPED_TRACE(m.name() + " " + name + " iterations " +
                   std::to_string(iterations));
      ExpectPeriodicMatchesUnrolled(m, cluster, cfg, iterations);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Zoo, PeriodicEquivalence,
                         ::testing::Range(0, static_cast<int>(
                                                 ZooModels().size())),
                         [](const auto& info) {
                           return ZooModels()[static_cast<std::size_t>(
                                                  info.param)]
                               .name();
                         });

}  // namespace
}  // namespace dear::sched
