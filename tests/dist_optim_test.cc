// End-to-end correctness of the real DeAR runtime: distributed training
// over the threaded cluster must follow the same parameter trajectory as
// single-process S-SGD, for every schedule mode, world size, and fusion
// granularity — and all ranks must stay bit-consistent with each other.
#include "core/dist_optim.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "analysis/timeline.h"
#include "comm/worker_group.h"
#include "core/trainer.h"
#include "flightrec/recorder.h"
#include "train/data.h"

namespace dear::core {
namespace {

using train::Dataset;
using train::MakeRegressionDataset;
using train::SgdOptions;

constexpr std::uint64_t kModelSeed = 21;
const std::vector<int> kDims{6, 16, 8, 2};

void ExpectTrajectoriesMatch(const ReferenceResult& ref,
                             const DistributedResult& dist, float tol) {
  ASSERT_EQ(ref.params.size(), dist.params.size());
  for (std::size_t t = 0; t < ref.params.size(); ++t) {
    ASSERT_EQ(ref.params[t].size(), dist.params[t].size());
    for (std::size_t i = 0; i < ref.params[t].size(); ++i) {
      ASSERT_NEAR(ref.params[t][i], dist.params[t][i], tol)
          << "tensor " << t << " elem " << i;
    }
  }
}

struct ModeCase {
  ScheduleMode mode;
  int world;
  std::size_t buffer_bytes;
  const char* label;
  comm::Algorithm algorithm{comm::Algorithm::kRing};
  int ranks_per_node{1};
  float momentum{0.9f};
};

class EquivalenceSweep : public ::testing::TestWithParam<ModeCase> {};

TEST_P(EquivalenceSweep, DistributedMatchesReference) {
  const ModeCase c = GetParam();
  const int per_worker_batch = 4;
  const int iterations = 8;
  const Dataset data =
      MakeRegressionDataset(c.world * per_worker_batch * 4, kDims.front(),
                            kDims.back(), 77);

  const SgdOptions sgd{.lr = 0.05f, .momentum = c.momentum};
  const auto ref = TrainReference(kDims, kModelSeed, data, iterations,
                                  c.world * per_worker_batch, sgd);

  DistOptimOptions options;
  options.mode = c.mode;
  options.buffer_bytes = c.buffer_bytes;
  options.algorithm = c.algorithm;
  options.ranks_per_node = c.ranks_per_node;
  options.sgd = sgd;
  const auto dist = TrainDistributed(kDims, kModelSeed, data, iterations,
                                     per_worker_batch, c.world, options);

  EXPECT_TRUE(dist.params_consistent);
  ExpectTrajectoriesMatch(ref, dist, 2e-4f);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, EquivalenceSweep,
    ::testing::Values(
        ModeCase{ScheduleMode::kDeAR, 2, 64 * 1024, "dear_p2"},
        ModeCase{ScheduleMode::kDeAR, 4, 64 * 1024, "dear_p4"},
        ModeCase{ScheduleMode::kDeAR, 3, 64 * 1024, "dear_p3_odd"},
        ModeCase{ScheduleMode::kDeAR, 4, 1, "dear_p4_no_fusion"},
        ModeCase{ScheduleMode::kDeAR, 4, 1u << 30, "dear_p4_one_group"},
        ModeCase{ScheduleMode::kDeAR, 4, 600, "dear_p4_odd_buckets"},
        ModeCase{ScheduleMode::kWFBP, 4, 64 * 1024, "wfbp_p4"},
        ModeCase{ScheduleMode::kWFBP, 3, 1, "wfbp_p3_no_fusion"},
        ModeCase{ScheduleMode::kSequential, 4, 64 * 1024, "sequential_p4"},
        ModeCase{ScheduleMode::kDeAR, 1, 64 * 1024, "dear_single_worker"},
        ModeCase{ScheduleMode::kDeAR, 4, 64 * 1024, "dear_p4_hierarchical",
                 comm::Algorithm::kHierarchical, 2},
        ModeCase{ScheduleMode::kDeAR, 6, 600, "dear_p6_hier_rpn3",
                 comm::Algorithm::kHierarchical, 3},
        ModeCase{ScheduleMode::kZeRO, 4, 64 * 1024, "zero_p4"},
        ModeCase{ScheduleMode::kZeRO, 3, 600, "zero_p3_odd_buckets"},
        ModeCase{ScheduleMode::kZeRO, 4, 1, "zero_p4_per_tensor"},
        ModeCase{ScheduleMode::kZeRO, 2, 64 * 1024, "zero_p2_momentum"},
        ModeCase{ScheduleMode::kDeAR, 4, 64 * 1024, "dear_p4_rhd",
                 comm::Algorithm::kRecursiveHalvingDoubling},
        ModeCase{ScheduleMode::kDeAR, 8, 600, "dear_p8_rhd_buckets",
                 comm::Algorithm::kRecursiveHalvingDoubling}),
    [](const auto& info) { return std::string(info.param.label); });

// kDeAR, kWFBP and kSequential run the same ring reduce-scatter and
// all-gather over the same fused buffers, and every SGD update is
// elementwise, so their final parameters must be bitwise equal: where
// kDeAR updates a group's owned slice (inside Step(), right after OP1) and
// where it updates the rest (PreForward, after OP2) must not show in a
// single bit, nor must the reduce-scatter reading gradients in place.
// 200 B buffers at world 3 put owned-slice boundaries inside tensors; the
// lossy wire dtypes check that the owned slice is rounded exactly as the
// all-gather rounds it for the peers.
TEST(DistOptimTest, SchedulesAgreeBitwise) {
  const ScheduleMode modes[] = {ScheduleMode::kDeAR, ScheduleMode::kWFBP,
                                ScheduleMode::kSequential};
  const Compression wires[] = {Compression::kNone, Compression::kFp16,
                               Compression::kBf16};
  const int per_worker_batch = 4;
  const int iterations = 8;
  for (const int world : {2, 3, 4}) {
    const Dataset data = MakeRegressionDataset(
        world * per_worker_batch * 4, kDims.front(), kDims.back(), 77);
    for (const std::size_t buffer : {std::size_t{64}, std::size_t{200},
                                     std::size_t{1024}, std::size_t{1} << 20}) {
      for (const Compression wire : wires) {
        std::vector<DistributedResult> runs;
        for (const ScheduleMode mode : modes) {
          DistOptimOptions options;
          options.mode = mode;
          options.buffer_bytes = buffer;
          options.compression = wire;
          options.sgd = {.lr = 0.05f, .momentum = 0.9f};
          runs.push_back(TrainDistributed(kDims, kModelSeed, data, iterations,
                                          per_worker_batch, world, options));
        }
        SCOPED_TRACE(testing::Message()
                     << "world " << world << " buffer " << buffer
                     << " wire " << static_cast<int>(wire));
        for (std::size_t m = 0; m < runs.size(); ++m) {
          EXPECT_TRUE(runs[m].params_consistent) << "mode " << m;
          ASSERT_EQ(runs[m].params.size(), runs[0].params.size());
          for (std::size_t t = 0; t < runs[0].params.size(); ++t) {
            const auto& got = runs[m].params[t];
            const auto& want = runs[0].params[t];
            ASSERT_EQ(got.size(), want.size());
            EXPECT_EQ(std::memcmp(got.data(), want.data(),
                                  got.size() * sizeof(float)),
                      0)
                << "mode " << m << " tensor " << t;
          }
        }
      }
    }
  }
}

TEST(DistOptimTest, LossDecreasesUnderDeAR) {
  const Dataset data = MakeRegressionDataset(64, 6, 2, 5);
  DistOptimOptions options;
  options.mode = ScheduleMode::kDeAR;
  options.sgd = {.lr = 0.05f, .momentum = 0.0f};
  const auto result =
      TrainDistributed(kDims, kModelSeed, data, 40, 4, 4, options);
  ASSERT_GE(result.rank0_losses.size(), 2u);
  EXPECT_LT(result.rank0_losses.back(), 0.5f * result.rank0_losses.front());
}

TEST(DistOptimTest, SetBufferBytesRebucketsBetweenIterations) {
  const Dataset data = MakeRegressionDataset(32, 6, 2, 5);
  comm::RunOnRanks(2, [&](comm::Communicator& comm) {
    train::Mlp mlp(kDims, kModelSeed);
    DistOptimOptions options;
    options.mode = ScheduleMode::kDeAR;
    options.buffer_bytes = 1;  // per-tensor
    DistOptim optim(comm, mlp.Spec(), mlp.Bindings(), options);
    const int before = optim.plan().num_groups();

    const Dataset shard = data.Shard(comm.rank(), 2);
    std::vector<float> x, y, grad;
    for (int it = 0; it < 2; ++it) {
      shard.Batch(0, 4, &x, &y);
      mlp.ZeroGrad();
      const auto pred =
          mlp.Forward(x, 4, [&](int l) { optim.PreForward(l); });
      train::Mlp::MseLoss(pred, y, &grad);
      mlp.Backward(grad, 4, [&](int l) { optim.OnBackwardLayer(l); });
      optim.Step();
    }
    optim.Synchronize();
    optim.SetBufferBytes(1u << 20);
    EXPECT_LT(optim.plan().num_groups(), before);
    EXPECT_EQ(optim.plan().num_groups(), 1);

    // Training continues correctly after re-bucketing.
    shard.Batch(0, 4, &x, &y);
    mlp.ZeroGrad();
    const auto pred = mlp.Forward(x, 4, [&](int l) { optim.PreForward(l); });
    train::Mlp::MseLoss(pred, y, &grad);
    mlp.Backward(grad, 4, [&](int l) { optim.OnBackwardLayer(l); });
    optim.Step();
    optim.Synchronize();
  });
}

TEST(DistOptimTest, SynchronizeBeforeAnyTrainingIsNoop) {
  comm::RunOnRanks(2, [&](comm::Communicator& comm) {
    train::Mlp mlp(kDims, kModelSeed);
    DistOptim optim(comm, mlp.Spec(), mlp.Bindings(), {});
    optim.Synchronize();  // nothing outstanding
    optim.Synchronize();  // idempotent
  });
}

TEST(DistOptimTest, SynchronizeMidCycleCompletesDecoupledPair) {
  // Backward done (RS in flight) but Step() not called: Synchronize must
  // finish RS+AG and apply updates, leaving ranks consistent.
  const Dataset data = MakeRegressionDataset(16, 6, 2, 5);
  std::vector<std::vector<float>> w0(2);
  comm::RunOnRanks(2, [&](comm::Communicator& comm) {
    train::Mlp mlp(kDims, kModelSeed);
    DistOptim optim(comm, mlp.Spec(), mlp.Bindings(), {});
    const Dataset shard = data.Shard(comm.rank(), 2);
    std::vector<float> x, y, grad;
    shard.Batch(0, 4, &x, &y);
    mlp.ZeroGrad();
    const auto pred = mlp.Forward(x, 4, [&](int l) { optim.PreForward(l); });
    train::Mlp::MseLoss(pred, y, &grad);
    mlp.Backward(grad, 4, [&](int l) { optim.OnBackwardLayer(l); });
    optim.Synchronize();  // instead of Step()
    w0[static_cast<std::size_t>(comm.rank())] = mlp.layers()[0].w;
  });
  EXPECT_EQ(w0[0], w0[1]);
}

TEST(DistOptimTest, BroadcastControlAgreesAcrossRanks) {
  comm::RunOnRanks(4, [&](comm::Communicator& comm) {
    train::Mlp mlp(kDims, kModelSeed);
    DistOptim optim(comm, mlp.Spec(), mlp.Bindings(), {});
    float value = comm.rank() == 0 ? 35.5f : -1.0f;
    optim.BroadcastControl(std::span<float>(&value, 1), 0);
    EXPECT_FLOAT_EQ(value, 35.5f);
  });
}

TEST(DistOptimTest, PlanCoversAllTensors) {
  comm::RunOnRanks(2, [&](comm::Communicator& comm) {
    train::Mlp mlp(kDims, kModelSeed);
    DistOptimOptions options;
    options.buffer_bytes = 300;
    DistOptim optim(comm, mlp.Spec(), mlp.Bindings(), options);
    int covered = 0;
    for (const auto& g : optim.plan().groups())
      covered += static_cast<int>(g.tensors.size());
    EXPECT_EQ(covered, mlp.Spec().num_tensors());
    EXPECT_GT(optim.plan().num_groups(), 1);
  });
}

TEST(DistOptimTest, Fp16CompressionKeepsRanksConsistentAndConverges) {
  const Dataset data = MakeRegressionDataset(64, 6, 2, 5);
  DistOptimOptions options;
  options.mode = ScheduleMode::kDeAR;
  options.compression = Compression::kFp16;
  options.sgd = {.lr = 0.05f, .momentum = 0.0f};
  const auto result =
      TrainDistributed(kDims, kModelSeed, data, 40, 4, 4, options);
  EXPECT_TRUE(result.params_consistent);
  ASSERT_GE(result.rank0_losses.size(), 2u);
  EXPECT_LT(result.rank0_losses.back(), 0.5f * result.rank0_losses.front());
}

TEST(DistOptimTest, Fp16TrajectoryNearUncompressed) {
  const Dataset data = MakeRegressionDataset(64, 6, 2, 5);
  DistOptimOptions plain;
  plain.mode = ScheduleMode::kDeAR;
  plain.sgd = {.lr = 0.02f, .momentum = 0.0f};
  DistOptimOptions fp16 = plain;
  fp16.compression = Compression::kFp16;
  const auto a = TrainDistributed(kDims, kModelSeed, data, 10, 4, 2, plain);
  const auto b = TrainDistributed(kDims, kModelSeed, data, 10, 4, 2, fp16);
  ASSERT_EQ(a.params.size(), b.params.size());
  // fp16's ~2^-11 relative rounding accumulates slowly over 10 small steps.
  for (std::size_t t = 0; t < a.params.size(); ++t)
    for (std::size_t i = 0; i < a.params[t].size(); ++i)
      EXPECT_NEAR(a.params[t][i], b.params[t][i], 5e-3f);
}

TEST(DistOptimTest, Bf16CompressionKeepsRanksConsistentAndConverges) {
  const Dataset data = MakeRegressionDataset(64, 6, 2, 5);
  DistOptimOptions options;
  options.mode = ScheduleMode::kDeAR;
  options.compression = Compression::kBf16;
  options.sgd = {.lr = 0.05f, .momentum = 0.0f};
  const auto result =
      TrainDistributed(kDims, kModelSeed, data, 40, 4, 4, options);
  EXPECT_TRUE(result.params_consistent);
  ASSERT_GE(result.rank0_losses.size(), 2u);
  EXPECT_LT(result.rank0_losses.back(), 0.5f * result.rank0_losses.front());
}

TEST(DistOptimTest, Bf16TrajectoryNearUncompressed) {
  const Dataset data = MakeRegressionDataset(64, 6, 2, 5);
  DistOptimOptions plain;
  plain.mode = ScheduleMode::kDeAR;
  plain.sgd = {.lr = 0.02f, .momentum = 0.0f};
  DistOptimOptions bf16 = plain;
  bf16.compression = Compression::kBf16;
  const auto a = TrainDistributed(kDims, kModelSeed, data, 10, 4, 2, plain);
  const auto b = TrainDistributed(kDims, kModelSeed, data, 10, 4, 2, bf16);
  ASSERT_EQ(a.params.size(), b.params.size());
  // bf16 keeps only 8 significand bits (~2^-8 relative rounding), so the
  // drift envelope is wider than fp16's but still small over 10 steps.
  for (std::size_t t = 0; t < a.params.size(); ++t)
    for (std::size_t i = 0; i < a.params[t].size(); ++i)
      EXPECT_NEAR(a.params[t][i], b.params[t][i], 4e-2f);
}

class AccumulationSweep : public ::testing::TestWithParam<int> {};

TEST_P(AccumulationSweep, MatchesAccumulatingReference) {
  // Gradient accumulation (no_sync): N backward passes per update. The
  // distributed trajectory must match a single-process reference that
  // accumulates the same micro-batches.
  const int accumulation = GetParam();
  const int world = 4, batch = 4, iterations = 6;
  const Dataset data = MakeRegressionDataset(
      world * batch * accumulation * 2, kDims.front(), kDims.back(), 77);
  const SgdOptions sgd{.lr = 0.05f, .momentum = 0.9f};
  const auto ref = TrainReference(kDims, kModelSeed, data, iterations,
                                  world * batch, sgd, accumulation);
  DistOptimOptions options;
  options.mode = ScheduleMode::kDeAR;
  options.accumulation_steps = accumulation;
  options.sgd = sgd;
  const auto dist = TrainDistributed(kDims, kModelSeed, data,
                                     iterations, batch, world, options);
  EXPECT_TRUE(dist.params_consistent);
  ExpectTrajectoriesMatch(ref, dist, 5e-4f);
}

INSTANTIATE_TEST_SUITE_P(Windows, AccumulationSweep, ::testing::Values(2, 3),
                         [](const auto& info) {
                           return "accum" + std::to_string(info.param);
                         });

TEST(DistOptimTest, AccumulationSkipsCommunicationOnMidSteps) {
  const Dataset data = MakeRegressionDataset(32, 6, 2, 5);
  comm::RunOnRanks(2, [&](comm::Communicator& comm) {
    train::Mlp mlp(kDims, kModelSeed);
    DistOptimOptions options;
    options.accumulation_steps = 4;
    DistOptim optim(comm, mlp.Spec(), mlp.Bindings(), options);
    const Dataset shard = data.Shard(comm.rank(), 2);
    std::vector<float> x, y, grad;
    mlp.ZeroGrad();
    for (int micro = 0; micro < 4; ++micro) {
      EXPECT_EQ(optim.micro_step(), micro);
      shard.Batch(0, 4, &x, &y);
      const auto pred =
          mlp.Forward(x, 4, [&](int l) { optim.PreForward(l); });
      train::Mlp::MseLoss(pred, y, &grad);
      mlp.Backward(grad, 4, [&](int l) { optim.OnBackwardLayer(l); });
      optim.Step();
      if (micro < 3) {
        EXPECT_EQ(optim.stats().collectives, 0) << "micro " << micro;
        EXPECT_EQ(optim.stats().steps, 0);
      }
    }
    EXPECT_EQ(optim.stats().steps, 1);
    EXPECT_GT(optim.stats().collectives, 0);
    optim.Synchronize();
  });
}

TEST(DistOptimTest, StatsAccountForWaits) {
  const Dataset data = MakeRegressionDataset(32, 6, 2, 5);
  auto& recorder = flightrec::Recorder::Get();
  recorder.Reset();
  comm::RunOnRanks(2, [&](comm::Communicator& comm) {
    train::Mlp mlp(kDims, kModelSeed);
    DistOptim optim(comm, mlp.Spec(), mlp.Bindings(), {});
    EXPECT_EQ(optim.stats().steps, 0);

    const Dataset shard = data.Shard(comm.rank(), 2);
    std::vector<float> x, y, grad;
    for (int it = 0; it < 3; ++it) {
      shard.Batch(0, 4, &x, &y);
      mlp.ZeroGrad();
      const auto pred =
          mlp.Forward(x, 4, [&](int l) { optim.PreForward(l); });
      train::Mlp::MseLoss(pred, y, &grad);
      mlp.Backward(grad, 4, [&](int l) { optim.OnBackwardLayer(l); });
      optim.Step();
    }
    optim.Synchronize();

    const auto& stats = optim.stats();
    EXPECT_EQ(stats.steps, 3);
    // Per iteration: one RS + one AG per group.
    EXPECT_EQ(stats.collectives, 3 * 2 * optim.plan().num_groups());
  });
  // Where the compute thread blocked is read from the same run's journal:
  // 3 steps bound 2 iteration windows, and some rank waited in them.
  const auto report =
      analysis::AttributeIterations(recorder.SnapshotAll(), /*world=*/2);
  EXPECT_EQ(report.iterations, 2);
  double waited_ms = 0.0;
  for (const auto& rank : report.ranks) {
    EXPECT_GE(rank.iter_ms - rank.compute_ms, 0.0);
    waited_ms += rank.iter_ms - rank.compute_ms;
  }
  EXPECT_GT(waited_ms, 0.0);
}

TEST(DistOptimDeathTest, BindingSizeMismatchRejected) {
  EXPECT_DEATH(
      comm::RunOnRanks(1,
                       [&](comm::Communicator& comm) {
                         train::Mlp mlp(kDims, kModelSeed);
                         auto bindings = mlp.Bindings();
                         bindings.pop_back();
                         DistOptim optim(comm, mlp.Spec(), bindings, {});
                       }),
      "index-aligned");
}

}  // namespace
}  // namespace dear::core
