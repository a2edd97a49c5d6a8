// CommEngine: background execution, ordering, overlap with compute, and
// shutdown behavior.
#include "comm/async.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <span>
#include <thread>
#include <vector>

#include "comm/kernels.h"
#include "comm/worker_group.h"
#include "common/math_util.h"

namespace dear::comm {
namespace {

TEST(CommEngineTest, AllReduceCompletesAndAverages) {
  constexpr int kWorld = 4;
  RunOnRanks(kWorld, [&](Communicator& comm) {
    CommEngine engine(comm);
    std::vector<float> data(10, static_cast<float>(comm.rank() + 1));
    auto handle = engine.SubmitAllReduce(data, ReduceOp::kAvg);
    ASSERT_TRUE(handle.Wait().ok());
    for (float v : data) ASSERT_FLOAT_EQ(v, 2.5f);  // avg of 1..4
  });
}

TEST(CommEngineTest, DecoupledPairMatchesAllReduce) {
  constexpr int kWorld = 3;
  RunOnRanks(kWorld, [&](Communicator& comm) {
    CommEngine engine(comm);
    std::vector<float> data(64, static_cast<float>(comm.rank()));
    auto rs = engine.SubmitReduceScatter(data);
    ASSERT_TRUE(rs.Wait().ok());
    auto ag = engine.SubmitAllGather(data);
    ASSERT_TRUE(ag.Wait().ok());
    for (float v : data) ASSERT_FLOAT_EQ(v, 3.0f);  // 0+1+2
  });
}

TEST(CommEngineTest, PipelinedSubmissionsExecuteInOrder) {
  // Submit many collectives without waiting; results must all be correct —
  // exercises the FIFO stream while the compute thread keeps working.
  constexpr int kWorld = 3;
  constexpr int kOps = 20;
  RunOnRanks(kWorld, [&](Communicator& comm) {
    CommEngine engine(comm);
    std::vector<std::vector<float>> buffers(kOps);
    std::vector<CollectiveHandle> handles(kOps);
    for (int i = 0; i < kOps; ++i) {
      buffers[i].assign(16 + i, static_cast<float>(comm.rank() + i));
      handles[i] = engine.SubmitAllReduce(buffers[i]);
    }
    for (int i = 0; i < kOps; ++i) {
      ASSERT_TRUE(handles[i].Wait().ok());
      const float want = static_cast<float>(3 * i + 0 + 1 + 2);
      for (float v : buffers[i]) ASSERT_FLOAT_EQ(v, want);
    }
  });
}

TEST(CommEngineTest, BackPipeFeedPipeInterleaving) {
  // DeAR's pattern: RS per group during BP, then AG per group in reverse
  // order; the engine must keep both phases strictly FIFO.
  constexpr int kWorld = 4;
  constexpr int kGroups = 5;
  RunOnRanks(kWorld, [&](Communicator& comm) {
    CommEngine engine(comm);
    std::vector<std::vector<float>> buffers(kGroups);
    std::vector<CollectiveHandle> rs(kGroups), ag(kGroups);
    // BackPipe: groups ready last-to-first.
    for (int g = kGroups - 1; g >= 0; --g) {
      buffers[g].assign(12, static_cast<float>(comm.rank() + 10 * g));
      rs[g] = engine.SubmitReduceScatter(buffers[g], ReduceOp::kAvg);
    }
    for (auto& h : rs) ASSERT_TRUE(h.Wait().ok());
    // FeedPipe: all-gathers first-to-last.
    for (int g = 0; g < kGroups; ++g)
      ag[g] = engine.SubmitAllGather(buffers[g]);
    for (int g = 0; g < kGroups; ++g) {
      ASSERT_TRUE(ag[g].Wait().ok());
      const float want = 10.0f * g + 1.5f;  // avg of ranks 0..3 = 1.5
      for (float v : buffers[g]) ASSERT_FLOAT_EQ(v, want);
    }
  });
}

TEST(CommEngineTest, BarrierSynchronizes) {
  RunOnRanks(4, [&](Communicator& comm) {
    CommEngine engine(comm);
    ASSERT_TRUE(engine.SubmitBarrier().Wait().ok());
  });
}

TEST(CommEngineTest, BroadcastFromRoot) {
  RunOnRanks(5, [&](Communicator& comm) {
    CommEngine engine(comm);
    std::vector<float> data(3, comm.rank() == 2 ? 42.0f : 0.0f);
    ASSERT_TRUE(engine.SubmitBroadcast(data, /*root=*/2).Wait().ok());
    for (float v : data) ASSERT_FLOAT_EQ(v, 42.0f);
  });
}

TEST(CommEngineTest, HierarchicalDecoupledPair) {
  constexpr int kWorld = 4;
  RunOnRanks(kWorld, [&](Communicator& comm) {
    CommEngine engine(comm);
    std::vector<float> data(40, static_cast<float>(comm.rank() + 1));
    auto rs = engine.SubmitHierarchicalReduceScatter(data, /*rpn=*/2,
                                                     ReduceOp::kAvg);
    ASSERT_TRUE(rs.Wait().ok());
    auto ag = engine.SubmitHierarchicalAllGather(data, /*rpn=*/2);
    ASSERT_TRUE(ag.Wait().ok());
    for (float v : data) ASSERT_FLOAT_EQ(v, 2.5f);
  });
}

// The reducing submits that take a gather list. Each runs its decoupled
// pair (or the all-reduce) once from the list and once from the same
// values packed into the buffer; the results must agree bit for bit.
enum class GatherCase { kRing, kAllReduce, kHierarchical, kRecursive };

std::vector<float> RunGatherCase(CommEngine& engine, GatherCase c,
                                 std::span<float> data, DType dtype,
                                 GatherList sources) {
  constexpr int kRpn = 2;
  Status st;
  switch (c) {
    case GatherCase::kRing:
      st = engine.SubmitReduceScatter(data, ReduceOp::kAvg, dtype, sources)
               .Wait();
      if (st.ok()) st = engine.SubmitAllGather(data, dtype).Wait();
      break;
    case GatherCase::kAllReduce:
      st = engine.SubmitAllReduce(data, ReduceOp::kAvg, dtype, sources).Wait();
      break;
    case GatherCase::kHierarchical:
      st = engine
               .SubmitHierarchicalReduceScatter(data, kRpn, ReduceOp::kAvg,
                                                dtype, sources)
               .Wait();
      if (st.ok())
        st = engine.SubmitHierarchicalAllGather(data, kRpn, dtype).Wait();
      break;
    case GatherCase::kRecursive:
      st = engine
               .SubmitRecursiveHalvingReduceScatter(data, ReduceOp::kAvg,
                                                    dtype, sources)
               .Wait();
      if (st.ok())
        st = engine.SubmitRecursiveDoublingAllGather(data, dtype).Wait();
      break;
  }
  EXPECT_TRUE(st.ok()) << st.ToString();
  return {data.begin(), data.end()};
}

void ExpectGatherListMatchesPackedBuffer(bool pack_hook) {
  constexpr int kWorld = 4;
  constexpr std::size_t kElems = 45;  // uneven chunks
  // Piece sizes straddle every chunk boundary, and one piece is empty.
  const std::size_t kPieces[] = {1, 7, 0, 12, 2, 23};
  for (const GatherCase c : {GatherCase::kRing, GatherCase::kAllReduce,
                             GatherCase::kHierarchical,
                             GatherCase::kRecursive}) {
    for (const DType dtype : {DType::kF32, DType::kF16, DType::kBF16}) {
      TransportHub hub(kWorld);
      if (pack_hook) {
        hub.SetPackHook([](DType d, std::span<const float> data,
                           PooledBuffer& payload) {
          kernels::Pack(d, payload.wire_data(), data);
        });
      }
      std::vector<std::thread> threads;
      for (Rank r = 0; r < kWorld; ++r) {
        threads.emplace_back([&, r] {
          CommEngine engine(Communicator(&hub, r));
          std::vector<float> grads(kElems);
          for (std::size_t i = 0; i < kElems; ++i) {
            const auto x = static_cast<float>(i);
            grads[i] = 0.37f * x - 1.3f * static_cast<float>(r) + 1e-3f * x * x;
          }
          std::vector<std::span<const float>> pieces;
          std::size_t off = 0;
          for (const std::size_t len : kPieces) {
            pieces.emplace_back(grads.data() + off, len);
            off += len;
          }
          ASSERT_EQ(off, kElems);
          std::vector<float> packed = grads;
          const auto want = RunGatherCase(engine, c, packed, dtype, {});
          std::vector<float> out(kElems, -99.0f);
          const auto got = RunGatherCase(engine, c, out, dtype, pieces);
          EXPECT_EQ(std::memcmp(got.data(), want.data(),
                                kElems * sizeof(float)),
                    0)
              << "case " << static_cast<int>(c) << " dtype "
              << DTypeName(dtype) << " rank " << r;
        });
      }
      for (auto& t : threads) t.join();
    }
  }
}

TEST(CommEngineTest, GatherListMatchesPackedBufferBitwise) {
  ExpectGatherListMatchesPackedBuffer(/*pack_hook=*/false);
}

TEST(CommEngineTest, GatherListWithPackHookMatchesPackedBuffer) {
  ExpectGatherListMatchesPackedBuffer(/*pack_hook=*/true);
}

TEST(CommEngineTest, SubmitAfterShutdownReturnsUnavailable) {
  RunOnRanks(2, [&](Communicator& comm) {
    CommEngine engine(comm);
    engine.Shutdown();
    std::vector<float> data(4, 1.0f);
    auto handle = engine.SubmitAllReduce(data);
    EXPECT_EQ(handle.Wait().code(), StatusCode::kUnavailable);
    Status st;
    EXPECT_TRUE(handle.Ready(&st));
    EXPECT_EQ(st.code(), StatusCode::kUnavailable);
  });
}

TEST(CommEngineTest, DefaultHandleIsCompletedOk) {
  CollectiveHandle handle;
  EXPECT_FALSE(handle.valid());
  EXPECT_TRUE(handle.Wait().ok());
  Status st = Status::Internal("unset");
  EXPECT_TRUE(handle.Ready(&st));
  EXPECT_TRUE(st.ok());
}

TEST(CommEngineTest, ReadyTurnsTrueOnceTheOpCompletes) {
  // Rank 1 submits only after rank 0 has seen its op still pending: the
  // op cannot finish without rank 1.
  std::atomic<bool> rank0_saw_pending{false};
  RunOnRanks(2, [&](Communicator& comm) {
    CommEngine engine(comm);
    std::vector<float> data(4, 1.0f);
    if (comm.rank() == 1) {
      while (!rank0_saw_pending.load(std::memory_order_acquire))
        std::this_thread::yield();
    }
    auto handle = engine.SubmitAllReduce(data);
    if (comm.rank() == 0) {
      EXPECT_FALSE(handle.Ready());
      rank0_saw_pending.store(true, std::memory_order_release);
    }
    ASSERT_TRUE(handle.Wait().ok());
    Status st = Status::Internal("unset");
    EXPECT_TRUE(handle.Ready(&st));
    EXPECT_TRUE(st.ok());
  });
}

TEST(CommEngineTest, WaitIsIdempotent) {
  RunOnRanks(2, [&](Communicator& comm) {
    CommEngine engine(comm);
    std::vector<float> data(4, 1.0f);
    auto handle = engine.SubmitAllReduce(data);
    ASSERT_TRUE(handle.Wait().ok());
    ASSERT_TRUE(handle.Wait().ok());
    auto copy = handle;
    ASSERT_TRUE(copy.Wait().ok());
  });
}

}  // namespace
}  // namespace dear::comm
