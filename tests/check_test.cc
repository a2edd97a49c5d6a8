// dearcheck acceptance tests: every injected fault class must produce a
// rank-attributed diagnosis and release every blocked rank before the
// watchdog deadline — a detected fault must never hang ctest.
#include "check/checker.h"

#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "comm/async.h"
#include "comm/collectives.h"
#include "comm/communicator.h"
#include "comm/probe.h"
#include "comm/transport.h"
#include "core/trainer.h"
#include "train/data.h"

namespace dear::check {
namespace {

using comm::CollectiveHandle;
using comm::CommEngine;
using comm::Communicator;
using comm::TransportHub;

/// Owns a checker session plus a hub/engines/threads, and tears down in the
/// only safe order: worker threads joined, engines joined, checker disabled
/// (which joins the watchdog — it may hold a reference to the hub through
/// the trip handler), and only then the hub itself.
struct CheckedWorld {
  CheckedWorld(int world, double watchdog_timeout_s) : hub(world) {
    CheckerOptions options;
    options.watchdog_timeout_s = watchdog_timeout_s;
    auto& checker = Checker::Get();
    checker.Enable(world, options);
    checker.SetTripHandler([this] { hub.Shutdown(); });
  }

  ~CheckedWorld() {
    for (auto& t : threads) {
      if (t.joinable()) t.join();
    }
    engines.clear();
    Checker::Get().Disable();
    hub.Shutdown();
  }

  void SpawnEngines() {
    for (int r = 0; r < hub.size(); ++r) {
      engines.push_back(
          std::make_unique<CommEngine>(Communicator(&hub, r)));
    }
  }

  TransportHub hub;
  std::vector<std::unique_ptr<CommEngine>> engines;
  std::vector<std::thread> threads;
};

TEST(CheckerTest, DisabledHooksAreNoOps) {
  auto& checker = Checker::Get();
  ASSERT_FALSE(checker.enabled());
  {
    comm::probe::CollectiveProbe probe(0, comm::CollectiveKind::kRingAllReduce,
                                       64);
    ScopedRecvWait wait(0, 1, 42);
  }
  EXPECT_FALSE(checker.tripped());
  EXPECT_EQ(checker.blocked_waiters(), 0u);
}

TEST(CheckerTest, CleanEngineScheduleVerifiesEveryOp) {
  constexpr int kWorld = 4;
  constexpr std::size_t kN = 64;
  auto& checker = Checker::Get();
  {
    CheckedWorld world(kWorld, /*watchdog_timeout_s=*/2.0);
    world.SpawnEngines();
    std::vector<std::vector<float>> buffers(kWorld,
                                            std::vector<float>(kN, 1.0f));
    std::vector<CollectiveHandle> handles;
    for (int r = 0; r < kWorld; ++r) {
      auto& engine = *world.engines[static_cast<std::size_t>(r)];
      std::span<float> buf(buffers[static_cast<std::size_t>(r)]);
      handles.push_back(engine.SubmitReduceScatter(buf));
      handles.push_back(engine.SubmitAllGather(buf));
      handles.push_back(engine.SubmitBarrier());
    }
    for (auto& h : handles) EXPECT_TRUE(h.Wait().ok());
    EXPECT_FALSE(checker.tripped());
    EXPECT_EQ(checker.verified_ops(), 3);
    for (int r = 0; r < kWorld; ++r) EXPECT_EQ(checker.ledger_size(r), 3);
    EXPECT_EQ(checker.blocked_waiters(), 0u);
  }
}

// A rank silently dropping out of the only collective: nobody diverges in
// kind or size, so only the watchdog can catch it — and must, naming the
// missing rank, instead of ctest hanging on the ring.
TEST(CheckerTest, SkippedCollectiveTripsWatchdogWithMissingRank) {
  constexpr int kWorld = 4;
  constexpr std::size_t kN = 64;
  auto& checker = Checker::Get();
  {
    CheckedWorld world(kWorld, /*watchdog_timeout_s=*/0.3);
    checker.ArmFault({/*rank=*/2, /*op_index=*/0, FaultKind::kSkip});
    world.SpawnEngines();
    std::vector<std::vector<float>> buffers(kWorld,
                                            std::vector<float>(kN, 1.0f));
    std::vector<CollectiveHandle> handles;
    for (int r = 0; r < kWorld; ++r) {
      handles.push_back(world.engines[static_cast<std::size_t>(r)]
                            ->SubmitAllReduce(std::span<float>(
                                buffers[static_cast<std::size_t>(r)])));
    }
    // The skipping rank's handle completes Ok immediately; the others are
    // released with Unavailable once the watchdog trips the hub shutdown.
    EXPECT_TRUE(handles[2].Wait().ok());
    for (int r = 0; r < kWorld; ++r) {
      if (r == 2) continue;
      EXPECT_EQ(handles[static_cast<std::size_t>(r)].Wait().code(),
                StatusCode::kUnavailable);
    }
    EXPECT_TRUE(checker.tripped());
    const std::string report = checker.report();
    EXPECT_NE(report.find("watchdog timeout"), std::string::npos) << report;
    EXPECT_NE(report.find("rank 2 is missing"), std::string::npos) << report;
    // The dump's in-flight context comes from the flight-recorder journal.
    EXPECT_NE(report.find("journal: inside ring_all_reduce"),
              std::string::npos)
        << report;
    EXPECT_NE(report.find("sends journaled"), std::string::npos) << report;
    world.engines.clear();
    EXPECT_EQ(checker.blocked_waiters(), 0u);
  }
}

TEST(CheckerTest, ShrunkCollectiveTripsSizeMismatchAtFaultyRank) {
  constexpr int kWorld = 4;
  constexpr std::size_t kN = 64;
  auto& checker = Checker::Get();
  {
    CheckedWorld world(kWorld, /*watchdog_timeout_s=*/2.0);
    checker.ArmFault({/*rank=*/3, /*op_index=*/0, FaultKind::kShrink});
    world.SpawnEngines();
    std::vector<std::vector<float>> buffers(kWorld,
                                            std::vector<float>(kN, 1.0f));
    std::vector<CollectiveHandle> handles;
    for (int r = 0; r < kWorld; ++r) {
      handles.push_back(world.engines[static_cast<std::size_t>(r)]
                            ->SubmitReduceScatter(std::span<float>(
                                buffers[static_cast<std::size_t>(r)])));
    }
    for (auto& h : handles) (void)h.Wait();  // released by the trip handler
    EXPECT_TRUE(checker.tripped());
    const std::string report = checker.report();
    EXPECT_NE(report.find("size mismatch"), std::string::npos) << report;
    // The shrunk size (32) is charged to the faulty rank (3), and the
    // majority vote names it whatever order the ranks reached op#0 in.
    EXPECT_NE(report.find("rank 3 has 32"), std::string::npos) << report;
    EXPECT_NE(report.find("first divergent rank: 3"), std::string::npos)
        << report;
  }
}

TEST(CheckerTest, ReorderedCollectiveTripsSequenceMismatchAtFaultyRank) {
  constexpr int kWorld = 4;
  constexpr std::size_t kN = 64;
  auto& checker = Checker::Get();
  {
    CheckedWorld world(kWorld, /*watchdog_timeout_s=*/2.0);
    checker.ArmFault({/*rank=*/1, /*op_index=*/0, FaultKind::kReorder});
    world.SpawnEngines();
    std::vector<std::vector<float>> buffers(kWorld,
                                            std::vector<float>(kN, 1.0f));
    std::vector<CollectiveHandle> handles;
    // Distinct consecutive kinds (the canonical decoupled pair), so running
    // op#1 before op#0 is observable as a kind divergence at index 0 — the
    // same signature a diverged re-bucketing decision would produce.
    for (int r = 0; r < kWorld; ++r) {
      auto& engine = *world.engines[static_cast<std::size_t>(r)];
      std::span<float> buf(buffers[static_cast<std::size_t>(r)]);
      handles.push_back(engine.SubmitReduceScatter(buf));
      handles.push_back(engine.SubmitAllGather(buf));
    }
    for (auto& h : handles) (void)h.Wait();
    EXPECT_TRUE(checker.tripped());
    const std::string report = checker.report();
    EXPECT_NE(report.find("sequence mismatch"), std::string::npos) << report;
    EXPECT_NE(report.find("first divergent rank: 1"), std::string::npos)
        << report;
  }
}

// Two ranks each blocked on a Recv from the other with no message in
// flight: a true wait-for cycle. The cycle detector must name it (before
// the plain timeout would) and the trip handler must release both.
TEST(CheckerTest, WaitForCycleIsDetectedAndNamed) {
  constexpr int kWorld = 2;
  auto& checker = Checker::Get();
  {
    CheckedWorld world(kWorld, /*watchdog_timeout_s=*/1.0);
    for (int r = 0; r < kWorld; ++r) {
      world.threads.emplace_back([&world, r] {
        const auto tag = comm::tags::MakeTag(comm::tags::kTagBarrier, 0);
        const auto msg = world.hub.Recv(/*src=*/1 - r, /*dst=*/r, tag);
        EXPECT_EQ(msg.status().code(), StatusCode::kUnavailable);
      });
    }
    for (auto& t : world.threads) t.join();
    world.threads.clear();
    EXPECT_TRUE(checker.tripped());
    const std::string report = checker.report();
    EXPECT_NE(report.find("wait-for cycle"), std::string::npos) << report;
    EXPECT_EQ(checker.blocked_waiters(), 0u);
  }
}

TEST(CheckerTest, SoloBlockedRecvTripsTimeoutWithDecodedTag) {
  constexpr int kWorld = 2;
  auto& checker = Checker::Get();
  {
    CheckedWorld world(kWorld, /*watchdog_timeout_s=*/0.3);
    world.threads.emplace_back([&world] {
      const auto tag =
          comm::tags::MakeTag(comm::tags::kTagReduceScatter, 5, 7);
      const auto msg = world.hub.Recv(/*src=*/1, /*dst=*/0, tag);
      EXPECT_EQ(msg.status().code(), StatusCode::kUnavailable);
    });
    world.threads.front().join();
    world.threads.clear();
    EXPECT_TRUE(checker.tripped());
    const std::string report = checker.report();
    EXPECT_NE(report.find("watchdog timeout"), std::string::npos) << report;
    EXPECT_NE(report.find("reduce_scatter round=5 chunk=7"),
              std::string::npos)
        << report;
  }
}

TEST(CheckerTest, DuplicateParticipationTrips) {
  auto& checker = Checker::Get();
  CheckerOptions options;
  options.watchdog_timeout_s = 0;  // no watchdog needed: online matcher only
  checker.Enable(2, options);
  checker.OnCollectiveBegin(0, "ring_all_reduce", 64);
  checker.OnCollectiveBegin(0, "ring_all_reduce", 64);  // no End between
  EXPECT_TRUE(checker.tripped());
  EXPECT_NE(checker.report().find("duplicate participation"),
            std::string::npos);
  checker.Disable();
}

// Two ranks in, one each way, is a tied vote. The checker trips at once
// and names the divergent rank from every rank that has reached the op by
// the time the report is read.
TEST(CheckerTest, TiedDivergenceIsNamedByLaterArrivals) {
  auto& checker = Checker::Get();
  CheckerOptions options;
  options.watchdog_timeout_s = 0;
  checker.Enable(4, options);
  checker.OnCollectiveBegin(1, "ring_all_gather", 64);  // the faulty rank
  checker.OnCollectiveBegin(0, "ring_reduce_scatter", 64);
  ASSERT_TRUE(checker.tripped());
  checker.OnCollectiveBegin(2, "ring_reduce_scatter", 64);  // after the trip
  const std::string report = checker.report();
  EXPECT_NE(report.find("sequence mismatch at op#0"), std::string::npos)
      << report;
  EXPECT_NE(report.find("first divergent rank: 1"), std::string::npos)
      << report;
  checker.Disable();
}

// A vote that stays tied names the rank whose arrival exposed the split.
TEST(CheckerTest, FullWorldTieBlamesTheNewcomer) {
  auto& checker = Checker::Get();
  CheckerOptions options;
  options.watchdog_timeout_s = 0;
  checker.Enable(2, options);
  checker.OnCollectiveBegin(0, "ring_reduce_scatter", 64);
  checker.OnCollectiveBegin(1, "ring_reduce_scatter", 32);
  ASSERT_TRUE(checker.tripped());
  EXPECT_NE(checker.report().find("first divergent rank: 1"),
            std::string::npos)
      << checker.report();
  checker.Disable();
}

TEST(CheckerTest, GroupStateMachineAcceptsDecoupledAndFusedOrders) {
  auto& checker = Checker::Get();
  CheckerOptions options;
  options.watchdog_timeout_s = 0;
  checker.Enable(1, options);
  using GE = flightrec::EventKind;
  // Decoupled pair (DeAR / ZeRO).
  checker.OnGroupEvent(0, 0, GE::kRsLaunch);
  checker.OnGroupEvent(0, 0, GE::kRsComplete);
  checker.OnGroupEvent(0, 0, GE::kAgLaunch);
  checker.OnGroupEvent(0, 0, GE::kAgComplete);
  checker.OnGroupEvent(0, 0, GE::kUnpack);
  // Fused all-reduce (WFBP / sequential / local SGD).
  checker.OnGroupEvent(0, 1, GE::kRsLaunch);
  checker.OnGroupEvent(0, 1, GE::kRsComplete);
  checker.OnGroupEvent(0, 1, GE::kUnpack);
  EXPECT_FALSE(checker.tripped());
  checker.Disable();
}

TEST(CheckerTest, AllGatherBeforeReduceScatterCompletesTrips) {
  auto& checker = Checker::Get();
  CheckerOptions options;
  options.watchdog_timeout_s = 0;
  checker.Enable(1, options);
  using GE = flightrec::EventKind;
  checker.OnGroupEvent(0, 0, GE::kRsLaunch);
  checker.OnGroupEvent(0, 0, GE::kAgLaunch);  // before kRsComplete
  EXPECT_TRUE(checker.tripped());
  EXPECT_NE(checker.report().find("ordering violation"), std::string::npos);
  checker.Disable();
}

TEST(CheckerTest, UnpackBeforeAllGatherCompletesTrips) {
  auto& checker = Checker::Get();
  CheckerOptions options;
  options.watchdog_timeout_s = 0;
  checker.Enable(1, options);
  using GE = flightrec::EventKind;
  checker.OnGroupEvent(0, 0, GE::kRsLaunch);
  checker.OnGroupEvent(0, 0, GE::kRsComplete);
  checker.OnGroupEvent(0, 0, GE::kAgLaunch);
  checker.OnGroupEvent(0, 0, GE::kUnpack);  // before kAgComplete
  EXPECT_TRUE(checker.tripped());
  EXPECT_NE(checker.report().find("FeedPipe violation"), std::string::npos);
  checker.Disable();
}

// End-to-end: real DeAR training under the checker. Every collective and
// every group-schedule event must verify cleanly, and the ledger must line
// up across ranks.
TEST(CheckerIntegrationTest, CleanTrainingVerifies) {
  constexpr int kWorld = 4;
  auto& checker = Checker::Get();
  CheckerOptions options;
  options.watchdog_timeout_s = 5.0;
  checker.Enable(kWorld, options);

  const std::vector<int> dims{8, 16, 16, 4};
  const auto data = train::MakeRegressionDataset(64, 8, 4, /*seed=*/11);
  core::DistOptimOptions optim;
  optim.mode = sched::PolicyKind::kDeAR;
  optim.buffer_bytes = 256;  // several fusion groups
  const auto result = core::TrainDistributed(dims, /*model_seed=*/3, data,
                                             /*iterations=*/3, /*batch=*/4,
                                             kWorld, optim);
  EXPECT_TRUE(result.params_consistent);
  EXPECT_FALSE(checker.tripped()) << checker.report();
  EXPECT_GT(checker.verified_ops(), 0);
  for (int r = 1; r < kWorld; ++r) {
    EXPECT_EQ(checker.ledger_size(r), checker.ledger_size(0));
  }
  EXPECT_EQ(checker.blocked_waiters(), 0u);
  checker.Disable();
}

TEST(CheckerIntegrationTest, CleanTrainingVerifiesEverySchedule) {
  constexpr int kWorld = 2;
  const auto data = train::MakeRegressionDataset(32, 8, 4, /*seed=*/5);
  for (const auto mode :
       {sched::PolicyKind::kDDP, sched::PolicyKind::kSequential,
        sched::PolicyKind::kZeRO1}) {
    auto& checker = Checker::Get();
    CheckerOptions options;
    options.watchdog_timeout_s = 5.0;
    checker.Enable(kWorld, options);
    core::DistOptimOptions optim;
    optim.mode = mode;
    optim.buffer_bytes = 256;
    core::TrainDistributed({8, 16, 4}, /*model_seed=*/1, data,
                           /*iterations=*/2, /*batch=*/4, kWorld, optim);
    EXPECT_FALSE(checker.tripped())
        << "mode " << static_cast<int>(mode) << ": " << checker.report();
    EXPECT_GT(checker.verified_ops(), 0);
    checker.Disable();
  }
}

}  // namespace
}  // namespace dear::check
