// Seeded crash/rejoin chaos schedules (ISSUE: elastic membership under
// churn). Each schedule derives its fault AND its thread interleaving from
// one seed; a failure message always carries the replay command. The PR
// budget is small; the nightly chaos-long job raises DEAR_CHAOS_SCHEDULES
// to >= 32 per sanitizer.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "schedlab/chaos.h"
#include "test_env.h"

namespace {

using dear::core::Compression;
using dear::sched::PolicyKind;
using dear::schedlab::ChaosOptions;
using dear::schedlab::RunCrashRejoin;

TEST(Chaos, SeededCrashRejoinSchedulesMatchOracle) {
  const int budget = dear::testenv::ChaosSchedules(/*fallback=*/3);
  for (int i = 0; i < budget; ++i) {
    const std::uint64_t seed = 0xC0FFEEu + 977u * static_cast<unsigned>(i);
    const auto report = RunCrashRejoin(seed, ChaosOptions{});
    EXPECT_TRUE(report.ok)
        << "seed " << seed << " (victim " << report.victim << ", kill@"
        << report.kill_iteration << ", rejoin+" << report.rejoin_delay
        << "): " << report.failure
        << "\nreplay: dearsim chaos --seed " << seed;
    if (!report.ok) break;  // first failing seed is the actionable one
  }
}

TEST(Chaos, PinnedPermanentCrashSchedule) {
  // rejoin_delay < 0: the victim stays dead and the run must still finish
  // over the survivor ring (two segments, no readmission).
  ChaosOptions options;
  options.elastic.victim = 0;  // the recovery root candidate itself dies
  options.elastic.kill_iteration = 2;
  options.elastic.rejoin_delay = -1;
  const std::uint64_t seed = 0xDEAD5EEDull;
  const auto report = RunCrashRejoin(seed, options);
  EXPECT_TRUE(report.ok) << report.failure << "\nreplay: dearsim chaos --seed "
                         << seed << " (pinned fault)";
  EXPECT_EQ(report.elastic.segments.size(), 2u);
}

TEST(Chaos, PinnedLateKillExercisesEpilogueRendezvous) {
  // Kill so late that the readmission commit lands at the end of the run:
  // the epilogue rendezvous (not the main loop) must admit the victim.
  ChaosOptions options;
  options.elastic.victim = 2;
  options.elastic.kill_iteration = 4;  // iterations defaults to 6
  options.elastic.rejoin_delay = 2;
  const std::uint64_t seed = 0x1A7EC0DEull;
  const auto report = RunCrashRejoin(seed, options);
  EXPECT_TRUE(report.ok) << report.failure << "\nreplay: dearsim chaos --seed "
                         << seed << " (pinned fault)";
}

// The fixed-world configurations under churn: one pinned seed (its fault
// is a crash and a rejoin) per wire dtype on the ring, per non-default
// schedule mode, with momentum and with accumulation. RunCrashRejoin holds
// every segment to the per-segment reference: fp32 within Near's 1e-4,
// f16 and bf16 within their fixed-world drift envelopes.
struct Combination {
  const char* label;
  std::uint64_t seed;
  PolicyKind mode{PolicyKind::kDeAR};
  Compression wire{Compression::kNone};
  float momentum{0.0f};
  int accumulation_steps{1};
};

class ChaosCombination : public ::testing::TestWithParam<Combination> {};

TEST_P(ChaosCombination, CrashRejoinMatchesPerSegmentReference) {
  const Combination& c = GetParam();
  ChaosOptions options;
  options.elastic.optim.mode = c.mode;
  options.elastic.optim.compression = c.wire;
  options.elastic.optim.sgd.momentum = c.momentum;
  options.elastic.optim.accumulation_steps = c.accumulation_steps;
  const auto report = RunCrashRejoin(c.seed, options);
  EXPECT_TRUE(report.ok) << report.failure << "\nseed " << c.seed
                         << " (victim " << report.victim << ", kill@"
                         << report.kill_iteration << ", rejoin+"
                         << report.rejoin_delay << ")";
  EXPECT_EQ(report.elastic.segments.size(), 3u);
}

INSTANTIATE_TEST_SUITE_P(
    Options, ChaosCombination,
    ::testing::Values(
        Combination{"ring_f32", 0xC0DE0001u},
        Combination{"ring_f16", 0xC0DE0002u, PolicyKind::kDeAR,
                    Compression::kFp16},
        Combination{"ring_bf16", 0xC0DE0003u, PolicyKind::kDeAR,
                    Compression::kBf16},
        Combination{"zero_f32", 0xC0DE0004u, PolicyKind::kZeRO1},
        Combination{"wfbp_f32", 0xC0DE0005u, PolicyKind::kDDP},
        Combination{"momentum_f32", 0xC0DE0006u, PolicyKind::kDeAR,
                    Compression::kNone, 0.9f},
        Combination{"accumulation_f32", 0xC0DE0007u, PolicyKind::kDeAR,
                    Compression::kNone, 0.0f, 2}),
    [](const auto& info) { return std::string(info.param.label); });

}  // namespace
