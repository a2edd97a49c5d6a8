// Golden-trace regression of the DeAR pipeline schedule (paper §III-B).
//
// A 2-rank DistOptim run journals one kRsComplete / kAgComplete flight-
// recorder record per collective (rendered rs.gK / ag.gK), written by the
// compute thread at the program point where the op's completion is
// observed — so the per-rank sequence of completions IS the
// BackPipe/FeedPipe schedule: rs completions in FIFO group order inside
// Step(), ag completions in feed-forward order inside
// PreForward()/Synchronize(). This test pins that sequence against a
// checked-in golden file so schedule regressions (a reordered launch, a
// dropped group, an eager wait) fail loudly.
//
// Regenerate after an *intentional* schedule change:
//   ./golden_trace_test --regen
#include <gtest/gtest.h>

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/trainer.h"
#include "flightrec/recorder.h"
#include "train/data.h"

namespace {

constexpr int kWorld = 2;
constexpr char kGoldenPath[] = DEAR_GOLDEN_DIR "/group_schedule_2rank.txt";

/// Runs the pinned workload and returns, per rank, the ordered group
/// completions. Everything is seeded; the sequence is deterministic.
std::vector<std::vector<std::string>> CollectGroupSchedule() {
  using dear::flightrec::EventKind;
  auto& recorder = dear::flightrec::Recorder::Get();
  recorder.Reset();
  const auto data = dear::train::MakeRegressionDataset(
      /*num_samples=*/16, /*input_dim=*/6, /*output_dim=*/2, /*seed=*/11);
  dear::core::DistOptimOptions options;
  options.mode = dear::sched::PolicyKind::kDeAR;
  options.buffer_bytes = 128;  // small on purpose: several fusion groups
  options.sgd = {.lr = 0.05f, .momentum = 0.9f};
  const auto result = dear::core::TrainDistributed(
      /*dims=*/{6, 10, 8, 2}, /*model_seed=*/5, data, /*iterations=*/3,
      /*batch=*/2, kWorld, options);
  EXPECT_TRUE(result.params_consistent);

  const auto journal = recorder.SnapshotAll();
  std::vector<std::vector<std::string>> sequences(kWorld);
  for (std::size_t rank = 0; rank < sequences.size() && rank < journal.size();
       ++rank) {
    for (const auto& rec : journal[rank]) {
      const auto kind = static_cast<EventKind>(rec.kind);
      if (kind != EventKind::kRsComplete && kind != EventKind::kAgComplete)
        continue;
      sequences[rank].push_back(
          (kind == EventKind::kRsComplete ? "rs.g" : "ag.g") +
          std::to_string(rec.tag));
    }
  }
  return sequences;
}

std::string Render(const std::vector<std::vector<std::string>>& sequences) {
  std::ostringstream out;
  for (std::size_t rank = 0; rank < sequences.size(); ++rank)
    for (const auto& name : sequences[rank])
      out << "rank" << rank << " " << name << "\n";
  return out.str();
}

std::string ReadGolden() {
  std::ifstream in(kGoldenPath);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(GoldenTrace, BackPipeFeedPipeGroupScheduleMatchesGolden) {
  const auto sequences = CollectGroupSchedule();
  ASSERT_FALSE(sequences[0].empty()) << "no group completions journaled";
  // SPMD: every rank runs the same schedule, so the per-rank sequences
  // must agree before we even consult the golden.
  EXPECT_EQ(sequences[0], sequences[1]);

  const std::string golden = ReadGolden();
  ASSERT_FALSE(golden.empty())
      << "missing golden file " << kGoldenPath
      << " — regenerate with: ./golden_trace_test --regen";
  EXPECT_EQ(Render(sequences), golden)
      << "group schedule changed; if intentional, regenerate with: "
         "./golden_trace_test --regen";
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--regen") {
      const auto sequences = CollectGroupSchedule();
      std::ofstream out(kGoldenPath, std::ios::trunc);
      if (!out) {
        std::cerr << "cannot write " << kGoldenPath << "\n";
        return 1;
      }
      out << Render(sequences);
      std::cout << "wrote " << kGoldenPath << "\n";
      return 0;
    }
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
