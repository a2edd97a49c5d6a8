// Golden regression of the simulator's numbers over the whole model zoo.
//
// For every zoo model (paper + extension) x the 8 scheduling policies x
// world {16, 64} x {10GbE, 100GbIB}, this pins the steady-state iteration
// time and exposed communication of `compare`'s configuration, plus the 10
// buffer sizes a BO tune of that policy suggests. Times are exact integer
// nanoseconds and suggestions are hex floats, so any change to the task
// graph, the engine's event order or the tuner's arithmetic shows up as a
// byte difference. Every one of those evaluations must also stop early at a
// repeated engine state.
//
// Regenerate only after an *intentional* change to simulated timings:
//   ./golden_sim_test --regen
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "fusion/plan.h"
#include "model/zoo.h"
#include "sched/policies.h"
#include "sched/runner.h"
#include "sim/engine.h"
#include "tune/search.h"

namespace {

namespace sched = dear::sched;

constexpr char kGoldenPath[] = DEAR_GOLDEN_DIR "/sim_cells.txt";
constexpr double kBufferMb = 25.0;  // compare's default fusion buffer
constexpr int kTuneTrials = 10;

constexpr sched::PolicyKind kPolicies[] = {
    sched::PolicyKind::kSequential, sched::PolicyKind::kWFBP,
    sched::PolicyKind::kByteScheduler, sched::PolicyKind::kHorovod,
    sched::PolicyKind::kDDP, sched::PolicyKind::kMGWFBP,
    sched::PolicyKind::kZeRO, sched::PolicyKind::kDeAR};

std::size_t BufferBytes(double mb) {
  return static_cast<std::size_t>(mb * 1024 * 1024);
}

/// The fusion plan `compare` gives each policy.
std::string HexFloat(double x) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", x);
  return buf;
}

/// Called with each configuration RenderCells evaluates, before it does.
using Visit = std::function<void(const dear::model::ModelSpec&,
                                 const sched::ClusterSpec&,
                                 const sched::PolicyConfig&)>;

/// One line per (model, policy, world, network) combination.
std::string RenderCells(const Visit& visit = {}) {
  auto models = dear::model::PaperModels();
  for (auto& m : dear::model::ExtensionModels()) models.push_back(m);
  std::ostringstream out;
  for (const auto& m : models) {
    for (const auto kind : kPolicies) {
      for (const int world : {16, 64}) {
        for (const auto& net : {dear::comm::NetworkModel::TenGbE(),
                                dear::comm::NetworkModel::HundredGbIB()}) {
          sched::ClusterSpec cluster;
          cluster.world_size = world;
          cluster.network = net;
          const auto compare =
              sched::DefaultConfig(kind, m, cluster, BufferBytes(kBufferMb));
          if (visit) visit(m, cluster, compare);
          const auto r = sched::EvaluatePolicy(m, cluster, compare);
          out << m.name() << " " << sched::PolicyName(kind) << " w" << world
              << " " << net.name << " iter=" << r.iter_time
              << " exposed=" << r.breakdown.comm_exposed << " bo=";

          // BO tune of this policy's fusion buffer, as `dearsim tune` does.
          dear::tune::BoOptions opts;
          opts.first_point = kBufferMb;
          dear::tune::BayesianOptimizer bo(1.0, 100.0, opts);
          for (int t = 0; t < kTuneTrials; ++t) {
            const double mb = bo.SuggestNext();
            sched::PolicyConfig cfg;
            cfg.kind = kind;
            cfg.plan = dear::fusion::ByBufferBytes(m, BufferBytes(mb));
            if (visit) visit(m, cluster, cfg);
            const auto trial = sched::EvaluatePolicy(m, cluster, cfg);
            bo.Observe(mb, trial.throughput_samples_per_s);
            out << (t ? "," : "") << HexFloat(mb);
          }
          out << "\n";
        }
      }
    }
  }
  return out.str();
}

std::string ReadGolden() {
  std::ifstream in(kGoldenPath);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(GoldenSim, ZooCellsMatchGolden) {
  const std::string golden = ReadGolden();
  ASSERT_FALSE(golden.empty())
      << "missing golden file " << kGoldenPath
      << " — regenerate with: ./golden_sim_test --regen";
  const std::string actual = RenderCells();
  // Compare line by line so a failure names the first differing cell.
  std::istringstream want(golden), got(actual);
  std::string want_line, got_line;
  int line = 0;
  while (std::getline(want, want_line)) {
    ++line;
    ASSERT_TRUE(std::getline(got, got_line))
        << "output ends before golden line " << line;
    ASSERT_EQ(got_line, want_line) << "first difference at line " << line;
  }
  EXPECT_FALSE(std::getline(got, got_line))
      << "output has more lines than the golden";
  EXPECT_EQ(actual, golden);
}

// EvaluatePolicy stops at the first repeated engine state, on a plan with
// same-stream chains folded. A silent fallback to the full horizon or to
// the unfolded plan would keep every number above and lose the speed, so
// every evaluation of the grid (the 224 cells' compare configurations and
// their BO trials) must take the early path, and none may re-run unfolded.
TEST(GoldenSim, EveryEvaluationTakesTheEarlyPath) {
  int evaluations = 0, early = 0, cells_early = 0, unfolded = 0;
  RenderCells([&](const dear::model::ModelSpec& m,
                  const sched::ClusterSpec& cluster,
                  const sched::PolicyConfig& cfg) {
    const auto built = sched::BuildTaskGraph(m, cluster, cfg,
                                             sched::RunOptions{}.iterations);
    const auto ends = dear::sim::SimulateRepetitionEnds(
        built.graph, built.stream_policies);
    ASSERT_TRUE(ends.ok()) << ends.status().ToString();
    const bool skipped = ends->skipped > 0;
    if (evaluations % (kTuneTrials + 1) == 0) cells_early += skipped;
    early += skipped;
    const auto folding = ends->folding;
    unfolded += folding != dear::sim::Folding::kKept &&
                folding != dear::sim::Folding::kNone;
    ++evaluations;
  });
  EXPECT_EQ(evaluations, 224 * (kTuneTrials + 1));
  EXPECT_EQ(cells_early, 224);
  EXPECT_EQ(early, evaluations);
  EXPECT_EQ(unfolded, 0);
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--regen") {
      std::ofstream out(kGoldenPath, std::ios::trunc);
      if (!out) {
        std::cerr << "cannot write " << kGoldenPath << "\n";
        return 1;
      }
      out << RenderCells();
      std::cout << "wrote " << kGoldenPath << "\n";
      return 0;
    }
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
