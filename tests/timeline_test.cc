// Timeline analysis: interval algebra, utilization/critical-path
// extraction, the exposed-communication computation, and Gantt rendering.
#include "analysis/timeline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>

#include "fusion/plan.h"
#include "model/zoo.h"
#include "sched/policies.h"
#include "sched/runner.h"

namespace dear::analysis {
namespace {

using sim::Simulate;
using sim::Task;
using sim::TaskGraph;
using sim::TaskId;
using sim::TaskKind;

TaskId AddTask(TaskGraph& g, std::int16_t stream, SimTime dur,
               const std::vector<TaskId>& deps = {},
               TaskKind kind = TaskKind::kOther) {
  Task t;
  t.stream = stream;
  t.duration = dur;
  t.kind = kind;
  return g.Add(t, deps);
}

TEST(IntervalTest, BusyIntervalsMergeAdjacentTasks) {
  TaskGraph g;
  const TaskId a = AddTask(g, 0, 10);
  AddTask(g, 0, 20, {a});  // back-to-back on the same stream
  auto r = Simulate(g, {});
  ASSERT_TRUE(r.ok());
  const auto busy = BusyIntervals(g, *r, 0);
  ASSERT_EQ(busy.size(), 1u);
  EXPECT_EQ(busy[0], (Interval{0, 30}));
}

TEST(IntervalTest, GapsAreSeparateIntervals) {
  TaskGraph g;
  const TaskId gate = AddTask(g, 1, 50);
  AddTask(g, 0, 10);
  AddTask(g, 0, 10, {gate});  // starts at 50 after an idle gap
  auto r = Simulate(g, {});
  ASSERT_TRUE(r.ok());
  const auto busy = BusyIntervals(g, *r, 0);
  ASSERT_EQ(busy.size(), 2u);
  EXPECT_EQ(busy[0], (Interval{0, 10}));
  EXPECT_EQ(busy[1], (Interval{50, 60}));
}

TEST(IntervalTest, ZeroDurationTasksIgnored) {
  TaskGraph g;
  AddTask(g, 0, 0);
  auto r = Simulate(g, {});
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(BusyIntervals(g, *r, 0).empty());
}

TEST(SubtractCoverTest, FullCoverGivesZero) {
  EXPECT_EQ(SubtractCover({{10, 20}}, {{0, 100}}), 0);
}

TEST(SubtractCoverTest, NoCoverGivesFullLength) {
  EXPECT_EQ(SubtractCover({{10, 20}, {30, 45}}, {}), 25);
}

TEST(SubtractCoverTest, PartialOverlaps) {
  // a = [0,10); cover = [3,5) and [8,20): exposed = [0,3) + [5,8) = 6.
  EXPECT_EQ(SubtractCover({{0, 10}}, {{3, 5}, {8, 20}}), 6);
}

TEST(SubtractCoverTest, CoverSpanningMultipleIntervals) {
  EXPECT_EQ(SubtractCover({{0, 10}, {20, 30}}, {{5, 25}}), 10);
}

TEST(AnalyzeTest, ChainIsDependencyBound) {
  TaskGraph g;
  const TaskId a = AddTask(g, 0, 10);
  const TaskId b = AddTask(g, 1, 20, {a});
  AddTask(g, 0, 30, {b});
  auto r = Simulate(g, {});
  ASSERT_TRUE(r.ok());
  const auto analysis = Analyze(g, *r);
  EXPECT_EQ(analysis.makespan, 60);
  EXPECT_EQ(analysis.critical_path, 60);
  EXPECT_TRUE(analysis.dependency_bound());
  EXPECT_EQ(analysis.critical_tasks.size(), 3u);
  EXPECT_EQ(analysis.critical_tasks.front(), a);
}

TEST(AnalyzeTest, SerializationExceedsCriticalPath) {
  TaskGraph g;
  AddTask(g, 0, 10);
  AddTask(g, 0, 10);  // independent but same stream
  auto r = Simulate(g, {});
  ASSERT_TRUE(r.ok());
  const auto analysis = Analyze(g, *r);
  EXPECT_EQ(analysis.makespan, 20);
  EXPECT_EQ(analysis.critical_path, 10);
  EXPECT_FALSE(analysis.dependency_bound());
}

TEST(AnalyzeTest, UtilizationFractions) {
  TaskGraph g;
  AddTask(g, 0, 40);
  AddTask(g, 1, 10);
  auto r = Simulate(g, {});
  ASSERT_TRUE(r.ok());
  const auto analysis = Analyze(g, *r);
  ASSERT_EQ(analysis.streams.size(), 2u);
  EXPECT_DOUBLE_EQ(analysis.streams[0].fraction_of_makespan, 1.0);
  EXPECT_DOUBLE_EQ(analysis.streams[1].fraction_of_makespan, 0.25);
}

TEST(AnalyzeTest, ExposedCommMatchesRunnerBreakdown) {
  // The interval-algebra computation of exposed communication must agree
  // with EvaluatePolicy's iteration-time arithmetic on a steady iteration.
  const auto m = model::UniformTestModel(6, 400000);
  sched::ClusterSpec cluster;
  cluster.world_size = 8;
  sched::PolicyConfig cfg;
  cfg.kind = sched::PolicyKind::kDeAR;
  cfg.plan = fusion::PerTensor(m);
  const auto built = sched::BuildTaskGraph(m, cluster, cfg, 8);
  auto r = Simulate(built.graph, built.stream_policies);
  ASSERT_TRUE(r.ok());

  const auto comm = BusyIntervals(built.graph, *r, sched::kCommStream);
  const auto compute = BusyIntervals(built.graph, *r, sched::kComputeStream);
  const SimTime exposed_total = SubtractCover(comm, compute);

  const auto run = sched::EvaluatePolicy(m, cluster, cfg);
  // Per-iteration exposure times the iteration count should be close to
  // the whole-run exposure (warmup effects allow slack).
  const double per_iter = static_cast<double>(run.breakdown.comm_exposed);
  EXPECT_NEAR(static_cast<double>(exposed_total) / 8.0, per_iter,
              0.25 * per_iter + 1e5);
}

TEST(GanttTest, RendersRowsPerStream) {
  TaskGraph g;
  const TaskId f = AddTask(g, 0, 50, {}, TaskKind::kForward);
  AddTask(g, 1, 25, {f}, TaskKind::kReduceScatter);
  auto r = Simulate(g, {});
  ASSERT_TRUE(r.ok());
  const std::string gantt = RenderAsciiGantt(g, *r, 20);
  // Stream 0: first ~2/3 forward, then idle. Stream 1: idle then RS.
  EXPECT_NE(gantt.find("stream 0 |"), std::string::npos);
  EXPECT_NE(gantt.find("stream 1 |"), std::string::npos);
  EXPECT_NE(gantt.find('F'), std::string::npos);
  EXPECT_NE(gantt.find('R'), std::string::npos);
  EXPECT_NE(gantt.find('.'), std::string::npos);
  // Two lines, each 20 buckets wide plus decorations.
  EXPECT_EQ(std::count(gantt.begin(), gantt.end(), '\n'), 2);
}

TEST(GanttTest, EmptyTimeline) {
  TaskGraph g;
  auto r = Simulate(g, {});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(RenderAsciiGantt(g, *r), "(empty timeline)\n");
}

TEST(GanttTest, BucketMajorityKindWins) {
  TaskGraph g;
  const TaskId f = AddTask(g, 0, 99, {}, TaskKind::kForward);
  AddTask(g, 0, 1, {f}, TaskKind::kBackward);
  auto r = Simulate(g, {});
  ASSERT_TRUE(r.ok());
  const std::string gantt = RenderAsciiGantt(g, *r, 10);
  // Forward dominates every bucket; the 1-unit backward is absorbed.
  EXPECT_EQ(std::count(gantt.begin(), gantt.end(), 'F'), 10);
}

// ---- Cross-rank critical-path attribution --------------------------------
//
// Synthetic journals in the shape core::DistOptim writes: kStepEnd records
// bound the iteration windows, kWaitBegin -> kRsComplete/kAgComplete bound
// a blocked wait, kRsLaunch/kAgLaunch mark a rank's arrival; group records
// carry (tag = group, payload = op sequence number).

using flightrec::EventKind;
using flightrec::Record;
using Journal = std::vector<std::vector<Record>>;

Record Rec(EventKind kind, SimTime ts, int group = 0, std::uint32_t seq = 0) {
  Record rec;
  rec.ts_ns = static_cast<std::uint64_t>(ts);
  rec.kind = static_cast<std::uint16_t>(kind);
  rec.tag = static_cast<std::uint32_t>(group);
  rec.payload = seq;
  return rec;
}

/// Step boundaries at `ends` on `rank`, numbered from 1.
void Steps(Journal& j, int rank, std::initializer_list<SimTime> ends) {
  std::uint32_t step = 0;
  for (const SimTime ts : ends)
    j[static_cast<std::size_t>(rank)].push_back(
        Rec(EventKind::kStepEnd, ts, 0, ++step));
}

/// Op `seq` of `group` on `rank`: launched at `launch`, waited on over
/// [wait, done). `ag` selects the all-gather kinds.
void Op(Journal& j, int rank, bool ag, int group, std::uint32_t seq,
        SimTime launch, SimTime wait, SimTime done) {
  auto& records = j[static_cast<std::size_t>(rank)];
  records.push_back(Rec(ag ? EventKind::kAgLaunch : EventKind::kRsLaunch,
                        launch, group, seq));
  records.push_back(Rec(EventKind::kWaitBegin, wait, group, seq));
  records.push_back(Rec(ag ? EventKind::kAgComplete : EventKind::kRsComplete,
                        done, group, seq));
}

/// Snapshot order: time-sorted per rank, as Recorder::SnapshotAll returns.
Journal Sorted(Journal j) {
  for (auto& records : j)
    std::stable_sort(records.begin(), records.end(),
                     [](const Record& a, const Record& b) {
                       return a.ts_ns < b.ts_ns;
                     });
  return j;
}

TEST(AttributionTest, EmptyJournalIsConsistentWithZeroIterations) {
  const auto report = AttributeIterations({}, 2);
  EXPECT_EQ(report.iterations, 0);
  EXPECT_TRUE(report.consistent);
  ASSERT_EQ(report.ranks.size(), 2u);
  const std::string text = RenderAttributionReport(report);
  EXPECT_NE(text.find("no complete iteration windows"), std::string::npos);
}

TEST(AttributionTest, SingleRankDecomposesComputeAndExposed) {
  // One 100ns window [0,100): waits on rs.g0 [60,80) and ag.g0 [90,100);
  // launches at the wait begins, so no straggler time anywhere.
  Journal j(1);
  Steps(j, 0, {0, 100});
  Op(j, 0, /*ag=*/false, 0, 0, 60, 60, 80);
  Op(j, 0, /*ag=*/true, 0, 1, 90, 90, 100);
  const auto report = AttributeIterations(Sorted(j), 1);
  ASSERT_EQ(report.iterations, 1);
  const RankAttribution& r = report.ranks[0];
  EXPECT_NEAR(r.iter_ms, 100e-6, 1e-12);
  EXPECT_NEAR(r.compute_ms, 70e-6, 1e-12);
  EXPECT_NEAR(r.exposed_rs_ms, 20e-6, 1e-12);
  EXPECT_NEAR(r.exposed_ag_ms, 10e-6, 1e-12);
  EXPECT_NEAR(r.straggler_ms, 0.0, 1e-12);
  EXPECT_TRUE(report.consistent);
  EXPECT_LE(r.residual_fraction, 1e-9);
}

TEST(AttributionTest, StragglerSkewChargedToLateRank) {
  // Rank 0 launches rs.g0 at t=10 and waits [10,100); rank 1 (the
  // straggler) only launches at t=70. Of rank 0's 90ns wait, 60ns is
  // arrival skew caused by rank 1, 30ns genuine exposed communication.
  Journal j(2);
  Steps(j, 0, {0, 100});
  Steps(j, 1, {0, 100});
  Op(j, 0, /*ag=*/false, 0, 0, 10, 10, 100);
  Op(j, 1, /*ag=*/false, 0, 0, 70, 70, 100);
  const auto report = AttributeIterations(Sorted(j), 2);
  ASSERT_EQ(report.iterations, 1);
  const RankAttribution& r0 = report.ranks[0];
  EXPECT_NEAR(r0.straggler_ms, 60e-6, 1e-12);
  EXPECT_NEAR(r0.exposed_rs_ms, 30e-6, 1e-12);
  // Rank 1 launched last, so it caused rank 0's skew and none of its own
  // wait counts as straggler time.
  const RankAttribution& r1 = report.ranks[1];
  EXPECT_NEAR(r1.straggler_ms, 0.0, 1e-12);
  EXPECT_NEAR(r1.caused_straggler_ms, 60e-6, 1e-12);
  ASSERT_EQ(report.straggler_ranking.size(), 2u);
  EXPECT_EQ(report.straggler_ranking[0], 1);
  EXPECT_TRUE(report.consistent);
  const std::string text = RenderAttributionReport(report);
  EXPECT_NE(text.find("consistency: OK"), std::string::npos);
}

TEST(AttributionTest, OpSequenceMatchesRepeatedCollectives) {
  // Two iterations of the same group: op 0 has no skew, op 1 has rank 1
  // late by 40ns. A name-only match would smear the skew across both.
  Journal j(2);
  for (int r = 0; r < 2; ++r) {
    Steps(j, r, {0, 100, 200});
    Op(j, r, /*ag=*/false, 0, 0, 20, 20, 30);
  }
  Op(j, 0, /*ag=*/false, 0, 1, 120, 120, 170);
  Op(j, 1, /*ag=*/false, 0, 1, 160, 160, 170);
  const auto report = AttributeIterations(Sorted(j), 2);
  ASSERT_EQ(report.iterations, 2);
  EXPECT_NEAR(report.ranks[0].straggler_ms, 40e-6, 1e-12);
  EXPECT_NEAR(report.ranks[0].exposed_rs_ms, 20e-6, 1e-12);
  EXPECT_NEAR(report.ranks[1].caused_straggler_ms, 40e-6, 1e-12);
  EXPECT_TRUE(report.consistent);
}

TEST(AttributionTest, OverlappingWaitSpansTripConsistencyCheck) {
  // Two overlapping waits double-count [40,60): the per-span parts exceed
  // the merged blocked cover, which the residual must expose.
  Journal j(1);
  Steps(j, 0, {0, 100});
  Op(j, 0, /*ag=*/false, 0, 0, 20, 20, 60);
  Op(j, 0, /*ag=*/false, 1, 1, 40, 40, 60);
  const auto report = AttributeIterations(Sorted(j), 1);
  ASSERT_EQ(report.iterations, 1);
  EXPECT_FALSE(report.consistent);
  EXPECT_GT(report.max_residual_fraction, 0.01);
  const std::string text = RenderAttributionReport(report);
  EXPECT_NE(text.find("consistency: FAILED"), std::string::npos);
}

TEST(AttributionTest, WaitClippedToWindowAndFusedArCountsAsRs) {
  // Window [100,200); the wait starts 20ns before it opens, so only the
  // in-window part [100,130) attributes. A fused all-reduce journals the
  // RS kinds and lands in the RS bucket.
  Journal j(1);
  Steps(j, 0, {100, 200});
  Op(j, 0, /*ag=*/false, 2, 0, 80, 80, 130);
  const auto report = AttributeIterations(Sorted(j), 1);
  ASSERT_EQ(report.iterations, 1);
  const RankAttribution& r = report.ranks[0];
  EXPECT_NEAR(r.exposed_rs_ms, 30e-6, 1e-12);
  EXPECT_NEAR(r.compute_ms, 70e-6, 1e-12);
  ASSERT_EQ(r.groups.size(), 1u);
  EXPECT_EQ(r.groups[0].group, 2);
  EXPECT_TRUE(report.consistent);
}

TEST(AttributionTest, WrappedRingCoversOnlyWindowsEveryRankHolds) {
  // Three iterations on two ranks, each with an RS wait; rank 1's ring then
  // loses its oldest records (everything before t=150), including the
  // step boundary at t=100. Only the last window [200,300) survives on
  // both ranks, and attribution covers exactly that one.
  Journal j(2);
  for (int r = 0; r < 2; ++r) {
    Steps(j, r, {0, 100, 200, 300});
    Op(j, r, /*ag=*/false, 0, 0, 40, 40, 60);
    Op(j, r, /*ag=*/false, 0, 1, 140, 140, 160);
    Op(j, r, /*ag=*/false, 0, 2, 240 + 10 * r, 240 + 10 * r, 270);
  }
  Journal wrapped = Sorted(j);
  auto& lost = wrapped[1];
  lost.erase(lost.begin(),
             std::find_if(lost.begin(), lost.end(),
                          [](const Record& rec) { return rec.ts_ns >= 150; }));
  const auto report = AttributeIterations(wrapped, 2);
  ASSERT_EQ(report.iterations, 1);
  EXPECT_TRUE(report.consistent);
  EXPECT_NEAR(report.ranks[0].iter_ms, 100e-6, 1e-12);
  EXPECT_NEAR(report.ranks[1].iter_ms, 100e-6, 1e-12);
  // Rank 0's wait in the held window: 10ns skew behind rank 1, 20ns
  // exposed; the earlier windows' waits are not attributed.
  EXPECT_NEAR(report.ranks[0].straggler_ms, 10e-6, 1e-12);
  EXPECT_NEAR(report.ranks[0].exposed_rs_ms, 20e-6, 1e-12);
  EXPECT_NEAR(report.ranks[1].caused_straggler_ms, 10e-6, 1e-12);
  EXPECT_NE(RenderAttributionReport(report).find("consistency: OK"),
            std::string::npos);
}

}  // namespace
}  // namespace dear::analysis
