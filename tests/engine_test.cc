// Discrete-event engine: dependency semantics, stream serialization, FIFO
// vs priority dispatch, determinism, malformed-graph rejection, bit-for-bit
// agreement with the reference engine, and per-repetition ends with and
// without the early stop at a repeated state.
#include "sim/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "sim_reference.h"
#include "sim_unroll.h"

namespace dear::sim {
namespace {

TaskId AddTask(TaskGraph& g, std::int16_t stream, SimTime dur,
               const std::vector<TaskId>& deps = {}, double priority = 0.0) {
  Task t;
  t.stream = stream;
  t.duration = dur;
  t.priority = priority;
  return g.Add(t, deps);
}

TEST(EngineTest, EmptyGraph) {
  TaskGraph g;
  auto r = Simulate(g, {});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->makespan, 0);
}

TEST(EngineTest, SingleTask) {
  TaskGraph g;
  const TaskId a = AddTask(g, 0, 100);
  auto r = Simulate(g, {});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->timings[a].start, 0);
  EXPECT_EQ(r->timings[a].end, 100);
  EXPECT_EQ(r->makespan, 100);
}

TEST(EngineTest, ChainRunsSequentially) {
  TaskGraph g;
  const TaskId a = AddTask(g, 0, 10);
  const TaskId b = AddTask(g, 0, 20, {a});
  const TaskId c = AddTask(g, 0, 30, {b});
  auto r = Simulate(g, {});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->timings[b].start, 10);
  EXPECT_EQ(r->timings[c].start, 30);
  EXPECT_EQ(r->makespan, 60);
}

TEST(EngineTest, IndependentStreamsOverlap) {
  TaskGraph g;
  AddTask(g, 0, 100);
  AddTask(g, 1, 100);
  auto r = Simulate(g, {});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->makespan, 100);  // parallel, not 200
}

TEST(EngineTest, SameStreamSerializesIndependentTasks) {
  TaskGraph g;
  AddTask(g, 0, 100);
  AddTask(g, 0, 100);
  auto r = Simulate(g, {});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->makespan, 200);
}

TEST(EngineTest, CrossStreamDependency) {
  TaskGraph g;
  const TaskId a = AddTask(g, 0, 50);
  const TaskId b = AddTask(g, 1, 10, {a});
  auto r = Simulate(g, {});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->timings[b].start, 50);
  EXPECT_EQ(r->makespan, 60);
}

TEST(EngineTest, MultipleDepsWaitForLast) {
  TaskGraph g;
  const TaskId a = AddTask(g, 0, 10);
  const TaskId b = AddTask(g, 1, 99);
  const TaskId c = AddTask(g, 2, 5, {a, b});
  auto r = Simulate(g, {});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->timings[c].start, 99);
}

TEST(EngineTest, FifoByReadyDispatchesInReadinessOrder) {
  // Two tasks on stream 1: y becomes ready at t=5, x at t=20. FIFO must run
  // y first even though x was inserted first.
  TaskGraph g;
  const TaskId slow = AddTask(g, 0, 20);
  const TaskId fast = AddTask(g, 2, 5);
  const TaskId x = AddTask(g, 1, 10, {slow});
  const TaskId y = AddTask(g, 1, 10, {fast});
  auto r = Simulate(g, {StreamPolicy::kFifoByReady, StreamPolicy::kFifoByReady,
                        StreamPolicy::kFifoByReady});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->timings[y].start, 5);
  EXPECT_EQ(r->timings[x].start, 20);
}

TEST(EngineTest, FifoTiesBrokenByInsertionOrder) {
  TaskGraph g;
  const TaskId gate = AddTask(g, 0, 10);
  const TaskId first = AddTask(g, 1, 5, {gate});
  const TaskId second = AddTask(g, 1, 5, {gate});
  auto r = Simulate(g, {});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->timings[first].start, 10);
  EXPECT_EQ(r->timings[second].start, 15);
}

TEST(EngineTest, PriorityStreamPicksHighestPriorityReady) {
  // Both ready at t=10; the lower priority value must run first.
  TaskGraph g;
  const TaskId gate = AddTask(g, 0, 10);
  const TaskId low = AddTask(g, 1, 5, {gate}, /*priority=*/9.0);
  const TaskId high = AddTask(g, 1, 5, {gate}, /*priority=*/1.0);
  auto r = Simulate(g, {StreamPolicy::kFifoByReady, StreamPolicy::kPriority});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->timings[high].start, 10);
  EXPECT_EQ(r->timings[low].start, 15);
}

TEST(EngineTest, PriorityDoesNotPreemptRunningTask) {
  // A long low-priority task already running is not preempted when a
  // high-priority task becomes ready (stream semantics, like NCCL).
  TaskGraph g;
  const TaskId low = AddTask(g, 1, 100, {}, 9.0);
  const TaskId gate = AddTask(g, 0, 10);
  const TaskId high = AddTask(g, 1, 5, {gate}, 1.0);
  auto r = Simulate(g, {StreamPolicy::kFifoByReady, StreamPolicy::kPriority});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->timings[low].start, 0);
  EXPECT_EQ(r->timings[high].start, 100);
}

TEST(EngineTest, ZeroDurationTasksPropagateInstantly) {
  TaskGraph g;
  const TaskId a = AddTask(g, 0, 10);
  const TaskId sync = AddTask(g, 1, 0, {a});
  const TaskId b = AddTask(g, 0, 10, {sync});
  auto r = Simulate(g, {});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->timings[b].start, 10);
  EXPECT_EQ(r->makespan, 20);
}

TEST(EngineTest, DeterministicAcrossRuns) {
  TaskGraph g;
  std::vector<TaskId> prev;
  for (int i = 0; i < 50; ++i) {
    std::vector<TaskId> deps;
    if (i >= 2) deps = {prev[static_cast<std::size_t>(i - 2)]};
    prev.push_back(AddTask(g, static_cast<std::int16_t>(i % 3),
                           (i * 7) % 13 + 1, deps));
  }
  auto r1 = Simulate(g, {});
  auto r2 = Simulate(g, {});
  ASSERT_TRUE(r1.ok() && r2.ok());
  for (std::size_t i = 0; i < g.size(); ++i) {
    EXPECT_EQ(r1->timings[i].start, r2->timings[i].start);
    EXPECT_EQ(r1->timings[i].end, r2->timings[i].end);
  }
}

TEST(EngineTest, WorkConservingStreams) {
  // Stream 1 must not idle at t=0 waiting for the blocked task inserted
  // first; it should run the ready task immediately.
  TaskGraph g;
  const TaskId gate = AddTask(g, 0, 50);
  const TaskId blocked = AddTask(g, 1, 10, {gate});
  const TaskId ready = AddTask(g, 1, 10);
  auto r = Simulate(g, {});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->timings[ready].start, 0);
  EXPECT_EQ(r->timings[blocked].start, 50);
}

TEST(EngineTest, DanglingDependencyRejected) {
  TaskGraph g;
  AddTask(g, 0, 10, {42});
  auto r = Simulate(g, {});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineTest, NegativeDurationRejected) {
  TaskGraph g;
  AddTask(g, 0, -5);
  auto r = Simulate(g, {});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineTest, CycleDetected) {
  TaskGraph g;
  const TaskId a = AddTask(g, 0, 10, {1});
  AddTask(g, 0, 10, {a});
  auto r = Simulate(g, {});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

TEST(EngineTest, DuplicateDependencyWaitsOnce) {
  // A task listing the same dependency twice is released by that task's
  // single completion, and still runs exactly once.
  TaskGraph g;
  const TaskId a = AddTask(g, 0, 10);
  const TaskId b = AddTask(g, 1, 5, {a, a});
  const TaskId c = AddTask(g, 1, 5, {b, a, b});
  auto r = Simulate(g, {});
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->timings[b].executed);
  EXPECT_EQ(r->timings[b].start, 10);
  EXPECT_EQ(r->timings[c].start, 15);
  EXPECT_EQ(r->makespan, 20);
}

TEST(EngineTest, FifoDispatchesInPushOrder) {
  // Stream 1 is busy until t=100. Meanwhile z becomes ready at t=5, then x
  // and y are readied by the same completion at t=10. FIFO dispatch follows
  // the push order z, x, y, although z was inserted last.
  TaskGraph g;
  const TaskId busy = AddTask(g, 1, 100);
  const TaskId late_gate = AddTask(g, 0, 10);
  const TaskId early_gate = AddTask(g, 2, 5);
  const TaskId x = AddTask(g, 1, 7, {late_gate});
  const TaskId y = AddTask(g, 1, 7, {late_gate});
  const TaskId z = AddTask(g, 1, 7, {early_gate});
  auto r = Simulate(g, {});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->timings[busy].start, 0);
  EXPECT_EQ(r->timings[z].start, 100);
  EXPECT_EQ(r->timings[x].start, 107);
  EXPECT_EQ(r->timings[y].start, 114);
  EXPECT_EQ(r->makespan, 121);
}

TEST(EngineTest, ValidationErrorsKeepTheirMessages) {
  struct Case {
    const char* name;
    TaskGraph graph;
    StatusCode code;
    const char* message;
  };
  std::vector<Case> cases;
  {
    TaskGraph g;
    AddTask(g, 0, 10);
    AddTask(g, -1, 10);
    cases.push_back({"negative stream", std::move(g),
                     StatusCode::kInvalidArgument, "negative stream id"});
  }
  {
    TaskGraph g;
    AddTask(g, 0, -5);
    cases.push_back({"negative duration", std::move(g),
                     StatusCode::kInvalidArgument, "negative duration"});
  }
  {
    TaskGraph g;
    AddTask(g, 0, 10);
    AddTask(g, 0, 10, {-1});
    cases.push_back({"negative dependency", std::move(g),
                     StatusCode::kInvalidArgument, "dangling dependency"});
  }
  {
    TaskGraph g;
    AddTask(g, 0, 10, {2});
    cases.push_back({"dependency past the end", std::move(g),
                     StatusCode::kInvalidArgument, "dangling dependency"});
  }
  {
    // Task checks (stream, duration) precede dependency checks.
    TaskGraph g;
    AddTask(g, 0, 10, {42});
    AddTask(g, 0, -1);
    cases.push_back({"duration before dangling", std::move(g),
                     StatusCode::kInvalidArgument, "negative duration"});
  }
  {
    TaskGraph g;
    const TaskId root = AddTask(g, 0, 10);
    AddTask(g, 0, 10, {root, 3});
    AddTask(g, 1, 10, {1});
    AddTask(g, 1, 10, {2});
    cases.push_back({"cycle", std::move(g), StatusCode::kFailedPrecondition,
                     "dependency cycle: 3 tasks never became ready"});
  }
  for (const auto& c : cases) {
    auto r = Simulate(c.graph, {});
    ASSERT_FALSE(r.ok()) << c.name;
    EXPECT_EQ(r.status().code(), c.code) << c.name;
    EXPECT_EQ(r.status().message(), c.message) << c.name;
  }
}

TEST(EngineTest, UnlistedStreamsDefaultToFifo) {
  TaskGraph g;
  AddTask(g, 5, 10);  // stream 5, no policy given
  auto r = Simulate(g, {});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->makespan, 10);
}

// Property tests over randomized periodic DAGs, repeated 1, 2 or 5 times
// with random carried edges (forward ones included): for any graph, (1)
// dependencies are never violated, (2) the makespan is at least the
// critical path, (3) each stream's busy time fits within the makespan, (4)
// results replay identically, and (5) every task is timed exactly as in
// the unrolled copy of the graph.
class RandomDagProperties
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, int>> {};

TEST_P(RandomDagProperties, InvariantsHold) {
  const auto [seed, repeats] = GetParam();
  // Simple deterministic LCG so the graph depends only on the seed.
  std::uint64_t state = seed * 2654435761u + 12345;
  auto next = [&]() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<std::uint32_t>(state >> 33);
  };

  TaskGraph g;
  const int n = 60 + static_cast<int>(next() % 60);
  const int streams = 1 + static_cast<int>(next() % 4);
  std::vector<TaskId> deps;
  for (int i = 0; i < n; ++i) {
    Task t;
    t.stream = static_cast<std::int16_t>(next() % streams);
    t.duration = next() % 50;  // zero durations included
    t.priority = next() % 7;
    const int max_deps = std::min(i, 3);
    for (int d = 0; d < max_deps; ++d)
      if (next() % 3 == 0)
        deps.push_back(static_cast<TaskId>(next() % i));
    g.Add(t, deps);
    deps.clear();
  }
  for (int i = 0; i < n; ++i) {
    for (int d = 0; d < 2; ++d)
      if (next() % 4 == 0) deps.push_back(static_cast<TaskId>(next() % n));
    if (!deps.empty()) g.SetCarried(i, deps);
    deps.clear();
  }
  g.Repeat(repeats);
  ASSERT_EQ(g.size(), static_cast<std::size_t>(n * repeats));
  std::vector<StreamPolicy> policies;
  for (int s = 0; s < streams; ++s)
    policies.push_back(s % 2 ? StreamPolicy::kPriority
                             : StreamPolicy::kFifoByReady);

  auto r = Simulate(g, policies);
  ASSERT_TRUE(r.ok());

  // (1) dependency correctness; compute (2) critical path and (3) busy time.
  std::vector<SimTime> critical(g.size(), 0);
  std::vector<SimTime> busy(static_cast<std::size_t>(streams), 0);
  for (std::size_t i = 0; i < g.size(); ++i) {
    const Task t = g.task(static_cast<TaskId>(i));
    ASSERT_TRUE(r->timings[i].executed);
    SimTime earliest = 0;
    g.ForEachDep(static_cast<TaskId>(i), [&](TaskId dep) {
      ASSERT_GE(r->timings[i].start,
                r->timings[static_cast<std::size_t>(dep)].end);
      earliest =
          std::max(earliest, critical[static_cast<std::size_t>(dep)]);
    });
    critical[i] = earliest + t.duration;
    busy[static_cast<std::size_t>(t.stream)] += t.duration;
  }
  SimTime longest = 0;
  for (SimTime c : critical) longest = std::max(longest, c);
  EXPECT_GE(r->makespan, longest);
  for (SimTime b : busy) EXPECT_LE(b, r->makespan);

  // (4) determinism.
  auto r2 = Simulate(g, policies);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r->makespan, r2->makespan);

  // (5) the periodic graph is its unrolled copy.
  auto flat = Simulate(Unroll(g), policies);
  ASSERT_TRUE(flat.ok());
  ExpectSameTimings(*r, *flat);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, RandomDagProperties,
    ::testing::Combine(::testing::Range<std::uint64_t>(1, 21),
                       ::testing::Values(1, 2, 5)));

TEST(EngineTest, RepeatedGraphUnrollsIdsDepsAndIterations) {
  // Period: a (iteration 0), b (untagged) waiting on a and, from the second
  // repetition on, on the previous repetition's b and a.
  TaskGraph g;
  Task a;
  a.duration = 10;
  a.iteration = 0;
  const TaskId ia = g.Add(a);
  Task b;
  b.stream = 1;
  b.duration = 3;
  const TaskId ib = g.Add(b, std::vector<TaskId>{ia});
  g.SetCarried(ib, std::vector<TaskId>{ib, ia});
  g.Repeat(3);
  ASSERT_EQ(g.size(), 6u);
  EXPECT_EQ(g.period(), 2u);
  EXPECT_EQ(g.repeats(), 3u);
  EXPECT_EQ(g.task(4).iteration, 2);
  EXPECT_EQ(g.task(5).iteration, -1);  // untagged tasks stay untagged
  EXPECT_EQ(g.task(5).duration, 3);

  const auto deps_of = [&g](TaskId id) {
    std::vector<TaskId> out;
    g.ForEachDep(id, [&out](TaskId d) { out.push_back(d); });
    return out;
  };
  EXPECT_EQ(deps_of(1), (std::vector<TaskId>{0}));
  EXPECT_EQ(deps_of(3), (std::vector<TaskId>{2, 1, 0}));
  EXPECT_EQ(deps_of(5), (std::vector<TaskId>{4, 3, 2}));

  auto r = Simulate(g, {});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->timings[4].start, 20);  // the compute stream never waits
  EXPECT_EQ(r->timings[5].start, 30);
  EXPECT_EQ(r->makespan, 33);
}

TEST(EngineTest, DanglingCarriedDependencyIsRejected) {
  TaskGraph g;
  AddTask(g, 0, 10);
  g.SetCarried(0, std::vector<TaskId>{1});
  auto r = Simulate(g, {});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.status().message(), "dangling dependency");
}

TEST(EngineTest, DiamondDag) {
  TaskGraph g;
  const TaskId a = AddTask(g, 0, 10);
  const TaskId b = AddTask(g, 1, 20, {a});
  const TaskId c = AddTask(g, 2, 30, {a});
  const TaskId d = AddTask(g, 0, 5, {b, c});
  auto r = Simulate(g, {});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->timings[d].start, 40);
  EXPECT_EQ(r->makespan, 45);
}

// Bit-for-bit agreement with the reference engine (sim_reference.h) over
// seeded random periodic DAGs: every stream FIFO, every stream priority, or
// a mix; 2, 3 or 33 streams; 1, 2 or 5 repetitions. Priorities come from a
// small set holding negatives and both signed zeros, so they tie within and
// across repetitions; durations come from a small set holding zero, so
// completions tie in time and fall back on dispatch order.
enum class PolicyMix { kFifo, kPriority, kMixed };

class ReferenceEquivalence
    : public ::testing::TestWithParam<
          std::tuple<std::uint64_t, PolicyMix, int, int>> {};

TEST_P(ReferenceEquivalence, TimingsMatchBitForBit) {
  const auto [seed, mix, streams, repeats] = GetParam();
  std::uint64_t state = seed * 0x9E3779B97F4A7C15ULL + 7;
  auto next = [&]() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<std::uint32_t>(state >> 33);
  };
  constexpr SimTime kDurations[] = {0, 5, 5, 10, 17};
  constexpr double kPriorities[] = {-2.0, -0.0, 0.0, 1.0, 1.0, 3.5};

  TaskGraph g;
  const int n = 40 + static_cast<int>(next() % 80);
  std::vector<TaskId> deps;
  for (int i = 0; i < n; ++i) {
    Task t;
    t.stream = static_cast<std::int16_t>(next() % streams);
    t.duration = kDurations[next() % 5];
    t.priority = kPriorities[next() % 6];
    for (int d = 0; d < std::min(i, 4); ++d)
      if (next() % 3 == 0) deps.push_back(static_cast<TaskId>(next() % i));
    g.Add(t, deps);
    deps.clear();
  }
  for (int i = 0; i < n; ++i) {
    for (int d = 0; d < 2; ++d)
      if (next() % 3 == 0) deps.push_back(static_cast<TaskId>(next() % n));
    if (!deps.empty()) g.SetCarried(i, deps);
    deps.clear();
  }
  g.Repeat(repeats);

  std::vector<StreamPolicy> policies;
  for (int s = 0; s < streams; ++s) {
    const bool priority = mix == PolicyMix::kPriority ||
                          (mix == PolicyMix::kMixed && s % 2 == 1);
    policies.push_back(priority ? StreamPolicy::kPriority
                                : StreamPolicy::kFifoByReady);
  }
  const auto got = Simulate(g, policies);
  const auto want = ReferenceSimulate(g, policies);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ExpectSameTimings(*got, *want);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ReferenceEquivalence,
    ::testing::Combine(::testing::Range<std::uint64_t>(1, 11),
                       ::testing::Values(PolicyMix::kFifo,
                                         PolicyMix::kPriority,
                                         PolicyMix::kMixed),
                       ::testing::Values(2, 3, 33),
                       ::testing::Values(1, 2, 5)));

TEST(EngineTest, NegativeAndSignedZeroPrioritiesKeepTheirOrder) {
  // Four tasks become ready together behind a gate on a priority stream:
  // the negative priority runs first, then 0.0 and -0.0, which compare
  // equal and so keep insertion order, then 1.
  TaskGraph g;
  const TaskId gate = AddTask(g, 0, 10);
  const TaskId zero = AddTask(g, 1, 1, {gate}, 0.0);
  const TaskId one = AddTask(g, 1, 1, {gate}, 1.0);
  const TaskId neg_zero = AddTask(g, 1, 1, {gate}, -0.0);
  const TaskId neg = AddTask(g, 1, 1, {gate}, -3.0);
  const std::vector<StreamPolicy> policies = {StreamPolicy::kFifoByReady,
                                              StreamPolicy::kPriority};
  const auto r = Simulate(g, policies);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->timings[neg].start, 10);
  EXPECT_EQ(r->timings[zero].start, 11);
  EXPECT_EQ(r->timings[neg_zero].start, 12);
  EXPECT_EQ(r->timings[one].start, 13);
  const auto want = ReferenceSimulate(g, policies);
  ASSERT_TRUE(want.ok());
  ExpectSameTimings(*r, *want);
}

TEST(EngineTest, NanPriorityIsRejectedOnPriorityStreams) {
  // NaN is unordered against every priority, so a priority stream has no
  // dispatch order for it (the reference engine's heap comparison stops
  // being a strict weak order): Simulate rejects the graph. A FIFO stream
  // never reads priorities, so there NaN is accepted and changes nothing.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  TaskGraph g;
  const TaskId a = AddTask(g, 0, 10);
  AddTask(g, 1, 5, {a}, 1.0);
  AddTask(g, 1, 5, {a}, nan);
  const auto rejected =
      Simulate(g, {StreamPolicy::kFifoByReady, StreamPolicy::kPriority});
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(rejected.status().message(), "NaN priority on a priority stream");

  const auto fifo = Simulate(g, {});
  const auto want = ReferenceSimulate(g, {});
  ASSERT_TRUE(fifo.ok() && want.ok());
  ExpectSameTimings(*fifo, *want);
  EXPECT_EQ(fifo->makespan, 20);
}

// Per-repetition ends: SimulateRepetitionEnds (early stop) and its fallback
// against the reference engine's timings.

/// Each repetition's end from the reference engine's per-task timings.
std::vector<SimTime> ReferenceEnds(const TaskGraph& g,
                                   const std::vector<StreamPolicy>& policies) {
  const auto r = ReferenceSimulate(g, policies);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  std::vector<SimTime> ends(g.repeats(), 0);
  if (!r.ok()) return ends;
  for (std::size_t i = 0; i < g.size(); ++i) {
    SimTime& end = ends[i / g.period()];
    end = std::max(end, r->timings[i].end);
  }
  return ends;
}

/// Both functions return the reference's ends; returns the early path's
/// skipped count.
std::size_t ExpectReferenceEnds(const TaskGraph& g,
                                const std::vector<StreamPolicy>& policies) {
  const std::vector<SimTime> want = ReferenceEnds(g, policies);
  const auto early = SimulateRepetitionEnds(g, policies);
  const auto full = SimulateRepetitionEndsFullHorizon(g, policies);
  EXPECT_TRUE(early.ok()) << early.status().ToString();
  EXPECT_TRUE(full.ok()) << full.status().ToString();
  if (!early.ok() || !full.ok()) return 0;
  EXPECT_EQ(early->size(), want.size());
  EXPECT_EQ(full->size(), want.size());
  EXPECT_EQ(full->skipped, 0u);
  for (std::size_t r = 0; r < want.size(); ++r) {
    EXPECT_EQ((*early)[r], want[r]) << "repetition " << r;
    EXPECT_EQ((*full)[r], want[r]) << "repetition " << r;
  }
  return early->skipped;
}

// Seeded random periodic DAGs that try to break the state-repeat argument:
// FIFO and priority streams, priorities that tie (negatives and both signed
// zeros), zero durations, carried deps that point forward. Half the graphs
// are gated (every task without in-period deps waits on the previous
// repetition), so the early path can apply; the others may leave tasks of
// every repetition ready at t = 0, which forces the fallback. Every
// repetition's end must equal the reference engine's, and both paths must
// occur.
TEST(RepetitionEndsTest, RandomDagsMatchTheReferenceEngine) {
  constexpr SimTime kDurations[] = {0, 3, 5, 5, 10, 17};
  constexpr double kPriorities[] = {-2.0, -0.0, 0.0, 1.0, 1.0, 3.5};
  constexpr int kRepeats[] = {3, 5, 8, 13, 20};
  int early = 0, fallback = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    std::cout << "RandomDagsMatchTheReferenceEngine seed " << seed
              << std::endl;
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::uint64_t state = seed * 0xD1B54A32D192ED03ULL + 11;
    auto next = [&]() {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      return static_cast<std::uint32_t>(state >> 33);
    };
    const bool gated = seed % 2 == 0;
    const int streams = 1 + static_cast<int>(next() % 4);
    const int n = 4 + static_cast<int>(next() % 40);
    TaskGraph g;
    std::vector<TaskId> deps;
    std::vector<bool> has_deps(static_cast<std::size_t>(n), false);
    for (int i = 0; i < n; ++i) {
      Task t;
      t.stream = static_cast<std::int16_t>(next() % streams);
      t.duration = kDurations[next() % 6];
      t.priority = kPriorities[next() % 6];
      for (int d = 0; d < std::min(i, 3); ++d)
        if (next() % 3 == 0) deps.push_back(static_cast<TaskId>(next() % i));
      has_deps[static_cast<std::size_t>(i)] = !deps.empty();
      g.Add(t, deps);
      deps.clear();
    }
    for (int i = 0; i < n; ++i) {
      for (int d = 0; d < 2; ++d)
        if (next() % 4 == 0) deps.push_back(static_cast<TaskId>(next() % n));
      if (gated && deps.empty() && !has_deps[static_cast<std::size_t>(i)])
        deps.push_back(static_cast<TaskId>(next() % n));
      if (!deps.empty()) g.SetCarried(i, deps);
      deps.clear();
    }
    g.Repeat(kRepeats[next() % 5]);
    std::vector<StreamPolicy> policies;
    for (int s = 0; s < streams; ++s)
      policies.push_back(next() % 2 ? StreamPolicy::kPriority
                                    : StreamPolicy::kFifoByReady);
    (ExpectReferenceEnds(g, policies) > 0 ? early : fallback) += 1;
  }
  std::cout << "early path " << early << ", fallback " << fallback
            << std::endl;
  EXPECT_GT(early, 0);
  EXPECT_GT(fallback, 0);
}

// A period whose last repetition is not the interior ones shifted. Stream 0
// chains A (10); B (6, stream 1) waits on A, D (8, stream 2) on B and C (3,
// stream 1) on D. C becomes ready after the next repetition's B, which
// therefore runs first and delays it; the last repetition has no next B,
// so its C, and its end, come earlier than the interior period predicts. A
// run cut short at any horizon shows the same short last gap, so a check
// of a truncated run's timings would misread the period. The early path
// must find the repeat from the engine state and still end the last
// repetition early.
TEST(RepetitionEndsTest, LastRepetitionIsNotTheInteriorShifted) {
  TaskGraph g;
  const TaskId a = AddTask(g, 0, 10);
  const TaskId b = AddTask(g, 1, 6, {a});
  const TaskId d = AddTask(g, 2, 8, {b});
  AddTask(g, 1, 3, {d});
  g.SetCarried(a, std::vector<TaskId>{a});
  g.Repeat(12);
  const std::vector<StreamPolicy> policies(3, StreamPolicy::kFifoByReady);
  EXPECT_GT(ExpectReferenceEnds(g, policies), 0u);
  const auto ends = SimulateRepetitionEnds(g, policies);
  ASSERT_TRUE(ends.ok());
  // A ends at 10 r + 10, B at + 6, D at + 14; C waits for the next B and
  // ends at + 19, except in the last repetition, where it ends at + 17.
  EXPECT_EQ(ends->period, 10);
  EXPECT_EQ((*ends)[10], 129);
  EXPECT_EQ((*ends)[11], 137);
}

// Stream 1's task takes 15 per repetition while stream 0's chain hands it
// one every 10: the backlog grows without bound, no state repeats and the
// live repetitions outgrow the ring, so the run falls back to the full
// horizon.
TEST(RepetitionEndsTest, GrowingBacklogFallsBackToTheFullHorizon) {
  TaskGraph g;
  const TaskId a = AddTask(g, 0, 10);
  AddTask(g, 1, 15, {a});
  g.SetCarried(a, std::vector<TaskId>{a});
  g.Repeat(40);
  EXPECT_EQ(ExpectReferenceEnds(g, {}), 0u);
}

TEST(RepetitionEndsTest, ErrorsAreSimulates) {
  TaskGraph cycle;
  const TaskId a = AddTask(cycle, 0, 10, {1});
  AddTask(cycle, 0, 10, {a});
  cycle.Repeat(5);
  TaskGraph dangling;
  AddTask(dangling, 0, 10);
  dangling.SetCarried(0, std::vector<TaskId>{3});
  dangling.Repeat(5);
  // A chain that repeats from the first boundary beside an in-period cycle
  // that never runs: the early run must not count skipped cycle tasks as
  // executed.
  TaskGraph partial;
  const TaskId chain = AddTask(partial, 0, 10);
  partial.SetCarried(chain, std::vector<TaskId>{chain});
  const TaskId b = AddTask(partial, 1, 10, {2});
  AddTask(partial, 1, 10, {b});
  partial.Repeat(5);
  for (const TaskGraph* g : {&cycle, &dangling, &partial}) {
    const auto want = Simulate(*g, {});
    ASSERT_FALSE(want.ok());
    for (const auto& got : {SimulateRepetitionEnds(*g, {}),
                            SimulateRepetitionEndsFullHorizon(*g, {})}) {
      ASSERT_FALSE(got.ok());
      EXPECT_EQ(got.status().code(), want.status().code());
      EXPECT_EQ(got.status().message(), want.status().message());
    }
  }
}

}  // namespace
}  // namespace dear::sim
