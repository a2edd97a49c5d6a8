// Discrete-event engine: dependency semantics, stream serialization, FIFO
// vs priority dispatch, determinism, malformed-graph rejection, bit-for-bit
// agreement with the reference engine, per-repetition ends with and without
// the early stop at a repeated state, and the folding of same-stream chains
// (with its run-time checks) that the early stop runs on.
#include "sim/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "sim_reference.h"
#include "sim_unroll.h"
#include "test_env.h"

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
/// result (empty if it failed).
RepetitionEnds ExpectReferenceEnds(const TaskGraph& g,
                                   const std::vector<StreamPolicy>& policies) {
  const std::vector<SimTime> want = ReferenceEnds(g, policies);
  const auto early = SimulateRepetitionEnds(g, policies);
  const auto full = SimulateRepetitionEndsFullHorizon(g, policies);
  EXPECT_TRUE(early.ok()) << early.status().ToString();
  EXPECT_TRUE(full.ok()) << full.status().ToString();
  if (!early.ok() || !full.ok()) return {};
  EXPECT_EQ(early->size(), want.size());
  EXPECT_EQ(full->size(), want.size());
  EXPECT_EQ(full->skipped, 0u);
  for (std::size_t r = 0; r < want.size(); ++r) {
    EXPECT_EQ((*early)[r], want[r]) << "repetition " << r;
    EXPECT_EQ((*full)[r], want[r]) << "repetition " << r;
  }
  return *early;
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
    (ExpectReferenceEnds(g, policies).skipped > 0 ? early : fallback) += 1;
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
  EXPECT_GT(ExpectReferenceEnds(g, policies).skipped, 0u);
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
  EXPECT_EQ(ExpectReferenceEnds(g, {}).skipped, 0u);
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

// Folding: SimulateRepetitionEnds runs each same-stream chain as one task
// and re-runs unfolded when a run-time check finds the fold could change
// the schedule (DESIGN.md §4.10). Each graph below breaks one check's
// premise; the folded run without that check would end the repetitions
// at the times noted, so the re-run must happen for the ends to match.

const std::vector<StreamPolicy> kFifo4(4, StreamPolicy::kFifoByReady);

// (a) H (10) and X (5) become ready together on stream 0, H first. The
// graph runs H, X, then H's successor M (10), so Y (7, stream 1) ends each
// repetition at 32; H and M as one task would run X last and end it at 27.
TEST(FoldTest, TaskQueuedBehindAFoldedTaskStopsTheFold) {
  TaskGraph g;
  const TaskId h = AddTask(g, 0, 10);
  const TaskId m = AddTask(g, 0, 10, {h});
  const TaskId x = AddTask(g, 0, 5);
  const TaskId y = AddTask(g, 1, 7, {m});
  g.SetCarried(h, std::vector<TaskId>{y});
  g.SetCarried(x, std::vector<TaskId>{y});
  g.Repeat(6);
  const auto ends = ExpectReferenceEnds(g, kFifo4);
  EXPECT_EQ(ends.folding, Folding::kQueueNotEmpty);
  EXPECT_EQ(ends[0], 32);
}

// (b) H (10) runs on stream 0 while Y (5, stream 1) readies X (3, stream 0)
// at 5, before H's successor M (10) starts: the graph runs X before M and
// K (10, stream 2, after M) ends each repetition at 33; H and M as one task
// would end it at 30.
TEST(FoldTest, PushInsideTheWindowStopsTheFold) {
  TaskGraph g;
  const TaskId h = AddTask(g, 0, 10);
  const TaskId m = AddTask(g, 0, 10, {h});
  const TaskId y = AddTask(g, 1, 5);
  AddTask(g, 0, 3, {y});
  const TaskId k = AddTask(g, 2, 10, {m});
  g.SetCarried(h, std::vector<TaskId>{k});
  g.SetCarried(y, std::vector<TaskId>{k});
  g.Repeat(6);
  const auto ends = ExpectReferenceEnds(g, kFifo4);
  EXPECT_EQ(ends.folding, Folding::kPushInWindow);
  EXPECT_EQ(ends[0], 33);
}

// (c) H (5) then M (10) on stream 0 end at 15, as Z (15, stream 1) does. Z
// was dispatched after H but before M, so the graph pops Z first: Q (1)
// takes stream 2 before P (10), and R (20, after Q) ends each repetition
// at 36. H and M as one task carry H's dispatch and pop first, so P would
// run first and R end at 46.
TEST(FoldTest, TiedEndStopsTheFold) {
  TaskGraph g;
  const TaskId h = AddTask(g, 0, 5);
  const TaskId m = AddTask(g, 0, 10, {h});
  const TaskId z = AddTask(g, 1, 15);
  AddTask(g, 2, 10, {m});
  const TaskId q = AddTask(g, 2, 1, {z});
  const TaskId r = AddTask(g, 3, 20, {q});
  g.SetCarried(h, std::vector<TaskId>{r});
  g.SetCarried(z, std::vector<TaskId>{r});
  g.Repeat(6);
  const auto ends = ExpectReferenceEnds(g, kFifo4);
  EXPECT_EQ(ends.folding, Folding::kTiedEnd);
  EXPECT_EQ(ends[0], 36);
}

// The chain F0 (4), F1 (3), F2 (5) on stream 0 folds into one task. Its
// window closes at 7, when F2 starts; G (10, stream 2) readies X (2,
// stream 0) at 10, inside F2's run but after the window, so X queues behind
// the chain exactly as it does behind F2, and the fold is kept. Each
// repetition starts when the previous C (9, stream 1, after F2) ends, so
// the chain runs across the jump, window and all.
TEST(FoldTest, ChainAcrossTheJumpKeepsTheFold) {
  TaskGraph g;
  const TaskId f0 = AddTask(g, 0, 4);
  const TaskId f1 = AddTask(g, 0, 3, {f0});
  const TaskId f2 = AddTask(g, 0, 5, {f1});
  const TaskId gate = AddTask(g, 2, 10);
  AddTask(g, 0, 2, {gate});
  const TaskId c = AddTask(g, 1, 9, {f2});
  g.SetCarried(f0, std::vector<TaskId>{c});
  g.SetCarried(gate, std::vector<TaskId>{c});
  g.Repeat(12);
  const auto ends = ExpectReferenceEnds(g, kFifo4);
  EXPECT_EQ(ends.folding, Folding::kKept);
  EXPECT_GT(ends.skipped, 0u);
  EXPECT_EQ(ends.period, 21);
  EXPECT_EQ(ends[11], 12 * 21);
}

// A chain whose tail has two successors folds; one whose interior task is
// also another task's dependency, or lists its predecessor twice, or waits
// on a task its predecessor does not, does not. Priority streams never
// fold. Each plan must give the reference engine's ends.
TEST(FoldTest, OnlyChainsThatMatchTheRuleFold) {
  struct Case {
    const char* name;
    std::vector<std::vector<TaskId>> deps;  // one list per task
    std::vector<StreamPolicy> policies;
    Folding want;
  };
  // Tasks 0 -> 1 -> 2 on stream 0, a task 3 on stream 1; 0 waits on the
  // previous repetition's 2 and 3, and 3 on its 2.
  const std::vector<Case> cases = {
      {"chain", {{}, {0}, {1}, {2}}, kFifo4, Folding::kKept},
      {"interior tasks waited on", {{}, {0}, {1}, {0, 1}}, kFifo4,
       Folding::kNone},
      {"predecessor listed twice", {{}, {0, 0}, {1}, {2}}, kFifo4,
       Folding::kKept},  // 1 -> 2 still folds
      {"dependency the predecessor lacks", {{}, {0}, {1, 3}, {}}, kFifo4,
       Folding::kKept},  // 0 -> 1 still folds
      {"redundant dependency", {{}, {0}, {1, 0}, {2}}, kFifo4,
       Folding::kKept},
      {"priority stream", {{}, {0}, {1}, {2}},
       {StreamPolicy::kPriority, StreamPolicy::kFifoByReady},
       Folding::kNone},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    TaskGraph g;
    for (std::size_t i = 0; i < c.deps.size(); ++i)
      AddTask(g, i < 3 ? 0 : 1, static_cast<SimTime>(3 + i), c.deps[i]);
    g.SetCarried(0, std::vector<TaskId>{2, 3});
    g.SetCarried(3, std::vector<TaskId>{2});
    g.Repeat(5);
    EXPECT_EQ(ExpectReferenceEnds(g, c.policies).folding, c.want);
  }
}

// Seeded random periodic graphs built to fold: interleaved same-stream
// chains whose members repeat some of their predecessor's dependencies,
// in-period and carried; now and then a member that breaks the rule (an
// extra dependency, its predecessor listed twice, a second successor);
// zero durations and small durations that end tasks together; 2 to 16
// streams, so both the scan and the tree run, with priority streams among
// them. Every repetition's end must equal the reference engine's, each
// check must stop some folded run, and most runs must keep the fold. The
// seed count scales with DEAR_FUZZ_SCHEDULES.
TEST(FoldProperty, RandomChainsMatchTheReferenceEngine) {
  constexpr SimTime kDurations[] = {0, 0, 2, 3, 5, 5, 10};
  constexpr double kPriorities[] = {-1.0, 0.0, 1.0, 1.0, 2.5};
  constexpr int kRepeats[] = {3, 4, 6, 9, 13};
  const int seeds = 300 * testenv::FuzzSchedules(1);
  std::array<int, 6> outcomes{};
  for (int seed = 1; seed <= seeds; ++seed) {
    // A crash (a sanitizer abort) leaves its seed as the last one printed.
    std::fprintf(stderr, "\rfold property seed %d", seed);
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::uint64_t state =
        static_cast<std::uint64_t>(seed) * 0xA0761D6478BD642FULL + 3;
    auto next = [&]() {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      return static_cast<std::uint32_t>(state >> 33);
    };
    const int streams = 2 + static_cast<int>(next() % 15);
    const int n = 6 + static_cast<int>(next() % 30);
    struct Spec {
      std::int16_t stream;
      TaskId pred;  // the chain member before it, or -1
      std::vector<TaskId> deps, carried;
    };
    std::vector<Spec> spec;
    std::vector<TaskId> tails;  // chains' last members so far
    // Two in three graphs are calm: each chain on a stream of its own as
    // far as the streams go, and no member breaks the rule.
    const bool calm = seed % 3 != 0;
    const auto streams_u = static_cast<std::uint32_t>(streams);
    int chains = 0;
    // An earlier task: a chain's last member in a calm graph, usually one
    // in a rough graph.
    const auto pick = [&](int below) {
      if (!tails.empty() && (calm || next() % 8 != 0))
        return tails[next() % tails.size()];
      return static_cast<TaskId>(next() % static_cast<std::uint32_t>(below));
    };
    struct Open {
      TaskId last;
      int left;
    };
    std::vector<Open> open;
    std::vector<TaskId> first_on(static_cast<std::size_t>(streams), -1);
    std::vector<TaskId> last_on(static_cast<std::size_t>(streams), -1);
    for (int i = 0; i < n; ++i) {
      Spec t;
      if (!open.empty() && next() % 4 != 0) {
        const std::size_t c = next() % open.size();
        const Spec& u = spec[static_cast<std::size_t>(open[c].last)];
        t.stream = u.stream;
        t.pred = open[c].last;
        t.deps.push_back(t.pred);
        for (TaskId d : u.deps)
          if (next() % 2 == 0) t.deps.push_back(d);
        if (!calm && next() % 10 == 0) t.deps.push_back(pick(i));
        if (!calm && next() % 20 == 0) t.deps.push_back(t.pred);
        open[c].last = i;
        if (--open[c].left == 0) {
          tails.push_back(i);
          open.erase(open.begin() + static_cast<std::ptrdiff_t>(c));
        }
      } else {
        // A calm graph deals its chains out to the streams in turn; a rough
        // one now and then crowds one onto the first two streams.
        t.stream = static_cast<std::int16_t>(
            calm              ? chains++ % streams
            : next() % 8 == 0 ? static_cast<int>(next() % 2)
                              : static_cast<int>(next() % streams_u));
        t.pred = -1;
        const TaskId before = last_on[static_cast<std::size_t>(t.stream)];
        if (calm && before >= 0) {
          // A calm stream runs its chains one after another: close the
          // open one, if any, and wait on the last.
          const auto mine =
              std::find_if(open.begin(), open.end(),
                           [&](const Open& o) { return o.last == before; });
          if (mine != open.end()) {
            tails.push_back(before);
            open.erase(mine);
          }
          t.deps.push_back(before);
        }
        for (int d = static_cast<int>(next() % 3); d > 0 && i > 0; --d)
          t.deps.push_back(pick(i));
        open.push_back({i, 1 + static_cast<int>(next() % 5)});
      }
      if (first_on[static_cast<std::size_t>(t.stream)] < 0)
        first_on[static_cast<std::size_t>(t.stream)] = i;
      last_on[static_cast<std::size_t>(t.stream)] = i;
      spec.push_back(std::move(t));
    }
    for (const Open& o : open) tails.push_back(o.last);
    // A calm stream's first chain also waits on its last task in the
    // previous repetition.
    for (std::size_t i = 0; i < spec.size(); ++i) {
      Spec& t = spec[i];
      const auto st = static_cast<std::size_t>(t.stream);
      if (calm && first_on[st] == static_cast<TaskId>(i))
        t.carried.push_back(last_on[st]);
      if (t.pred < 0) {
        // Gated: a task without in-period deps waits on the previous
        // repetition.
        if (t.deps.empty() || next() % 3 == 0) t.carried.push_back(pick(n));
      } else {
        for (TaskId d : spec[static_cast<std::size_t>(t.pred)].carried)
          if (next() % 2 == 0) t.carried.push_back(d);
        if (!calm && next() % 12 == 0) t.carried.push_back(pick(n));
      }
    }
    TaskGraph g;
    for (std::size_t i = 0; i < spec.size(); ++i) {
      Task task;
      task.stream = spec[i].stream;
      // Rough graphs draw from a small set, zeros included, so tasks end
      // together; calm ones rarely tie.
      task.duration = calm ? 1 + next() % 10007 : kDurations[next() % 7];
      task.priority = kPriorities[next() % 5];
      g.Add(task, spec[i].deps);
    }
    for (std::size_t i = 0; i < spec.size(); ++i)
      if (!spec[i].carried.empty())
        g.SetCarried(static_cast<TaskId>(i), spec[i].carried);
    g.Repeat(kRepeats[next() % 5]);
    std::vector<StreamPolicy> policies(1, StreamPolicy::kFifoByReady);
    for (int s = 1; s < streams; ++s)
      policies.push_back(next() % 3 == 0 ? StreamPolicy::kPriority
                                         : StreamPolicy::kFifoByReady);
    ++outcomes[static_cast<std::size_t>(
        ExpectReferenceEnds(g, policies).folding)];
    if (HasFailure()) break;
  }
  std::fprintf(stderr, "\n");
  const auto count = [&](Folding f) {
    return outcomes[static_cast<std::size_t>(f)];
  };
  std::cout << "kept " << count(Folding::kKept) << ", not folded "
            << count(Folding::kNone) << ", stopped by (a) "
            << count(Folding::kQueueNotEmpty) << " (b) "
            << count(Folding::kPushInWindow) << " (c) "
            << count(Folding::kTiedEnd) << ", unfinished "
            << count(Folding::kUnfinished) << " of " << seeds << std::endl;
  EXPECT_GT(count(Folding::kQueueNotEmpty), 0);
  EXPECT_GT(count(Folding::kPushInWindow), 0);
  EXPECT_GT(count(Folding::kTiedEnd), 0);
  EXPECT_GT(2 * count(Folding::kKept), seeds);
}

}  // namespace
}  // namespace dear::sim
