// Test-side reference for periodic task graphs: the same graph with every
// repetition written out (repeats() == 1), built only through the public
// task(id) / ForEachDep view, and a task-for-task comparison of two runs.
#pragma once

#include <gtest/gtest.h>

#include <vector>

#include "sim/engine.h"

namespace dear::sim {

inline TaskGraph Unroll(const TaskGraph& graph) {
  TaskGraph flat;
  std::vector<TaskId> deps;
  for (std::size_t i = 0; i < graph.size(); ++i) {
    const auto id = static_cast<TaskId>(i);
    graph.ForEachDep(id, [&](TaskId dep) { deps.push_back(dep); });
    flat.Add(graph.task(id), deps);
    deps.clear();
  }
  return flat;
}

/// Both runs time every task identically (start, end, executed) and agree
/// on the makespan.
inline void ExpectSameTimings(const SimResult& a, const SimResult& b) {
  ASSERT_EQ(a.timings.size(), b.timings.size());
  EXPECT_EQ(a.makespan, b.makespan);
  for (std::size_t i = 0; i < a.timings.size(); ++i) {
    ASSERT_EQ(a.timings[i].start, b.timings[i].start) << "task " << i;
    ASSERT_EQ(a.timings[i].end, b.timings[i].end) << "task " << i;
    ASSERT_EQ(a.timings[i].executed, b.timings[i].executed) << "task " << i;
  }
}

}  // namespace dear::sim
