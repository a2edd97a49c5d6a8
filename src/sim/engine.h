// Discrete-event execution of a TaskGraph over a set of streams.
//
// Deterministic: identical inputs produce identical timings. Events are
// ordered by (time, sequence); per-stream dispatch breaks ties by task
// insertion order. Work-conserving: a stream never idles while one of its
// tasks is ready.
#pragma once

#include <cstddef>
#include <vector>

#include "common/status.h"
#include "sim/task_graph.h"

namespace dear::sim {

struct TaskTiming {
  SimTime start{0};
  SimTime end{0};
  bool executed{false};
};

struct SimResult {
  std::vector<TaskTiming> timings;  // indexed by TaskId
  SimTime makespan{0};
};

/// Runs the graph to completion. `stream_policies[s]` is the dispatch policy
/// of stream s; streams not listed default to kFifoByReady.
///
/// Returns InvalidArgument on malformed graphs (dangling dependency, bad
/// stream id) and FailedPrecondition if a dependency cycle leaves tasks
/// unexecuted.
StatusOr<SimResult> Simulate(const TaskGraph& graph,
                             const std::vector<StreamPolicy>& stream_policies);

/// When each repetition of a graph ended: the latest end among its tasks
/// (0 for a repetition whose tasks all end at 0). Repetitions [0,
/// head.size()) and the last tail.size() ones were simulated; the
/// `skipped` ones between them were not, and each ends `period` after the
/// one before it.
struct RepetitionEnds {
  std::vector<SimTime> head;
  std::size_t skipped{0};
  SimTime period{0};
  std::vector<SimTime> tail;

  /// The graph's repeats().
  [[nodiscard]] std::size_t size() const noexcept {
    return head.size() + skipped + tail.size();
  }
  [[nodiscard]] SimTime operator[](std::size_t rep) const;
};

/// Each repetition's end, equal to SimulateRepetitionEndsFullHorizon's on
/// every graph, but simulated only until the schedule provably repeats: at
/// the first repetition boundary whose engine state is the previous
/// boundary's shifted by one repetition, the run jumps to the last boundary
/// and simulates the tail from there (DESIGN.md §4.8). Falls back to the
/// full horizon when no state repeats. Errors are Simulate's.
StatusOr<RepetitionEnds> SimulateRepetitionEnds(
    const TaskGraph& graph, const std::vector<StreamPolicy>& stream_policies);

/// The fallback: each repetition's end, every repetition simulated
/// (`skipped` is 0).
StatusOr<RepetitionEnds> SimulateRepetitionEndsFullHorizon(
    const TaskGraph& graph, const std::vector<StreamPolicy>& stream_policies);

}  // namespace dear::sim
