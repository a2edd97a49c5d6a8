// Task DAG consumed by the discrete-event engine.
//
// A task occupies one stream for `duration` simulated time once all of its
// dependencies have completed. Streams serialize their tasks (CUDA/NCCL
// stream semantics); the per-stream dispatch order is a property of the
// stream (see StreamPolicy), which is how FIFO communication (WFBP, DeAR)
// and priority-scheduled communication (ByteScheduler) are both expressed
// on the same engine.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/sim_time.h"

namespace dear::sim {

using TaskId = std::int32_t;
constexpr TaskId kInvalidTask = -1;

enum class TaskKind : std::uint8_t {
  kForward,
  kBackward,
  kAllReduce,
  kReduceScatter,
  kAllGather,
  kSync,   // zero-duration synchronization point
  kOther,
};

enum class StreamPolicy : std::uint8_t {
  /// Dispatch in readiness order (ties broken by insertion order) — models
  /// a FIFO communication queue fed by hooks as gradients become ready.
  kFifoByReady,
  /// Dispatch the highest-priority ready task (lower value = higher
  /// priority; ties broken by insertion order) — models ByteScheduler's
  /// priority queue.
  kPriority,
};

struct Task {
  TaskKind kind{TaskKind::kOther};
  std::int16_t stream{0};
  SimTime duration{0};
  double priority{0.0};   // meaningful on kPriority streams only
  std::int32_t iteration{-1};  // attribution metadata
  std::int32_t layer{-1};
  std::int32_t group{-1};
};

/// Tasks in insertion order, with every task's dependency ids stored
/// contiguously in one array (CSR): task i's dependencies are
/// dep_ids_[dep_end_[i-1], dep_end_[i]). Adding a task copies its
/// dependencies, so builders can reuse one scratch list for every task.
class TaskGraph {
 public:
  TaskId Add(const Task& task, std::span<const TaskId> deps = {}) {
    tasks_.push_back(task);
    dep_ids_.insert(dep_ids_.end(), deps.begin(), deps.end());
    dep_end_.push_back(dep_ids_.size());
    return static_cast<TaskId>(tasks_.size() - 1);
  }

  /// Sizes the storage for `tasks` tasks holding `deps` dependencies in all.
  void Reserve(std::size_t tasks, std::size_t deps) {
    tasks_.reserve(tasks);
    dep_end_.reserve(tasks);
    dep_ids_.reserve(deps);
  }

  [[nodiscard]] std::size_t size() const noexcept { return tasks_.size(); }
  /// Total number of dependency edges (duplicates counted).
  [[nodiscard]] std::size_t num_deps() const noexcept {
    return dep_ids_.size();
  }
  [[nodiscard]] const Task& task(TaskId id) const {
    return tasks_.at(static_cast<std::size_t>(id));
  }
  [[nodiscard]] std::span<const TaskId> deps(TaskId id) const {
    const auto i = static_cast<std::size_t>(id);
    const std::size_t end = dep_end_.at(i);
    const std::size_t begin = i == 0 ? 0 : dep_end_[i - 1];
    return {dep_ids_.data() + begin, end - begin};
  }
  [[nodiscard]] const std::vector<Task>& tasks() const noexcept {
    return tasks_;
  }

 private:
  std::vector<Task> tasks_;
  std::vector<std::size_t> dep_end_;  // per task: end offset in dep_ids_
  std::vector<TaskId> dep_ids_;
};

}  // namespace dear::sim
