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

#include "common/logging.h"
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

/// One period of tasks, repeated `repeats()` times (a training iteration
/// repeated once per iteration; a graph that does not repeat has
/// repeats() == 1).
///
/// Period tasks are stored in insertion order with two dependency lists,
/// each held contiguously in one array (CSR):
///   - in-period deps: local ids in the same repetition;
///   - carried deps: local ids in the previous repetition. They may point
///     forward in the period (FF_l waits on an all-gather added after it),
///     so they are attached once the tasks they name exist.
///
/// The graph the engine runs is the unrolled one: size() = period() x
/// repeats() tasks, where task r*p + i is period task i in repetition r. Its
/// deps are the in-period deps + r*p, then, for r >= 1 only, the carried
/// deps + (r-1)*p; repetition 0 has no carried deps. Adding a task copies
/// its dependencies, so builders can reuse one scratch list for every task.
class TaskGraph {
 public:
  TaskId Add(const Task& task, std::span<const TaskId> deps = {}) {
    tasks_.push_back(task);
    dep_ids_.insert(dep_ids_.end(), deps.begin(), deps.end());
    dep_end_.push_back(dep_ids_.size());
    return static_cast<TaskId>(tasks_.size() - 1);
  }

  /// Sets period task `id`'s carried deps. Calls come in ascending id order,
  /// at most one per task; a task never named has none.
  void SetCarried(TaskId id, std::span<const TaskId> deps) {
    const auto i = static_cast<std::size_t>(id);
    DEAR_CHECK(id >= 0 && i < tasks_.size() && i >= carried_end_.size());
    carried_end_.resize(i, carried_ids_.size());
    carried_ids_.insert(carried_ids_.end(), deps.begin(), deps.end());
    carried_end_.push_back(carried_ids_.size());
  }

  /// Sets how many times the period runs (default 1).
  void Repeat(int repeats) {
    DEAR_CHECK(repeats >= 1);
    repeats_ = static_cast<std::size_t>(repeats);
  }

  /// Sizes the storage for a period of `tasks` tasks holding `deps`
  /// in-period and `carried` carried dependencies in all.
  void Reserve(std::size_t tasks, std::size_t deps, std::size_t carried = 0) {
    tasks_.reserve(tasks);
    dep_end_.reserve(tasks);
    dep_ids_.reserve(deps);
    carried_end_.reserve(tasks);
    carried_ids_.reserve(carried);
  }

  /// Tasks of the unrolled graph: period() x repeats().
  [[nodiscard]] std::size_t size() const noexcept {
    return tasks_.size() * repeats_;
  }
  [[nodiscard]] std::size_t period() const noexcept { return tasks_.size(); }
  [[nodiscard]] std::size_t repeats() const noexcept { return repeats_; }
  /// In-period dependency edges of one period (duplicates counted).
  [[nodiscard]] std::size_t num_deps() const noexcept {
    return dep_ids_.size();
  }
  /// Carried dependency edges of one period (duplicates counted).
  [[nodiscard]] std::size_t num_carried() const noexcept {
    return carried_ids_.size();
  }

  /// Task `id` of the unrolled graph: its period task, with the repetition
  /// added to a tagged (non-negative) iteration.
  [[nodiscard]] Task task(TaskId id) const {
    const auto [r, i] = Locate(id);
    Task t = tasks_[i];
    if (t.iteration >= 0) t.iteration += static_cast<std::int32_t>(r);
    return t;
  }

  /// Calls `visit(dep)` for each dependency of unrolled task `id`: the
  /// in-period ones first, then the carried ones.
  template <typename Visit>
  void ForEachDep(TaskId id, Visit&& visit) const {
    const auto [r, i] = Locate(id);
    const auto p = static_cast<TaskId>(tasks_.size());
    const auto base = static_cast<TaskId>(r) * p;
    for (TaskId d : period_deps(i)) visit(base + d);
    if (r == 0) return;
    for (TaskId d : carried_deps(i)) visit(base - p + d);
  }

  // The period itself, for the engine and for builders' checks.
  [[nodiscard]] std::span<const Task> period_tasks() const noexcept {
    return tasks_;
  }
  [[nodiscard]] std::span<const TaskId> period_deps(std::size_t i) const {
    return Slice(dep_ids_, dep_end_, i);
  }
  [[nodiscard]] std::span<const TaskId> carried_deps(std::size_t i) const {
    if (i >= carried_end_.size()) return {};
    return Slice(carried_ids_, carried_end_, i);
  }

 private:
  struct Where {
    std::size_t repetition;
    std::size_t local;
  };

  [[nodiscard]] Where Locate(TaskId id) const {
    DEAR_CHECK(id >= 0 && static_cast<std::size_t>(id) < size());
    const auto n = static_cast<std::size_t>(id);
    return {n / tasks_.size(), n % tasks_.size()};
  }

  static std::span<const TaskId> Slice(const std::vector<TaskId>& ids,
                                       const std::vector<std::size_t>& end,
                                       std::size_t i) {
    const std::size_t stop = end.at(i);
    const std::size_t begin = i == 0 ? 0 : end[i - 1];
    return {ids.data() + begin, stop - begin};
  }

  std::vector<Task> tasks_;
  std::vector<std::size_t> dep_end_;  // per task: end offset in dep_ids_
  std::vector<TaskId> dep_ids_;
  // Per task up to the last one given carried deps: end offset in
  // carried_ids_.
  std::vector<std::size_t> carried_end_;
  std::vector<TaskId> carried_ids_;
  std::size_t repeats_{1};
};

}  // namespace dear::sim
