#include "sim/engine.h"

#include <algorithm>
#include <functional>

namespace dear::sim {
namespace {

// One stream's ready queue lives in the window [base, base + tasks on the
// stream) of a slot array shared by all streams: every task is pushed onto
// its stream exactly once, so no queue ever outgrows its window.
//
// FIFO streams pop at `head`: tasks are pushed in global readiness order,
// which is the order they must dispatch in. Priority streams keep a binary
// heap on (priority, id) in [base, tail); `head` stays at base.
struct StreamState {
  StreamPolicy policy{StreamPolicy::kFifoByReady};
  bool busy{false};
  bool touched{false};  // pending dispatch after the current event
  std::size_t base{0};
  std::size_t head{0};
  std::size_t tail{0};
};

struct Completion {
  SimTime time;
  std::int64_t seq;
  TaskId id;
  // Min-heap on (time, seq) keeps the event order deterministic.
  bool operator>(const Completion& other) const {
    if (time != other.time) return time > other.time;
    return seq > other.seq;
  }
};

}  // namespace

StatusOr<SimResult> Simulate(
    const TaskGraph& graph, const std::vector<StreamPolicy>& stream_policies) {
  const std::size_t n = graph.size();
  const std::vector<Task>& tasks = graph.tasks();

  int max_stream = -1;
  for (const Task& t : tasks) {
    if (t.stream < 0) return Status::InvalidArgument("negative stream id");
    max_stream = std::max(max_stream, static_cast<int>(t.stream));
    if (t.duration < 0) return Status::InvalidArgument("negative duration");
  }

  // Reverse adjacency by counting sort: dependents[first[d], first[d + 1])
  // lists the tasks waiting on d, in ascending task order (a task listing d
  // twice appears twice and is released by the second decrement).
  std::vector<std::int32_t> indegree(n, 0);
  std::vector<std::size_t> first(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (TaskId dep : graph.deps(static_cast<TaskId>(i))) {
      if (dep < 0 || static_cast<std::size_t>(dep) >= n)
        return Status::InvalidArgument("dangling dependency");
      ++indegree[i];
      ++first[static_cast<std::size_t>(dep)];
    }
  }
  std::size_t edges = 0;
  for (std::size_t d = 0; d < n; ++d) first[d] = edges += first[d];
  first[n] = edges;
  std::vector<TaskId> dependents(edges);
  for (std::size_t i = n; i-- > 0;) {
    const auto deps = graph.deps(static_cast<TaskId>(i));
    for (std::size_t k = deps.size(); k-- > 0;)
      dependents[--first[static_cast<std::size_t>(deps[k])]] =
          static_cast<TaskId>(i);
  }

  std::vector<StreamState> streams(static_cast<std::size_t>(max_stream + 1));
  for (const Task& t : tasks)
    ++streams[static_cast<std::size_t>(t.stream)].tail;  // count per stream
  std::size_t base = 0;
  for (std::size_t s = 0; s < streams.size(); ++s) {
    StreamState& st = streams[s];
    if (s < stream_policies.size()) st.policy = stream_policies[s];
    const std::size_t count = st.tail;
    st.base = st.head = st.tail = base;
    base += count;
  }
  std::vector<TaskId> slots(n);

  // Priority order: lower value first, ties broken by insertion order.
  // std heaps keep the greatest element on top, so "greater" = later.
  const auto later = [&tasks](TaskId a, TaskId b) {
    const double pa = tasks[static_cast<std::size_t>(a)].priority;
    const double pb = tasks[static_cast<std::size_t>(b)].priority;
    if (pa != pb) return pa > pb;
    return a > b;
  };

  SimResult result;
  result.timings.assign(n, TaskTiming{});

  // A stream runs one task at a time, so at most one completion per stream
  // is ever pending.
  std::vector<Completion> events;
  events.reserve(streams.size());
  std::int64_t event_seq = 0;
  std::size_t executed = 0;

  auto try_start = [&](StreamState& s, SimTime now) {
    if (s.busy || s.head == s.tail) return;
    TaskId id;
    if (s.policy == StreamPolicy::kPriority) {
      std::pop_heap(slots.begin() + s.base, slots.begin() + s.tail, later);
      id = slots[--s.tail];
    } else {
      id = slots[s.head++];
    }
    const SimTime end = now + tasks[static_cast<std::size_t>(id)].duration;
    s.busy = true;
    result.timings[static_cast<std::size_t>(id)] = {now, end, true};
    events.push_back({end, event_seq++, id});
    std::push_heap(events.begin(), events.end(), std::greater<>());
  };

  // Push a newly-ready task onto its stream's queue WITHOUT dispatching;
  // dispatch happens only after every task readied by the same event has
  // been pushed, so priority streams see the full candidate set. Streams
  // dispatch in the order they were first touched.
  std::vector<StreamState*> touched;
  touched.reserve(streams.size());
  auto touch = [&](StreamState& s) {
    if (s.touched) return;
    s.touched = true;
    touched.push_back(&s);
  };
  auto push_ready = [&](TaskId id) {
    const Task& t = tasks[static_cast<std::size_t>(id)];
    StreamState& s = streams[static_cast<std::size_t>(t.stream)];
    slots[s.tail++] = id;
    if (s.policy == StreamPolicy::kPriority)
      std::push_heap(slots.begin() + s.base, slots.begin() + s.tail, later);
    touch(s);
  };
  auto dispatch_touched = [&](SimTime now) {
    for (StreamState* s : touched) {
      s->touched = false;
      try_start(*s, now);
    }
    touched.clear();
  };

  for (std::size_t i = 0; i < n; ++i)
    if (indegree[i] == 0) push_ready(static_cast<TaskId>(i));
  dispatch_touched(0);

  while (!events.empty()) {
    std::pop_heap(events.begin(), events.end(), std::greater<>());
    const Completion done = events.back();
    events.pop_back();
    ++executed;
    result.makespan = std::max(result.makespan, done.time);
    const auto d = static_cast<std::size_t>(done.id);
    for (std::size_t k = first[d]; k < first[d + 1]; ++k) {
      const TaskId dep = dependents[k];
      if (--indegree[static_cast<std::size_t>(dep)] == 0) push_ready(dep);
    }
    StreamState& s = streams[static_cast<std::size_t>(tasks[d].stream)];
    s.busy = false;
    touch(s);
    dispatch_touched(done.time);
  }

  if (executed != n)
    return Status::FailedPrecondition(
        "dependency cycle: " + std::to_string(n - executed) +
        " tasks never became ready");
  return result;
}

}  // namespace dear::sim
