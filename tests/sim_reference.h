// Test-side reference for the simulator: the event loop as it stood before
// the engine read compact per-period arrays — a binary heap of (time, seq)
// completions, and priority heaps that compare the tasks' double
// priorities — kept verbatim (only renamed ReferenceSimulate, its helper
// types moved into a named namespace) so the production engine can be
// held to bitwise-equal timings on any graph.
#pragma once

#include <algorithm>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "sim/engine.h"

namespace dear::sim {

namespace reference_detail {

// A task of the unrolled graph and the period task it repeats; its
// repetition starts at TaskId id - local.
struct Ref {
  TaskId id;
  std::int32_t local;
};

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
  Ref task;
  // Min-heap on (time, seq) keeps the event order deterministic.
  bool operator>(const Completion& other) const {
    if (time != other.time) return time > other.time;
    return seq > other.seq;
  }
};

}  // namespace reference_detail

inline StatusOr<SimResult> ReferenceSimulate(
    const TaskGraph& graph, const std::vector<StreamPolicy>& stream_policies) {
  using reference_detail::Completion;
  using reference_detail::Ref;
  using reference_detail::StreamState;
  const std::size_t p = graph.period();
  const std::size_t reps = graph.repeats();
  const std::size_t n = graph.size();
  const std::span<const Task> tasks = graph.period_tasks();

  int max_stream = -1;
  for (const Task& t : tasks) {
    if (t.stream < 0) return Status::InvalidArgument("negative stream id");
    max_stream = std::max(max_stream, static_cast<int>(t.stream));
    if (t.duration < 0) return Status::InvalidArgument("negative duration");
  }

  // Successor lists of one period, by counting sort: period task d's
  // in-period successors are succ[first[d], mid[d]) and its carried ones
  // (in the next repetition) succ[mid[d], first[d + 1]), each ascending (a
  // task listing d twice appears twice and is released by the second
  // decrement). A repetition's in-period successors have smaller ids than
  // the next one's, so this is the unrolled graph's ascending-id order.
  //
  // pending[id] counts the unfinished dependencies of unrolled task id:
  // in-period ones in repetition 0, in-period plus carried ones after it.
  std::vector<std::int32_t> pending(n, 0);
  std::vector<std::size_t> mid(p, 0), first(p + 1, 0);
  const auto dangling = [p](TaskId dep) {
    return dep < 0 || static_cast<std::size_t>(dep) >= p;
  };
  for (std::size_t i = 0; i < p; ++i) {
    const auto deps = graph.period_deps(i);
    const auto carried = graph.carried_deps(i);
    for (TaskId dep : deps) {
      if (dangling(dep)) return Status::InvalidArgument("dangling dependency");
      ++first[static_cast<std::size_t>(dep)];
    }
    for (TaskId dep : carried) {
      if (dangling(dep)) return Status::InvalidArgument("dangling dependency");
      ++mid[static_cast<std::size_t>(dep)];
    }
    pending[i] = static_cast<std::int32_t>(deps.size());
    if (reps > 1)
      pending[p + i] = static_cast<std::int32_t>(deps.size() + carried.size());
  }
  for (std::size_t r = 2; r < reps; ++r)
    std::copy_n(pending.begin() + static_cast<std::ptrdiff_t>(p), p,
                pending.begin() + static_cast<std::ptrdiff_t>(r * p));
  // End offsets of each list; filling backwards leaves them at the starts.
  std::size_t edges = 0;
  for (std::size_t d = 0; d < p; ++d) {
    edges += first[d];
    first[d] = edges;
    edges += mid[d];
    mid[d] = edges;
  }
  first[p] = edges;
  std::vector<std::int32_t> succ(edges);
  for (std::size_t i = p; i-- > 0;) {
    const auto deps = graph.period_deps(i);
    for (std::size_t k = deps.size(); k-- > 0;)
      succ[--first[static_cast<std::size_t>(deps[k])]] =
          static_cast<std::int32_t>(i);
    const auto carried = graph.carried_deps(i);
    for (std::size_t k = carried.size(); k-- > 0;)
      succ[--mid[static_cast<std::size_t>(carried[k])]] =
          static_cast<std::int32_t>(i);
  }

  std::vector<StreamState> streams(static_cast<std::size_t>(max_stream + 1));
  for (const Task& t : tasks)
    streams[static_cast<std::size_t>(t.stream)].tail += reps;  // per stream
  std::size_t base = 0;
  for (std::size_t s = 0; s < streams.size(); ++s) {
    StreamState& st = streams[s];
    if (s < stream_policies.size()) st.policy = stream_policies[s];
    const std::size_t count = st.tail;
    st.base = st.head = st.tail = base;
    base += count;
  }
  std::vector<Ref> slots(n);

  // Priority order: lower value first, ties broken by task id.
  // std heaps keep the greatest element on top, so "greater" = later.
  const auto later = [&tasks](Ref a, Ref b) {
    const double pa = tasks[static_cast<std::size_t>(a.local)].priority;
    const double pb = tasks[static_cast<std::size_t>(b.local)].priority;
    if (pa != pb) return pa > pb;
    return a.id > b.id;
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
    Ref task;
    if (s.policy == StreamPolicy::kPriority) {
      std::pop_heap(slots.begin() + s.base, slots.begin() + s.tail, later);
      task = slots[--s.tail];
    } else {
      task = slots[s.head++];
    }
    const SimTime end =
        now + tasks[static_cast<std::size_t>(task.local)].duration;
    s.busy = true;
    result.timings[static_cast<std::size_t>(task.id)] = {now, end, true};
    events.push_back({end, event_seq++, task});
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
  auto push_ready = [&](Ref task) {
    const Task& t = tasks[static_cast<std::size_t>(task.local)];
    StreamState& s = streams[static_cast<std::size_t>(t.stream)];
    slots[s.tail++] = task;
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
  // Releases the successors listed in succ[begin, end), in the repetition
  // whose first task is `block`.
  auto release = [&](std::size_t begin, std::size_t end, TaskId block) {
    for (std::size_t k = begin; k < end; ++k) {
      const std::int32_t local = succ[k];
      const TaskId id = block + local;
      if (--pending[static_cast<std::size_t>(id)] == 0)
        push_ready({id, local});
    }
  };

  for (std::size_t block = 0; block < n; block += p)
    for (std::size_t i = 0; i < p; ++i)
      if (pending[block + i] == 0)
        push_ready({static_cast<TaskId>(block + i),
                    static_cast<std::int32_t>(i)});
  dispatch_touched(0);

  while (!events.empty()) {
    std::pop_heap(events.begin(), events.end(), std::greater<>());
    const Completion done = events.back();
    events.pop_back();
    ++executed;
    result.makespan = std::max(result.makespan, done.time);
    const auto d = static_cast<std::size_t>(done.task.local);
    const TaskId block = done.task.id - done.task.local;
    release(first[d], mid[d], block);
    const TaskId next = block + static_cast<TaskId>(p);
    if (static_cast<std::size_t>(next) < n) release(mid[d], first[d + 1], next);
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
