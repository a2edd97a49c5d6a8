#include "sim/engine.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <utility>

namespace dear::sim {
namespace {

// One stream's ready queue lives in the window [base, base + tasks on the
// stream) of a slot array shared by its kind of stream: every task is
// pushed onto its stream exactly once, so no queue ever outgrows its
// window.
//
// FIFO streams hold 32-bit refs and pop at `head`: tasks are pushed in
// global readiness order, which is the order they must dispatch in.
// Priority streams keep a binary min-heap of 64-bit priority keys in
// [base, tail); `head` stays at base.
struct StreamState {
  bool priority{false};
  bool touched{false};  // pending dispatch after the current event
  std::size_t base{0};
  std::size_t head{0};
  std::size_t tail{0};
  std::uint64_t running{0};  // ref of the running task
};

// A stream's pending completion. Events are ordered by (time, seq); an
// idle stream holds kIdle, which sorts after every real event (real seqs
// are dispatch counts).
struct Event {
  SimTime time;
  std::int64_t seq;
};
constexpr Event kIdle{kSimTimeNever, std::numeric_limits<std::int64_t>::max()};

// `count` uninitialized slots; no allocation when there are none.
template <typename T>
std::unique_ptr<T[]> Slots(std::size_t count) {
  if (count == 0) return nullptr;
  return std::make_unique_for_overwrite<T[]>(count);
}

}  // namespace

StatusOr<SimResult> Simulate(
    const TaskGraph& graph, const std::vector<StreamPolicy>& stream_policies) {
  const std::size_t p = graph.period();
  const std::size_t reps = graph.repeats();
  const std::size_t n = graph.size();
  const std::span<const Task> tasks = graph.period_tasks();
  const auto is_priority = [&stream_policies](std::size_t s) {
    return s < stream_policies.size() &&
           stream_policies[s] == StreamPolicy::kPriority;
  };

  // The event loop reads only these compact per-period arrays, never the
  // 40-byte Task records.
  std::vector<SimTime> duration(p);
  std::vector<std::int32_t> stream_of(p);
  int max_stream = -1;
  bool any_priority = false;
  for (std::size_t i = 0; i < p; ++i) {
    const Task& t = tasks[i];
    if (t.stream < 0) return Status::InvalidArgument("negative stream id");
    max_stream = std::max(max_stream, static_cast<int>(t.stream));
    if (t.duration < 0) return Status::InvalidArgument("negative duration");
    if (is_priority(static_cast<std::size_t>(t.stream))) {
      // NaN compares unordered with every priority, so no dispatch order
      // exists for it.
      if (std::isnan(t.priority))
        return Status::InvalidArgument("NaN priority on a priority stream");
      any_priority = true;
    }
    duration[i] = t.duration;
    stream_of[i] = t.stream;
  }

  if (p == 0) return SimResult{};

  // A task of the unrolled graph is named by its ref, rep * stride + local:
  // its repetition and its period task, with each repetition padded to a
  // power of two so both fields are bit fields.
  const int local_bits = std::bit_width(p - 1);
  const std::uint64_t stride = std::uint64_t{1} << local_bits;
  const std::uint64_t local_mask = stride - 1;
  const std::uint64_t ref_end = reps * stride;
  // Ids are 32-bit, so n < 2^31 and refs, below 2n, fit in 32 bits.
  DEAR_CHECK(ref_end - 1 <= std::numeric_limits<std::uint32_t>::max());

  // Successor lists of one period, by counting sort: period task d's
  // successors are succ[first[d], first[d + 1]): its in-period ones, then
  // its carried ones (in the next repetition), each ascending (a task
  // listing d twice appears twice and is released by the second
  // decrement). Entries are ref offsets from d's own repetition: local for
  // an in-period successor, stride + local for a carried one. A
  // repetition's in-period successors have smaller ids than the next
  // one's, so this is the unrolled graph's ascending-id order.
  //
  // pending[ref] counts the unfinished dependencies of a task: in-period
  // ones in repetition 0, in-period plus carried ones after it.
  const auto pending = std::make_unique_for_overwrite<std::int32_t[]>(ref_end);
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
      pending[stride + i] =
          static_cast<std::int32_t>(deps.size() + carried.size());
  }
  for (std::size_t r = 2; r < reps; ++r)
    std::copy_n(pending.get() + stride, p, pending.get() + r * stride);
  // End offsets of each list; filling backwards leaves them at the starts.
  std::size_t edges = 0;
  for (std::size_t d = 0; d < p; ++d) {
    edges += first[d];
    first[d] = edges;
    edges += mid[d];
    mid[d] = edges;
  }
  first[p] = edges;
  std::vector<std::uint32_t> succ(edges);
  for (std::size_t i = p; i-- > 0;) {
    const auto deps = graph.period_deps(i);
    for (std::size_t k = deps.size(); k-- > 0;)
      succ[--first[static_cast<std::size_t>(deps[k])]] =
          static_cast<std::uint32_t>(i);
    const auto carried = graph.carried_deps(i);
    for (std::size_t k = carried.size(); k-- > 0;)
      succ[--mid[static_cast<std::size_t>(carried[k])]] =
          static_cast<std::uint32_t>(stride + i);
  }

  // On a priority stream the heap holds key = rank << rank_shift | ref,
  // where rank is the task's place among the period's distinct priorities
  // (0 = highest). A ref orders as the unrolled id does, so comparing two
  // keys compares (priority, id) without loading either priority. Only a
  // graph with a priority stream needs the ranks.
  const int rank_shift = std::bit_width(ref_end - 1);
  const std::uint64_t ref_mask = (std::uint64_t{1} << rank_shift) - 1;
  std::vector<std::uint64_t> rank_key;
  if (any_priority) {
    DEAR_CHECK(rank_shift + std::bit_width(p) < 64);  // ranks are below p
    std::vector<std::pair<double, std::uint32_t>> order;
    order.reserve(p);
    for (std::size_t i = 0; i < p; ++i)
      if (is_priority(static_cast<std::size_t>(stream_of[i])))
        order.emplace_back(tasks[i].priority, static_cast<std::uint32_t>(i));
    const auto by_priority = [](const auto& a, const auto& b) {
      return a.first < b.first;
    };
    if (!std::is_sorted(order.begin(), order.end(), by_priority))
      std::sort(order.begin(), order.end(), by_priority);
    rank_key.assign(p, 0);
    std::uint64_t rank = 0;
    for (std::size_t k = 0; k < order.size(); ++k) {
      // -0.0 and 0.0 compare equal, so they share a rank.
      if (k > 0 && order[k].first != order[k - 1].first) ++rank;
      rank_key[order[k].second] = rank << rank_shift;
    }
  }

  std::vector<StreamState> streams(static_cast<std::size_t>(max_stream + 1));
  for (std::size_t i = 0; i < p; ++i)
    streams[static_cast<std::size_t>(stream_of[i])].tail += reps;
  std::size_t fifo_slots = 0, heap_slots = 0;
  for (std::size_t s = 0; s < streams.size(); ++s) {
    StreamState& st = streams[s];
    st.priority = is_priority(s);
    std::size_t& base = st.priority ? heap_slots : fifo_slots;
    const std::size_t count = st.tail;
    st.base = st.head = st.tail = base;
    base += count;
  }
  const auto fifo = Slots<std::uint32_t>(fifo_slots);
  const auto heap = Slots<std::uint64_t>(heap_slots);

  SimResult result;
  result.timings.assign(n, TaskTiming{});

  // A stream runs one task at a time, so each stream holds at most one
  // pending completion, in its own slot: the next event is the least
  // (time, seq) over all streams, the order a min-heap of completions would
  // pop.
  std::vector<Event> events(streams.size(), kIdle);
  std::int64_t next_seq = 0;

  auto try_start = [&](std::size_t s, SimTime now) {
    StreamState& st = streams[s];
    if (events[s].seq != kIdle.seq || st.head == st.tail) return;
    std::uint64_t ref;
    if (st.priority) {
      std::pop_heap(heap.get() + st.base, heap.get() + st.tail,
                    std::greater<>());
      ref = heap[--st.tail] & ref_mask;
    } else {
      ref = fifo[st.head++];
    }
    const std::size_t local = ref & local_mask;
    const SimTime end = now + duration[local];
    result.timings[(ref >> local_bits) * p + local] = {now, end, true};
    st.running = ref;
    events[s] = {end, next_seq++};
  };

  // Push a newly-ready task onto its stream's queue WITHOUT dispatching;
  // dispatch happens only after every task readied by the same event has
  // been pushed, so priority streams see the full candidate set. Streams
  // dispatch in the order they were first touched.
  const auto touched = std::make_unique_for_overwrite<std::size_t[]>(
      streams.size());
  std::size_t num_touched = 0;
  auto touch = [&](std::size_t s) {
    if (streams[s].touched) return;
    streams[s].touched = true;
    touched[num_touched++] = s;
  };
  auto push_ready = [&](std::uint64_t ref) {
    const std::size_t local = ref & local_mask;
    const auto s = static_cast<std::size_t>(stream_of[local]);
    StreamState& st = streams[s];
    if (st.priority) {
      heap[st.tail++] = rank_key[local] | ref;
      std::push_heap(heap.get() + st.base, heap.get() + st.tail,
                     std::greater<>());
    } else {
      fifo[st.tail++] = static_cast<std::uint32_t>(ref);
    }
    touch(s);
  };
  auto dispatch_touched = [&](SimTime now) {
    for (std::size_t k = 0; k < num_touched; ++k) {
      streams[touched[k]].touched = false;
      try_start(touched[k], now);
    }
    num_touched = 0;
  };

  for (std::uint64_t block = 0; block < ref_end; block += stride)
    for (std::size_t i = 0; i < p; ++i)
      if (pending[block + i] == 0) push_ready(block + i);
  dispatch_touched(0);

  for (;;) {
    // The next event is the least over all stream slots, a branchless scan
    // of O(streams) per event. It assumes few streams: against the binary
    // heap it replaced it wins clearly at 2-3 streams (the single-timeline
    // policies), breaks even at 64 (a world-32 multi-worker graph) and is
    // ~25% slower per task at 128 (world 64).
    std::size_t s = 0;
    for (std::size_t k = 1; k < events.size(); ++k) {
      const Event& e = events[k];
      const Event& best = events[s];
      const bool earlier =
          (e.time < best.time) | ((e.time == best.time) & (e.seq < best.seq));
      s = earlier ? k : s;
    }
    const SimTime now = events[s].time;
    if (events[s].seq == kIdle.seq) break;
    events[s] = kIdle;
    result.makespan = now;  // events come in time order
    // Release the successors; the last repetition's carried ones fall past
    // ref_end and do not exist.
    const std::uint64_t done = streams[s].running;
    const std::size_t d = done & local_mask;
    const std::uint64_t block = done - d;
    for (std::size_t k = first[d]; k < first[d + 1]; ++k) {
      const std::uint64_t ref = block + succ[k];
      if (ref < ref_end && --pending[ref] == 0) push_ready(ref);
    }
    touch(s);
    dispatch_touched(now);
  }

  // Every dispatched task completed, so next_seq counts executed tasks.
  const auto executed = static_cast<std::size_t>(next_seq);
  if (executed != n)
    return Status::FailedPrecondition(
        "dependency cycle: " + std::to_string(n - executed) +
        " tasks never became ready");
  return result;
}

}  // namespace dear::sim
