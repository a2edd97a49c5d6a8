#include "sim/engine.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <utility>

namespace dear::sim {
namespace {

// Repetitions a periodic run holds at once: its pending counters, queue
// windows and per-repetition ends are rings of this many repetitions. A run
// whose live repetitions outgrow the ring falls back to the full horizon.
constexpr std::size_t kRingRepetitions = 8;

// What a run records.
enum class Mode {
  kTimings,   // every task's start and end (Simulate)
  kEnds,      // each repetition's end, every repetition simulated
  kPeriodic,  // each repetition's end, until the engine state repeats
};

// The period as the event loop reads it: compact per-task arrays, never the
// 40-byte Task records. Built once per call; every mode runs over it.
struct Plan {
  std::size_t period{0};
  std::size_t repeats{0};
  // A task of the unrolled graph is named by its ref, rep * stride + local:
  // its repetition and its period task, with each repetition padded to a
  // power of two so both fields are bit fields.
  int local_bits{0};
  std::uint64_t stride{0};
  std::uint64_t local_mask{0};
  std::uint64_t ref_end{0};
  std::vector<SimTime> duration;
  std::vector<std::int32_t> stream_of;
  // Period task d's successors are succ[first[d], first[d + 1]), as ref
  // offsets from d's own repetition (see Prepare).
  std::vector<std::size_t> first;
  std::vector<std::uint32_t> succ;
  // A fresh task's unfinished dependencies: [0, p) in repetition 0
  // (in-period ones), [p, 2p) after it (in-period plus carried ones).
  std::vector<std::int32_t> fresh;
  bool later_roots{false};  // a task after repetition 0 waits on nothing
  // Priority streams heap key = rank << rank_shift | ref (see Prepare).
  std::vector<std::uint64_t> rank_key;
  std::uint64_t ref_mask{0};
  struct Stream {
    bool priority{false};
    std::size_t tasks{0};  // period tasks on the stream
  };
  std::vector<Stream> streams;
};

Status Prepare(const TaskGraph& graph,
               const std::vector<StreamPolicy>& stream_policies, Plan& plan) {
  const std::size_t p = graph.period();
  const std::size_t reps = graph.repeats();
  const std::span<const Task> tasks = graph.period_tasks();
  const auto is_priority = [&stream_policies](std::size_t s) {
    return s < stream_policies.size() &&
           stream_policies[s] == StreamPolicy::kPriority;
  };
  plan.period = p;
  plan.repeats = reps;
  plan.duration.resize(p);
  plan.stream_of.resize(p);
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
    plan.duration[i] = t.duration;
    plan.stream_of[i] = t.stream;
  }
  if (p == 0) return Status::Ok();

  plan.local_bits = std::bit_width(p - 1);
  plan.stride = std::uint64_t{1} << plan.local_bits;
  plan.local_mask = plan.stride - 1;
  plan.ref_end = reps * plan.stride;
  // Ids are 32-bit, so n < 2^31 and refs, below 2n, fit in 32 bits.
  DEAR_CHECK(plan.ref_end - 1 <= std::numeric_limits<std::uint32_t>::max());

  // Successor lists of one period, by counting sort: period task d's
  // successors are its in-period ones, then its carried ones (in the next
  // repetition), each ascending (a task listing d twice appears twice and
  // is released by the second decrement). Entries are ref offsets from d's
  // own repetition: local for an in-period successor, stride + local for a
  // carried one. A repetition's in-period successors have smaller ids than
  // the next one's, so this is the unrolled graph's ascending-id order.
  plan.fresh.resize(2 * p);
  std::vector<std::size_t> mid(p, 0);
  plan.first.assign(p + 1, 0);
  std::vector<std::size_t>& first = plan.first;
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
    plan.fresh[i] = static_cast<std::int32_t>(deps.size());
    plan.fresh[p + i] =
        static_cast<std::int32_t>(deps.size() + carried.size());
    if (plan.fresh[p + i] == 0) plan.later_roots = true;
  }
  // End offsets of each list; filling backwards leaves them at the starts.
  std::size_t edges = 0;
  for (std::size_t d = 0; d < p; ++d) {
    edges += first[d];
    first[d] = edges;
    edges += mid[d];
    mid[d] = edges;
  }
  first[p] = edges;
  plan.succ.resize(edges);
  for (std::size_t i = p; i-- > 0;) {
    const auto deps = graph.period_deps(i);
    for (std::size_t k = deps.size(); k-- > 0;)
      plan.succ[--first[static_cast<std::size_t>(deps[k])]] =
          static_cast<std::uint32_t>(i);
    const auto carried = graph.carried_deps(i);
    for (std::size_t k = carried.size(); k-- > 0;)
      plan.succ[--mid[static_cast<std::size_t>(carried[k])]] =
          static_cast<std::uint32_t>(plan.stride + i);
  }

  // On a priority stream the heap holds key = rank << rank_shift | ref,
  // where rank is the task's place among the period's distinct priorities
  // (0 = highest). A ref orders as the unrolled id does, so comparing two
  // keys compares (priority, id) without loading either priority. Only a
  // graph with a priority stream needs the ranks.
  const int rank_shift = std::bit_width(plan.ref_end - 1);
  plan.ref_mask = (std::uint64_t{1} << rank_shift) - 1;
  if (any_priority) {
    DEAR_CHECK(rank_shift + std::bit_width(p) < 64);  // ranks are below p
    std::vector<std::pair<double, std::uint32_t>> order;
    order.reserve(p);
    for (std::size_t i = 0; i < p; ++i)
      if (is_priority(static_cast<std::size_t>(plan.stream_of[i])))
        order.emplace_back(tasks[i].priority, static_cast<std::uint32_t>(i));
    const auto by_priority = [](const auto& a, const auto& b) {
      return a.first < b.first;
    };
    if (!std::is_sorted(order.begin(), order.end(), by_priority))
      std::sort(order.begin(), order.end(), by_priority);
    plan.rank_key.assign(p, 0);
    std::uint64_t rank = 0;
    for (std::size_t k = 0; k < order.size(); ++k) {
      // -0.0 and 0.0 compare equal, so they share a rank.
      if (k > 0 && order[k].first != order[k - 1].first) ++rank;
      plan.rank_key[order[k].second] = rank << rank_shift;
    }
  }

  plan.streams.resize(static_cast<std::size_t>(max_stream + 1));
  for (std::size_t s = 0; s < plan.streams.size(); ++s)
    plan.streams[s].priority = is_priority(s);
  for (std::size_t i = 0; i < p; ++i)
    ++plan.streams[static_cast<std::size_t>(plan.stream_of[i])].tasks;
  return Status::Ok();
}

// A stream's pending completion. Events are ordered by (time, seq); an idle
// stream holds kIdleSeq at kSimTimeNever, which sorts after every real
// event (real seqs are dispatch counts, below 2^31).
struct Event {
  SimTime time;
  std::uint32_t seq;
  std::uint32_t stream;
};
constexpr std::uint32_t kIdleSeq = std::numeric_limits<std::uint32_t>::max();

inline bool Earlier(const Event& a, const Event& b) {
  return (a.time < b.time) | ((a.time == b.time) & (a.seq < b.seq));
}

// The streams' pending completions. A stream runs one task at a time, so
// it holds at most one: the next event is the least (time, seq) over the
// streams, the one a min-heap of completions would pop.
//
// Past kScanStreams streams they form a min-tree (tournament tree): leaf s
// holds stream s's event and each inner node the earlier of its two
// children, so the root is the next event and changing one stream's event
// re-plays its path to the root, O(log streams). Up to kScanStreams the
// next event is a branchless scan of the leaves instead. Measured per task
// (DESIGN.md §4.8), the tree costs ~40% more than the scan at the
// single-timeline policies' 2-3 streams, the same at 8 and less from 16.
class EventTree {
 public:
  static constexpr std::size_t kScanStreams = 8;

  explicit EventTree(std::size_t streams)
      : leaves_(std::bit_ceil(std::max<std::size_t>(streams, 1))),
        node_(2 * leaves_) {
    for (std::size_t s = 0; s < leaves_; ++s)
      node_[leaves_ + s] = {kSimTimeNever, kIdleSeq,
                            static_cast<std::uint32_t>(s)};
    for (std::size_t i = leaves_; i-- > 1;) Play(node_.data(), i);
  }

  // The hot loop holds the node array and the leaf count in locals and
  // calls the static functions below with them.
  [[nodiscard]] Event* nodes() { return node_.data(); }
  [[nodiscard]] std::size_t leaves() const { return leaves_; }

  /// The stream whose completion comes next (an idle one if none is
  /// pending). Returning the stream, not the event, keeps the scan's
  /// result off the path to the event's load.
  static std::size_t Next(const Event* node, std::size_t leaves) {
    if (leaves > kScanStreams) return node[1].stream;
    std::size_t best = 0;
    for (std::size_t k = 1; k < leaves; ++k)
      best = Earlier(node[leaves + k], node[leaves + best]) ? k : best;
    return best;
  }

  static void Set(Event* node, std::size_t leaves, std::size_t s,
                  SimTime time, std::uint32_t seq) {
    node[leaves + s].time = time;
    node[leaves + s].seq = seq;
    Replay(node, leaves, s);
  }

  /// Idles stream s's leaf but not its path: until Replay(s) or Set(s),
  /// Next() is stale in a tree.
  static void Clear(Event* node, std::size_t leaves, std::size_t s) {
    node[leaves + s].time = kSimTimeNever;
    node[leaves + s].seq = kIdleSeq;
  }

  static void Replay(Event* node, std::size_t leaves, std::size_t s) {
    if (leaves <= kScanStreams) return;
    for (std::size_t i = (leaves + s) >> 1; i > 0; i >>= 1) Play(node, i);
  }

  [[nodiscard]] const Event& leaf(std::size_t s) const {
    return node_[leaves_ + s];
  }

  /// Moves every pending completion `dt` later, which keeps their order.
  void Shift(SimTime dt) {
    for (Event& e : node_)
      if (e.seq != kIdleSeq) e.time += dt;
  }

 private:
  static void Play(Event* node, std::size_t i) {
    const Event& l = node[2 * i];
    const Event& r = node[2 * i + 1];
    node[i] = Earlier(r, l) ? r : l;
  }

  std::size_t leaves_;
  std::vector<Event> node_;
};

// One stream's ready queue lives in the window [base, limit) of a slot
// array shared by its kind of stream, sized to hold every task the stream
// can have ready at once (its tasks in every repetition the run holds,
// plus one).
//
// FIFO streams hold 32-bit refs in a ring, pushed at `tail` and popped at
// `head`: tasks are pushed in global readiness order, which is the order
// they must dispatch in. Priority streams keep a binary min-heap of 64-bit
// priority keys in [base, tail); `head` stays at base.
struct StreamState {
  bool priority{false};
  bool touched{false};  // pending dispatch after the current event
  std::size_t base{0};
  std::size_t limit{0};
  std::size_t head{0};
  std::size_t tail{0};
  std::uint64_t running{0};  // ref of the running task
};

// A repetition in the ring: when its dispatched tasks end, at the latest,
// and how many of its tasks have not finished.
struct RepState {
  SimTime end{0};
  std::size_t left{0};
};

// A busy stream's running task at a boundary, relative to the boundary.
struct Running {
  std::uint32_t stream;
  std::uint32_t seq;  // orders equal ends; not compared
  std::uint64_t ref;
  SimTime end;
};

// The engine's live state at a repetition boundary b, relative to it: refs
// less b's first ref (mod 2^64), times less the boundary time.
//
// The ready tasks, queued or running, are the whole record. A task whose
// dependencies all finished is ready at once, so the unfinished tasks are
// the ready ones and everything that depends on them, and a waiting task's
// pending counter is its number of unfinished dependencies: equal ready
// tasks give equal unfinished repetitions and equal counters.
struct Snapshot {
  SimTime time{0};
  std::vector<std::uint64_t> queued;  // the queues, stream by stream
  std::vector<std::size_t> queue_end;
  std::vector<Running> running;  // in completion order
};

template <typename T>
std::unique_ptr<T[]> Slots(std::size_t count) {
  if (count == 0) return nullptr;
  return std::make_unique_for_overwrite<T[]>(count);
}

// The event loop. kTimings and kEnds hold every repetition; kPeriodic holds
// a ring of them and watches the repetition boundaries (see Boundary).
template <Mode kMode>
class Loop {
  static constexpr bool kRing = kMode == Mode::kPeriodic;

 public:
  // `ring`: repetitions held at once, a power of two under kPeriodic and
  // the graph's repeats otherwise. Writes timings (kTimings) or ends.
  Loop(const Plan& plan, std::size_t ring, std::vector<TaskTiming>* timings,
       RepetitionEnds* ends)
      : plan_(plan),
        ring_(ring),
        pending_mask_(kRing ? ring * plan.stride - 1
                            : std::numeric_limits<std::uint64_t>::max()),
        pending_(std::make_unique_for_overwrite<std::int32_t[]>(
            kRing ? ring * plan.stride : plan.ref_end)),
        streams_(plan.streams.size()),
        events_(plan.streams.size()),
        touched_(std::make_unique_for_overwrite<std::size_t[]>(
            plan.streams.size())),
        timings_(timings),
        ends_(ends) {
    std::size_t fifo_slots = 0, heap_slots = 0;
    for (std::size_t s = 0; s < streams_.size(); ++s) {
      StreamState& st = streams_[s];
      st.priority = plan.streams[s].priority;
      std::size_t& base = st.priority ? heap_slots : fifo_slots;
      st.base = st.head = st.tail = base;
      base += plan.streams[s].tasks * ring + 1;
      st.limit = base;
    }
    fifo_ = Slots<std::uint32_t>(fifo_slots);
    heap_ = Slots<std::uint64_t>(heap_slots);
    if constexpr (kMode != Mode::kTimings) reps_.resize(ring);
  }

  /// Runs to completion, or until the live repetitions outgrow the ring
  /// (returns false; kPeriodic only).
  bool Run() {
    // The hot loop reads its constants from locals: a store to a queue, a
    // counter or a timing could otherwise alias them and force reloads.
    const std::size_t p = plan_.period;
    const int local_bits = plan_.local_bits;
    const std::uint64_t local_mask = plan_.local_mask;
    const std::uint64_t ref_end = plan_.ref_end;
    const std::uint64_t ref_mask = plan_.ref_mask;
    const std::uint64_t pending_mask = pending_mask_;
    const std::uint64_t rep_mask = ring_ - 1;
    const SimTime* const duration = plan_.duration.data();
    const std::int32_t* const stream_of = plan_.stream_of.data();
    const std::size_t* const first = plan_.first.data();
    const std::uint32_t* const succ = plan_.succ.data();
    const std::uint64_t* const rank_key = plan_.rank_key.data();
    std::int32_t* const pending = pending_.get();
    std::uint32_t* const fifo = fifo_.get();
    std::uint64_t* const heap = heap_.get();
    StreamState* const streams = streams_.data();
    std::size_t* const touched = touched_.get();
    Event* const events = events_.nodes();
    const std::size_t leaves = events_.leaves();
    RepState* const reps = reps_.data();
    TaskTiming* const timings = timings_ ? timings_->data() : nullptr;
    std::size_t num_touched = 0;
    std::uint32_t next_seq = 0;
    std::uint64_t boundary_ref = 0;  // first ref of the next repetition
    bool at_boundary = false;

    const auto rep_slot = [rep_mask](std::uint64_t rep) {
      return kRing ? rep & rep_mask : rep;
    };
    const auto touch = [&](std::size_t s) {
      if (streams[s].touched) return;
      streams[s].touched = true;
      touched[num_touched++] = s;
    };
    // Push a newly-ready task onto its stream's queue WITHOUT dispatching;
    // dispatch happens only after every task readied by the same event has
    // been pushed, so priority streams see the full candidate set. Streams
    // dispatch in the order they were first touched.
    const auto push = [&](std::uint64_t ref) {
      if constexpr (kRing) {
        if (ref >= boundary_ref) {
          // The first ready task of the next repetition.
          at_boundary = true;
          boundary_ref += plan_.stride;
        }
      }
      const std::size_t local = ref & local_mask;
      const auto s = static_cast<std::size_t>(stream_of[local]);
      StreamState& st = streams[s];
      if (st.priority) {
        heap[st.tail++] = rank_key[local] | ref;
        std::push_heap(heap + st.base, heap + st.tail, std::greater<>());
      } else {
        fifo[st.tail] = static_cast<std::uint32_t>(ref);
        if (++st.tail == st.limit && kRing) st.tail = st.base;
      }
      touch(s);
    };
    const auto try_start = [&](std::size_t s, SimTime now) {
      StreamState& st = streams[s];
      if (events[leaves + s].seq != kIdleSeq || st.head == st.tail) return;
      std::uint64_t ref;
      if (st.priority) {
        std::pop_heap(heap + st.base, heap + st.tail, std::greater<>());
        ref = heap[--st.tail] & ref_mask;
      } else {
        ref = fifo[st.head];
        if (++st.head == st.limit && kRing) st.head = st.base;
      }
      const std::size_t local = ref & local_mask;
      const SimTime end = now + duration[local];
      const std::uint64_t rep = ref >> local_bits;
      if constexpr (kMode == Mode::kTimings) {
        timings[rep * p + local] = {now, end, true};
      } else {
        SimTime& rep_end = reps[rep_slot(rep)].end;
        rep_end = std::max(rep_end, end);
      }
      st.running = ref;
      EventTree::Set(events, leaves, s, end, next_seq++);
    };
    const auto dispatch = [&](SimTime now) {
      for (std::size_t k = 0; k < num_touched; ++k) {
        streams[touched[k]].touched = false;
        try_start(touched[k], now);
      }
      num_touched = 0;
    };
    const auto boundary = [&](SimTime now) {
      at_boundary = false;
      const std::ptrdiff_t skipped =
          Boundary((boundary_ref >> local_bits) - 1, now);
      if (skipped < 0) return false;
      if (skipped > 0) {
        next_seq += static_cast<std::uint32_t>(skipped) *
                    static_cast<std::uint32_t>(p);  // the skipped tasks
        boundary_ref = ref_end;  // past the jump no boundary follows
      }
      return true;
    };

    if constexpr (kRing) {
      // Repetition 0 starts the first boundary; the others wait on it.
      InitRep(0);
      for (std::size_t i = 0; i < p; ++i)
        if (pending[i] == 0) push(i);
    } else {
      for (std::size_t r = 0; r < plan_.repeats; ++r) InitRep(r);
      for (std::uint64_t block = 0; block < ref_end; block += plan_.stride)
        for (std::size_t i = 0; i < p; ++i)
          if (pending[block + i] == 0) push(block + i);
    }
    dispatch(0);
    if constexpr (kRing)
      if (at_boundary && !boundary(0)) return false;

    for (;;) {
      const std::size_t s = EventTree::Next(events, leaves);
      if (events[leaves + s].seq == kIdleSeq) break;
      const SimTime now = events[leaves + s].time;
      if constexpr (kMode == Mode::kTimings) makespan_ = now;  // in order
      StreamState& st = streams[s];
      EventTree::Clear(events, leaves, s);
      // Release the successors; the last repetition's carried ones fall
      // past ref_end and do not exist.
      const std::uint64_t done = st.running;
      const std::size_t d = done & local_mask;
      const std::uint64_t block = done - d;
      if constexpr (kRing) --reps[rep_slot(done >> local_bits)].left;
      for (std::size_t k = first[d]; k < first[d + 1]; ++k) {
        const std::uint64_t ref = block + succ[k];
        if (ref < ref_end && --pending[kRing ? ref & pending_mask : ref] == 0)
          push(ref);
      }
      touch(s);
      dispatch(now);
      if (leaves > EventTree::kScanStreams &&
          events[leaves + s].seq == kIdleSeq)
        EventTree::Replay(events, leaves, s);
      if constexpr (kRing)
        if (at_boundary && !boundary(now)) return false;
    }
    executed_ = next_seq;
    return true;
  }

  /// Tasks dispatched, skipped repetitions counted whole; every dispatched
  /// task completed, so without a jump it counts executed tasks for the
  /// cycle check.
  [[nodiscard]] std::size_t executed() const { return executed_; }
  [[nodiscard]] SimTime makespan() const { return makespan_; }

  /// Hands the repetitions not yet retired to `ends`.
  void Finish() {
    while (lo_ < plan_.repeats) Retire();
  }

 private:
  [[nodiscard]] std::size_t RepSlot(std::size_t rep) const {
    return kRing ? rep & (ring_ - 1) : rep;
  }
  [[nodiscard]] std::int32_t* RepPending(std::size_t rep) const {
    return pending_.get() + ((rep * plan_.stride) & pending_mask_);
  }

  void InitRep(std::size_t rep) {
    const std::size_t p = plan_.period;
    std::copy_n(plan_.fresh.data() + (rep == 0 ? 0 : p), p, RepPending(rep));
    if constexpr (kMode != Mode::kTimings) reps_[RepSlot(rep)] = {0, p};
  }

  void Retire() {
    const SimTime end = reps_[RepSlot(lo_)].end;
    (jumped_ ? ends_->tail : ends_->head).push_back(end);
    ++lo_;
  }

  // Calls `visit(slot)` on each slot of stream st's queue (a reference),
  // oldest first for a FIFO, in heap order for a priority stream.
  template <typename Visit>
  void ForEachQueued(const StreamState& st, Visit&& visit) {
    if (st.priority) {
      for (std::size_t i = st.base; i < st.tail; ++i) visit(heap_[i]);
      return;
    }
    for (std::size_t i = st.head; i != st.tail;
         i = i + 1 == st.limit ? st.base : i + 1)
      visit(fifo_[i]);
  }

  // Repetition boundary b: the end of the event that readied the first
  // task of repetition b. No task of a later repetition waits on nothing
  // (kPeriodic runs only such graphs), so before b every later repetition
  // is untouched but b + 1, whose counters only b's completions (none yet)
  // decrement, and the boundaries come one per event at most.
  //
  // The run keeps the snapshot of the previous boundary. When this one's
  // live state is that one's shifted by one repetition and by a time Δ,
  // every later boundary would be too, so the run jumps to the last
  // boundary (DESIGN.md §4.8). Returns the repetitions skipped, or -1 if
  // repetition b + 1 finds its ring slot still live.
  std::ptrdiff_t Boundary(std::size_t b, SimTime now) {
    const std::size_t reps = plan_.repeats;
    // Repetition b has a ready task, so this stops at b at the latest.
    while (reps_[RepSlot(lo_)].left == 0) Retire();
    if (b + 1 < reps) {
      if (b + 1 - lo_ >= ring_) return -1;
      InitRep(b + 1);
    }
    // A jump from b must skip a repetition: it lands on reps - 1 > b.
    if (b + 2 > reps) return 0;
    Capture(cur_, b, now);
    if (b >= 1 && Repeats(prev_, cur_)) {
      Jump(b, cur_.time - prev_.time);
      return static_cast<std::ptrdiff_t>(reps - 1 - b);
    }
    std::swap(prev_, cur_);
    return 0;
  }

  void Capture(Snapshot& snap, std::size_t b, SimTime now) {
    const std::uint64_t origin = b * plan_.stride;
    snap.time = now;
    snap.queued.clear();
    snap.queue_end.clear();
    snap.running.clear();
    snap.queue_end.reserve(streams_.size());
    snap.running.reserve(streams_.size());
    for (std::size_t s = 0; s < streams_.size(); ++s) {
      const StreamState& st = streams_[s];
      // A heap is recorded as laid out: equal layouts hold equal keys.
      ForEachQueued(st,
                    [&](auto& slot) { snap.queued.push_back(slot - origin); });
      snap.queue_end.push_back(snap.queued.size());
      const Event& e = events_.leaf(s);
      if (e.seq != kIdleSeq) {
        snap.running.push_back({static_cast<std::uint32_t>(s), e.seq,
                                st.running - origin, e.time - now});
      }
    }
    // The next events follow from the pending completions' (time, seq)
    // order, not from the seqs themselves.
    std::sort(snap.running.begin(), snap.running.end(),
              [](const Running& a, const Running& b) {
                return a.end != b.end ? a.end < b.end : a.seq < b.seq;
              });
  }

  static bool Repeats(const Snapshot& a, const Snapshot& b) {
    const auto same = [](const Running& x, const Running& y) {
      return x.stream == y.stream && x.ref == y.ref && x.end == y.end;
    };
    return a.queue_end == b.queue_end && a.queued == b.queued &&
           std::equal(a.running.begin(), a.running.end(), b.running.begin(),
                      b.running.end(), same);
  }

  // Moves the live state of boundary b to the last boundary, reps - 1:
  // m = reps - 1 - b repetitions and m Δ later. The repetitions it passes
  // over end Δ apart after the last one retired (Repeats held, so that one
  // was the previous boundary's oldest live repetition).
  void Jump(std::size_t b, SimTime delta) {
    const std::size_t p = plan_.period;
    const std::size_t m = plan_.repeats - 1 - b;
    const std::uint64_t shift = m * plan_.stride;
    const SimTime dt = static_cast<SimTime>(m) * delta;
    ends_->skipped = m;
    ends_->period = delta;
    // The live repetitions' ring slots may overlap their images', so they
    // move through a copy.
    std::vector<std::int32_t> counters;
    std::vector<RepState> live;
    counters.reserve((b + 1 - lo_) * p);
    for (std::size_t r = lo_; r <= b; ++r) {
      counters.insert(counters.end(), RepPending(r), RepPending(r) + p);
      live.push_back(reps_[RepSlot(r)]);
    }
    lo_ += m;
    for (std::size_t j = 0; j < live.size(); ++j) {
      std::copy_n(counters.data() + j * p, p, RepPending(lo_ + j));
      // Ends of finished tasks move too; they stay at or below the new
      // boundary time, which an unfinished task's end is not below.
      reps_[RepSlot(lo_ + j)] = {live[j].end + dt, live[j].left};
    }
    for (std::size_t s = 0; s < streams_.size(); ++s) {
      ForEachQueued(streams_[s], [shift](auto& slot) {
        slot += static_cast<std::remove_reference_t<decltype(slot)>>(shift);
      });
      if (events_.leaf(s).seq != kIdleSeq) streams_[s].running += shift;
    }
    events_.Shift(dt);
    jumped_ = true;
  }

  const Plan& plan_;
  std::size_t ring_;
  std::uint64_t pending_mask_;  // ref -> its pending counter
  std::unique_ptr<std::int32_t[]> pending_;
  std::vector<StreamState> streams_;
  std::unique_ptr<std::uint32_t[]> fifo_;
  std::unique_ptr<std::uint64_t[]> heap_;
  EventTree events_;
  std::unique_ptr<std::size_t[]> touched_;
  std::vector<TaskTiming>* timings_;
  RepetitionEnds* ends_;
  std::size_t executed_{0};
  SimTime makespan_{0};
  // Repetitions: the ring, and the oldest unfinished one (those below it
  // are retired into ends_).
  std::vector<RepState> reps_;
  std::size_t lo_{0};
  bool jumped_{false};
  Snapshot prev_, cur_;
};

Status CycleError(std::size_t n, std::size_t executed) {
  return Status::FailedPrecondition(
      "dependency cycle: " + std::to_string(n - executed) +
      " tasks never became ready");
}

StatusOr<RepetitionEnds> FullHorizonEnds(const Plan& plan) {
  RepetitionEnds ends;
  if (plan.period == 0) {
    ends.head.assign(plan.repeats, 0);
    return ends;
  }
  Loop<Mode::kEnds> loop(plan, plan.repeats, nullptr, &ends);
  loop.Run();
  const std::size_t n = plan.period * plan.repeats;
  if (loop.executed() != n) return CycleError(n, loop.executed());
  loop.Finish();
  return ends;
}

}  // namespace

SimTime RepetitionEnds::operator[](std::size_t rep) const {
  if (rep < head.size()) return head[rep];
  rep -= head.size();
  if (rep < skipped)
    return head.back() + static_cast<SimTime>(rep + 1) * period;
  rep -= skipped;
  DEAR_CHECK(rep < tail.size());
  return tail[rep];
}

StatusOr<SimResult> Simulate(
    const TaskGraph& graph, const std::vector<StreamPolicy>& stream_policies) {
  Plan plan;
  DEAR_RETURN_IF_ERROR(Prepare(graph, stream_policies, plan));
  if (plan.period == 0) return SimResult{};
  const std::size_t n = graph.size();
  SimResult result;
  result.timings.assign(n, TaskTiming{});
  Loop<Mode::kTimings> loop(plan, plan.repeats, &result.timings, nullptr);
  loop.Run();
  if (loop.executed() != n) return CycleError(n, loop.executed());
  result.makespan = loop.makespan();
  return result;
}

StatusOr<RepetitionEnds> SimulateRepetitionEndsFullHorizon(
    const TaskGraph& graph, const std::vector<StreamPolicy>& stream_policies) {
  Plan plan;
  DEAR_RETURN_IF_ERROR(Prepare(graph, stream_policies, plan));
  return FullHorizonEnds(plan);
}

StatusOr<RepetitionEnds> SimulateRepetitionEnds(
    const TaskGraph& graph, const std::vector<StreamPolicy>& stream_policies) {
  Plan plan;
  DEAR_RETURN_IF_ERROR(Prepare(graph, stream_policies, plan));
  // The boundaries need every repetition after the first to wait on
  // something, and a jump needs a boundary to skip: three repetitions.
  if (plan.period == 0 || plan.later_roots || plan.repeats < 3)
    return FullHorizonEnds(plan);
  RepetitionEnds ends;
  Loop<Mode::kPeriodic> loop(
      plan, std::min(kRingRepetitions, std::bit_ceil(plan.repeats)), nullptr,
      &ends);
  // A cycle leaves tasks of every repetition unrun, but a jump counts the
  // skipped repetitions whole, so only the full horizon counts them.
  if (!loop.Run() || loop.executed() != plan.period * plan.repeats)
    return FullHorizonEnds(plan);
  loop.Finish();
  return ends;
}

}  // namespace dear::sim
