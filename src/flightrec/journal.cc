#include "flightrec/journal.h"

#include <algorithm>
#include <new>

namespace dear::flightrec {
namespace {

std::size_t RoundUpPow2(std::size_t n) {
  std::size_t p = 64;
  while (p < n) p <<= 1;
  return p;
}

// Epochs are drawn from one process-wide counter, never reused: a fresh
// Journal constructed at a recycled address (common for stack journals in
// tests) must not validate another instance's cached lane pointers.
std::uint64_t NextEpoch() noexcept {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t ThisThreadId() noexcept {
  static std::atomic<std::uint64_t> next{1};
  thread_local const std::uint64_t id =
      next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

// Field unpacking (the inverse of the packing in Journal::AppendToLane):
//   w0 = ts_ns
//   w1 = causal
//   w2 = lamport | tag << 32
//   w3 = payload | kind << 32 | peer << 48
void Unpack(std::uint64_t w0, std::uint64_t w1, std::uint64_t w2,
            std::uint64_t w3, Record& out) noexcept {
  out.ts_ns = w0;
  out.causal = w1;
  out.lamport = static_cast<std::uint32_t>(w2);
  out.tag = static_cast<std::uint32_t>(w2 >> 32);  // lint: allow(tag-magic-bits) — record word layout, not message-tag bits
  out.payload = static_cast<std::uint32_t>(w3);
  out.kind = static_cast<std::uint16_t>(w3 >> 32);
  out.peer = static_cast<std::uint16_t>(w3 >> 48);
}

// Journals that are still alive, so the thread-exit hook below never pokes
// a lane of a destroyed (e.g. stack-allocated test) journal. Leaked, like
// the Recorder singleton, so it outlives every thread's TLS destructor.
struct LiveJournals {
  std::mutex mutex;
  std::vector<const Journal*> set;
};
LiveJournals& Live() {
  static LiveJournals* live = new LiveJournals();
  return *live;
}

}  // namespace

const char* KindName(EventKind kind) noexcept {
  switch (kind) {
    case EventKind::kSend: return "send";
    case EventKind::kRecv: return "recv";
    case EventKind::kCollectiveBegin: return "coll-begin";
    case EventKind::kCollectiveEnd: return "coll-end";
    case EventKind::kRsLaunch: return "rs-launch";
    case EventKind::kRsComplete: return "rs-complete";
    case EventKind::kAgLaunch: return "ag-launch";
    case EventKind::kAgComplete: return "ag-complete";
    case EventKind::kUnpack: return "unpack";
    case EventKind::kShutdown: return "shutdown";
    case EventKind::kEpoch: return "epoch";
    case EventKind::kStaleDrop: return "stale-drop";
    case EventKind::kWaitBegin: return "wait-begin";
    case EventKind::kStepEnd: return "step-end";
  }
  return "?";
}

namespace detail {

thread_local constinit ThreadLaneCache t_lanes{};

// Thread-exit body: returns every lane this thread still holds. Safe
// ordering: t_lanes has no destructor, so its storage is still valid when
// the releaser's destructor runs.
void ReleaseThreadLanes() noexcept {
  const std::uint64_t tid = ThisThreadId();
  ThreadLaneCache& tl = t_lanes;
  LiveJournals& live = Live();
  std::lock_guard<std::mutex> lock(live.mutex);
  for (int i = 0; i < tl.count; ++i) {
    const Journal* j = tl.entries[i].journal;
    if (std::find(live.set.begin(), live.set.end(), j) == live.set.end()) {
      continue;  // journal already destroyed; lane memory is gone
    }
    const_cast<Journal*>(j)->ReleaseLaneOnThreadExit(
        static_cast<Journal::Lane*>(tl.entries[i].lane), tid);
  }
  tl.count = 0;
}

namespace {

// A separate TLS object carries the destructor (armed by ClaimLane) so
// ThreadLaneCache itself stays trivially destructible — the hot path then
// gets a direct TLS access instead of the dynamic-init wrapper call.
struct LaneReleaser {
  ~LaneReleaser() { ReleaseThreadLanes(); }
};

thread_local LaneReleaser t_lane_releaser;

}  // namespace

// Forces construction of this thread's releaser (called from the cold
// claim path, never from the inlined fast path).
void ArmLaneReleaser() noexcept { (void)&t_lane_releaser; }

}  // namespace detail

Journal::Lane::Lane(std::size_t slot_count)
    : slots(new Slot[slot_count]),
      gen(new std::atomic<std::uint64_t>[slot_count]) {
  for (std::size_t i = 0; i < slot_count; ++i) {
    for (auto& w : slots[i].w) w.store(0, std::memory_order_relaxed);
    gen[i].store(0, std::memory_order_relaxed);
  }
}

Journal::Journal(std::size_t capacity) : mask_(RoundUpPow2(capacity) - 1) {
  epoch_.store(NextEpoch(), std::memory_order_relaxed);
  // Pre-build the first lane so the common single-writer case never
  // allocates after construction.
  lanes_[0] = std::make_unique<Lane>(mask_ + 1);
  lane_count_.store(1, std::memory_order_release);
  LiveJournals& live = Live();
  std::lock_guard<std::mutex> lock(live.mutex);
  live.set.push_back(this);
}

Journal::~Journal() {
  LiveJournals& live = Live();
  std::lock_guard<std::mutex> lock(live.mutex);
  live.set.erase(std::remove(live.set.begin(), live.set.end(), this),
                 live.set.end());
}

Journal::Lane* Journal::ClaimLane(std::uint64_t epoch) noexcept {
  const std::uint64_t tid = ThisThreadId();
  Lane* lane = nullptr;
  {
    std::lock_guard<std::mutex> lock(lanes_mutex_);
    const int n = lane_count_.load(std::memory_order_relaxed);
    for (int i = 0; i < n && lane == nullptr; ++i) {
      Lane* candidate = lanes_[static_cast<std::size_t>(i)].get();
      // Acquire pairs with the release in ReleaseLaneOnThreadExit so the
      // previous owner's final head/lamport values are visible here.
      if (candidate->owner.load(std::memory_order_acquire) == 0) {
        candidate->owner.store(tid, std::memory_order_relaxed);
        candidate->local_head =
            candidate->head.load(std::memory_order_relaxed);
        lane = candidate;
      }
    }
    if (lane == nullptr && n < kMaxLanes) {
      try {
        lanes_[static_cast<std::size_t>(n)] =
            std::make_unique<Lane>(mask_ + 1);
      } catch (const std::bad_alloc&) {
        return nullptr;  // out of memory: caller counts the drop
      }
      lane = lanes_[static_cast<std::size_t>(n)].get();
      lane->owner.store(tid, std::memory_order_relaxed);
      lane_count_.store(n + 1, std::memory_order_release);
    }
  }
  if (lane == nullptr) return nullptr;  // > kMaxLanes concurrent writers

  detail::ArmLaneReleaser();  // this thread now owns a lane: hook its exit
  detail::ThreadLaneCache& tl = detail::t_lanes;
  // Prefer overwriting a stale entry for this journal (epoch moved on).
  for (int i = 0; i < tl.count; ++i) {
    if (tl.entries[i].journal == this) {
      tl.entries[i] = {this, lane, epoch};
      return lane;
    }
  }
  if (tl.count == detail::ThreadLaneCache::kSlots) {
    // Cache full (a thread writing 64+ journals): give the oldest slot
    // back so the cache stays exact. Slow, but far past any real world.
    detail::ThreadLaneCache::Entry& old = tl.entries[0];
    LiveJournals& live = Live();
    std::lock_guard<std::mutex> lock(live.mutex);
    if (std::find(live.set.begin(), live.set.end(), old.journal) !=
        live.set.end()) {
      const_cast<Journal*>(old.journal)
          ->ReleaseLaneOnThreadExit(static_cast<Lane*>(old.lane), tid);
    }
    for (int i = 1; i < tl.count; ++i) tl.entries[i - 1] = tl.entries[i];
    --tl.count;
  }
  tl.entries[tl.count++] = {this, lane, epoch};
  return lane;
}

void Journal::ReleaseLaneOnThreadExit(Lane* lane, std::uint64_t tid) noexcept {
  for (int i = 0; i < lane_count_.load(std::memory_order_acquire); ++i) {
    if (lanes_[static_cast<std::size_t>(i)].get() != lane) continue;
    // Reset() may have already recycled the lane to another owner; only
    // the current owner may free it.
    if (lane->owner.load(std::memory_order_relaxed) == tid) {
      lane->owner.store(0, std::memory_order_release);
    }
    return;
  }
}

void Journal::SnapshotInto(std::vector<Record>& out) const {
  const std::size_t base = out.size();
  const int n = lane_count_.load(std::memory_order_acquire);
  for (int l = 0; l < n; ++l) {
    const Lane& lane = *lanes_[static_cast<std::size_t>(l)];
    const std::uint64_t head = lane.head.load(std::memory_order_acquire);
    const std::uint64_t live =
        head < capacity() ? head : static_cast<std::uint64_t>(capacity());
    out.reserve(out.size() + static_cast<std::size_t>(live));
    for (std::uint64_t ticket = head - live; ticket < head; ++ticket) {
      const std::size_t i = static_cast<std::size_t>(ticket) & mask_;
      if (lane.gen[i].load(std::memory_order_acquire) != 2 * ticket + 2) {
        continue;  // mid-write or already lapped by a newer ticket
      }
      const Slot& s = lane.slots[i];
      Record rec;
      Unpack(s.w[0].load(std::memory_order_relaxed),
             s.w[1].load(std::memory_order_relaxed),
             s.w[2].load(std::memory_order_relaxed),
             s.w[3].load(std::memory_order_relaxed), rec);
      // Re-validate: if the writer claimed this slot while we copied, the
      // generation moved on and the copy may mix two records — drop it.
      // The fence orders the word loads before the second generation read.
      std::atomic_thread_fence(std::memory_order_acquire);
      if (lane.gen[i].load(std::memory_order_relaxed) != 2 * ticket + 2) {
        continue;
      }
      out.push_back(rec);
    }
  }
  // Merge the lanes into one oldest-first stream. Timestamps from different
  // threads are comparable: they share one calibrated origin.
  std::stable_sort(out.begin() + static_cast<std::ptrdiff_t>(base), out.end(),
                   [](const Record& a, const Record& b) {
                     if (a.ts_ns != b.ts_ns) return a.ts_ns < b.ts_ns;
                     if (a.lamport != b.lamport) return a.lamport < b.lamport;
                     return a.causal < b.causal;
                   });
}

std::uint64_t Journal::total() const noexcept {
  std::uint64_t sum = 0;
  const int n = lane_count_.load(std::memory_order_acquire);
  for (int l = 0; l < n; ++l) {
    sum += lanes_[static_cast<std::size_t>(l)]->head.load(
        std::memory_order_acquire);
  }
  return sum;
}

bool Journal::wrapped() const noexcept {
  const int n = lane_count_.load(std::memory_order_acquire);
  for (int l = 0; l < n; ++l) {
    if (lanes_[static_cast<std::size_t>(l)]->head.load(
            std::memory_order_acquire) > capacity())
      return true;
  }
  return false;
}

std::uint32_t Journal::lamport() const noexcept {
  std::uint32_t max = 0;
  const int n = lane_count_.load(std::memory_order_acquire);
  for (int l = 0; l < n; ++l) {
    const std::uint32_t v = lanes_[static_cast<std::size_t>(l)]->lam.load(
        std::memory_order_relaxed);
    if (v > max) max = v;
  }
  return max;
}

void Journal::Reset() noexcept {
  std::lock_guard<std::mutex> lock(lanes_mutex_);
  // Invalidate every thread's cached lane; the next append re-claims.
  epoch_.store(NextEpoch(), std::memory_order_relaxed);
  const int n = lane_count_.load(std::memory_order_relaxed);
  for (int l = 0; l < n; ++l) {
    Lane& lane = *lanes_[static_cast<std::size_t>(l)];
    for (std::size_t i = 0; i <= mask_; ++i) {
      lane.gen[i].store(0, std::memory_order_relaxed);
      for (auto& w : lane.slots[i].w) w.store(0, std::memory_order_relaxed);
    }
    lane.head.store(0, std::memory_order_relaxed);
    lane.local_head = 0;
    lane.lam.store(0, std::memory_order_relaxed);
    lane.owner.store(0, std::memory_order_release);
  }
  dropped_.store(0, std::memory_order_relaxed);
}

}  // namespace dear::flightrec
