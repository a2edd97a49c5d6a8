// Flight-recorder journal — a fixed-capacity binary ring of 32-byte event
// records, one per rank, always on.
//
// DeAR debugging needs a *message-level* happens-before trace: the paper's
// pipelining claim is about when each decoupled RS/AG sub-operation ran
// relative to backprop and feed-forward on every rank, and counters cannot
// say *which message from which rank* made a rank wait. The journal is the
// black box that can: every transport send/recv, top-level collective
// bracket, and DistOptim group transition appends one fixed-size record
// (`dearsim profile` reads its message, byte and wire-dtype counts back
// from them), and a post-hoc merger (src/analysis/causal)
// reconstructs the cross-rank DAG from the causal IDs carried in the
// records. Because it is a bounded ring it is safe to leave enabled in
// every run — a hang or crash report always carries the last N events per
// rank (see check::Checker::Dump and TransportHub::Shutdown).
//
// Concurrency: the journal is sharded into per-writer-thread lanes. A
// writer thread lazily claims a private lane (cached in TLS), so the append
// fast path is single-producer: a plain local ticket, four relaxed atomic
// word stores behind a per-slot generation word (seqlock style: odd = write
// in progress, even = ticket*2+2 when the record for `ticket` is complete),
// and one release store of the lane head. No read-modify-write instruction
// runs per event — that keeps the always-on cost under the 1% bar that
// the perf-lab row flightrec.overhead_pct enforces (the fast path is
// inline below for the same reason). Snapshots merge every lane's validated window and sort by
// timestamp (sound across threads because all records share one calibrated
// clock origin — see flightrec::NowNs). A record being overwritten
// mid-snapshot is dropped, never misattributed, and every shared cell is an
// atomic, so concurrent laps are TSan-clean.
//
// The Lamport clock is also per-lane: each writer thread advances its own
// plain counter and max-merges sender stamps on receive. Treating threads
// (rather than ranks) as Lamport processes preserves the invariant the
// merger checks — every receive's stamp still exceeds its matching send's.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

// GCC's inlining heuristics leave the append fast path out of line (a call
// plus a 32-byte stack spill of the record — measurable against the 1%
// bar), so the hot helpers below insist.
#if defined(__GNUC__) || defined(__clang__)
#define DEAR_FLIGHTREC_HOT inline __attribute__((always_inline))
#else
#define DEAR_FLIGHTREC_HOT inline
#endif

namespace dear::flightrec {

/// What happened. Values are stable (they appear in dump files).
enum class EventKind : std::uint16_t {
  kSend = 1,             // transport enqueue; causal = this message's ID
  kRecv = 2,             // transport dequeue; causal = matching send's ID
  kCollectiveBegin = 3,  // top-level collective entered (tag = comm::
                         // CollectiveKind, payload = element count)
  kCollectiveEnd = 4,    // top-level collective left   (tag = CollectiveKind,
                         // payload = wire comm::DType, 0 = f32)
  kRsLaunch = 5,         // DistOptim group: OP1 submitted   (tag = group,
  kRsComplete = 6,       //                  OP1 waited       payload = op
  kAgLaunch = 7,         //                  OP2 submitted    sequence number
  kAgComplete = 8,       //                  OP2 waited       of the group's
  kUnpack = 9,           //                  group consumed   in-flight op)
  kShutdown = 10,        // TransportHub::Shutdown observed by this rank
  // 11 is retired (the online calibration monitor's anomaly record);
  // reserved so old dump files keep their meaning.
  kEpoch = 12,           // membership epoch event (tag = epoch; payload =
                         // TransitionKind:16 | subject+1:16, 0 = observed)
  kStaleDrop = 13,       // wrong-epoch message rejected (causal = dropped
                         // message's ID; payload = msg_epoch:16 | cur:16)
  kWaitBegin = 14,       // DistOptim compute thread blocks on a group's
                         // in-flight op (tag = group, payload = op seq);
                         // the wait ends at its kRsComplete / kAgComplete
  kStepEnd = 15,         // DistOptim Step() finished (payload = step index);
                         // consecutive ones bound an iteration window
};

[[nodiscard]] const char* KindName(EventKind kind) noexcept;

/// Sentinel for the `peer` field when an event has no counterpart rank.
inline constexpr std::uint16_t kNoPeer = 0xFFFF;

/// One journal entry. Exactly 32 bytes so two records share a cache line
/// and a 8192-entry ring stays at 256 KiB per lane.
struct Record {
  std::uint64_t ts_ns{0};    // monotonic, one process-wide origin (inside
                             // the ring: raw ticks; ns after SnapshotAll)
  std::uint64_t causal{0};   // (src:16 | dst:16 | seq:32) for send/recv
  std::uint32_t lamport{0};  // writer lane's Lamport clock after the event
  std::uint32_t tag{0};      // message tag / CollectiveKind / group index
  std::uint32_t payload{0};  // payload bytes (send/recv), element count,
                             // or op sequence / step index (DistOptim)
  std::uint16_t kind{0};     // EventKind
  std::uint16_t peer{kNoPeer};  // other rank for send/recv, else kNoPeer
};
static_assert(sizeof(Record) == 32, "journal records are 32 bytes");

/// 64-bit causal message ID: (src_rank, send_seq), with the sequence
/// striped per destination — `seq` counts the messages src has ever sent to
/// dst (across hub generations), so the triple is unique for the process
/// lifetime. Stamped into comm::Message by TransportHub::Send so the
/// receiver can record the matching happens-before edge.
namespace causal {
[[nodiscard]] constexpr std::uint64_t Make(int src, int dst,
                                           std::uint32_t seq) noexcept {
  return (static_cast<std::uint64_t>(static_cast<std::uint16_t>(src)) << 48) |
         (static_cast<std::uint64_t>(static_cast<std::uint16_t>(dst)) << 32) |
         seq;
}
[[nodiscard]] constexpr int SrcOf(std::uint64_t id) noexcept {
  return static_cast<int>(id >> 48);
}
[[nodiscard]] constexpr int DstOf(std::uint64_t id) noexcept {
  return static_cast<int>(static_cast<std::uint16_t>(id >> 32));
}
[[nodiscard]] constexpr std::uint32_t SeqOf(std::uint64_t id) noexcept {
  return static_cast<std::uint32_t>(id & 0xFFFFFFFFu);
}
}  // namespace causal

class Journal;

namespace detail {

/// Per-thread cache of claimed lanes. Deliberately trivial (no
/// constructor, no destructor) and constinit so the inlined fast path
/// below reaches it with a direct TLS access instead of the dynamic-init
/// wrapper call. Lanes still held at thread exit are returned by a
/// separate TLS releaser object that ClaimLane arms (journal.cc), so
/// short-lived worker threads — the common case in tests and the engine —
/// do not pin lanes forever.
struct ThreadLaneCache {
  struct Entry {
    const Journal* journal;
    void* lane;  // Journal::Lane*, opaque here
    std::uint64_t epoch;
  };
  static constexpr int kSlots = 64;
  Entry entries[kSlots];
  int count;
};

extern thread_local constinit ThreadLaneCache t_lanes;

/// Arms this thread's exit hook (idempotent; called from the claim path).
void ArmLaneReleaser() noexcept;
/// Returns every lane this thread still holds; the exit hook's body.
void ReleaseThreadLanes() noexcept;

}  // namespace detail

/// One rank's ring. All methods are safe to call concurrently except
/// Reset(), which requires the rank to be quiescent.
class Journal {
 public:
  /// `capacity` is rounded up to a power of two, minimum 64. Each writer
  /// thread's lane holds `capacity` records.
  explicit Journal(std::size_t capacity);
  ~Journal();
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Appends one record to this thread's lane. Allocation-free and free of
  /// atomic read-modify-writes on the steady-state path; `rec.ts_ns` and
  /// `rec.lamport` must already be filled by the caller.
  DEAR_FLIGHTREC_HOT void Append(const Record& rec) noexcept {
    AppendToLane(LaneForThisThread(), rec);
  }

  /// Append + local Lamport tick in one lane lookup: stamps the advanced
  /// clock into `rec.lamport` before journaling. The hot send hook.
  DEAR_FLIGHTREC_HOT void AppendTicked(Record& rec) noexcept {
    Lane* lane = LaneForThisThread();
    if (lane != nullptr) rec.lamport = BumpLamport(*lane, 0);
    AppendToLane(lane, rec);
  }

  /// Append + receive-merge in one lane lookup: the clock jumps past the
  /// sender's stamp (max-merge, then tick) before journaling.
  DEAR_FLIGHTREC_HOT void AppendObserved(Record& rec,
                                         std::uint32_t sender) noexcept {
    Lane* lane = LaneForThisThread();
    if (lane != nullptr) rec.lamport = BumpLamport(*lane, sender);
    AppendToLane(lane, rec);
  }

  /// Lamport clock (this thread's lane): local event.
  std::uint32_t Tick() noexcept {
    Lane* lane = LaneForThisThread();
    return lane != nullptr ? BumpLamport(*lane, 0) : 0;
  }
  /// Lamport clock: receive — max-merge with the sender's stamp, then tick.
  std::uint32_t Observe(std::uint32_t sender) noexcept {
    Lane* lane = LaneForThisThread();
    return lane != nullptr ? BumpLamport(*lane, sender) : 0;
  }

  /// Consistent merged copy of every lane's live window, appended to `out`
  /// oldest first (sorted by timestamp). Records overwritten or mid-write
  /// during the scan are skipped, never returned torn.
  void SnapshotInto(std::vector<Record>& out) const;

  /// Records ever appended across all lanes. Each lane holds `capacity()`
  /// records of its own, so a total above capacity does not by itself mean
  /// anything was lost; wrapped() says that.
  [[nodiscard]] std::uint64_t total() const noexcept;
  /// True once some lane has appended more than `capacity()` records, i.e.
  /// overwritten its oldest ones: a snapshot then covers only a recent
  /// window of that lane.
  [[nodiscard]] bool wrapped() const noexcept;
  [[nodiscard]] std::size_t capacity() const noexcept { return mask_ + 1; }
  /// Highest Lamport stamp issued by any lane of this journal.
  [[nodiscard]] std::uint32_t lamport() const noexcept;
  /// Records lost because more than kMaxLanes threads wrote concurrently.
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Rewinds to empty. NOT thread-safe: callers must guarantee no
  /// concurrent Append (used between runs by tests and `dearsim timeline`).
  void Reset() noexcept;

  /// Writer threads that can hold lanes concurrently; a claim past this
  /// only drops records (counted), never blocks or corrupts.
  static constexpr int kMaxLanes = 32;

 private:
  friend void detail::ReleaseThreadLanes() noexcept;

  // The record's four 64-bit words as relaxed atomics: a lapping writer
  // and a concurrent reader race only on atomic cells, and the generation
  // check rejects any mix.
  struct alignas(32) Slot {
    std::atomic<std::uint64_t> w[4];
  };
  static_assert(sizeof(Slot) == 32, "slot stays one half cache line");

  // One writer thread's private ring. Only the owning thread appends;
  // snapshots from other threads read through the atomics.
  struct Lane {
    explicit Lane(std::size_t slot_count);
    std::unique_ptr<Slot[]> slots;
    std::unique_ptr<std::atomic<std::uint64_t>[]> gen;
    // Published append count; mirrored by the owner's plain local_head so
    // the hot path never re-reads it.
    std::atomic<std::uint64_t> head{0};
    // Lamport clock. Only the owner writes (plain load + store, no RMW);
    // it stays in the lane when the owner thread exits, so the next
    // claimant continues the same logical Lamport process.
    std::atomic<std::uint32_t> lam{0};
    // Owning thread ID, 0 when free. Claim/release synchronize through it.
    std::atomic<std::uint64_t> owner{0};
    std::uint64_t local_head{0};  // owner-only
  };

  /// TLS-cached lane lookup; claims (or reuses a released) lane on miss.
  DEAR_FLIGHTREC_HOT Lane* LaneForThisThread() noexcept {
    const std::uint64_t epoch = epoch_.load(std::memory_order_relaxed);
    detail::ThreadLaneCache& tl = detail::t_lanes;
    for (int i = 0; i < tl.count; ++i) {
      if (tl.entries[i].journal == this && tl.entries[i].epoch == epoch) {
        return static_cast<Lane*>(tl.entries[i].lane);
      }
    }
    return ClaimLane(epoch);
  }

  /// Owner-only clock bump: max(local, observed) + 1, no RMW.
  DEAR_FLIGHTREC_HOT static std::uint32_t BumpLamport(
      Lane& lane, std::uint32_t observed) noexcept {
    const std::uint32_t cur = lane.lam.load(std::memory_order_relaxed);
    const std::uint32_t v = (cur > observed ? cur : observed) + 1;
    lane.lam.store(v, std::memory_order_relaxed);
    return v;
  }

  DEAR_FLIGHTREC_HOT void AppendToLane(Lane* lane,
                                       const Record& rec) noexcept {
    if (lane == nullptr) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    const std::uint64_t ticket = lane->local_head++;
    const std::size_t i = static_cast<std::size_t>(ticket) & mask_;
    Slot& s = lane->slots[i];
    // Odd generation marks the write window; the final even value encodes
    // the exact ticket, so readers can tell "slot now holds a *newer*
    // record" from "slot holds the record I expect".
    lane->gen[i].store(2 * ticket + 1, std::memory_order_relaxed);
    // The fence keeps the odd marker visible before any word store; the
    // release store of the even marker keeps every word visible before it.
    std::atomic_thread_fence(std::memory_order_release);
    s.w[0].store(rec.ts_ns, std::memory_order_relaxed);
    s.w[1].store(rec.causal, std::memory_order_relaxed);
    s.w[2].store(static_cast<std::uint64_t>(rec.lamport) |
                     (static_cast<std::uint64_t>(rec.tag) << 32),  // lint: allow(tag-magic-bits) — record word layout, not message-tag bits
                 std::memory_order_relaxed);
    s.w[3].store(static_cast<std::uint64_t>(rec.payload) |
                     (static_cast<std::uint64_t>(rec.kind) << 32) |
                     (static_cast<std::uint64_t>(rec.peer) << 48),
                 std::memory_order_relaxed);
    lane->gen[i].store(2 * ticket + 2, std::memory_order_release);
    lane->head.store(ticket + 1, std::memory_order_release);
  }

  Lane* ClaimLane(std::uint64_t epoch) noexcept;  // slow path, out of line
  void ReleaseLaneOnThreadExit(Lane* lane, std::uint64_t tid) noexcept;

  std::size_t mask_;
  std::unique_ptr<Lane> lanes_[static_cast<std::size_t>(kMaxLanes)];
  std::atomic<int> lane_count_{0};
  // Process-unique instance epoch (fresh value from a global counter at
  // construction and on every Reset) so stale TLS cache entries — even for
  // a dead journal recycled at this address — never validate.
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<std::uint64_t> dropped_{0};
  mutable std::mutex lanes_mutex_;
};

}  // namespace dear::flightrec
