// Process-wide flight recorder: one Journal per rank, always on.
//
// Follows the check::Checker singleton shape (leaked, outlives every comm
// thread) but with no enable bit: the journal is the black box, so it
// records unconditionally. The hot-path cost is bounded
// and benchmarked — the perf-lab rows flightrec.alloc_per_event and
// flightrec.overhead_pct fail `dearsim bench` if one recorded event
// allocates or if recording costs >= 1% of the smallest collective.
//
// Time: all hot-path instrumentation reads the clock through NowNs() /
// CachedNowNs() below — the single monotonic origin every record shares.
// tools/lint.py forbids direct steady_clock::now() in src/comm so the
// instrumentation cost stays centralized here (rule steady-clock-in-comm).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "flightrec/journal.h"

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#define DEAR_FLIGHTREC_TSC 1
#endif

namespace dear::flightrec {

namespace detail {

#ifdef DEAR_FLIGHTREC_TSC
/// TSC fast clock, calibrated once at load time (recorder.cc) against
/// steady_clock. Plain globals — no init guard on the per-event path; the
/// conversion is one widening multiply by a 32.32 fixed-point ns/tick.
/// Zero until calibration runs, which only static initializers could see.
struct TscClock {
  std::uint64_t tsc0;
  std::uint64_t mult_q32;
};
extern TscClock g_tsc_clock;
#endif

extern thread_local constinit std::uint64_t t_cached_now_ns;

}  // namespace detail

/// Fresh monotonic timestamp (ns since the recorder's origin). Also
/// refreshes this thread's cached value. The recorder timestamps every
/// journaled event through this, so it is inline and guard-free: a raw
/// cycle-counter read (~16 ns on a VM) where the vDSO steady_clock read
/// costs ~35 ns; assumes the invariant TSC every x86-64 since Nehalem has.
#ifdef DEAR_FLIGHTREC_TSC
[[nodiscard]] inline std::uint64_t NowNs() noexcept {
  const std::uint64_t ticks = __rdtsc() - detail::g_tsc_clock.tsc0;
  detail::t_cached_now_ns = static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(ticks) * detail::g_tsc_clock.mult_q32) >>
      32);
  return detail::t_cached_now_ns;
}
#else
[[nodiscard]] std::uint64_t NowNs() noexcept;
#endif

/// The timestamp taken by the last NowNs() on this thread — for call sites
/// that want "when did my instrumentation last look at the clock" without
/// paying another read. 0 before the first read.
[[nodiscard]] inline std::uint64_t CachedNowNs() noexcept {
  return detail::t_cached_now_ns;
}

namespace detail {

/// Raw timestamp for journal records: TSC ticks where available (the
/// cycle-counter read is the single biggest per-event cost, so nothing —
/// no conversion, no TLS update — rides along). SnapshotAll converts to ns
/// post hoc via TicksToNs; both run through the same calibration, so every
/// surfaced timestamp still shares one origin.
[[nodiscard]] inline std::uint64_t NowTicks() noexcept {
#ifdef DEAR_FLIGHTREC_TSC
  return __rdtsc() - g_tsc_clock.tsc0;
#else
  return NowNs();
#endif
}

[[nodiscard]] inline std::uint64_t TicksToNs(std::uint64_t ticks) noexcept {
#ifdef DEAR_FLIGHTREC_TSC
  return static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(ticks) * g_tsc_clock.mult_q32) >> 32);
#else
  return ticks;
#endif
}

}  // namespace detail

class Recorder {
 public:
  /// Process-wide instance (leaked; safe from any thread).
  static Recorder& Get();

  /// Grows the per-rank journal set to at least `world` ranks. Called by
  /// TransportHub's constructor; idempotent, never shrinks, and existing
  /// journals (and their contents) survive — the black box spans hubs.
  void EnsureRanks(int world);

  [[nodiscard]] int ranks() const noexcept {
    return ranks_.load(std::memory_order_acquire);
  }

  /// The rank's journal, or nullptr when out of range (hooks no-op then).
  /// Unsigned compares: a negative rank wraps far past both bounds. The
  /// kMaxRanks check is free (ranks() never exceeds it) and lets the
  /// compiler prove the subscript below is in range.
  [[nodiscard]] Journal* journal(int rank) const noexcept {
    if (static_cast<unsigned>(rank) >= static_cast<unsigned>(kMaxRanks) ||
        static_cast<unsigned>(rank) >= static_cast<unsigned>(ranks())) {
      return nullptr;
    }
    return journals_[static_cast<std::size_t>(rank)];
  }

  // ---- Hot-path hooks (lock-free, allocation-free) -----------------------

  /// Transport send on `src` toward `dst`: assigns the message's causal ID
  /// (src:16 | dst:16 | per-channel seq:32) and Lamport stamp (written into
  /// the Message by the transport) and journals the event. Inline: this is
  /// the hook the perf-lab row flightrec.overhead_pct holds under 1%.
  void OnSend(int src, int dst, std::uint32_t tag, std::size_t bytes,
              std::uint64_t* causal_out,
              std::uint32_t* lamport_out) noexcept {
    Journal* j = journal(src);
    if (j == nullptr) {
      *causal_out = 0;
      *lamport_out = 0;
      return;
    }
    // Per-channel sequence: transport sends on a given (src, dst) pair are
    // issued by one thread at a time (each rank drives its own comm
    // thread), so a plain load + store suffices — no RMW on the hot path.
    // The counter lives here, not in the hub, so the triple (src, dst,
    // seq) stays unique across hub generations; a surprise concurrent
    // sender could at worst duplicate a diagnostic seq (the cells are
    // atomics, never UB).
    auto& chan = send_seq_[static_cast<std::size_t>(src) * kMaxRanks +
                           static_cast<std::size_t>(
                               dst >= 0 && dst < kMaxRanks ? dst : 0)];
    const std::uint32_t seq = chan.load(std::memory_order_relaxed);
    chan.store(seq + 1, std::memory_order_relaxed);
    Record rec;
    rec.ts_ns = detail::NowTicks();
    rec.causal = causal::Make(src, dst, seq);
    rec.tag = tag;
    rec.payload = bytes > 0xFFFFFFFFu ? 0xFFFFFFFFu
                                      : static_cast<std::uint32_t>(bytes);
    rec.kind = static_cast<std::uint16_t>(EventKind::kSend);
    rec.peer = dst >= 0 && dst < static_cast<int>(kNoPeer)
                   ? static_cast<std::uint16_t>(dst)
                   : kNoPeer;
    j->AppendTicked(rec);
    *causal_out = rec.causal;
    *lamport_out = rec.lamport;
  }

  /// Transport recv on `dst` from `src`: merges the sender's Lamport stamp
  /// and journals the matching edge (same causal ID as the send).
  void OnRecv(int dst, int src, std::uint32_t tag, std::size_t bytes,
              std::uint64_t causal, std::uint32_t lamport) noexcept {
    Journal* j = journal(dst);
    if (j == nullptr) return;
    Record rec;
    rec.ts_ns = detail::NowTicks();
    rec.causal = causal;
    rec.tag = tag;
    rec.payload = bytes > 0xFFFFFFFFu ? 0xFFFFFFFFu
                                      : static_cast<std::uint32_t>(bytes);
    rec.kind = static_cast<std::uint16_t>(EventKind::kRecv);
    rec.peer = src >= 0 && src < static_cast<int>(kNoPeer)
                   ? static_cast<std::uint16_t>(src)
                   : kNoPeer;
    j->AppendObserved(rec, lamport);
  }

  /// Membership epoch event on `rank`: a transition (kind = TransitionKind,
  /// subject = affected rank or -1) or, with kind 0, this rank's adoption of
  /// `epoch` (a rebuilt communicator). tag carries the epoch; payload packs
  /// kind:16 | subject+1:16 so -1 survives the unsigned field.
  void OnEpoch(int rank, std::uint32_t epoch, std::uint16_t kind,
               int subject) noexcept {
    Journal* j = journal(rank);
    if (j == nullptr) return;
    Record rec;
    rec.ts_ns = detail::NowTicks();
    rec.tag = epoch;
    rec.payload = (static_cast<std::uint32_t>(kind) << 16) |
                  (static_cast<std::uint32_t>(subject + 1) & 0xFFFFu);
    rec.kind = static_cast<std::uint16_t>(EventKind::kEpoch);
    j->AppendTicked(rec);
  }

  /// Wrong-epoch message rejected on `dst`: journals the drop under the
  /// dropped message's causal ID so the post-hoc merger can pair it with
  /// the send that raced the epoch trip. payload packs msg_epoch:16 | cur:16.
  void OnStaleDrop(int dst, int src, std::uint32_t tag, std::uint64_t causal,
                   std::uint32_t msg_epoch, std::uint32_t cur_epoch) noexcept {
    Journal* j = journal(dst);
    if (j == nullptr) return;
    Record rec;
    rec.ts_ns = detail::NowTicks();
    rec.causal = causal;
    rec.tag = tag;
    rec.payload = ((msg_epoch & 0xFFFFu) << 16) | (cur_epoch & 0xFFFFu);
    rec.kind = static_cast<std::uint16_t>(EventKind::kStaleDrop);
    rec.peer = src >= 0 && src < static_cast<int>(kNoPeer)
                   ? static_cast<std::uint16_t>(src)
                   : kNoPeer;
    j->AppendTicked(rec);
  }

  /// Top-level collective bracket: tag = `kind` (a comm::CollectiveKind
  /// value, named through comm::kCollectiveKindNames); the begin's payload
  /// is the element count, the end's the wire dtype (a comm::DType value,
  /// 0 = f32) the payloads travelled as.
  void OnCollectiveBegin(int rank, std::uint16_t kind,
                         std::size_t elems) noexcept;
  void OnCollectiveEnd(int rank, std::uint16_t kind,
                       std::uint8_t dtype) noexcept;

  /// DistOptim schedule record: a group transition (kRsLaunch..kUnpack,
  /// kWaitBegin; tag = group, payload = the group's in-flight op sequence
  /// number, peer = the op's schedule-table row) or an iteration boundary
  /// (kStepEnd; payload = step index). A negative or too large row is
  /// recorded as kNoPeer.
  void OnGroupEvent(int rank, int group, EventKind kind,
                    std::uint32_t payload = 0, int row = -1) noexcept;

  /// TransportHub::Shutdown: journals a kShutdown record on every rank of
  /// the hub and, when DEAR_FLIGHTREC_DUMP is set, writes the tail dump to
  /// "<prefix>-shutdown.txt" (overwritten; the last shutdown before a
  /// failure is the one that matters).
  void OnShutdown(int world) noexcept;

  // ---- Post-hoc access ---------------------------------------------------

  /// Consistent per-rank snapshots, oldest record first.
  [[nodiscard]] std::vector<std::vector<Record>> SnapshotAll() const;

  /// Human-readable last-`n` records per rank (the hang-report appendix).
  [[nodiscard]] std::string DumpTail(std::size_t n) const;

  /// Writes DumpTail to "<$DEAR_FLIGHTREC_DUMP>-<why>.txt"; no-op when the
  /// environment variable is unset. Returns the path written (empty if
  /// none). Used on checker trips and hub shutdowns for CI artifacts.
  std::string MaybeWriteDump(const char* why) const;

  /// Rewinds every journal. NOT thread-safe; callers must be quiescent.
  void Reset();

  static constexpr int kMaxRanks = 512;
  /// Default ring capacity per rank (records); override with
  /// DEAR_FLIGHTREC_CAPACITY before the first journal is created.
  static constexpr std::size_t kDefaultCapacity = 8192;

 private:
  Recorder();

  Journal* journals_[kMaxRanks] = {};
  std::atomic<int> ranks_{0};
  std::size_t capacity_;

  // Send sequence per directed channel (src * kMaxRanks + dst), the seq
  // half of the causal message ID. Single logical writer per channel, so
  // OnSend bumps it with a plain load + store; lives for the process so
  // causal IDs never repeat across TransportHub generations. 1 MiB on the
  // leaked singleton.
  std::atomic<std::uint32_t> send_seq_[static_cast<std::size_t>(kMaxRanks) *
                                       kMaxRanks] = {};
};

}  // namespace dear::flightrec
