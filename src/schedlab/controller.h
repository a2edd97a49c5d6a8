// schedlab — deterministic-schedule controller for the threaded runtime.
//
// Installs a schedpoint::Hook that serializes every registered worker
// thread (compute "rank.N" and comm-engine "comm.N" threads) onto a total
// order chosen one step at a time by a Picker. At each schedule point the
// running worker yields its turn; the controller waits for the worker set
// to quiesce, then asks the Picker which ready worker runs next. The ready
// set must be a pure function of the choice history rather than of OS
// wakeup timing, so a blocked worker whose wakeup is in flight (its wait
// can already return, or has returned and the worker has not re-queued
// yet) is waited for however long the OS takes to run it; the settle
// window (no state transitions for a short while) only covers waits that
// cannot say so.
//
// Blocking waits (channel recv, barrier, latch) are bracketed by
// OnBlockEnter/OnBlockExit: a worker never holds its turn while blocked in
// the OS, so the schedule can always make progress; when the wait is
// satisfied the worker re-queues as ready and the controller decides when
// it resumes. Channel and latch waits pass a schedpoint::WaitProbe, and a
// channel receive also reports OnWaitSatisfied before it pops its item:
// that is how the controller sees their wakeups in flight.
//
// Liveness: if every live worker is blocked and nothing transitions for
// the deadlock timeout, the controller declares a deadlock, invokes the
// caller's on_deadlock handler (typically TransportHub::Shutdown, which
// unwinds every blocked Recv with Status::Unavailable) and switches to
// pass-through mode so teardown completes. A deadlocking schedule is a
// first-class *result* here — it is how the fuzzer reports protocol bugs
// like a rank silently skipping a collective.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.h"

namespace dear::schedlab {

/// Chooses the next worker to run. `ready` holds canonical worker names
/// ("role.id", sorted); `prev` is the index within `ready` of the worker
/// that just yielded voluntarily and is still runnable, or -1 (its choice
/// is the non-preemptive continuation). Must return an index < ready.size().
class Picker {
 public:
  virtual ~Picker() = default;
  virtual std::size_t Pick(const std::vector<std::string>& ready,
                           std::ptrdiff_t prev) = 0;
};

/// Random-walk fuzzer: a seeded deterministic PRNG (common/rng.h, bit-stable
/// across platforms) picks uniformly among the ready workers. Same seed =>
/// identical choice sequence => identical schedule.
class RandomWalkPicker : public Picker {
 public:
  explicit RandomWalkPicker(std::uint64_t seed) : rng_(seed) {}
  std::size_t Pick(const std::vector<std::string>& ready,
                   std::ptrdiff_t prev) override {
    (void)prev;
    return static_cast<std::size_t>(rng_.NextBounded(ready.size()));
  }

 private:
  Rng rng_;
};

struct ControllerOptions {
  /// Workers the workload is known to register (compute + comm threads).
  /// The first schedule decision is deferred until all have arrived, which
  /// removes thread-spawn timing from the schedule.
  int expected_workers{0};
  /// Quiescence window: with some worker blocked, a decision is made only
  /// after no worker changed state for this long (scaled by
  /// DEAR_TIMEOUT_MULT). Wakeups the blocked waits report as in flight are
  /// waited for regardless (up to deadlock_timeout_s); the window is what
  /// is left for waits without a probe and threads outside the schedule.
  double settle_window_s{0.002};
  /// All live workers blocked with no transitions for this long => deadlock
  /// (scaled by DEAR_TIMEOUT_MULT).
  double deadlock_timeout_s{0.25};
  /// Safety valve against runaway schedules.
  std::size_t max_decisions{1000000};
  /// Keep the per-decision trace in the result (always hashed regardless).
  bool record_trace{true};
  /// Invoked once (from the controller thread, with no locks held) when a
  /// deadlock is declared, before pass-through mode releases the workers.
  /// Must unblock them (e.g. hub.Shutdown()) or teardown will hang.
  std::function<void()> on_deadlock;
};

struct ScheduleResult {
  bool deadlock{false};        // controller declared a deadlock
  bool decision_limit{false};  // hit max_decisions and went pass-through
  std::size_t decisions{0};
  std::size_t workers{0};  // workers that registered over the run
  /// FNV-1a over the decision lines — two runs took the same schedule iff
  /// their fingerprints match.
  std::uint64_t fingerprint{0};
  /// One line per decision: "<worker> @<site>" (empty unless record_trace).
  std::vector<std::string> trace;
};

/// Multiplier from the DEAR_TIMEOUT_MULT environment variable (>= 1x
/// recommended under sanitizers); 1.0 when unset or invalid.
[[nodiscard]] double TimeoutMult();

/// Runs `workload` (on its own unregistered thread) with the hook installed,
/// drives every worker it spawns under `picker`, and returns once the
/// workload function has returned and every registered worker is done.
/// Not reentrant: one controller at a time per process.
ScheduleResult RunUnderSchedule(Picker& picker,
                                const ControllerOptions& options,
                                const std::function<void()>& workload);

}  // namespace dear::schedlab
