#include "schedlab/controller.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "common/schedule_point.h"

namespace dear::schedlab {
namespace {

using Clock = std::chrono::steady_clock;

// Identity of the calling thread within the active controller. Index into
// workers_ once registered; -1 otherwise (unregistered threads' hook calls
// are ignored). Safe as file statics because only one controller runs at a
// time (enforced below) and worker threads never outlive their run.
thread_local std::ptrdiff_t t_self = -1;
// Nesting depth of ScopedBlock on this thread; only the outermost bracket
// participates in scheduling (e.g. TransportHub::Recv wraps Channel::Recv).
thread_local int t_block_depth = 0;
// Set when this thread's innermost wait saw its condition hold (lock-free),
// cleared whenever it enters a wait; see WakeupInFlightLocked.
thread_local std::atomic<bool> t_satisfied{false};

std::atomic<bool> g_controller_active{false};

std::uint64_t Fnv1aLine(std::uint64_t h, const std::string& line) {
  for (const char c : line) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  h ^= static_cast<unsigned char>('\n');
  h *= 1099511628211ULL;
  return h;
}
constexpr std::uint64_t kFnvBasis = 1469598103934665603ULL;

class Controller final : public schedpoint::Hook {
 public:
  Controller(Picker& picker, const ControllerOptions& options)
      : picker_(picker), options_(options) {}

  ScheduleResult Run(const std::function<void()>& workload);

  void OnWorkerBegin(const char* role, int id) override {
    std::unique_lock<std::mutex> lock(mutex_);
    t_self = static_cast<std::ptrdiff_t>(workers_.size());
    t_block_depth = 0;
    Worker w;
    w.role = role;
    w.id = id;
    w.name = std::string(role) + "." + std::to_string(id);
    w.satisfied = &t_satisfied;
    w.state = passthrough_ ? State::kRunning : State::kReady;
    workers_.push_back(std::move(w));
    Bump();
    if (!passthrough_) AwaitGrantLocked(lock, t_self);
  }

  void OnWorkerEnd() override {
    if (t_self < 0) return;
    std::unique_lock<std::mutex> lock(mutex_);
    workers_[static_cast<std::size_t>(t_self)].state = State::kDone;
    if (current_ == t_self) current_ = -1;
    if (prev_candidate_ == t_self) prev_candidate_ = -1;
    Bump();
    t_self = -1;
    t_block_depth = 0;
  }

  void OnPoint(schedpoint::Site site) override {
    if (t_self < 0 || t_block_depth > 0) return;
    std::unique_lock<std::mutex> lock(mutex_);
    if (passthrough_) return;
    Worker& w = workers_[static_cast<std::size_t>(t_self)];
    w.state = State::kReady;
    w.site = site;
    prev_candidate_ = t_self;  // voluntary yield: continuation candidate
    if (current_ == t_self) current_ = -1;
    Bump();
    AwaitGrantLocked(lock, t_self);
  }

  void OnBlockEnter(schedpoint::Site site,
                    schedpoint::WaitProbe probe) override {
    if (t_self < 0) return;
    t_satisfied.store(false, std::memory_order_relaxed);
    if (++t_block_depth > 1) return;
    std::unique_lock<std::mutex> lock(mutex_);
    if (passthrough_) return;
    Worker& w = workers_[static_cast<std::size_t>(t_self)];
    w.state = State::kBlocked;
    w.site = site;
    w.probe = probe;
    if (prev_candidate_ == t_self) prev_candidate_ = -1;
    if (current_ == t_self) current_ = -1;
    Bump();
  }

  void OnWaitSatisfied() noexcept override {
    if (t_self >= 0) t_satisfied.store(true, std::memory_order_release);
  }

  void OnBlockExit(schedpoint::Site site) override {
    if (t_self < 0) return;
    if (--t_block_depth > 0) return;
    std::unique_lock<std::mutex> lock(mutex_);
    Worker& w = workers_[static_cast<std::size_t>(t_self)];
    if (passthrough_) {
      w.state = State::kRunning;
      return;
    }
    w.state = State::kReady;
    w.site = site;
    w.probe = {};
    Bump();
    AwaitGrantLocked(lock, t_self);
  }

 private:
  enum class State : std::uint8_t { kReady, kRunning, kBlocked, kDone };
  struct Worker {
    std::string role;
    int id{0};
    std::string name;
    State state{State::kReady};
    schedpoint::Site site{schedpoint::Site::kChannelSend};
    schedpoint::WaitProbe probe;  // the wait it is blocked in, if kBlocked
    const std::atomic<bool>* satisfied{nullptr};  // its thread's t_satisfied
  };

  /// Any worker-visible state change: bump the epoch and wake everyone
  /// (workers waiting for grants, the controller loop waiting to settle).
  void Bump() {
    ++transitions_;
    cv_.notify_all();
  }

  void AwaitGrantLocked(std::unique_lock<std::mutex>& lock,
                        std::ptrdiff_t self) {
    cv_.wait(lock, [&] { return passthrough_ || current_ == self; });
    workers_[static_cast<std::size_t>(self)].state = State::kRunning;
  }

  [[nodiscard]] bool AllDoneLocked() const {
    for (const Worker& w : workers_)
      if (w.state != State::kDone) return false;
    return true;
  }

  /// True if some blocked worker will turn ready without anyone else
  /// running: its wait can return, or has and the worker is on its way to
  /// OnBlockExit. Probe first: the waiter flags under the wait's lock
  /// before consuming, so a probe that misses the item sees the flag.
  [[nodiscard]] bool WakeupInFlightLocked() const {
    for (const Worker& w : workers_) {
      if (w.state != State::kBlocked) continue;
      if (w.probe.ready != nullptr && w.probe.ready(w.probe.object))
        return true;
      if (w.satisfied->load(std::memory_order_acquire)) return true;
    }
    return false;
  }

  [[nodiscard]] std::size_t BlockedLocked() const {
    std::size_t n = 0;
    for (const Worker& w : workers_)
      if (w.state == State::kBlocked) ++n;
    return n;
  }

  /// Indices of ready workers in canonical (role, id) order — stable no
  /// matter what order the threads happened to register in.
  [[nodiscard]] std::vector<std::size_t> ReadyLocked() const {
    std::vector<std::size_t> ready;
    for (std::size_t i = 0; i < workers_.size(); ++i)
      if (workers_[i].state == State::kReady) ready.push_back(i);
    std::sort(ready.begin(), ready.end(), [&](std::size_t a, std::size_t b) {
      const Worker& wa = workers_[a];
      const Worker& wb = workers_[b];
      if (wa.role != wb.role) return wa.role < wb.role;
      return wa.id < wb.id;
    });
    return ready;
  }

  /// Waits for the next state transition (or the exit condition).
  void WaitTransitionLocked(std::unique_lock<std::mutex>& lock) {
    const std::uint64_t start = transitions_;
    cv_.wait(lock, [&] { return transitions_ != start; });
  }

  /// Waits for a transition with a deadline; returns false on timeout.
  bool WaitTransitionUntilLocked(std::unique_lock<std::mutex>& lock,
                                 Clock::time_point deadline) {
    const std::uint64_t start = transitions_;
    while (transitions_ == start) {
      if (cv_.wait_until(lock, deadline) == std::cv_status::timeout &&
          transitions_ == start) {
        return false;
      }
    }
    return true;
  }

  /// True if no transition happened for the settle window (the worker set
  /// has quiesced and the ready set is decision-grade).
  bool SettleLocked(std::unique_lock<std::mutex>& lock,
                    Clock::duration window) {
    const std::uint64_t start = transitions_;
    const auto deadline = Clock::now() + window;
    while (Clock::now() < deadline) {
      cv_.wait_until(lock, deadline);
      if (transitions_ != start) return false;
    }
    return transitions_ == start;
  }

  void GrantLocked(const std::vector<std::size_t>& ready) {
    std::vector<std::string> names;
    names.reserve(ready.size());
    std::ptrdiff_t prev = -1;
    for (std::size_t i = 0; i < ready.size(); ++i) {
      names.push_back(workers_[ready[i]].name);
      if (static_cast<std::ptrdiff_t>(ready[i]) == prev_candidate_)
        prev = static_cast<std::ptrdiff_t>(i);
    }
    std::size_t choice = picker_.Pick(names, prev);
    if (choice >= ready.size()) choice = 0;
    const std::size_t w = ready[choice];
    prev_candidate_ = -1;
    current_ = static_cast<std::ptrdiff_t>(w);
    ++decisions_;
    std::string line =
        workers_[w].name + " @" + schedpoint::SiteName(workers_[w].site);
    fingerprint_ = Fnv1aLine(fingerprint_, line);
    if (options_.record_trace) trace_.push_back(std::move(line));
    Bump();
  }

  /// Flips to pass-through (every wait releases, hooks become no-ops) and
  /// runs `handler` with the lock dropped.
  void EnterPassthroughLocked(std::unique_lock<std::mutex>& lock,
                              const std::function<void()>& handler) {
    passthrough_ = true;
    Bump();
    if (handler) {
      lock.unlock();
      handler();
      lock.lock();
    }
  }

  Picker& picker_;
  ControllerOptions options_;

  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<Worker> workers_;
  std::ptrdiff_t current_{-1};         // worker holding the turn, or -1
  std::ptrdiff_t prev_candidate_{-1};  // last voluntary yielder, if ready
  std::uint64_t transitions_{0};
  bool passthrough_{false};
  bool workload_done_{false};
  std::size_t decisions_{0};
  std::uint64_t fingerprint_{kFnvBasis};
  std::vector<std::string> trace_;
  ScheduleResult result_;
};

ScheduleResult Controller::Run(const std::function<void()>& workload) {
  bool expected = false;
  DEAR_CHECK_MSG(g_controller_active.compare_exchange_strong(
                     expected, true, std::memory_order_acq_rel),
                 "only one schedlab controller may run at a time");
  schedpoint::InstallHook(this);

  std::thread driver([&] {
    workload();
    std::lock_guard<std::mutex> lock(mutex_);
    workload_done_ = true;
    Bump();
  });

  const double mult = TimeoutMult();
  const auto settle = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(options_.settle_window_s * mult));
  const auto deadlock_after = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(options_.deadlock_timeout_s * mult));

  {
    std::unique_lock<std::mutex> lock(mutex_);
    std::uint64_t seen = transitions_;
    auto last_change = Clock::now();
    int expected_workers = options_.expected_workers;
    while (true) {
      if (transitions_ != seen) {
        seen = transitions_;
        last_change = Clock::now();
      }
      if (workload_done_ && AllDoneLocked()) break;
      if (passthrough_ || current_ != -1) {
        // A worker is running (or everything is): nothing to decide.
        WaitTransitionLocked(lock);
        continue;
      }
      if (static_cast<int>(workers_.size()) < expected_workers) {
        // Hold the first decision until the announced workers arrive, so
        // thread-spawn latency never shapes the schedule. Give up waiting
        // (and re-baseline) if they stop coming — misdeclared workloads
        // should fail their properties, not hang the harness.
        if (!WaitTransitionUntilLocked(lock, last_change + deadlock_after))
          expected_workers = static_cast<int>(workers_.size());
        continue;
      }
      std::vector<std::size_t> ready = ReadyLocked();
      const std::size_t blocked = BlockedLocked();
      if (ready.empty()) {
        if (blocked == 0) {
          // Startup (nothing registered yet) or drain (all done, waiting
          // for the workload function to return).
          WaitTransitionLocked(lock);
          continue;
        }
        // Every live worker is blocked: deadlock once quiet long enough.
        if (Clock::now() - last_change >= deadlock_after) {
          result_.deadlock = true;
          EnterPassthroughLocked(lock, options_.on_deadlock);
          continue;
        }
        WaitTransitionUntilLocked(lock, last_change + deadlock_after);
        continue;
      }
      if (blocked > 0) {
        // A blocked worker may have a wakeup in flight (a send it was
        // waiting on already happened): the ready set is decision-grade
        // only once it has joined. A loaded host can take far longer than
        // the settle window to run it, so a wakeup the wait reports is
        // waited for (up to the deadlock timeout); the settle window
        // covers waits that cannot say and threads outside the schedule.
        if (WakeupInFlightLocked() &&
            Clock::now() - last_change < deadlock_after) {
          WaitTransitionUntilLocked(lock, Clock::now() + settle);
          continue;
        }
        if (!SettleLocked(lock, settle)) continue;
      }
      GrantLocked(ready);
      if (decisions_ >= options_.max_decisions) {
        result_.decision_limit = true;
        EnterPassthroughLocked(lock, options_.on_deadlock);
      }
    }
  }

  driver.join();
  schedpoint::InstallHook(nullptr);
  g_controller_active.store(false, std::memory_order_release);

  result_.decisions = decisions_;
  result_.workers = workers_.size();
  result_.fingerprint = fingerprint_;
  result_.trace = std::move(trace_);
  return result_;
}

}  // namespace

double TimeoutMult() {
  static const double mult = [] {
    const char* env = std::getenv("DEAR_TIMEOUT_MULT");
    if (env == nullptr) return 1.0;
    const double v = std::strtod(env, nullptr);
    return v > 0.0 ? v : 1.0;
  }();
  return mult;
}

ScheduleResult RunUnderSchedule(Picker& picker,
                                const ControllerOptions& options,
                                const std::function<void()>& workload) {
  Controller controller(picker, options);
  return controller.Run(workload);
}

}  // namespace dear::schedlab
