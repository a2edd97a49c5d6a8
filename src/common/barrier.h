// Reusable thread barrier and countdown latch.
//
// std::barrier exists in C++20 but its completion-function template parameter
// complicates storage in containers; this minimal phase-counting barrier is
// all the worker pool needs and is trivially copy-armed for tests.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <mutex>

#include "common/schedule_point.h"

namespace dear {

/// Cyclic barrier: Wait() blocks until `parties` threads have arrived, then
/// releases them all and re-arms for the next phase.
class CyclicBarrier {
 public:
  explicit CyclicBarrier(std::size_t parties) : parties_(parties) {}
  CyclicBarrier(const CyclicBarrier&) = delete;
  CyclicBarrier& operator=(const CyclicBarrier&) = delete;

  void Wait() {
    schedpoint::ScopedBlock block(schedpoint::Site::kBarrierWait);
    std::unique_lock<std::mutex> lock(mutex_);
    const std::size_t phase = phase_;
    if (++arrived_ == parties_) {
      arrived_ = 0;
      ++phase_;
      cv_.notify_all();
      return;
    }
    cv_.wait(lock, [&] { return phase_ != phase; });
  }

 private:
  const std::size_t parties_;
  std::size_t arrived_{0};
  std::size_t phase_{0};
  std::mutex mutex_;
  std::condition_variable cv_;
};

/// One-shot countdown latch.
class Latch {
 public:
  explicit Latch(std::size_t count) : count_(count) {}
  Latch(const Latch&) = delete;
  Latch& operator=(const Latch&) = delete;

  void CountDown() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (count_ > 0 && --count_ == 0) cv_.notify_all();
  }

  /// Non-blocking Wait(): true once the count reached zero.
  [[nodiscard]] bool TryWait() {
    std::lock_guard<std::mutex> lock(mutex_);
    return count_ == 0;
  }

  void Wait() {
    schedpoint::ScopedBlock block(
        schedpoint::Site::kLatchWait,
        {[](const void* object) {
           const auto& self = *static_cast<const Latch*>(object);
           std::lock_guard<std::mutex> lock(self.mutex_);
           return self.count_ == 0;
         },
         this});
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return count_ == 0; });
  }

 private:
  std::size_t count_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
};

}  // namespace dear
