// Blocking MPMC channel for inter-thread message passing.
//
// The in-process transport (src/comm) uses one channel per (src, dst) pair,
// so in practice each instance is SPSC; the implementation is nevertheless
// safe for multiple producers/consumers, which the async comm engine relies
// on for its request queue.
//
// The queue is a power-of-two ring over default-constructed slots rather
// than a std::deque: a deque recycles a ~512-byte block every dozen
// push/pop cycles, which would count as per-message heap traffic on the
// zero-copy transport path (the perf-lab row transport.alloc_per_msg bars
// steady-state sends at 0 allocations). Once the ring has grown to the high-water mark,
// send/recv never touch the allocator. T must be default-constructible and
// move-assignable.
//
// Close semantics follow Go channels: Send on a closed channel fails,
// Recv drains remaining items and then reports closed.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "common/schedule_point.h"

namespace dear {

/// Why a timed receive returned without an item (see Channel::RecvFor).
enum class RecvOutcome : std::uint8_t {
  kItem,     // an item was returned
  kClosed,   // channel was closed (possibly a close/reopen cycle) mid-wait
  kTimeout,  // deadline elapsed with the channel open and empty
};

template <typename T>
class Channel {
 public:
  Channel() = default;
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Enqueues an item; returns false if the channel is closed.
  bool Send(T item) {
    schedpoint::Point(schedpoint::Site::kChannelSend);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_) return false;
      if (count_ == buffer_.size()) GrowLocked();
      buffer_[(head_ + count_) & (buffer_.size() - 1)] = std::move(item);
      ++count_;
    }
    cv_.notify_one();
    return true;
  }

  /// Blocks until an item is available or the channel is closed and drained.
  /// Returns nullopt only in the closed-and-drained case. A close/reopen
  /// cycle that happens entirely mid-wait also wakes the receiver (the
  /// close generation is captured before sleeping), so a waiter can never
  /// sleep through a membership-epoch trip that cycles the channel.
  std::optional<T> Recv() {
    // Constructed before the lock so the block-exit hook (which may itself
    // wait on the schedlab controller) runs after the lock is released.
    schedpoint::ScopedBlock block(schedpoint::Site::kChannelRecv,
                                  ready_probe());
    std::unique_lock<std::mutex> lock(mutex_);
    const std::uint64_t gen = close_gen_;
    cv_.wait(lock,
             [&] { return count_ > 0 || closed_ || close_gen_ != gen; });
    block.Satisfied();
    if (count_ == 0) return std::nullopt;
    return PopLocked();
  }

  /// Number of Close() calls so far. A caller that checks some other
  /// condition before RecvFor reads this first and passes it on, so a
  /// close/reopen cycle landing between the check and the wait still ends
  /// the wait.
  [[nodiscard]] std::uint64_t close_generation() {
    std::lock_guard<std::mutex> lock(mutex_);
    return close_gen_;
  }

  /// Recv with a deadline: waits up to `timeout` for an item. On success
  /// returns the item (*outcome = kItem); otherwise nullopt with *outcome
  /// telling closed-or-cycled apart from a plain timeout — the transport's
  /// failure detector treats only kTimeout as peer silence. A close since
  /// generation `since_gen` (close_generation()) counts as a cycle and
  /// takes no item: whatever was queued after a close/reopen cycle belongs
  /// to the receivers of the next membership epoch, not to this wait.
  std::optional<T> RecvFor(std::chrono::nanoseconds timeout,
                           RecvOutcome* outcome, std::uint64_t since_gen) {
    schedpoint::ScopedBlock block(schedpoint::Site::kChannelRecv,
                                  ready_probe());
    std::unique_lock<std::mutex> lock(mutex_);
    const bool ready = cv_.wait_for(lock, timeout, [&] {
      return count_ > 0 || closed_ || close_gen_ != since_gen;
    });
    if (ready) block.Satisfied();
    if (count_ > 0 && close_gen_ == since_gen) {
      *outcome = RecvOutcome::kItem;
      return PopLocked();
    }
    *outcome = !ready ? RecvOutcome::kTimeout : RecvOutcome::kClosed;
    return std::nullopt;
  }

  /// A blocked receiver can return: an item is queued or the channel is
  /// closed (a close/reopen cycle mid-wait is missed: the safe side).
  [[nodiscard]] schedpoint::WaitProbe ready_probe() const noexcept {
    return {[](const void* object) {
              const auto& self = *static_cast<const Channel*>(object);
              std::lock_guard<std::mutex> lock(self.mutex_);
              return self.count_ > 0 || self.closed_;
            },
            this};
  }

  /// Non-blocking receive.
  std::optional<T> TryRecv() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (count_ == 0) return std::nullopt;
    return PopLocked();
  }

  /// Closes the channel; wakes all blocked receivers.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
      ++close_gen_;
    }
    cv_.notify_all();
  }

  /// Reopens a closed channel (no-op when open). Part of a membership
  /// epoch trip's close -> Clear -> Reopen cycle; waiters that entered
  /// before the Close still observe it via the close generation.
  void Reopen() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = false;
    }
    cv_.notify_all();
  }

  /// Destroys every queued item and returns how many were discarded.
  /// Queued pooled payloads release their slabs here — the drain step of
  /// TransportHub::Shutdown.
  std::size_t Clear() {
    std::lock_guard<std::mutex> lock(mutex_);
    const std::size_t dropped = count_;
    while (count_ > 0) {
      buffer_[head_] = T{};
      head_ = (head_ + 1) & (buffer_.size() - 1);
      --count_;
    }
    return dropped;
  }

  [[nodiscard]] bool closed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return count_;
  }

 private:
  static constexpr std::size_t kInitialCapacity = 16;

  /// Doubles the ring (called full), re-packing live items from slot 0.
  void GrowLocked() {
    const std::size_t cap = buffer_.size();
    std::vector<T> next(cap == 0 ? kInitialCapacity : cap * 2);
    for (std::size_t i = 0; i < count_; ++i)
      next[i] = std::move(buffer_[(head_ + i) & (cap - 1)]);
    buffer_ = std::move(next);
    head_ = 0;
  }

  /// Pops the front item; the vacated slot keeps a moved-from shell that
  /// the next Send overwrites.
  T PopLocked() {
    T item = std::move(buffer_[head_]);
    head_ = (head_ + 1) & (buffer_.size() - 1);
    --count_;
    return item;
  }

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<T> buffer_;  // power-of-two ring; [head_, head_+count_) live
  std::size_t head_{0};
  std::size_t count_{0};
  bool closed_{false};
  std::uint64_t close_gen_{0};  // bumped by Close; wakes pre-Close waiters
};

}  // namespace dear
