#include "comm/buffer_pool.h"

#include <bit>
#include <mutex>
#include <utility>
#include <vector>

namespace dear::comm {
namespace {

// Size classes are powers of two from 64 elements (256 B — below that the
// slab header noise dominates) to 4 Mi elements (16 MiB — larger than any
// fusion-group chunk the runtime produces). Bigger requests are served
// exact-size and never cached, so a one-off giant tensor cannot pin memory.
constexpr std::size_t kMinClassElems = 64;
constexpr int kNumClasses = 17;  // 64 << 16 = 4 Mi elements

constexpr std::size_t ClassCapacity(int cls) noexcept {
  return kMinClassElems << cls;
}

constexpr std::int64_t CapacityBytes(std::size_t capacity) noexcept {
  return static_cast<std::int64_t>(capacity * sizeof(float));
}

/// Smallest class whose capacity covers `n`, or -1 when n is oversize.
int ClassFor(std::size_t n) noexcept {
  const std::size_t capacity = std::bit_ceil(n < kMinClassElems
                                                 ? kMinClassElems
                                                 : n);
  if (capacity > ClassCapacity(kNumClasses - 1)) return -1;
  return std::countr_zero(capacity) -
         std::countr_zero(kMinClassElems);
}

/// Exact-match class for a slab capacity, or -1 (oversize / non-pooled).
int ClassForCapacity(std::size_t capacity) noexcept {
  if (capacity < kMinClassElems || !std::has_single_bit(capacity)) return -1;
  const int cls = std::countr_zero(capacity) -
                  std::countr_zero(kMinClassElems);
  return cls < kNumClasses ? cls : -1;
}

}  // namespace

namespace internal {

struct PoolCore {
  explicit PoolCore(bool pool) : pooling(pool), freelists(kNumClasses) {}

  std::mutex mutex;
  const bool pooling;
  bool draining{false};
  // freelists[c] caches idle slabs of capacity ClassCapacity(c).
  std::vector<std::vector<std::unique_ptr<float[]>>> freelists;
  PoolStats stats;
};

}  // namespace internal

BufferPool::BufferPool(bool pooling)
    : pooling_(pooling),
      core_(std::make_shared<internal::PoolCore>(pooling)) {}

BufferPool::~BufferPool() { Drain(); }

PooledBuffer BufferPool::Acquire(std::size_t n, DType dtype) {
  if (n == 0) return PooledBuffer();
  // Element-width-aware size classing: the slab must cover the *wire*
  // bytes of n dtype elements, expressed in float-sized slots (slabs stay
  // float arrays, which also guarantees alignment for every wire dtype).
  // n fp16/bf16 elements therefore draw from a class half the size the
  // same n would need at fp32 — the pooled half of the bandwidth win.
  const std::size_t slots =
      (n * DTypeSize(dtype) + sizeof(float) - 1) / sizeof(float);
  internal::PoolCore& core = *core_;
  std::unique_ptr<float[]> slab;
  std::size_t capacity = slots;
  bool hit = false;
  {
    std::lock_guard<std::mutex> lock(core.mutex);
    const int cls =
        (core.pooling && !core.draining) ? ClassFor(slots) : -1;
    if (cls >= 0) {
      capacity = ClassCapacity(cls);
      auto& list = core.freelists[static_cast<std::size_t>(cls)];
      if (!list.empty()) {
        slab = std::move(list.back());
        list.pop_back();
        hit = true;
        core.stats.cached_buffers -= 1;
        core.stats.cached_bytes -= CapacityBytes(capacity);
      }
    } else if (core.pooling && !core.draining) {
      core.stats.oversize += 1;
    }
    if (!slab) slab.reset(new float[capacity]);
    core.stats.hits += hit ? 1 : 0;
    core.stats.misses += hit ? 0 : 1;
    core.stats.in_flight_buffers += 1;
    core.stats.in_flight_bytes += CapacityBytes(capacity);
    core.stats.acquired_bytes += CapacityBytes(capacity);
  }
  return PooledBuffer(core_, slab.release(), n, capacity, dtype);
}

void BufferPool::Drain() {
  // Cached slabs are moved out and freed after the lock drops.
  std::vector<std::vector<std::unique_ptr<float[]>>> purged;
  {
    std::lock_guard<std::mutex> lock(core_->mutex);
    core_->draining = true;
    purged.swap(core_->freelists);
    core_->stats.cached_buffers = 0;
    core_->stats.cached_bytes = 0;
  }
}

PoolStats BufferPool::stats() const {
  std::lock_guard<std::mutex> lock(core_->mutex);
  return core_->stats;
}

void PooledBuffer::Release() noexcept {
  if (!core_) {  // empty buffer or already released
    data_ = nullptr;
    size_ = 0;
    capacity_ = 0;
    dtype_ = DType::kF32;
    return;
  }
  const std::shared_ptr<internal::PoolCore> core = std::move(core_);
  std::unique_ptr<float[]> slab(data_);
  const std::size_t capacity = capacity_;
  data_ = nullptr;
  size_ = 0;
  capacity_ = 0;
  dtype_ = DType::kF32;
  {
    std::lock_guard<std::mutex> lock(core->mutex);
    core->stats.in_flight_buffers -= 1;
    core->stats.in_flight_bytes -= CapacityBytes(capacity);
    if (core->pooling && !core->draining) {
      const int cls = ClassForCapacity(capacity);
      if (cls >= 0) {
        core->freelists[static_cast<std::size_t>(cls)].push_back(
            std::move(slab));
        core->stats.cached_buffers += 1;
        core->stats.cached_bytes += CapacityBytes(capacity);
      }
    }
  }
  // If the slab was not cached it frees here, outside the lock.
}

}  // namespace dear::comm
