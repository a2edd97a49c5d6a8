// Size-classed slab pool backing the zero-copy transport path.
//
// Every hop of a ring collective moves one chunk through the in-process
// transport; before this pool existed each hop paid a std::vector heap
// allocation plus a copy on the send side and a free on the receive side —
// 2(p-1) times per rank per collective. The pool plays the role of NCCL's
// registered (pre-pinned) buffers: senders Acquire() a recycled slab and
// write the chunk directly into it, the receiver consumes it in place, and
// the slab returns to the free list when the PooledBuffer handle dies.
// Steady-state sends therefore perform zero heap allocations (counted
// exactly by the perf-lab rows transport.alloc_per_msg, one per wire
// dtype). See DESIGN.md §10.
//
// Mixed precision: a slab carries `size()` *elements* of the buffer's wire
// DType (comm/types.h). Size classes are element-width-aware — a request
// for n fp16 elements occupies half the slab bytes of n fp32 elements, so
// 2-byte dtypes recycle through smaller classes and the wire really
// carries wire_bytes() = size * DTypeSize(dtype). Element access goes
// through the dtype-checked accessors below (data()/span()/u16(); enforced
// by tools/lint.py's payload-dtype-access rule): fp32 payloads are float
// spans, 2-byte payloads are uint16_t encodings that only the fused
// convert+reduce kernels (comm/kernels.h) interpret.
//
// Lifetime: the pool's core is shared_ptr-owned by the pool *and* by every
// outstanding PooledBuffer, so a buffer released after the pool (or its
// TransportHub) has been destroyed frees its slab safely instead of
// touching a dead free list. Draining flips the core into pass-through
// mode: cached slabs are freed and later releases free directly.
//
// Thread safety: Acquire/Release/Drain/stats may be called concurrently
// from any thread (one short mutex; no allocation on the hit path).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>

#include "comm/types.h"
#include "common/logging.h"

namespace dear::comm {

/// Point-in-time pool accounting (all values under one lock, so the
/// snapshot is internally consistent).
struct PoolStats {
  std::int64_t hits{0};        // Acquire served from the free list
  std::int64_t misses{0};      // Acquire had to heap-allocate
  std::int64_t oversize{0};    // acquires above the largest size class
  std::int64_t in_flight_buffers{0};
  std::int64_t in_flight_bytes{0};  // capacity bytes held by live buffers
  std::int64_t cached_buffers{0};
  std::int64_t cached_bytes{0};
};

namespace internal {
struct PoolCore;
}  // namespace internal

/// Move-only handle over one pooled slab: `size()` elements of `dtype()`
/// writable storage (the slab's byte capacity may be larger — size classes
/// round up). Destruction (or Release()) returns the slab to its pool.
class PooledBuffer {
 public:
  PooledBuffer() = default;
  ~PooledBuffer() { Release(); }

  PooledBuffer(PooledBuffer&& other) noexcept
      : core_(std::move(other.core_)),
        data_(other.data_),
        size_(other.size_),
        capacity_(other.capacity_),
        dtype_(other.dtype_) {
    other.data_ = nullptr;
    other.size_ = 0;
    other.capacity_ = 0;
    other.dtype_ = DType::kF32;
  }
  PooledBuffer& operator=(PooledBuffer&& other) noexcept {
    if (this != &other) {
      Release();
      core_ = std::move(other.core_);
      data_ = other.data_;
      size_ = other.size_;
      capacity_ = other.capacity_;
      dtype_ = other.dtype_;
      other.data_ = nullptr;
      other.size_ = 0;
      other.capacity_ = 0;
      other.dtype_ = DType::kF32;
    }
    return *this;
  }
  PooledBuffer(const PooledBuffer&) = delete;
  PooledBuffer& operator=(const PooledBuffer&) = delete;

  /// Wire element type of the payload. Empty buffers report kF32.
  [[nodiscard]] DType dtype() const noexcept { return dtype_; }
  /// Element count (NOT bytes; elements are dtype()-sized on the wire).
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  /// Bytes this payload occupies on the wire: size() * DTypeSize(dtype()).
  [[nodiscard]] std::size_t wire_bytes() const noexcept {
    return size_ * DTypeSize(dtype_);
  }
  /// Slab capacity in float-sized slots (the pool's size-class unit).
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  // --- dtype-checked element accessors -----------------------------------
  // fp32 payloads are float spans; 2-byte payloads expose their raw
  // binary16/bfloat16 encodings as uint16_t. Interpreting those encodings
  // belongs to the fused kernels (comm/kernels.h) — everything else must
  // stay dtype-generic (kernels::UnpackInto / ReduceInto) so a new wire
  // format cannot be silently misread as floats.
  [[nodiscard]] float* data() noexcept {
    DEAR_CHECK_MSG(dtype_ == DType::kF32,
                   "float access to a non-fp32 wire payload");
    return data_;
  }
  [[nodiscard]] const float* data() const noexcept {
    DEAR_CHECK_MSG(dtype_ == DType::kF32,
                   "float access to a non-fp32 wire payload");
    return data_;
  }
  [[nodiscard]] std::span<float> span() noexcept { return {data(), size_}; }
  [[nodiscard]] std::span<const float> span() const noexcept {
    return {data(), size_};
  }
  [[nodiscard]] const float* begin() const noexcept { return data(); }
  [[nodiscard]] const float* end() const noexcept { return data() + size_; }

  [[nodiscard]] std::uint16_t* u16() noexcept {
    DEAR_CHECK_MSG(dtype_ != DType::kF32,
                   "u16 access to an fp32 wire payload");
    return reinterpret_cast<std::uint16_t*>(data_);
  }
  [[nodiscard]] const std::uint16_t* u16() const noexcept {
    DEAR_CHECK_MSG(dtype_ != DType::kF32,
                   "u16 access to an fp32 wire payload");
    return reinterpret_cast<const std::uint16_t*>(data_);
  }

  /// Untyped slab pointer for the pack path (kernels::Pack writes the wire
  /// encoding here). Alignment is that of float (slabs are float arrays).
  [[nodiscard]] void* wire_data() noexcept { return data_; }
  [[nodiscard]] const void* wire_data() const noexcept { return data_; }

  /// Returns the slab to its pool — or frees it directly if the pool is
  /// draining, non-pooling, or already destroyed. Idempotent.
  void Release() noexcept;

 private:
  friend class BufferPool;
  PooledBuffer(std::shared_ptr<internal::PoolCore> core, float* data,
               std::size_t size, std::size_t capacity, DType dtype) noexcept
      : core_(std::move(core)),
        data_(data),
        size_(size),
        capacity_(capacity),
        dtype_(dtype) {}

  std::shared_ptr<internal::PoolCore> core_;
  float* data_{nullptr};
  std::size_t size_{0};
  std::size_t capacity_{0};
  DType dtype_{DType::kF32};
};

class BufferPool {
 public:
  /// `pooling` = false degrades every Acquire into a plain heap allocation
  /// (and every Release into a free) while keeping the same accounting —
  /// the pre-pool reference path that digest tests and benches compare
  /// against.
  explicit BufferPool(bool pooling = true);
  ~BufferPool();  // drains; outstanding buffers stay valid (shared core)

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// A writable slab of exactly `n` elements of `dtype` (byte capacity
  /// rounds up to the size class, so n fp16 elements draw from a class
  /// half the size of n fp32 elements). n == 0 returns an empty,
  /// pool-less buffer.
  [[nodiscard]] PooledBuffer Acquire(std::size_t n,
                                     DType dtype = DType::kF32);

  /// Frees every cached slab and stops caching: releases from here on free
  /// their slab directly. In-flight buffers remain valid. Idempotent.
  void Drain();

  [[nodiscard]] bool pooling() const noexcept { return pooling_; }
  [[nodiscard]] PoolStats stats() const;

 private:
  bool pooling_;
  std::shared_ptr<internal::PoolCore> core_;
};

}  // namespace dear::comm
