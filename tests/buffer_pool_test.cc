#include "comm/buffer_pool.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <thread>
#include <vector>

namespace dear::comm {
namespace {

TEST(BufferPoolTest, AcquireGivesWritableSlabOfRequestedSize) {
  BufferPool pool;
  PooledBuffer buf = pool.Acquire(100);
  ASSERT_EQ(buf.size(), 100u);
  EXPECT_GE(buf.capacity(), 100u);
  for (std::size_t i = 0; i < buf.size(); ++i)
    buf.data()[i] = static_cast<float>(i);
  EXPECT_EQ(buf.data()[99], 99.0f);
}

TEST(BufferPoolTest, ReleaseThenAcquireReusesSlab) {
  BufferPool pool;
  PooledBuffer a = pool.Acquire(100);
  const float* slab = a.data();
  a.Release();
  PooledBuffer b = pool.Acquire(100);
  EXPECT_EQ(b.data(), slab);
  const PoolStats stats = pool.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
}

// Size classes are powers of two: requests in the same class share slabs;
// a larger request promotes to the next class (a fresh allocation).
TEST(BufferPoolTest, SizeClassPromotion) {
  BufferPool pool;
  pool.Acquire(100).Release();       // class 128
  PooledBuffer same = pool.Acquire(128);
  EXPECT_EQ(pool.stats().hits, 1u);  // same class, recycled
  same.Release();
  PooledBuffer bigger = pool.Acquire(129);  // class 256: must not reuse
  EXPECT_GE(bigger.capacity(), 129u);
  EXPECT_EQ(pool.stats().misses, 2u);
}

TEST(BufferPoolTest, ZeroElementAcquireIsPoolLess) {
  BufferPool pool;
  PooledBuffer buf = pool.Acquire(0);
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(buf.size(), 0u);
  buf.Release();
  const PoolStats stats = pool.stats();
  EXPECT_EQ(stats.hits + stats.misses + stats.oversize, 0u);
}

TEST(BufferPoolTest, OversizeRequestsAreExactAndNeverCached) {
  BufferPool pool;
  const std::size_t huge = (4u << 20) + 1;  // past the largest class
  {
    PooledBuffer buf = pool.Acquire(huge);
    EXPECT_EQ(buf.size(), huge);
    EXPECT_EQ(buf.capacity(), huge);
  }
  EXPECT_EQ(pool.stats().oversize, 1u);
  EXPECT_EQ(pool.stats().cached_buffers, 0u);
}

// acquired_bytes adds up the slab capacity of every acquire (hit, miss or
// oversize) and never shrinks; every buffer acquired and no longer in
// flight was released.
TEST(BufferPoolTest, AcquiredBytesAndDerivedReleases) {
  BufferPool pool;
  pool.Acquire(100).Release();           // miss: class 128, 512 B
  PooledBuffer hit = pool.Acquire(128);  // hit: the same slab
  const std::size_t huge = (4u << 20) + 1;
  PooledBuffer big = pool.Acquire(huge);  // oversize miss, exact size
  const auto expected_bytes =
      static_cast<std::int64_t>((128 + 128 + huge) * sizeof(float));
  PoolStats stats = pool.stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 2);
  EXPECT_EQ(stats.oversize, 1);
  EXPECT_EQ(stats.acquired_bytes, expected_bytes);
  EXPECT_EQ(stats.hits + stats.misses - stats.in_flight_buffers, 1);
  hit.Release();
  big.Release();
  stats = pool.stats();
  EXPECT_EQ(stats.acquired_bytes, expected_bytes);
  EXPECT_EQ(stats.hits + stats.misses - stats.in_flight_buffers, 3);
}

TEST(BufferPoolTest, StatsTrackInFlightAndCached) {
  BufferPool pool;
  PooledBuffer a = pool.Acquire(64);
  PooledBuffer b = pool.Acquire(64);
  PoolStats stats = pool.stats();
  EXPECT_EQ(stats.in_flight_buffers, 2u);
  EXPECT_EQ(stats.in_flight_bytes, 2 * 64 * sizeof(float));
  a.Release();
  b.Release();
  stats = pool.stats();
  EXPECT_EQ(stats.in_flight_buffers, 0u);
  EXPECT_EQ(stats.cached_buffers, 2u);
  EXPECT_EQ(stats.cached_bytes, 2 * 64 * sizeof(float));
}

TEST(BufferPoolTest, ReleaseIsIdempotentAndDtorReleases) {
  BufferPool pool;
  {
    PooledBuffer buf = pool.Acquire(64);
    buf.Release();
    buf.Release();  // second release is a no-op
  }                 // dtor after explicit release: still a no-op
  const PoolStats stats = pool.stats();
  EXPECT_EQ(stats.in_flight_buffers, 0u);
  EXPECT_EQ(stats.cached_buffers, 1u);
}

TEST(BufferPoolTest, MoveTransfersOwnership) {
  BufferPool pool;
  PooledBuffer a = pool.Acquire(32);
  const float* slab = a.data();
  PooledBuffer b = std::move(a);
  EXPECT_EQ(b.data(), slab);
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move): moved-from is empty
  b.Release();
  EXPECT_EQ(pool.stats().in_flight_buffers, 0u);
  EXPECT_EQ(pool.stats().cached_buffers, 1u);
}

TEST(BufferPoolTest, PoolingDisabledNeverCaches) {
  BufferPool pool(/*pooling=*/false);
  pool.Acquire(64).Release();
  pool.Acquire(64).Release();
  const PoolStats stats = pool.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.cached_buffers, 0u);
}

TEST(BufferPoolTest, DrainEmptiesFreelistsAndStopsRecaching) {
  BufferPool pool;
  pool.Acquire(64).Release();
  EXPECT_EQ(pool.stats().cached_buffers, 1u);
  PooledBuffer held = pool.Acquire(64);  // take the cached slab back out
  pool.Drain();
  EXPECT_EQ(pool.stats().cached_buffers, 0u);
  held.Release();  // released after drain: freed, not recached
  EXPECT_EQ(pool.stats().cached_buffers, 0u);
  EXPECT_EQ(pool.stats().in_flight_buffers, 0u);
}

// A buffer may legally outlive the pool (e.g. a stranded Message picked
// out of a shut-down hub); its release must not touch freed memory.
TEST(BufferPoolTest, BufferOutlivingPoolReleasesSafely) {
  PooledBuffer escaped;
  {
    BufferPool pool;
    escaped = pool.Acquire(64);
    escaped.data()[0] = 1.0f;
  }
  escaped.Release();  // pool is gone; slab is freed, nothing recached
}

TEST(BufferPoolTest, ConcurrentAcquireReleaseKeepsAccounting) {
  BufferPool pool;
  constexpr int kThreads = 4;
  constexpr int kIters = 500;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, t] {
      for (int i = 0; i < kIters; ++i) {
        PooledBuffer buf = pool.Acquire(64u << (t % 3));
        buf.data()[0] = static_cast<float>(i);
      }  // released by dtor
    });
  }
  for (auto& t : threads) t.join();
  const PoolStats stats = pool.stats();
  EXPECT_EQ(stats.in_flight_buffers, 0u);
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<std::uint64_t>(kThreads) * kIters);
  // Steady state: at most one miss per (thread, class) pairing.
  EXPECT_LE(stats.misses, static_cast<std::uint64_t>(kThreads) * 3);
}

// --- mixed-precision slabs ----------------------------------------------

// Size classes are element-width-aware: n 2-byte elements occupy half the
// slab bytes of n floats, so a 2-byte request recycles through a smaller
// class instead of wasting the fp32-sized slab.
TEST(BufferPoolTest, TwoByteDtypesUseHalfWidthSizeClasses) {
  BufferPool pool;
  PooledBuffer f32 = pool.Acquire(256, DType::kF32);
  PooledBuffer f16 = pool.Acquire(256, DType::kF16);
  EXPECT_EQ(f32.wire_bytes(), 256 * 4u);
  EXPECT_EQ(f16.wire_bytes(), 256 * 2u);
  EXPECT_EQ(f16.dtype(), DType::kF16);
  EXPECT_EQ(f16.size(), 256u);
  // 512 f16 elements = 1 KiB = the byte class of 256 floats: releasing the
  // fp32 slab must satisfy the 2-byte request from the free list.
  f32.Release();
  PooledBuffer wide = pool.Acquire(512, DType::kBF16);
  EXPECT_EQ(pool.stats().hits, 1u);
  wide.Release();
  f16.Release();
}

TEST(BufferPoolTest, DtypeAccessorsAreChecked) {
  BufferPool pool;
  PooledBuffer f32 = pool.Acquire(16, DType::kF32);
  PooledBuffer bf16 = pool.Acquire(16, DType::kBF16);
  // Right-typed access works...
  f32.data()[0] = 1.0f;
  bf16.u16()[0] = 0x3f80;
  EXPECT_EQ(bf16.u16()[0], 0x3f80);
  // ...wrong-typed access dies (DEAR_CHECK), so a 2-byte payload can never
  // be silently read as floats.
  EXPECT_DEATH((void)bf16.data(), "float access to a non-fp32 wire payload");
  EXPECT_DEATH((void)f32.u16(), "u16 access to an fp32 wire payload");
}

TEST(BufferPoolTest, TwoByteSlabsRecycleWithinTheirOwnClass) {
  BufferPool pool;
  const std::uint16_t* slab = nullptr;
  {
    PooledBuffer a = pool.Acquire(100, DType::kF16);
    slab = a.u16();
  }
  PooledBuffer b = pool.Acquire(100, DType::kF16);
  EXPECT_EQ(b.u16(), slab);
  EXPECT_EQ(pool.stats().hits, 1u);
  EXPECT_EQ(pool.stats().misses, 1u);
}

TEST(BufferPoolTest, MovePreservesDtype) {
  BufferPool pool;
  PooledBuffer a = pool.Acquire(32, DType::kF16);
  PooledBuffer b = std::move(a);
  EXPECT_EQ(b.dtype(), DType::kF16);
  EXPECT_EQ(b.wire_bytes(), 64u);
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move): moved-from is empty
  EXPECT_EQ(a.dtype(), DType::kF32);  // NOLINT(bugprone-use-after-move)
}

TEST(BufferPoolTest, SpanViewsMatchBuffer) {
  BufferPool pool;
  PooledBuffer buf = pool.Acquire(8);
  for (std::size_t i = 0; i < 8; ++i) buf.data()[i] = static_cast<float>(i);
  auto span = buf.span();
  ASSERT_EQ(span.size(), 8u);
  EXPECT_EQ(span[7], 7.0f);
  std::vector<float> copied(buf.begin(), buf.end());
  EXPECT_EQ(copied.back(), 7.0f);
}

}  // namespace
}  // namespace dear::comm
