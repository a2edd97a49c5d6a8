#include "comm/kernels.h"

#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include "comm/buffer_pool.h"
#include "common/half.h"
#include "common/rng.h"

namespace dear::comm {
namespace {

std::vector<float> RandomVec(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.Uniform(-3.0, 3.0));
  return v;
}

bool BitwiseEqual(const std::vector<float>& a, const std::vector<float>& b) {
  if (a.size() != b.size()) return false;
  if (a.empty()) return true;  // data() may be null; memcmp forbids that
  return std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// Scoped fallback to the scalar conversion kernels, so vector-vs-scalar
// bitwise tests restore the default dispatch even on assertion failure.
struct ScalarGuard {
  ScalarGuard() { kernels::internal::ForceScalarForTest(true); }
  ~ScalarGuard() { kernels::internal::ForceScalarForTest(false); }
};

// The unrolled kernels must be bitwise identical to the scalar ApplyOp
// reference for every op and for every tail length (n % 8 in 0..7).
TEST(KernelsTest, ReduceIntoMatchesScalarReferenceBitwise) {
  for (const ReduceOp op :
       {ReduceOp::kSum, ReduceOp::kAvg, ReduceOp::kMax, ReduceOp::kMin}) {
    for (const std::size_t n : {0u, 1u, 3u, 4u, 7u, 8u, 9u, 64u, 1001u}) {
      std::vector<float> acc = RandomVec(11, n);
      std::vector<float> ref = acc;
      const std::vector<float> in = RandomVec(22, n);
      kernels::ReduceInto(op, acc, in);
      kernels::internal::ReduceIntoScalar(op, ref, in);
      EXPECT_TRUE(BitwiseEqual(acc, ref))
          << "op=" << static_cast<int>(op) << " n=" << n;
    }
  }
}

// Folding the scale into the reduce must equal sum-then-scale exactly:
// per element, both paths compute fl(fl(a+b) * s).
TEST(KernelsTest, ReduceIntoScaledEqualsSumThenScaleBitwise) {
  for (const std::size_t n : {1u, 5u, 64u, 333u}) {
    const float inv = 1.0f / 7.0f;
    std::vector<float> fused = RandomVec(33, n);
    std::vector<float> staged = fused;
    const std::vector<float> in = RandomVec(44, n);
    kernels::ReduceIntoScaled(fused, in, inv);
    kernels::ReduceInto(ReduceOp::kSum, staged, in);
    kernels::Scale(staged, inv);
    EXPECT_TRUE(BitwiseEqual(fused, staged)) << "n=" << n;
  }
}

TEST(KernelsTest, ScaleMultipliesEveryElement) {
  std::vector<float> v{1.0f, -2.0f, 4.0f, 8.0f, 16.0f};
  kernels::Scale(v, 0.5f);
  EXPECT_EQ(v, (std::vector<float>{0.5f, -1.0f, 2.0f, 4.0f, 8.0f}));
}

TEST(KernelsTest, MaxMinHandleEqualValuesLikeReference) {
  // Ties must keep the accumulator (strict > / < select), matching the
  // scalar reference's `if (v > acc)` behavior — including signed zeros.
  std::vector<float> acc{0.0f, 1.0f, -1.0f};
  std::vector<float> in{-0.0f, 1.0f, -1.0f};
  std::vector<float> ref = acc;
  kernels::ReduceInto(ReduceOp::kMax, acc, in);
  kernels::internal::ReduceIntoScalar(ReduceOp::kMax, ref, in);
  EXPECT_TRUE(BitwiseEqual(acc, ref));
}

TEST(KernelsTest, EmptySpansAreNoOps) {
  std::vector<float> empty;
  kernels::ReduceInto(ReduceOp::kSum, empty, std::span<const float>());
  kernels::ReduceIntoScaled(empty, std::span<const float>(), 0.5f);
  kernels::Scale(empty, 0.5f);
}

// ---- Mixed-precision wire kernels ----------------------------------------

// Pack to a narrow wire dtype followed by UnpackInto must equal the scalar
// quantize reference exactly: fp16/bf16 conversion loses precision in one
// well-defined rounding (RNE), never two.
TEST(KernelsTest, PackUnpackRoundTripEqualsScalarQuantize) {
  BufferPool pool;
  for (const DType dtype : {DType::kF16, DType::kBF16}) {
    for (const std::size_t n : {0u, 1u, 7u, 8u, 9u, 15u, 16u, 17u, 501u}) {
      const std::vector<float> src = RandomVec(55, n);
      PooledBuffer buf = pool.Acquire(n, dtype);
      kernels::Pack(dtype, buf.wire_data(), src);
      std::vector<float> out(n);
      kernels::UnpackInto(out, buf);
      std::vector<float> ref = src;
      for (float& x : ref) {
        x = dtype == DType::kF16 ? QuantizeFp16(x) : QuantizeBf16(x);
      }
      EXPECT_TRUE(BitwiseEqual(out, ref))
          << DTypeName(dtype) << " n=" << n;
    }
  }
}

// fp32 pack is a straight memcpy: bitwise round trip, no rounding at all.
TEST(KernelsTest, Fp32PackIsBitwiseIdentity) {
  BufferPool pool;
  const std::vector<float> src = RandomVec(66, 777);
  PooledBuffer buf = pool.Acquire(src.size(), DType::kF32);
  kernels::Pack(DType::kF32, buf.wire_data(), src);
  std::vector<float> out(src.size());
  kernels::UnpackInto(out, buf);
  EXPECT_TRUE(BitwiseEqual(out, src));
}

// The F16C vector paths must be bitwise identical to the portable scalar
// conversions for all finite inputs — pack, unpack, and every fused
// convert+reduce op, across tail lengths around the 8-wide stride.
TEST(KernelsTest, VectorConversionPathsMatchScalarBitwise) {
  BufferPool pool;
  for (const DType dtype : {DType::kF16, DType::kBF16}) {
    for (const std::size_t n :
         {0u, 1u, 7u, 8u, 9u, 15u, 16u, 17u, 31u, 33u, 64u, 1001u}) {
      const std::vector<float> src = RandomVec(77, n);
      PooledBuffer vec_buf = pool.Acquire(n, dtype);
      PooledBuffer sc_buf = pool.Acquire(n, dtype);
      kernels::Pack(dtype, vec_buf.wire_data(), src);
      {
        ScalarGuard scalar;
        kernels::Pack(dtype, sc_buf.wire_data(), src);
      }
      if (n > 0) {
        EXPECT_EQ(std::memcmp(vec_buf.wire_data(), sc_buf.wire_data(),
                              vec_buf.wire_bytes()),
                  0)
            << "pack " << DTypeName(dtype) << " n=" << n;
      }

      std::vector<float> vec_out(n), sc_out(n);
      kernels::UnpackInto(vec_out, vec_buf);
      {
        ScalarGuard scalar;
        kernels::UnpackInto(sc_out, vec_buf);
      }
      EXPECT_TRUE(BitwiseEqual(vec_out, sc_out))
          << "unpack " << DTypeName(dtype) << " n=" << n;

      for (const ReduceOp op :
           {ReduceOp::kSum, ReduceOp::kMax, ReduceOp::kMin}) {
        std::vector<float> vec_acc = RandomVec(88, n);
        std::vector<float> sc_acc = vec_acc;
        kernels::ReduceInto(op, vec_acc, vec_buf);
        {
          ScalarGuard scalar;
          kernels::ReduceInto(op, sc_acc, vec_buf);
        }
        EXPECT_TRUE(BitwiseEqual(vec_acc, sc_acc))
            << "reduce op=" << static_cast<int>(op) << " "
            << DTypeName(dtype) << " n=" << n;
      }

      std::vector<float> vec_acc = RandomVec(99, n);
      std::vector<float> sc_acc = vec_acc;
      kernels::ReduceIntoScaled(vec_acc, vec_buf, 1.0f / 3.0f);
      {
        ScalarGuard scalar;
        kernels::ReduceIntoScaled(sc_acc, vec_buf, 1.0f / 3.0f);
      }
      EXPECT_TRUE(BitwiseEqual(vec_acc, sc_acc))
          << "reduce-scaled " << DTypeName(dtype) << " n=" << n;
    }
  }
}

// Fused convert+reduce must equal unpack-to-fp32 followed by the fp32
// reduce, bitwise: both compute fl(op(acc, upconvert(wire))) per element.
TEST(KernelsTest, FusedConvertReduceEqualsUnpackThenReduce) {
  BufferPool pool;
  for (const DType dtype : {DType::kF16, DType::kBF16}) {
    const std::size_t n = 333;
    const std::vector<float> src = RandomVec(111, n);
    PooledBuffer buf = pool.Acquire(n, dtype);
    kernels::Pack(dtype, buf.wire_data(), src);
    std::vector<float> widened(n);
    kernels::UnpackInto(widened, buf);
    for (const ReduceOp op :
         {ReduceOp::kSum, ReduceOp::kMax, ReduceOp::kMin}) {
      std::vector<float> fused = RandomVec(222, n);
      std::vector<float> staged = fused;
      kernels::ReduceInto(op, fused, buf);
      kernels::ReduceInto(op, staged, std::span<const float>(widened));
      EXPECT_TRUE(BitwiseEqual(fused, staged))
          << "op=" << static_cast<int>(op) << " " << DTypeName(dtype);
    }
    std::vector<float> fused = RandomVec(333, n);
    std::vector<float> staged = fused;
    kernels::ReduceIntoScaled(fused, buf, 0.25f);
    kernels::ReduceIntoScaled(staged, std::span<const float>(widened), 0.25f);
    EXPECT_TRUE(BitwiseEqual(fused, staged)) << DTypeName(dtype);
  }
}

// kAvg folds through the scaled path at the collective layer; the
// PooledBuffer ReduceInto only accepts the non-averaging ops.
TEST(KernelsTest, PooledFp32ReduceMatchesSpanReduce) {
  BufferPool pool;
  const std::size_t n = 257;
  const std::vector<float> src = RandomVec(444, n);
  PooledBuffer buf = pool.Acquire(n, DType::kF32);
  kernels::Pack(DType::kF32, buf.wire_data(), src);
  for (const ReduceOp op :
       {ReduceOp::kSum, ReduceOp::kMax, ReduceOp::kMin}) {
    std::vector<float> pooled = RandomVec(555, n);
    std::vector<float> spanned = pooled;
    kernels::ReduceInto(op, pooled, buf);
    kernels::ReduceInto(op, spanned, std::span<const float>(src));
    EXPECT_TRUE(BitwiseEqual(pooled, spanned))
        << "op=" << static_cast<int>(op);
  }
}

// The separate-accumulator folds (a reduce-scatter's first fold of a
// chunk, read from the caller's gradients) must equal copying `a` into
// `out` and folding in place — for every dtype, op, payload offset and
// tail length, on the vector and the scalar paths.
TEST(KernelsTest, FoldFromSeparateAccumulatorEqualsCopyThenFold) {
  BufferPool pool;
  for (const DType dtype : {DType::kF32, DType::kF16, DType::kBF16}) {
    const std::size_t total = 61;
    const std::vector<float> src = RandomVec(666, total);
    PooledBuffer buf = pool.Acquire(total, dtype);
    kernels::Pack(dtype, buf.wire_data(), src);
    for (const bool scalar : {false, true}) {
      kernels::internal::ForceScalarForTest(scalar);
      for (const std::size_t offset : {std::size_t{0}, std::size_t{5}}) {
        for (std::size_t n = 0; n + offset <= total; n += 9) {
          const std::vector<float> a = RandomVec(777 + n, n);
          for (const ReduceOp op :
               {ReduceOp::kSum, ReduceOp::kMax, ReduceOp::kMin}) {
            std::vector<float> out(n, -1.0f);
            kernels::ReduceInto(op, out, a, buf, offset);
            std::vector<float> want = a;
            const std::vector<float> in(src.begin() + offset,
                                        src.begin() + offset + n);
            PooledBuffer part = pool.Acquire(n, dtype);
            kernels::Pack(dtype, part.wire_data(), in);
            kernels::ReduceInto(op, want, part);
            EXPECT_TRUE(BitwiseEqual(out, want))
                << DTypeName(dtype) << " op=" << static_cast<int>(op)
                << " n=" << n << " offset=" << offset << " scalar=" << scalar;
          }
          std::vector<float> out(n, -1.0f);
          kernels::ReduceIntoScaled(out, a, buf, offset, 0.5f);
          std::vector<float> want = a;
          const std::vector<float> in(src.begin() + offset,
                                      src.begin() + offset + n);
          PooledBuffer part = pool.Acquire(n, dtype);
          kernels::Pack(dtype, part.wire_data(), in);
          kernels::ReduceIntoScaled(want, part, 0.5f);
          EXPECT_TRUE(BitwiseEqual(out, want))
              << DTypeName(dtype) << " scaled n=" << n
              << " offset=" << offset << " scalar=" << scalar;
        }
      }
    }
    kernels::internal::ForceScalarForTest(false);
  }
}

TEST(KernelsTest, GatherConcatenatesPieces) {
  const std::vector<float> a{1, 2, 3}, b{}, c{4, 5};
  const std::vector<std::span<const float>> pieces{a, b, c};
  std::vector<float> out(5, 0.0f);
  kernels::Gather(pieces, out);
  EXPECT_EQ(out, (std::vector<float>{1, 2, 3, 4, 5}));
  // ForEachPiece clips to a range and reports range-relative offsets.
  std::vector<std::pair<std::size_t, std::size_t>> seen;
  ForEachPiece(pieces, Range{2, 4},
               [&](std::size_t off, std::span<const float> piece) {
                 seen.emplace_back(off, piece.size());
                 EXPECT_EQ(piece[0], out[2 + off]);
               });
  EXPECT_EQ(seen, (std::vector<std::pair<std::size_t, std::size_t>>{
                      {0, 1}, {1, 1}}));
}

}  // namespace
}  // namespace dear::comm
