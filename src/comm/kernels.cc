#include "comm/kernels.h"

#include <atomic>
#include <cstring>

#include "common/half.h"
#include "common/logging.h"

#if defined(__x86_64__) || defined(__i386__)
#define DEAR_KERNELS_X86 1
#include <immintrin.h>
#endif

namespace dear::comm::kernels {
namespace {

// One branch-free elementwise body, manually unrolled 8-wide. `op` is a
// stateless functor, so each specialization compiles to a tight loop GCC
// can vectorize; element i only ever combines acc[i] with in[i], so the
// result is bit-identical to the scalar reference for any unroll width.
template <typename Op>
inline void Apply8(float* acc, const float* in, std::size_t n, Op op) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc[i] = op(acc[i], in[i]);
    acc[i + 1] = op(acc[i + 1], in[i + 1]);
    acc[i + 2] = op(acc[i + 2], in[i + 2]);
    acc[i + 3] = op(acc[i + 3], in[i + 3]);
    acc[i + 4] = op(acc[i + 4], in[i + 4]);
    acc[i + 5] = op(acc[i + 5], in[i + 5]);
    acc[i + 6] = op(acc[i + 6], in[i + 6]);
    acc[i + 7] = op(acc[i + 7], in[i + 7]);
  }
  for (; i < n; ++i) acc[i] = op(acc[i], in[i]);
}

// The same body with the accumulator read from `a`: out[i] = op(a[i],
// in[i]). In-place folds (out == a) take Apply8 instead, because GCC's
// runtime overlap check sends this three-pointer loop to its scalar
// fallback whenever the two pointers coincide.
template <typename Op>
inline void Apply8From(float* out, const float* a, const float* in,
                       std::size_t n, Op op) {
  if (out == a) {
    Apply8(out, in, n, op);
    return;
  }
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    out[i] = op(a[i], in[i]);
    out[i + 1] = op(a[i + 1], in[i + 1]);
    out[i + 2] = op(a[i + 2], in[i + 2]);
    out[i + 3] = op(a[i + 3], in[i + 3]);
    out[i + 4] = op(a[i + 4], in[i + 4]);
    out[i + 5] = op(a[i + 5], in[i + 5]);
    out[i + 6] = op(a[i + 6], in[i + 6]);
    out[i + 7] = op(a[i + 7], in[i + 7]);
  }
  for (; i < n; ++i) out[i] = op(a[i], in[i]);
}

// Same bodies with a per-element upconvert on the `in` side — the scalar
// form of the fused convert+reduce kernels. `cvt` maps a 2-byte wire
// encoding to fp32; the op then runs at fp32 exactly like the span path.
// In-place and separate-accumulator loops are kept apart for the reason
// Apply8From gives.
template <typename Cvt, typename Op>
inline void ApplyU16(float* acc, const std::uint16_t* in, std::size_t n,
                     Cvt cvt, Op op) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc[i] = op(acc[i], cvt(in[i]));
    acc[i + 1] = op(acc[i + 1], cvt(in[i + 1]));
    acc[i + 2] = op(acc[i + 2], cvt(in[i + 2]));
    acc[i + 3] = op(acc[i + 3], cvt(in[i + 3]));
    acc[i + 4] = op(acc[i + 4], cvt(in[i + 4]));
    acc[i + 5] = op(acc[i + 5], cvt(in[i + 5]));
    acc[i + 6] = op(acc[i + 6], cvt(in[i + 6]));
    acc[i + 7] = op(acc[i + 7], cvt(in[i + 7]));
  }
  for (; i < n; ++i) acc[i] = op(acc[i], cvt(in[i]));
}

template <typename Cvt, typename Op>
inline void ApplyU16From(float* out, const float* a, const std::uint16_t* in,
                         std::size_t n, Cvt cvt, Op op) {
  if (out == a) {
    ApplyU16(out, in, n, cvt, op);
    return;
  }
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    out[i] = op(a[i], cvt(in[i]));
    out[i + 1] = op(a[i + 1], cvt(in[i + 1]));
    out[i + 2] = op(a[i + 2], cvt(in[i + 2]));
    out[i + 3] = op(a[i + 3], cvt(in[i + 3]));
    out[i + 4] = op(a[i + 4], cvt(in[i + 4]));
    out[i + 5] = op(a[i + 5], cvt(in[i + 5]));
    out[i + 6] = op(a[i + 6], cvt(in[i + 6]));
    out[i + 7] = op(a[i + 7], cvt(in[i + 7]));
  }
  for (; i < n; ++i) out[i] = op(a[i], cvt(in[i]));
}

struct SumOp {
  float operator()(float a, float b) const noexcept { return a + b; }
};
// Same select ApplyOp uses (`if (v > acc) acc = v`): b wins only when
// strictly greater, so NaN/equal behavior matches the scalar path exactly.
struct MaxOp {
  float operator()(float a, float b) const noexcept { return b > a ? b : a; }
};
struct MinOp {
  float operator()(float a, float b) const noexcept { return b < a ? b : a; }
};

struct HalfCvt {
  float operator()(std::uint16_t h) const noexcept { return HalfToFloat(h); }
};
struct Bf16Cvt {
  float operator()(std::uint16_t h) const noexcept { return Bf16ToFloat(h); }
};

std::atomic<bool> g_force_scalar{false};

#if defined(DEAR_KERNELS_X86)
bool HaveF16CHardware() noexcept {
  static const bool has =
      __builtin_cpu_supports("f16c") && __builtin_cpu_supports("avx2");
  return has;
}
bool HaveAvx2Hardware() noexcept {
  static const bool has = __builtin_cpu_supports("avx2");
  return has;
}
#endif

bool UseF16C() noexcept {
#if defined(DEAR_KERNELS_X86)
  return HaveF16CHardware() &&
         !g_force_scalar.load(std::memory_order_relaxed);
#else
  return false;
#endif
}

// bf16 needs no conversion instruction, only AVX2 integer shifts — gated
// separately so it still vectorizes on pre-F16C hardware.
bool UseAvx2Bf16() noexcept {
#if defined(DEAR_KERNELS_X86)
  return HaveAvx2Hardware() &&
         !g_force_scalar.load(std::memory_order_relaxed);
#else
  return false;
#endif
}

#if defined(DEAR_KERNELS_X86)

// Hardware fp16 bodies: VCVTPS2PH/VCVTPH2PS convert 8 elements per
// instruction with round-to-nearest-even — the same rounding as the
// scalar common/half.h converters, so vector and scalar paths agree
// bitwise on every non-NaN value. Compiled with a function-level target
// so the translation unit itself needs no -mavx2 baseline; UseF16C()
// gates every call at runtime. No "fma" in the target list: contraction
// would reassociate (a+b)*s away from the scalar reference.

__attribute__((target("avx2,f16c"))) void F16PackV(std::uint16_t* dst,
                                                   const float* src,
                                                   std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(src + i);
    const __m128i h =
        _mm256_cvtps_ph(v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), h);
  }
  for (; i < n; ++i) dst[i] = FloatToHalf(src[i]);
}

__attribute__((target("avx2,f16c"))) void F16UnpackV(float* dst,
                                                     const std::uint16_t* src,
                                                     std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i h =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    _mm256_storeu_ps(dst + i, _mm256_cvtph_ps(h));
  }
  for (; i < n; ++i) dst[i] = HalfToFloat(src[i]);
}

__attribute__((target("avx2,f16c"))) void F16SumV(float* out, const float* a,
                                                  const std::uint16_t* in,
                                                  std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 b = _mm256_cvtph_ps(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + i)));
    const __m256 va = _mm256_loadu_ps(a + i);
    _mm256_storeu_ps(out + i, _mm256_add_ps(va, b));
  }
  for (; i < n; ++i) out[i] = a[i] + HalfToFloat(in[i]);
}

__attribute__((target("avx2,f16c"))) void F16SumScaledV(
    float* out, const float* a, const std::uint16_t* in, std::size_t n, float scale) {
  const __m256 s = _mm256_set1_ps(scale);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 b = _mm256_cvtph_ps(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + i)));
    const __m256 va = _mm256_loadu_ps(a + i);
    _mm256_storeu_ps(out + i, _mm256_mul_ps(_mm256_add_ps(va, b), s));
  }
  for (; i < n; ++i) out[i] = (a[i] + HalfToFloat(in[i])) * scale;
}

// blendv(a, b, b > a) is exactly the scalar `b > a ? b : a` select,
// including NaN behavior (_CMP_GT_OQ is false on unordered, keeping a).
__attribute__((target("avx2,f16c"))) void F16MaxV(float* out, const float* a,
                                                  const std::uint16_t* in,
                                                  std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 b = _mm256_cvtph_ps(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + i)));
    const __m256 va = _mm256_loadu_ps(a + i);
    _mm256_storeu_ps(out + i,
                     _mm256_blendv_ps(va, b, _mm256_cmp_ps(b, va, _CMP_GT_OQ)));
  }
  for (; i < n; ++i) {
    const float v = HalfToFloat(in[i]);
    out[i] = v > a[i] ? v : a[i];
  }
}

__attribute__((target("avx2,f16c"))) void F16MinV(float* out, const float* a,
                                                  const std::uint16_t* in,
                                                  std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 b = _mm256_cvtph_ps(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + i)));
    const __m256 va = _mm256_loadu_ps(a + i);
    _mm256_storeu_ps(out + i,
                     _mm256_blendv_ps(va, b, _mm256_cmp_ps(b, va, _CMP_LT_OQ)));
  }
  for (; i < n; ++i) {
    const float v = HalfToFloat(in[i]);
    out[i] = v < a[i] ? v : a[i];
  }
}

// In-place fp16 rounding: each lane goes down to binary16 and straight
// back up, the exact value a wire round trip would produce.
__attribute__((target("avx2,f16c"))) void F16QuantizeV(float* data,
                                                       std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i h = _mm256_cvtps_ph(
        _mm256_loadu_ps(data + i),
        _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
    _mm256_storeu_ps(data + i, _mm256_cvtph_ps(h));
  }
  for (; i < n; ++i) data[i] = QuantizeFp16(data[i]);
}

// bf16 vector bodies: all-integer AVX2. Each 32-bit lane reproduces
// common/half.h's FloatToBf16 bit for bit — the branch-free RNE add for
// finite values and the truncate-with-forced-quiet-bit path for NaNs,
// selected per lane by blend so vector and scalar agree on every input.

/// 8 lanes of FloatToBf16, result in the low 16 bits of each 32-bit lane.
__attribute__((target("avx2"))) inline __m256i Bf16DownconvertLanes(
    __m256i x) {
  const __m256i exp_mask = _mm256_set1_epi32(0x7f800000);
  const __m256i man_mask = _mm256_set1_epi32(0x007fffff);
  const __m256i zero = _mm256_setzero_si256();
  // NaN = exponent all ones AND mantissa nonzero.
  const __m256i exp_all =
      _mm256_cmpeq_epi32(_mm256_and_si256(x, exp_mask), exp_mask);
  const __m256i man_zero =
      _mm256_cmpeq_epi32(_mm256_and_si256(x, man_mask), zero);
  const __m256i is_nan = _mm256_andnot_si256(man_zero, exp_all);
  const __m256i trunc = _mm256_srli_epi32(x, 16);
  // NaN path: truncate, forcing a mantissa bit when the low 7 are zero.
  const __m256i low7_zero = _mm256_cmpeq_epi32(
      _mm256_and_si256(trunc, _mm256_set1_epi32(0x7f)), zero);
  const __m256i nan_val = _mm256_or_si256(
      trunc, _mm256_and_si256(low7_zero, _mm256_set1_epi32(0x40)));
  // Finite path: x + 0x7fff + ((x >> 16) & 1), then truncate (same mod-2^32
  // wrap as the scalar converter).
  const __m256i fin = _mm256_srli_epi32(
      _mm256_add_epi32(
          _mm256_add_epi32(x, _mm256_set1_epi32(0x7fff)),
          _mm256_and_si256(trunc, _mm256_set1_epi32(1))),
      16);
  return _mm256_blendv_epi8(fin, nan_val, is_nan);
}

/// 8 u16 bf16 encodings -> 8 floats (shift into the top half of each lane).
__attribute__((target("avx2"))) inline __m256 Bf16UpconvertLanes(__m128i h) {
  return _mm256_castsi256_ps(
      _mm256_slli_epi32(_mm256_cvtepu16_epi32(h), 16));
}

__attribute__((target("avx2"))) void Bf16PackV(std::uint16_t* dst,
                                               const float* src,
                                               std::size_t n) {
  std::size_t i = 0;
  // 16 floats per iteration: both packus operands carry real lanes, so the
  // narrow+permute overhead is paid once per 16 elements, not per 8.
  for (; i + 16 <= n; i += 16) {
    const __m256i lo = Bf16DownconvertLanes(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i)));
    const __m256i hi = Bf16DownconvertLanes(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i + 8)));
    // In-lane pack interleaves qwords of lo/hi; one permute regathers them.
    const __m256i packed = _mm256_permute4x64_epi64(
        _mm256_packus_epi32(lo, hi), _MM_SHUFFLE(3, 1, 2, 0));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), packed);
  }
  for (; i + 8 <= n; i += 8) {
    const __m256i bf = Bf16DownconvertLanes(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i)));
    const __m256i packed = _mm256_permute4x64_epi64(
        _mm256_packus_epi32(bf, _mm256_setzero_si256()),
        _MM_SHUFFLE(3, 1, 2, 0));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                     _mm256_castsi256_si128(packed));
  }
  for (; i < n; ++i) dst[i] = FloatToBf16(src[i]);
}

__attribute__((target("avx2"))) void Bf16UnpackV(float* dst,
                                                 const std::uint16_t* src,
                                                 std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(dst + i,
                     Bf16UpconvertLanes(_mm_loadu_si128(
                         reinterpret_cast<const __m128i*>(src + i))));
  }
  for (; i < n; ++i) dst[i] = Bf16ToFloat(src[i]);
}

__attribute__((target("avx2"))) void Bf16SumV(float* out, const float* a,
                                              const std::uint16_t* in,
                                              std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 b = Bf16UpconvertLanes(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + i)));
    _mm256_storeu_ps(out + i, _mm256_add_ps(_mm256_loadu_ps(a + i), b));
  }
  for (; i < n; ++i) out[i] = a[i] + Bf16ToFloat(in[i]);
}

__attribute__((target("avx2"))) void Bf16SumScaledV(float* out, const float* a,
                                                    const std::uint16_t* in,
                                                    std::size_t n,
                                                    float scale) {
  const __m256 s = _mm256_set1_ps(scale);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 b = Bf16UpconvertLanes(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + i)));
    const __m256 va = _mm256_loadu_ps(a + i);
    _mm256_storeu_ps(out + i, _mm256_mul_ps(_mm256_add_ps(va, b), s));
  }
  for (; i < n; ++i) out[i] = (a[i] + Bf16ToFloat(in[i])) * scale;
}

__attribute__((target("avx2"))) void Bf16MaxV(float* out, const float* a,
                                              const std::uint16_t* in,
                                              std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 b = Bf16UpconvertLanes(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + i)));
    const __m256 va = _mm256_loadu_ps(a + i);
    _mm256_storeu_ps(out + i,
                     _mm256_blendv_ps(va, b, _mm256_cmp_ps(b, va, _CMP_GT_OQ)));
  }
  for (; i < n; ++i) {
    const float v = Bf16ToFloat(in[i]);
    out[i] = v > a[i] ? v : a[i];
  }
}

__attribute__((target("avx2"))) void Bf16MinV(float* out, const float* a,
                                              const std::uint16_t* in,
                                              std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 b = Bf16UpconvertLanes(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + i)));
    const __m256 va = _mm256_loadu_ps(a + i);
    _mm256_storeu_ps(out + i,
                     _mm256_blendv_ps(va, b, _mm256_cmp_ps(b, va, _CMP_LT_OQ)));
  }
  for (; i < n; ++i) {
    const float v = Bf16ToFloat(in[i]);
    out[i] = v < a[i] ? v : a[i];
  }
}

// In-place bf16 rounding never needs the 16-bit narrowing: downconvert in
// the 32-bit lanes and shift straight back up.
__attribute__((target("avx2"))) void Bf16QuantizeV(float* data,
                                                   std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i bf = Bf16DownconvertLanes(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + i)));
    _mm256_storeu_ps(data + i,
                     _mm256_castsi256_ps(_mm256_slli_epi32(bf, 16)));
  }
  for (; i < n; ++i) data[i] = QuantizeBf16(data[i]);
}

#endif  // DEAR_KERNELS_X86

// bf16 is integer-only (truncate/round the top 16 bits of binary32), so
// the portable bodies below are already branch-free for finite values and
// GCC vectorizes them without any ISA-specific code.

void Bf16PackLoop(std::uint16_t* dst, const float* src, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = FloatToBf16(src[i]);
}

void F16PackLoop(std::uint16_t* dst, const float* src, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = FloatToHalf(src[i]);
}

template <typename Cvt>
void UnpackLoop(float* dst, const std::uint16_t* src, std::size_t n,
                Cvt cvt) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = cvt(src[i]);
}

void ReduceF32(ReduceOp op, float* out, const float* a, const float* in,
               std::size_t n) {
  switch (op) {
    case ReduceOp::kSum:
    case ReduceOp::kAvg:  // normalized by the caller / the scaled variant
      Apply8From(out, a, in, n, SumOp{});
      break;
    case ReduceOp::kMax:
      Apply8From(out, a, in, n, MaxOp{});
      break;
    case ReduceOp::kMin:
      Apply8From(out, a, in, n, MinOp{});
      break;
  }
}

template <typename Cvt>
void ReduceU16(ReduceOp op, float* out, const float* a,
               const std::uint16_t* in, std::size_t n, Cvt cvt) {
  switch (op) {
    case ReduceOp::kSum:
    case ReduceOp::kAvg:  // normalized by the caller / the scaled variant
      ApplyU16From(out, a, in, n, cvt, SumOp{});
      break;
    case ReduceOp::kMax:
      ApplyU16From(out, a, in, n, cvt, MaxOp{});
      break;
    case ReduceOp::kMin:
      ApplyU16From(out, a, in, n, cvt, MinOp{});
      break;
  }
}

}  // namespace

void ReduceInto(ReduceOp op, std::span<float> acc, std::span<const float> in) {
  DEAR_CHECK(acc.size() == in.size());
  ReduceF32(op, acc.data(), acc.data(), in.data(), acc.size());
}

void ReduceIntoScaled(std::span<float> acc, std::span<const float> in,
                      float scale) {
  DEAR_CHECK(acc.size() == in.size());
  Apply8(acc.data(), in.data(), acc.size(),
         [scale](float a, float b) noexcept { return (a + b) * scale; });
}

void Scale(std::span<float> data, float scale) {
  float* d = data.data();
  const std::size_t n = data.size();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    d[i] *= scale;
    d[i + 1] *= scale;
    d[i + 2] *= scale;
    d[i + 3] *= scale;
    d[i + 4] *= scale;
    d[i + 5] *= scale;
    d[i + 6] *= scale;
    d[i + 7] *= scale;
  }
  for (; i < n; ++i) d[i] *= scale;
}

void Pack(DType dtype, void* dst, std::span<const float> src) {
  if (src.empty()) return;
  switch (dtype) {
    case DType::kF32:
      std::memcpy(dst, src.data(), src.size() * sizeof(float));
      return;
    case DType::kF16: {
      auto* d = static_cast<std::uint16_t*>(dst);
#if defined(DEAR_KERNELS_X86)
      if (UseF16C()) {
        F16PackV(d, src.data(), src.size());
        return;
      }
#endif
      F16PackLoop(d, src.data(), src.size());
      return;
    }
    case DType::kBF16: {
      auto* d = static_cast<std::uint16_t*>(dst);
#if defined(DEAR_KERNELS_X86)
      if (UseAvx2Bf16()) {
        Bf16PackV(d, src.data(), src.size());
        return;
      }
#endif
      Bf16PackLoop(d, src.data(), src.size());
      return;
    }
  }
}

void UnpackInto(std::span<float> dst, const PooledBuffer& in) {
  DEAR_CHECK(dst.size() == in.size());
  if (in.empty()) return;
  switch (in.dtype()) {
    case DType::kF32:
      std::memcpy(dst.data(), in.span().data(), in.size() * sizeof(float));
      return;
    case DType::kF16:
#if defined(DEAR_KERNELS_X86)
      if (UseF16C()) {
        F16UnpackV(dst.data(), in.u16(), in.size());
        return;
      }
#endif
      UnpackLoop(dst.data(), in.u16(), in.size(), HalfCvt{});
      return;
    case DType::kBF16:
#if defined(DEAR_KERNELS_X86)
      if (UseAvx2Bf16()) {
        Bf16UnpackV(dst.data(), in.u16(), in.size());
        return;
      }
#endif
      UnpackLoop(dst.data(), in.u16(), in.size(), Bf16Cvt{});
      return;
  }
}

void ReduceInto(ReduceOp op, std::span<float> acc, const PooledBuffer& in) {
  DEAR_CHECK(acc.size() == in.size());
  ReduceInto(op, acc, acc, in, 0);
}

void ReduceInto(ReduceOp op, std::span<float> out, std::span<const float> a,
                const PooledBuffer& in, std::size_t in_offset) {
  DEAR_CHECK(out.size() == a.size() && in_offset + out.size() <= in.size());
  if (out.empty()) return;
  const std::size_t n = out.size();
  switch (in.dtype()) {
    case DType::kF32:
      ReduceF32(op, out.data(), a.data(), in.span().data() + in_offset, n);
      return;
    case DType::kF16: {
      const std::uint16_t* b = in.u16() + in_offset;
#if defined(DEAR_KERNELS_X86)
      if (UseF16C()) {
        switch (op) {
          case ReduceOp::kSum:
          case ReduceOp::kAvg:
            F16SumV(out.data(), a.data(), b, n);
            return;
          case ReduceOp::kMax:
            F16MaxV(out.data(), a.data(), b, n);
            return;
          case ReduceOp::kMin:
            F16MinV(out.data(), a.data(), b, n);
            return;
        }
      }
#endif
      ReduceU16(op, out.data(), a.data(), b, n, HalfCvt{});
      return;
    }
    case DType::kBF16: {
      const std::uint16_t* b = in.u16() + in_offset;
#if defined(DEAR_KERNELS_X86)
      if (UseAvx2Bf16()) {
        switch (op) {
          case ReduceOp::kSum:
          case ReduceOp::kAvg:
            Bf16SumV(out.data(), a.data(), b, n);
            return;
          case ReduceOp::kMax:
            Bf16MaxV(out.data(), a.data(), b, n);
            return;
          case ReduceOp::kMin:
            Bf16MinV(out.data(), a.data(), b, n);
            return;
        }
      }
#endif
      ReduceU16(op, out.data(), a.data(), b, n, Bf16Cvt{});
      return;
    }
  }
}

void ReduceIntoScaled(std::span<float> acc, const PooledBuffer& in,
                      float scale) {
  DEAR_CHECK(acc.size() == in.size());
  ReduceIntoScaled(acc, acc, in, 0, scale);
}

void ReduceIntoScaled(std::span<float> out, std::span<const float> a,
                      const PooledBuffer& in, std::size_t in_offset,
                      float scale) {
  DEAR_CHECK(out.size() == a.size() && in_offset + out.size() <= in.size());
  if (out.empty()) return;
  const std::size_t n = out.size();
  const auto scaled_sum = [scale](float x, float y) noexcept {
    return (x + y) * scale;
  };
  switch (in.dtype()) {
    case DType::kF32:
      Apply8From(out.data(), a.data(), in.span().data() + in_offset, n,
                 scaled_sum);
      return;
    case DType::kF16:
#if defined(DEAR_KERNELS_X86)
      if (UseF16C()) {
        F16SumScaledV(out.data(), a.data(), in.u16() + in_offset, n, scale);
        return;
      }
#endif
      ApplyU16From(out.data(), a.data(), in.u16() + in_offset, n, HalfCvt{},
                   scaled_sum);
      return;
    case DType::kBF16:
#if defined(DEAR_KERNELS_X86)
      if (UseAvx2Bf16()) {
        Bf16SumScaledV(out.data(), a.data(), in.u16() + in_offset, n, scale);
        return;
      }
#endif
      ApplyU16From(out.data(), a.data(), in.u16() + in_offset, n, Bf16Cvt{},
                   scaled_sum);
      return;
  }
}

void Gather(GatherList src, std::span<float> dst) {
  ForEachPiece(src, Range{0, dst.size()},
               [&](std::size_t off, std::span<const float> piece) {
                 std::memcpy(dst.data() + off, piece.data(),
                             piece.size() * sizeof(float));
               });
}

void QuantizeInPlace(DType dtype, std::span<float> data) {
  if (data.empty()) return;
  switch (dtype) {
    case DType::kF32:
      return;
    case DType::kF16:
#if defined(DEAR_KERNELS_X86)
      if (UseF16C()) {
        F16QuantizeV(data.data(), data.size());
        return;
      }
#endif
      for (float& x : data) x = QuantizeFp16(x);
      return;
    case DType::kBF16:
#if defined(DEAR_KERNELS_X86)
      if (UseAvx2Bf16()) {
        Bf16QuantizeV(data.data(), data.size());
        return;
      }
#endif
      for (float& x : data) x = QuantizeBf16(x);
      return;
  }
}

namespace internal {

void ReduceIntoScalar(ReduceOp op, std::span<float> acc,
                      std::span<const float> in) {
  DEAR_CHECK(acc.size() == in.size());
  for (std::size_t i = 0; i < acc.size(); ++i) ApplyOp(op, acc[i], in[i]);
}

bool UsingF16C() noexcept { return UseF16C(); }

void ForceScalarForTest(bool force) noexcept {
  g_force_scalar.store(force, std::memory_order_relaxed);
}

void PackScalar(DType dtype, void* dst, std::span<const float> src) {
  if (src.empty()) return;
  switch (dtype) {
    case DType::kF32:
      std::memcpy(dst, src.data(), src.size() * sizeof(float));
      return;
    case DType::kF16:
      F16PackLoop(static_cast<std::uint16_t*>(dst), src.data(), src.size());
      return;
    case DType::kBF16:
      Bf16PackLoop(static_cast<std::uint16_t*>(dst), src.data(), src.size());
      return;
  }
}

void UnpackScalar(DType dtype, std::span<float> dst, const void* src) {
  if (dst.empty()) return;
  switch (dtype) {
    case DType::kF32:
      std::memcpy(dst.data(), src, dst.size() * sizeof(float));
      return;
    case DType::kF16:
      UnpackLoop(dst.data(), static_cast<const std::uint16_t*>(src),
                 dst.size(), HalfCvt{});
      return;
    case DType::kBF16:
      UnpackLoop(dst.data(), static_cast<const std::uint16_t*>(src),
                 dst.size(), Bf16Cvt{});
      return;
  }
}

}  // namespace internal

}  // namespace dear::comm::kernels
