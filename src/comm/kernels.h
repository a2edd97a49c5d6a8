// Fused pack / convert+reduce kernels for the collective library.
//
// The ring/tree/recursive collectives fold every received chunk into the
// local buffer; doing that through the generic per-element ApplyOp switch
// keeps the branch inside the loop and defeats vectorization. These
// kernels hoist the ReduceOp dispatch out of the loop and run a manually
// 8-wide-unrolled elementwise body per op (GCC auto-vectorizes the
// branch-free bodies at -O2), standing in for NCCL's fused reduce kernels.
//
// Mixed precision (DType, comm/types.h): payloads may travel as fp16 or
// bf16 while application buffers stay fp32. The sender converts on pack —
// Pack() writes the wire encoding straight into the pooled slab, one pass,
// no staging buffer — and the receiver folds the 2-byte payload in place
// via the PooledBuffer overloads below, which upconvert to fp32, apply the
// op, and store the fp32 accumulator (the downconvert to the wire dtype
// happens on the *next* hop's pack, so precision is lost exactly once per
// wire crossing). On x86 with F16C the fp16 bodies use the hardware
// VCVTPH2PS/VCVTPS2PH converters 8-wide with branch-free AVX2 select ops;
// a portable scalar fallback (common/half.h) is selected at runtime
// otherwise. bf16 is integer-only (top 16 bits of binary32 with RNE) and
// needs no hardware support.
//
// Bitwise contract: every kernel applies exactly the same per-element
// operation, in the same element order, as a scalar `for (i) ApplyOp(...)`
// loop over the upconverted values. Reductions are element-independent, so
// unrolling cannot reassociate anything — schedlab's 0-ULP RS;AG ≡
// fused-AR property and the cross-schedule bitwise digests hold unchanged
// (for lossy dtypes both sides round identically, so the property is still
// bitwise). The vector and scalar fp16 converters agree bitwise on every
// non-NaN value (both round to nearest even; NaN payload bits may differ
// between hardware and software quietening — reductions never produce new
// NaNs from finite gradients, and the kernel tests pin the finite
// behavior). The scaled variant computes `(acc[i] + in[i]) * scale`,
// bitwise identical to folding first and multiplying in a separate pass,
// letting the kAvg normalization ride the final ring round instead of
// costing an extra full sweep.
#pragma once

#include <cstddef>
#include <span>

#include "comm/buffer_pool.h"
#include "comm/types.h"

namespace dear::comm::kernels {

/// acc[i] = acc[i] op in[i]. kAvg folds as a sum (the caller normalizes,
/// or uses ReduceIntoScaled on the final round). Sizes must match.
void ReduceInto(ReduceOp op, std::span<float> acc, std::span<const float> in);

/// acc[i] = (acc[i] + in[i]) * scale — the final ring round of a kAvg
/// reduce-scatter. Only meaningful for the summing ops. Sizes must match.
void ReduceIntoScaled(std::span<float> acc, std::span<const float> in,
                      float scale);

/// data[i] *= scale.
void Scale(std::span<float> data, float scale);

// --- dtype-aware payload kernels ------------------------------------------

/// Converts `src` (fp32) into the wire encoding of `dtype` at `dst` — the
/// transport's convert-on-pack pass. `dst` must hold
/// src.size() * DTypeSize(dtype) writable bytes (a pooled slab's
/// wire_data()). kF32 is a plain memcpy; kF16/kBF16 round to nearest even.
void Pack(DType dtype, void* dst, std::span<const float> src);

/// dst[i] = upconvert(in[i]) — the copy half of all-gather/broadcast/
/// scatter receive paths. Sizes must match (element counts).
void UnpackInto(std::span<float> dst, const PooledBuffer& in);

/// Fused convert+reduce: acc[i] = acc[i] op upconvert(in[i]). Dispatches
/// on in.dtype(); the kF32 case is the span overload above.
void ReduceInto(ReduceOp op, std::span<float> acc, const PooledBuffer& in);

/// Fused convert+reduce+scale: acc[i] = (acc[i] + upconvert(in[i])) *
/// scale — the final kAvg ring round, now dtype-aware.
void ReduceIntoScaled(std::span<float> acc, const PooledBuffer& in,
                      float scale);

/// data[i] = upconvert(downconvert(data[i])) — rounds fp32 values through
/// the wire dtype without sending them. The copy-collectives apply this to
/// the sender's *retained* regions (the chunk an all-gather keeps, the
/// root's own scatter slice, …) so every rank ends with bitwise-identical
/// data whether or not its copy physically crossed the wire: what you
/// send is what you keep. No-op for kF32. Idempotent, so re-sends of
/// already-rounded data change nothing.
void QuantizeInPlace(DType dtype, std::span<float> data);

namespace internal {
/// Reference implementation (per-element ApplyOp loop). Kept for the
/// kernel unit tests and the legacy arm of the perf-lab row
/// transport.rs_ag_speedup.
void ReduceIntoScalar(ReduceOp op, std::span<float> acc,
                      std::span<const float> in);

/// True when the hardware F16C+AVX2 fp16 paths are compiled in and the CPU
/// supports them (and tests haven't forced the scalar fallback).
[[nodiscard]] bool UsingF16C() noexcept;

/// Tests: force every dtype kernel onto the portable scalar fallback so
/// the vector and scalar paths can be compared bitwise on the same host.
void ForceScalarForTest(bool force) noexcept;

/// Scalar references for Pack/UnpackInto (common/half.h semantics),
/// exposed as the bitwise oracle for the vectorized paths.
void PackScalar(DType dtype, void* dst, std::span<const float> src);
void UnpackScalar(DType dtype, std::span<float> dst, const void* src);
}  // namespace internal

}  // namespace dear::comm::kernels
