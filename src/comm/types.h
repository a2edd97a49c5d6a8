// Shared vocabulary types for the collective communication library.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "common/math_util.h"

namespace dear::comm {

/// Worker index within a communicator, in [0, size).
using Rank = int;

/// Element-wise reduction applied by reducing collectives.
enum class ReduceOp { kSum, kAvg, kMax, kMin };

/// All-reduce algorithm selector (mirrors NCCL's algorithm choices plus the
/// decoupled form DeAR relies on).
enum class Algorithm {
  kRing,              // classic ring all-reduce (RS+AG fused in one call)
  kReduceScatterAllGather,  // explicit decoupled RS followed by AG
  kTree,              // reduce-to-root + broadcast
  kDoubleBinaryTree,  // two complementary trees, half the payload each
  kHierarchical,      // intra-node reduce, inter-node ring, intra-node bcast
  kRecursiveHalvingDoubling,  // Rabenseifner: log-latency, optimal bandwidth
};

std::string_view AlgorithmName(Algorithm a) noexcept;
std::string_view ReduceOpName(ReduceOp op) noexcept;

/// A gather list: read-only pieces whose concatenation is one logical
/// vector. DistOptim hands a fusion group's gradient tensors to the
/// reduce-scatter this way, so nothing copies them into the fused buffer
/// first. Empty means the op's buffer already holds its input.
using GatherList = std::span<const std::span<const float>>;

/// Calls fn(offset, piece) for each part of `list`'s concatenation that
/// overlaps `range`, in order; `offset` is relative to range.begin.
template <typename Fn>
void ForEachPiece(GatherList list, Range range, Fn&& fn) {
  std::size_t base = 0;
  for (const std::span<const float> piece : list) {
    if (base >= range.end) return;
    const std::size_t end = base + piece.size();
    const std::size_t lo = std::max(base, range.begin);
    const std::size_t hi = std::min(end, range.end);
    if (lo < hi) fn(lo - range.begin, piece.subspan(lo - base, hi - lo));
    base = end;
  }
}

/// Wire element type of a transported payload (the paper's §VI-D gradient
/// compression extension, mirroring NCCL's ncclFloat16/ncclBfloat16).
/// Application buffers stay fp32 everywhere; a lossy DType only changes
/// what travels between ranks: the sender converts on pack (directly into
/// the pooled slab), the receiver folds the payload back through the fused
/// convert+reduce kernels (comm/kernels.h). kF32 is the bitwise-identical
/// default.
enum class DType : std::uint8_t { kF32 = 0, kF16 = 1, kBF16 = 2 };

/// Number of distinct wire dtypes (`dearsim profile` exports one
/// comm.wire_bytes counter per dtype).
inline constexpr int kNumDTypes = 3;

/// Bytes per element of `t` on the wire.
constexpr std::size_t DTypeSize(DType t) noexcept {
  return t == DType::kF32 ? 4 : 2;
}

constexpr std::string_view DTypeName(DType t) noexcept {
  switch (t) {
    case DType::kF32: return "f32";
    case DType::kF16: return "f16";
    case DType::kBF16: return "bf16";
  }
  return "unknown";
}

/// The collectives of comm/collectives.h, one value per entry point. The
/// value is what the flight recorder journals as a collective bracket's tag.
/// Journals never leave the process that wrote them, and every reader
/// (dumps, the checker, the trace, `dearsim profile`) prints the name from
/// kCollectiveKindNames, so values may be renumbered freely; keep the enum
/// and the name table in the same order.
enum class CollectiveKind : std::uint16_t {
  kRingReduceScatter,
  kRingAllGather,
  kRingAllReduce,
  kTreeReduce,
  kTreeBroadcast,
  kTreeAllReduce,
  kDbtAllReduce,
  kHierReduceScatter,
  kHierAllGather,
  kHierAllReduce,
  kRecursiveReduceScatter,
  kRecursiveAllGather,
  kRecursiveAllReduce,
  kBarrier,
  kRingAllReduceSegmented,
};
inline constexpr int kNumCollectiveKinds = 15;

/// The one kind-name table every consumer reads: the protocol-level
/// algorithm name the checker ledger and the journal use
/// ("ring_all_reduce").
inline constexpr const char* kCollectiveKindNames[kNumCollectiveKinds] = {
    "ring_reduce_scatter",      "ring_all_gather",
    "ring_all_reduce",          "tree_reduce",
    "tree_broadcast",           "tree_all_reduce",
    "dbt_all_reduce",           "hier_reduce_scatter",
    "hier_all_gather",          "hier_all_reduce",
    "recursive_reduce_scatter", "recursive_all_gather",
    "recursive_all_reduce",     "barrier",
    "ring_all_reduce_segmented",
};

/// Name of a journaled kind value; out-of-range values (a corrupt record)
/// are named "?".
constexpr const char* CollectiveKindName(std::uint32_t value) noexcept {
  return value < static_cast<std::uint32_t>(kNumCollectiveKinds)
             ? kCollectiveKindNames[value]
             : "?";
}
constexpr const char* CollectiveKindName(CollectiveKind kind) noexcept {
  return CollectiveKindName(static_cast<std::uint32_t>(kind));
}

/// Parses "f32"/"fp32"/"f16"/"fp16"/"bf16" (the CLI --dtype vocabulary).
/// Returns false and leaves *out untouched on an unknown name.
inline bool ParseDType(std::string_view name, DType* out) noexcept {
  if (name == "f32" || name == "fp32" || name == "float32") {
    *out = DType::kF32;
  } else if (name == "f16" || name == "fp16" || name == "float16" ||
             name == "half") {
    *out = DType::kF16;
  } else if (name == "bf16" || name == "bfloat16") {
    *out = DType::kBF16;
  } else {
    return false;
  }
  return true;
}

/// Shared point-to-point tag layout: kind(8) | round(12) | chunk(12).
///
/// Every message tag in the collective library is packed with MakeTag and
/// decoded with the accessors below — magic shifts outside this namespace
/// are a lint error (tools/lint.py). Collectives are serialized per
/// communicator, so tags only need to disambiguate within one call; the
/// checker (src/check) additionally decodes them to attribute a blocked
/// Recv to a collective kind, ring round, and chunk.
namespace tags {

inline constexpr std::uint32_t kKindBits = 8;
inline constexpr std::uint32_t kRoundBits = 12;
inline constexpr std::uint32_t kChunkBits = 12;
inline constexpr std::uint32_t kRoundShift = kChunkBits;
inline constexpr std::uint32_t kKindShift = kRoundBits + kChunkBits;
inline constexpr std::uint32_t kKindMask = (1u << kKindBits) - 1;
inline constexpr std::uint32_t kRoundMask = (1u << kRoundBits) - 1;
inline constexpr std::uint32_t kChunkMask = (1u << kChunkBits) - 1;

static_assert(kKindBits + kRoundBits + kChunkBits == 32,
              "tag fields must exactly fill a 32-bit tag");
static_assert(kKindShift == 24 && kRoundShift == 12,
              "layout is kind(8) | round(12) | chunk(12)");

/// Kind field values. One value per wire protocol, so a decoded tag names
/// the collective a message belongs to unambiguously.
enum TagKind : std::uint32_t {
  kTagReduceScatter = 1,
  kTagAllGather = 2,
  kTagTreeReduce = 3,
  kTagTreeBcast = 4,
  kTagBarrier = 5,
  kTagHierLeaderRs = 6,   // ring RS across node leaders (hierarchical OP1)
  kTagHierLeaderAg = 7,   // ring AG across node leaders (hierarchical OP2)
  kTagDbtA = 8,
  kTagDbtB = 9,
  kTagRecursiveRs = 13,
  kTagRecursiveAg = 14,
};

constexpr std::uint32_t MakeTag(std::uint32_t kind, std::uint32_t round,
                                std::uint32_t chunk = 0) noexcept {
  return ((kind & kKindMask) << kKindShift) |
         ((round & kRoundMask) << kRoundShift) | (chunk & kChunkMask);
}

constexpr std::uint32_t KindOf(std::uint32_t tag) noexcept {
  return (tag >> kKindShift) & kKindMask;
}
constexpr std::uint32_t RoundOf(std::uint32_t tag) noexcept {
  return (tag >> kRoundShift) & kRoundMask;
}
constexpr std::uint32_t ChunkOf(std::uint32_t tag) noexcept {
  return tag & kChunkMask;
}

constexpr std::string_view KindName(std::uint32_t kind) noexcept {
  switch (kind) {
    case kTagReduceScatter: return "reduce_scatter";
    case kTagAllGather: return "all_gather";
    case kTagTreeReduce: return "tree_reduce";
    case kTagTreeBcast: return "tree_broadcast";
    case kTagBarrier: return "barrier";
    case kTagHierLeaderRs: return "hier_leader_reduce_scatter";
    case kTagHierLeaderAg: return "hier_leader_all_gather";
    case kTagDbtA: return "dbt_tree_a";
    case kTagDbtB: return "dbt_tree_b";
    case kTagRecursiveRs: return "recursive_reduce_scatter";
    case kTagRecursiveAg: return "recursive_all_gather";
    default: return "unknown";
  }
}

/// Human-readable decode for diagnostics: "reduce_scatter round=3 chunk=0".
/// Inline so the checker can use it without linking the collective library.
inline std::string Describe(std::uint32_t tag) {
  std::string s{KindName(KindOf(tag))};
  s += " round=" + std::to_string(RoundOf(tag));
  s += " chunk=" + std::to_string(ChunkOf(tag));
  return s;
}

}  // namespace tags

/// Applies `op` to an accumulator element.
inline void ApplyOp(ReduceOp op, float& acc, float v) noexcept {
  switch (op) {
    case ReduceOp::kSum:
    case ReduceOp::kAvg:  // averaged by caller after the sum completes
      acc += v;
      break;
    case ReduceOp::kMax:
      if (v > acc) acc = v;
      break;
    case ReduceOp::kMin:
      if (v < acc) acc = v;
      break;
  }
}

}  // namespace dear::comm
