#include "comm/collectives.h"

#include <algorithm>

#include "comm/kernels.h"
#include "comm/probe.h"
#include "common/logging.h"
#include "common/math_util.h"

namespace dear::comm {
namespace {

using tags::MakeTag;
using tags::kTagReduceScatter;
using tags::kTagAllGather;
using tags::kTagTreeReduce;
using tags::kTagTreeBcast;
using tags::kTagBarrier;
using tags::kTagHierLeaderRs;
using tags::kTagHierLeaderAg;
using tags::kTagRecursiveRs;
using tags::kTagRecursiveAg;

void ScaleForAvg(ReduceOp op, std::span<float> data, int world) {
  if (op != ReduceOp::kAvg || world <= 1) return;
  kernels::Scale(data, 1.0f / static_cast<float>(world));
}

// Fallback for callers without a position hint (see collectives.h); the
// production paths pass their precomputed position instead.
int PositionOf(const std::vector<Rank>& members, Rank rank) {
  for (std::size_t i = 0; i < members.size(); ++i)
    if (members[i] == rank) return static_cast<int>(i);
  return -1;
}

}  // namespace

namespace internal {

Status RingReduceScatterOver(Communicator& comm,
                             const std::vector<Rank>& members,
                             std::span<float> data, ReduceOp op,
                             std::uint32_t tag_kind, int pos, int avg_world,
                             GatherList sources) {
  const int p = static_cast<int>(members.size());
  if (pos < 0) pos = PositionOf(members, comm.rank());
  DEAR_CHECK_MSG(pos >= 0 && pos < p &&
                     members[static_cast<std::size_t>(pos)] == comm.rank(),
                 "ring position does not match this rank");
  const bool avg = op == ReduceOp::kAvg && avg_world > 1;
  const float inv = avg ? 1.0f / static_cast<float>(avg_world) : 1.0f;
  // A PackHook needs contiguous spans, and a one-member ring never sends:
  // both take their input from the buffer.
  if (!sources.empty() && (p == 1 || comm.hub()->has_pack_hook())) {
    kernels::Gather(sources, data);
    sources = {};
  }
  if (p == 1) {
    // Degenerate ring: no round folds anything, so the normalization that
    // normally rides the final round applies directly (the whole buffer is
    // this member's own chunk).
    if (avg) kernels::Scale(data, inv);
    return Status::Ok();
  }

  const Rank right = members[static_cast<std::size_t>((pos + 1) % p)];
  const Rank left = members[static_cast<std::size_t>((pos - 1 + p) % p)];
  const std::size_t n = data.size();

  // Round s: send chunk (pos - s - 1) mod p rightward, receive chunk
  // (pos - s - 2) mod p from the left and fold it in. After p-1 rounds,
  // ring position `pos` holds the fully reduced chunk `pos`; that final
  // round (recv chunk == pos) folds with the kAvg scale applied — bitwise
  // identical to folding first and scaling in a separate pass.
  //
  // Every chunk but (pos - 1) is folded exactly once, and the chunk a round
  // s > 0 sends is the one round s - 1 folded. So with `sources`, round 0
  // sends from them and every fold takes its accumulator from them: the
  // input is read in place and never copied into `data`.
  for (int s = 0; s < p - 1; ++s) {
    const auto send_chunk = static_cast<std::size_t>((pos - s - 1 + 2 * p) % p);
    const auto recv_chunk = static_cast<std::size_t>((pos - s - 2 + 2 * p) % p);
    const Range sr = ChunkRange(n, static_cast<std::size_t>(p), send_chunk);
    const Range rr = ChunkRange(n, static_cast<std::size_t>(p), recv_chunk);
    const std::uint32_t tag = MakeTag(tag_kind, static_cast<std::uint32_t>(s));

    const bool sent = s == 0 && !sources.empty()
                          ? comm.Send(right, tag, sources, sr)
                          : comm.Send(right, tag, data.subspan(sr.begin,
                                                                sr.size()));
    if (!sent) return Status::Unavailable("send failed: transport shut down");
    auto msg = comm.Recv(left, tag);
    if (!msg.ok()) return msg.status();
    const auto acc = data.subspan(rr.begin, rr.size());
    const bool scaled = avg && s == p - 2;
    if (sources.empty()) {
      if (scaled)
        kernels::ReduceIntoScaled(acc, msg->payload, inv);
      else
        kernels::ReduceInto(op, acc, msg->payload);
      continue;
    }
    ForEachPiece(sources, rr,
                 [&](std::size_t off, std::span<const float> piece) {
                   const auto out = acc.subspan(off, piece.size());
                   if (scaled)
                     kernels::ReduceIntoScaled(out, piece, msg->payload, off,
                                               inv);
                   else
                     kernels::ReduceInto(op, out, piece, msg->payload, off);
                 });
  }
  return Status::Ok();
}

Status RingAllGatherOver(Communicator& comm, const std::vector<Rank>& members,
                         std::span<float> data, std::uint32_t tag_kind,
                         int pos) {
  const int p = static_cast<int>(members.size());
  if (pos < 0) pos = PositionOf(members, comm.rank());
  DEAR_CHECK_MSG(pos >= 0 && pos < p &&
                     members[static_cast<std::size_t>(pos)] == comm.rank(),
                 "ring position does not match this rank");
  if (p == 1) return Status::Ok();

  const Rank right = members[(pos + 1) % p];
  const Rank left = members[(pos - 1 + p) % p];
  const std::size_t n = data.size();

  // Lossy wire dtypes: our own chunk never comes back to us, but every
  // other member receives it rounded to the wire format. Round the local
  // copy too, so all members end with bitwise-identical data (see
  // kernels::QuantizeInPlace). Re-packing it for round 0 is idempotent.
  {
    const Range own = ChunkRange(n, static_cast<std::size_t>(p),
                                 static_cast<std::size_t>(pos));
    kernels::QuantizeInPlace(comm.wire_dtype(),
                             data.subspan(own.begin, own.size()));
  }

  // Round s: send chunk (pos - s) mod p rightward, receive chunk
  // (pos - s - 1) mod p from the left. Starts from our own chunk.
  for (int s = 0; s < p - 1; ++s) {
    const auto send_chunk = static_cast<std::size_t>((pos - s + 2 * p) % p);
    const auto recv_chunk = static_cast<std::size_t>((pos - s - 1 + 2 * p) % p);
    const Range sr = ChunkRange(n, static_cast<std::size_t>(p), send_chunk);
    const Range rr = ChunkRange(n, static_cast<std::size_t>(p), recv_chunk);
    const std::uint32_t tag = MakeTag(tag_kind, static_cast<std::uint32_t>(s));

    if (!comm.Send(right, tag, data.subspan(sr.begin, sr.size())))
      return Status::Unavailable("send failed: transport shut down");
    auto msg = comm.Recv(left, tag);
    if (!msg.ok()) return msg.status();
    kernels::UnpackInto(data.subspan(rr.begin, rr.size()), msg->payload);
  }
  return Status::Ok();
}

}  // namespace internal

namespace {

std::vector<Rank> AllRanks(int p) {
  std::vector<Rank> v(static_cast<std::size_t>(p));
  for (int i = 0; i < p; ++i) v[static_cast<std::size_t>(i)] = i;
  return v;
}

}  // namespace

Status RingReduceScatter(Communicator& comm, std::span<float> data,
                         ReduceOp op, GatherList sources) {
  probe::CollectiveProbe bracket(comm, CollectiveKind::kRingReduceScatter, data.size());
  // Rank r sits at ring position r; kAvg normalization rides the final
  // round (avg_world) instead of a separate pass over the owned chunk.
  return internal::RingReduceScatterOver(comm, AllRanks(comm.size()), data,
                                         op, kTagReduceScatter, comm.rank(),
                                         comm.size(), sources);
}

Status RingAllGather(Communicator& comm, std::span<float> data) {
  probe::CollectiveProbe bracket(comm, CollectiveKind::kRingAllGather, data.size());
  return internal::RingAllGatherOver(comm, AllRanks(comm.size()), data,
                                     kTagAllGather, comm.rank());
}

Status RingAllReduce(Communicator& comm, std::span<float> data, ReduceOp op,
                     GatherList sources) {
  probe::CollectiveProbe bracket(comm, CollectiveKind::kRingAllReduce, data.size());
  DEAR_RETURN_IF_ERROR(RingReduceScatter(comm, data, op, sources));
  return RingAllGather(comm, data);
}

Status TreeReduce(Communicator& comm, std::span<float> data, Rank root,
                  ReduceOp op) {
  probe::CollectiveProbe bracket(comm, CollectiveKind::kTreeReduce, data.size());
  const int p = comm.size();
  DEAR_CHECK(root >= 0 && root < p);
  const int rel = (comm.rank() - root + p) % p;

  // Binomial tree: children fold in before the parent sends up.
  for (int mask = 1; mask < p; mask <<= 1) {
    if (rel & mask) {
      const Rank dst = ((rel - mask) + root) % p;
      const std::uint32_t tag =
          MakeTag(kTagTreeReduce, static_cast<std::uint32_t>(mask),
                  static_cast<std::uint32_t>(rel & tags::kChunkMask));
      if (!comm.Send(dst, tag, data))
        return Status::Unavailable("send failed: transport shut down");
      break;  // sent up: this rank is done
    }
    if (rel + mask < p) {
      const Rank src = ((rel + mask) + root) % p;
      const std::uint32_t tag =
          MakeTag(kTagTreeReduce, static_cast<std::uint32_t>(mask),
                  static_cast<std::uint32_t>((rel + mask) & tags::kChunkMask));
      auto msg = comm.Recv(src, tag);
      if (!msg.ok()) return msg.status();
      kernels::ReduceInto(op == ReduceOp::kAvg ? ReduceOp::kSum : op, data,
                          msg->payload);
    }
  }
  if (comm.rank() == root) ScaleForAvg(op, data, p);
  return Status::Ok();
}

Status TreeBroadcast(Communicator& comm, std::span<float> data, Rank root) {
  probe::CollectiveProbe bracket(comm, CollectiveKind::kTreeBroadcast, data.size());
  const int p = comm.size();
  DEAR_CHECK(root >= 0 && root < p);
  const int rel = (comm.rank() - root + p) % p;

  // Lossy wire: every non-root rank receives wire-rounded data, so the
  // root rounds its retained copy too — all ranks end bitwise identical.
  if (rel == 0 && p > 1) kernels::QuantizeInPlace(comm.wire_dtype(), data);

  int mask = 1;
  while (mask < p) {
    if (rel & mask) {
      const Rank src = ((rel - mask) + root) % p;
      const std::uint32_t tag =
          MakeTag(kTagTreeBcast, static_cast<std::uint32_t>(mask),
                  static_cast<std::uint32_t>(rel & tags::kChunkMask));
      auto msg = comm.Recv(src, tag);
      if (!msg.ok()) return msg.status();
      kernels::UnpackInto(data, msg->payload);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (rel + mask < p) {
      const Rank dst = ((rel + mask) + root) % p;
      const std::uint32_t tag =
          MakeTag(kTagTreeBcast, static_cast<std::uint32_t>(mask),
                  static_cast<std::uint32_t>((rel + mask) & tags::kChunkMask));
      if (!comm.Send(dst, tag, data))
        return Status::Unavailable("send failed: transport shut down");
    }
    mask >>= 1;
  }
  return Status::Ok();
}

Status TreeAllReduce(Communicator& comm, std::span<float> data, ReduceOp op) {
  probe::CollectiveProbe bracket(comm, CollectiveKind::kTreeAllReduce, data.size());
  DEAR_RETURN_IF_ERROR(TreeReduce(comm, data, /*root=*/0, op));
  return TreeBroadcast(comm, data, /*root=*/0);
}

Status DoubleBinaryTreeAllReduce(Communicator& comm, std::span<float> data,
                                 ReduceOp op) {
  probe::CollectiveProbe bracket(comm, CollectiveKind::kDbtAllReduce, data.size());
  const int p = comm.size();
  const std::size_t half = data.size() / 2;
  auto a = data.subspan(0, half);
  auto b = data.subspan(half);
  // Tree A roots at rank 0, tree B at rank p-1, mirroring NCCL's use of two
  // complementary trees so every rank is interior in at most one of them.
  DEAR_RETURN_IF_ERROR(TreeReduce(comm, a, /*root=*/0, op));
  DEAR_RETURN_IF_ERROR(TreeReduce(comm, b, /*root=*/p - 1, op));
  DEAR_RETURN_IF_ERROR(TreeBroadcast(comm, a, /*root=*/0));
  return TreeBroadcast(comm, b, /*root=*/p - 1);
}

Status HierarchicalReduceScatter(Communicator& comm, std::span<float> data,
                                 int ranks_per_node, ReduceOp op) {
  probe::CollectiveProbe bracket(comm, CollectiveKind::kHierReduceScatter, data.size());
  const int p = comm.size();
  if (ranks_per_node <= 0 || p % ranks_per_node != 0)
    return Status::InvalidArgument("ranks_per_node must divide world size");
  const int rpn = ranks_per_node;
  const Rank leader = (comm.rank() / rpn) * rpn;

  // Phase 1: intra-node binomial reduce onto the node leader. Relabel the
  // node's ranks [leader, leader+rpn) as a tree rooted at the leader.
  const int local_rel = comm.rank() - leader;
  const ReduceOp sum_op = (op == ReduceOp::kAvg) ? ReduceOp::kSum : op;
  for (int mask = 1; mask < rpn; mask <<= 1) {
    if (local_rel & mask) {
      const std::uint32_t tag =
          MakeTag(kTagTreeReduce, static_cast<std::uint32_t>(mask),
                  static_cast<std::uint32_t>(comm.rank() & tags::kChunkMask));
      if (!comm.Send(leader + (local_rel - mask), tag, data))
        return Status::Unavailable("send failed: transport shut down");
      break;
    }
    if (local_rel + mask < rpn) {
      const Rank src = leader + local_rel + mask;
      const std::uint32_t tag =
          MakeTag(kTagTreeReduce, static_cast<std::uint32_t>(mask),
                  static_cast<std::uint32_t>(src & tags::kChunkMask));
      auto msg = comm.Recv(src, tag);
      if (!msg.ok()) return msg.status();
      kernels::ReduceInto(sum_op, data, msg->payload);
    }
  }

  // Phase 2: ring reduce-scatter across the node leaders. This leader sits
  // at ring position rank/rpn; kAvg divides by the full world size p (the
  // intra-node phase already folded rpn ranks into each leader), riding
  // the final leader-ring round.
  if (comm.rank() == leader) {
    std::vector<Rank> leaders;
    for (Rank r = 0; r < p; r += rpn) leaders.push_back(r);
    DEAR_RETURN_IF_ERROR(internal::RingReduceScatterOver(
        comm, leaders, data, op, kTagHierLeaderRs, comm.rank() / rpn, p));
  }
  return Status::Ok();
}

Status HierarchicalAllGather(Communicator& comm, std::span<float> data,
                             int ranks_per_node) {
  probe::CollectiveProbe bracket(comm, CollectiveKind::kHierAllGather, data.size());
  const int p = comm.size();
  if (ranks_per_node <= 0 || p % ranks_per_node != 0)
    return Status::InvalidArgument("ranks_per_node must divide world size");
  const int rpn = ranks_per_node;
  const Rank leader = (comm.rank() / rpn) * rpn;
  const int local_rel = comm.rank() - leader;

  // Phase 1: ring all-gather across the node leaders.
  if (comm.rank() == leader) {
    std::vector<Rank> leaders;
    for (Rank r = 0; r < p; r += rpn) leaders.push_back(r);
    DEAR_RETURN_IF_ERROR(internal::RingAllGatherOver(
        comm, leaders, data, kTagHierLeaderAg, comm.rank() / rpn));
  }

  // Phase 2: intra-node broadcast from the leader. Under a lossy wire the
  // leader rounds its retained copy like TreeBroadcast's root does (the
  // leader-ring phase already rounded most of it; idempotent either way).
  if (local_rel == 0 && rpn > 1)
    kernels::QuantizeInPlace(comm.wire_dtype(), data);
  int mask = 1;
  while (mask < rpn) {
    if (local_rel & mask) {
      const Rank src = leader + (local_rel - mask);
      const std::uint32_t tag =
          MakeTag(kTagTreeBcast, static_cast<std::uint32_t>(mask),
                  static_cast<std::uint32_t>(comm.rank() & tags::kChunkMask));
      auto msg = comm.Recv(src, tag);
      if (!msg.ok()) return msg.status();
      kernels::UnpackInto(data, msg->payload);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (local_rel + mask < rpn) {
      const Rank dst = leader + local_rel + mask;
      const std::uint32_t tag =
          MakeTag(kTagTreeBcast, static_cast<std::uint32_t>(mask),
                  static_cast<std::uint32_t>(dst & tags::kChunkMask));
      if (!comm.Send(dst, tag, data))
        return Status::Unavailable("send failed: transport shut down");
    }
    mask >>= 1;
  }
  return Status::Ok();
}

Status HierarchicalAllReduce(Communicator& comm, std::span<float> data,
                             int ranks_per_node, ReduceOp op) {
  probe::CollectiveProbe bracket(comm, CollectiveKind::kHierAllReduce, data.size());
  DEAR_RETURN_IF_ERROR(
      HierarchicalReduceScatter(comm, data, ranks_per_node, op));
  return HierarchicalAllGather(comm, data, ranks_per_node);
}

namespace {

// One halving level: the parent range [lo, hi) splits at mid; `upper` says
// which half this rank keeps. Both partners share the parent range, so
// they derive identical splits.
struct HalvingLevel {
  int dist;
  bool upper;
  std::size_t lo, mid, hi;
};

std::vector<HalvingLevel> BuildHalvingPlan(Rank rank, int p, std::size_t n) {
  std::vector<HalvingLevel> levels;
  std::size_t lo = 0, hi = n;
  for (int dist = p / 2; dist >= 1; dist /= 2) {
    HalvingLevel level;
    level.dist = dist;
    level.upper = (rank & dist) != 0;
    level.lo = lo;
    level.mid = lo + (hi - lo) / 2;
    level.hi = hi;
    if (level.upper)
      lo = level.mid;
    else
      hi = level.mid;
    levels.push_back(level);
  }
  return levels;
}

bool IsPowerOfTwo(int p) { return p > 0 && (p & (p - 1)) == 0; }

}  // namespace

Status RecursiveHalvingReduceScatter(Communicator& comm,
                                     std::span<float> data, ReduceOp op) {
  probe::CollectiveProbe bracket(comm, CollectiveKind::kRecursiveReduceScatter, data.size());
  const int p = comm.size();
  if (!IsPowerOfTwo(p))
    return Status::InvalidArgument(
        "recursive halving requires a power-of-two world size");
  if (p == 1) return Status::Ok();  // avg over one rank is the identity
  const auto levels = BuildHalvingPlan(comm.rank(), p, data.size());
  const ReduceOp sum_op = (op == ReduceOp::kAvg) ? ReduceOp::kSum : op;
  const bool avg = op == ReduceOp::kAvg;
  const float inv = avg ? 1.0f / static_cast<float>(p) : 1.0f;
  for (std::size_t s = 0; s < levels.size(); ++s) {
    const HalvingLevel& level = levels[s];
    const Rank partner = comm.rank() ^ level.dist;
    const std::uint32_t tag =
        MakeTag(kTagRecursiveRs, static_cast<std::uint32_t>(s));
    // Send the half I am giving up; fold the partner's copy of the half I
    // keep into my buffer. The deepest level's keep range is exactly the
    // final owned range, so the kAvg normalization rides that last fold.
    const std::size_t keep_lo = level.upper ? level.mid : level.lo;
    const std::size_t keep_hi = level.upper ? level.hi : level.mid;
    const std::size_t give_lo = level.upper ? level.lo : level.mid;
    const std::size_t give_hi = level.upper ? level.mid : level.hi;
    if (!comm.Send(partner, tag, data.subspan(give_lo, give_hi - give_lo)))
      return Status::Unavailable("send failed: transport shut down");
    auto msg = comm.Recv(partner, tag);
    if (!msg.ok()) return msg.status();
    const auto keep = data.subspan(keep_lo, keep_hi - keep_lo);
    if (avg && s + 1 == levels.size())
      kernels::ReduceIntoScaled(keep, msg->payload, inv);
    else
      kernels::ReduceInto(sum_op, keep, msg->payload);
  }
  return Status::Ok();
}

Status RecursiveDoublingAllGather(Communicator& comm, std::span<float> data) {
  probe::CollectiveProbe bracket(comm, CollectiveKind::kRecursiveAllGather, data.size());
  const int p = comm.size();
  if (!IsPowerOfTwo(p))
    return Status::InvalidArgument(
        "recursive doubling requires a power-of-two world size");
  if (p == 1) return Status::Ok();
  const auto levels = BuildHalvingPlan(comm.rank(), p, data.size());
  // Lossy wire: the final owned range (the deepest level's keep half) is
  // the only data that never arrives over the wire — round the local copy
  // so every rank ends with identical bits.
  const Range own = ReduceScatterOwnedRange(
      Algorithm::kRecursiveHalvingDoubling, data.size(), comm.rank(), p);
  kernels::QuantizeInPlace(comm.wire_dtype(),
                           data.subspan(own.begin, own.size()));
  // Unwind the halving: at each level (deepest first) partners exchange
  // their halves of the shared parent range.
  for (std::size_t s = levels.size(); s-- > 0;) {
    const HalvingLevel& level = levels[s];
    const Rank partner = comm.rank() ^ level.dist;
    const std::uint32_t tag =
        MakeTag(kTagRecursiveAg, static_cast<std::uint32_t>(s));
    const std::size_t have_lo = level.upper ? level.mid : level.lo;
    const std::size_t have_hi = level.upper ? level.hi : level.mid;
    const std::size_t want_lo = level.upper ? level.lo : level.mid;
    const std::size_t want_hi = level.upper ? level.mid : level.hi;
    if (!comm.Send(partner, tag, data.subspan(have_lo, have_hi - have_lo)))
      return Status::Unavailable("send failed: transport shut down");
    auto msg = comm.Recv(partner, tag);
    if (!msg.ok()) return msg.status();
    if (msg->payload.size() != want_hi - want_lo)
      return Status::Internal("recursive doubling size mismatch");
    kernels::UnpackInto(data.subspan(want_lo, want_hi - want_lo),
                        msg->payload);
  }
  return Status::Ok();
}

Status RecursiveHalvingDoublingAllReduce(Communicator& comm,
                                         std::span<float> data, ReduceOp op) {
  probe::CollectiveProbe bracket(comm, CollectiveKind::kRecursiveAllReduce, data.size());
  DEAR_RETURN_IF_ERROR(RecursiveHalvingReduceScatter(comm, data, op));
  return RecursiveDoublingAllGather(comm, data);
}

Range ReduceScatterOwnedRange(Algorithm algorithm, std::size_t n, Rank rank,
                              int size, int ranks_per_node) {
  switch (algorithm) {
    case Algorithm::kRing:
    case Algorithm::kReduceScatterAllGather:
      return ChunkRange(n, static_cast<std::size_t>(size),
                        static_cast<std::size_t>(rank));
    case Algorithm::kRecursiveHalvingDoubling: {
      // The keep half of the deepest halving level (BuildHalvingPlan).
      Range own{0, n};
      for (int dist = size / 2; dist >= 1; dist /= 2) {
        const std::size_t mid = own.begin + own.size() / 2;
        if ((rank & dist) != 0)
          own.begin = mid;
        else
          own.end = mid;
      }
      return own;
    }
    case Algorithm::kHierarchical:
      if (ranks_per_node <= 0 || rank % ranks_per_node != 0) return {};
      return ChunkRange(n, static_cast<std::size_t>(size / ranks_per_node),
                        static_cast<std::size_t>(rank / ranks_per_node));
    case Algorithm::kTree:
    case Algorithm::kDoubleBinaryTree:
      break;
  }
  return {};
}

Status Barrier(Communicator& comm) {
  probe::CollectiveProbe bracket(comm, CollectiveKind::kBarrier, 0);
  const int p = comm.size();
  for (int round = 0, dist = 1; dist < p; ++round, dist <<= 1) {
    const Rank dst = (comm.rank() + dist) % p;
    const Rank src = (comm.rank() - dist + p) % p;
    const std::uint32_t tag =
        MakeTag(kTagBarrier, static_cast<std::uint32_t>(round));
    if (!comm.Send(dst, tag, {}))
      return Status::Unavailable("send failed: transport shut down");
    auto msg = comm.Recv(src, tag);
    if (!msg.ok()) return msg.status();
  }
  return Status::Ok();
}

Status RingAllReduceSegmented(Communicator& comm, std::span<float> data,
                              std::size_t segment_bytes, ReduceOp op) {
  probe::CollectiveProbe bracket(comm, CollectiveKind::kRingAllReduceSegmented, data.size());
  if (segment_bytes < sizeof(float))
    return Status::InvalidArgument("segment must hold at least one element");
  const std::size_t seg_elems = segment_bytes / sizeof(float);
  for (std::size_t off = 0; off < data.size(); off += seg_elems) {
    const std::size_t len = std::min(seg_elems, data.size() - off);
    DEAR_RETURN_IF_ERROR(RingAllReduce(comm, data.subspan(off, len), op));
  }
  return Status::Ok();
}

Status AllReduce(Communicator& comm, std::span<float> data,
                 const AllReduceOptions& options) {
  switch (options.algorithm) {
    case Algorithm::kRing:
    case Algorithm::kReduceScatterAllGather:
      return RingAllReduce(comm, data, options.op);
    case Algorithm::kTree:
      return TreeAllReduce(comm, data, options.op);
    case Algorithm::kDoubleBinaryTree:
      return DoubleBinaryTreeAllReduce(comm, data, options.op);
    case Algorithm::kHierarchical:
      return HierarchicalAllReduce(comm, data, options.ranks_per_node,
                                   options.op);
    case Algorithm::kRecursiveHalvingDoubling:
      return RecursiveHalvingDoublingAllReduce(comm, data, options.op);
  }
  return Status::InvalidArgument("unknown algorithm");
}

std::string_view AlgorithmName(Algorithm a) noexcept {
  switch (a) {
    case Algorithm::kRing: return "ring";
    case Algorithm::kReduceScatterAllGather: return "rs+ag";
    case Algorithm::kTree: return "tree";
    case Algorithm::kDoubleBinaryTree: return "double-binary-tree";
    case Algorithm::kHierarchical: return "hierarchical";
    case Algorithm::kRecursiveHalvingDoubling:
      return "recursive-halving-doubling";
  }
  return "?";
}

std::string_view ReduceOpName(ReduceOp op) noexcept {
  switch (op) {
    case ReduceOp::kSum: return "sum";
    case ReduceOp::kAvg: return "avg";
    case ReduceOp::kMax: return "max";
    case ReduceOp::kMin: return "min";
  }
  return "?";
}

}  // namespace dear::comm
