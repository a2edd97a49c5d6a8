// Blocking collective operations over a TransportHub.
//
// This is the from-scratch NCCL-equivalent the DeAR runtime sits on. All
// collectives operate in-place on a float span and must be called by every
// rank of the communicator with the same parameters (classic SPMD contract);
// a tag mismatch — i.e. ranks disagreeing on which collective runs next —
// surfaces as Status::Internal rather than a silent wrong answer.
//
// Decoupling contract (the property DeAR §III-A builds on): for every
// algorithm here,
//     AllReduce(data) == ReduceScatter(data) ; AllGather(data)
// both in result and — under the α-β cost model (cost_model.h) — in total
// communication time.
//
// Data layout convention for the decoupled pair:
//  * RingReduceScatter: on return, rank r holds the fully reduced chunk
//    ChunkRange(n, P, r) of the buffer; other positions hold partial sums
//    and must be treated as scratch.
//  * RingAllGather: expects rank r's own chunk to be valid on entry and
//    makes the whole buffer valid everywhere on return.
#pragma once

#include <span>
#include <vector>

#include "comm/communicator.h"
#include "comm/types.h"
#include "common/status.h"

namespace dear::comm {

/// Ring reduce-scatter: P-1 rounds, each moving n/P elements. Eq. 3 cost.
///
/// With a non-empty `sources` (total size == data.size()) the input is the
/// concatenation of the sources instead of `data`: round 0 packs its chunk
/// straight from them into the wire slab, and each chunk's one fold reads
/// its accumulator from them and writes the result into `data`. Same
/// per-element operations as gathering into `data` first, so the result is
/// bitwise identical; `data` is output-only then. The sources are read on
/// the calling thread and must not change until the op returns. A hub with
/// a PackHook gets the sources gathered into `data` first.
Status RingReduceScatter(Communicator& comm, std::span<float> data,
                         ReduceOp op = ReduceOp::kSum,
                         GatherList sources = {});

/// Ring all-gather: P-1 rounds, each moving n/P elements. Eq. 4 cost.
Status RingAllGather(Communicator& comm, std::span<float> data);

/// Ring all-reduce = reduce-scatter followed by all-gather. Eq. 5 cost.
/// kAvg normalization is folded into the reduce-scatter's final round
/// (bitwise identical to a separate owned-chunk scaling pass).
Status RingAllReduce(Communicator& comm, std::span<float> data,
                     ReduceOp op = ReduceOp::kSum, GatherList sources = {});

/// Binomial-tree reduce to `root`.
Status TreeReduce(Communicator& comm, std::span<float> data, Rank root,
                  ReduceOp op = ReduceOp::kSum);

/// Binomial-tree broadcast from `root`.
Status TreeBroadcast(Communicator& comm, std::span<float> data, Rank root);

/// Tree all-reduce = reduce to rank 0 + broadcast from rank 0.
Status TreeAllReduce(Communicator& comm, std::span<float> data,
                     ReduceOp op = ReduceOp::kSum);

/// Double-binary-tree all-reduce (NCCL-style, [Sanders et al. 2009] flavor):
/// the buffer is split in half; each half is reduced and broadcast along a
/// complementary tree (roots 0 and P-1), so both "trees" carry half the
/// payload. DeAR's related-work section notes this decouples into tree
/// reduce + tree broadcast.
Status DoubleBinaryTreeAllReduce(Communicator& comm, std::span<float> data,
                                 ReduceOp op = ReduceOp::kSum);

/// Hierarchical all-reduce for multi-GPU nodes: intra-node binomial reduce
/// to the node leader, ring all-reduce across leaders, intra-node broadcast.
/// `ranks_per_node` must divide comm.size().
Status HierarchicalAllReduce(Communicator& comm, std::span<float> data,
                             int ranks_per_node,
                             ReduceOp op = ReduceOp::kSum);

/// Decoupled halves of the hierarchical all-reduce (paper §VII-A): OP1 =
/// intra-node reduce to the node leader + ring reduce-scatter across
/// leaders; OP2 = ring all-gather across leaders + intra-node broadcast.
/// HierarchicalReduceScatter(x) ; HierarchicalAllGather(x) is equivalent to
/// HierarchicalAllReduce(x). Between the two calls, only node leaders hold
/// defined data (leader at ring position k owns chunk k); other ranks'
/// buffers are scratch.
Status HierarchicalReduceScatter(Communicator& comm, std::span<float> data,
                                 int ranks_per_node,
                                 ReduceOp op = ReduceOp::kSum);
Status HierarchicalAllGather(Communicator& comm, std::span<float> data,
                             int ranks_per_node);

/// Rabenseifner's algorithm [20]: reduce-scatter by recursive vector
/// halving + distance doubling, then all-gather by recursive vector
/// doubling + distance halving. log2(P) rounds each way with geometrically
/// shrinking payloads — bandwidth-optimal like the ring but with
/// logarithmic instead of linear startup. Power-of-two world sizes only;
/// returns InvalidArgument otherwise (MPICH pre-reduces odd ranks; we keep
/// the core algorithm honest and let the dispatcher fall back to the ring).
///
/// The decoupled halves follow the same ownership convention as the ring
/// pair... except ownership is the bit-reversed block assignment inherent
/// to the algorithm, so the pair must be used together.
Status RecursiveHalvingReduceScatter(Communicator& comm,
                                     std::span<float> data,
                                     ReduceOp op = ReduceOp::kSum);
Status RecursiveDoublingAllGather(Communicator& comm, std::span<float> data);
Status RecursiveHalvingDoublingAllReduce(Communicator& comm,
                                         std::span<float> data,
                                         ReduceOp op = ReduceOp::kSum);

/// The range of an n-element buffer that `rank` (of `size`) holds fully
/// reduced after the reduce-scatter half of `algorithm`, and that the
/// matching all-gather sends from without overwriting:
///  * ring: ChunkRange(n, size, rank);
///  * recursive halving: the final block of the halving plan;
///  * hierarchical: a node leader owns its leader-ring chunk; every other
///    rank owns nothing (an empty range).
/// Algorithms without a decoupled pair own nothing.
Range ReduceScatterOwnedRange(Algorithm algorithm, std::size_t n, Rank rank,
                              int size, int ranks_per_node = 1);

/// Dissemination barrier (ceil(log2 P) rounds).
Status Barrier(Communicator& comm);

/// Segmented (pipelined) ring all-reduce: the buffer is processed in
/// segments of at most `segment_bytes`, each running its own RS+AG. Larger
/// segment = fewer startups; smaller = finer interleaving (NCCL's chunking
/// knob). Equivalent result to RingAllReduce.
Status RingAllReduceSegmented(Communicator& comm, std::span<float> data,
                              std::size_t segment_bytes,
                              ReduceOp op = ReduceOp::kSum);

/// Algorithm-dispatched all-reduce.
struct AllReduceOptions {
  Algorithm algorithm{Algorithm::kRing};
  ReduceOp op{ReduceOp::kSum};
  int ranks_per_node{1};  // used by kHierarchical only
};
Status AllReduce(Communicator& comm, std::span<float> data,
                 const AllReduceOptions& options);

namespace internal {
/// Ring reduce-scatter / all-gather over an arbitrary ordered subset of
/// ranks (`members[i]` is the actual rank at ring position i). Exposed for
/// the hierarchical algorithm and its tests. Chunking is by ring position.
/// `tag_kind` is the tags::TagKind stamped into every round's message tag,
/// so concurrent uses of the ring primitive (top-level vs. leader ring)
/// stay distinguishable on the wire.
///
/// `pos` is the caller's ring position when it already knows it (rank r is
/// position r on the all-ranks ring; leader ring positions are rank/rpn);
/// -1 falls back to a linear scan of `members`. When `op` is kAvg and
/// `avg_world` > 1, the 1/avg_world normalization is folded into the final
/// reduce round (bitwise identical to a separate scaling pass over the
/// owned chunk, and one less full sweep); avg_world = 0 leaves the sum
/// un-normalized for the caller. `sources` as in RingReduceScatter.
Status RingReduceScatterOver(Communicator& comm,
                             const std::vector<Rank>& members,
                             std::span<float> data, ReduceOp op,
                             std::uint32_t tag_kind, int pos = -1,
                             int avg_world = 0, GatherList sources = {});
Status RingAllGatherOver(Communicator& comm, const std::vector<Rank>& members,
                         std::span<float> data, std::uint32_t tag_kind,
                         int pos = -1);
}  // namespace internal

}  // namespace dear::comm
