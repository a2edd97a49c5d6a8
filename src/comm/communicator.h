// Per-rank handle used by collectives — the moral equivalent of an
// ncclComm_t bound to one device.
//
// A Communicator is either the full-hub view (every physical rank, the
// default) or a *group* view over a sorted subset of physical ranks — the
// survivor ring after an elastic membership transition. Collectives are
// written against logical coordinates (rank()/size()/ring neighbors), so
// re-forming the ring over survivors is just constructing a group view at
// the new epoch: the ring math, chunk ownership, and kAvg normalization
// (which divides by size() — the live-rank count) all follow without any
// change to the algorithms. Physical identity (global_rank()) is what the
// transport, checker and flight recorder see.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "comm/transport.h"
#include "comm/types.h"
#include "common/status.h"

namespace dear::comm {

class Communicator {
 public:
  Communicator(TransportHub* hub, Rank rank)
      : hub_(hub),
        rank_(rank),
        global_rank_(rank),
        size_(hub->size()),
        // Full-ring neighbors, precomputed once: the ring collectives call
        // these every round, and the old per-call PositionOf scan was O(P)
        // per collective for what is a constant of the communicator.
        ring_left_((rank + hub->size() - 1) % hub->size()),
        ring_right_((rank + 1) % hub->size()) {}

  /// Group view: `group` is the sorted physical live set (shared so the
  /// by-value copies the engine takes stay cheap), `global_rank` a member
  /// of it, `epoch` the membership epoch every message will carry. The
  /// logical rank is the group position.
  Communicator(TransportHub* hub, Rank global_rank,
               std::shared_ptr<const std::vector<Rank>> group,
               std::uint32_t epoch)
      : hub_(hub),
        global_rank_(global_rank),
        size_(static_cast<int>(group->size())),
        epoch_(epoch),
        group_(std::move(group)) {
    const auto it =
        std::lower_bound(group_->begin(), group_->end(), global_rank);
    rank_ = static_cast<Rank>(it - group_->begin());
    ring_left_ = (rank_ + size_ - 1) % size_;
    ring_right_ = (rank_ + 1) % size_;
  }

  /// Logical rank / size: position on the (possibly shrunken) ring.
  [[nodiscard]] Rank rank() const noexcept { return rank_; }
  [[nodiscard]] int size() const noexcept { return size_; }
  /// Physical rank on the hub — the identity every cross-cutting observer
  /// (dearcheck, flightrec) keys on.
  [[nodiscard]] Rank global_rank() const noexcept { return global_rank_; }
  [[nodiscard]] std::uint32_t epoch() const noexcept { return epoch_; }

  /// Neighbors on the group ring (logical rank r sits at ring position r).
  [[nodiscard]] Rank ring_left() const noexcept { return ring_left_; }
  [[nodiscard]] Rank ring_right() const noexcept { return ring_right_; }

  /// Physical rank backing logical rank `r`.
  [[nodiscard]] Rank Physical(Rank r) const noexcept {
    return group_ ? (*group_)[static_cast<std::size_t>(r)] : r;
  }

  /// Wire dtype every subsequent Send converts payloads to (kF32 default
  /// = bitwise-identical fp32 wire). Collectives run against whatever is
  /// set, so one Communicator can carry fp32 control traffic and fp16
  /// gradient traffic back to back; CommEngine sets this per submitted
  /// request on its own thread. All ranks of a collective must agree.
  void set_wire_dtype(DType dtype) noexcept { wire_dtype_ = dtype; }
  [[nodiscard]] DType wire_dtype() const noexcept { return wire_dtype_; }

  /// Point-to-point send of a float span to logical rank `dst`. The payload
  /// is written once into a pooled slab (no per-message vector allocation;
  /// see buffer_pool.h), converting to wire_dtype() in the same pass.
  bool Send(Rank dst, std::uint32_t tag, std::span<const float> data) {
    return hub_->Send(global_rank_, Physical(dst), tag, data, epoch_,
                      wire_dtype_);
  }

  /// Sends elements `range` of the concatenation of `pieces` (see
  /// TransportHub's gather-list Send).
  bool Send(Rank dst, std::uint32_t tag, GatherList pieces, Range range) {
    return hub_->Send(global_rank_, Physical(dst), tag, pieces, range,
                      epoch_, wire_dtype_);
  }

  /// Blocking receive from logical rank `src` with tag verification.
  StatusOr<Message> Recv(Rank src, std::uint32_t tag) {
    return hub_->Recv(Physical(src), global_rank_, tag, epoch_);
  }

  [[nodiscard]] TransportHub* hub() const noexcept { return hub_; }

 private:
  TransportHub* hub_;
  Rank rank_;
  Rank global_rank_;
  int size_;
  std::uint32_t epoch_{0};
  DType wire_dtype_{DType::kF32};
  std::shared_ptr<const std::vector<Rank>> group_;  // null = identity view
  Rank ring_left_{0};
  Rank ring_right_{0};
};

}  // namespace dear::comm
