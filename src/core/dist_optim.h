// DistOptim — DeAR's public API (paper §V, Listing 1), for real execution
// on the in-process cluster.
//
// Wraps a local SGD optimizer and takes over gradient aggregation:
//
//   dear::core::DistOptim optim(comm, spec, mlp.Bindings(), options);
//   for each iteration:
//     auto out = mlp.Forward(x, b, [&](int l) { optim.PreForward(l); });
//     loss_grad = ...;
//     mlp.Backward(loss_grad, b, [&](int l) { optim.OnBackwardLayer(l); });
//     optim.Step();            // end of BackPipe; launches FeedPipe
//   optim.Synchronize();       // before evaluation (Listing 1 line 12)
//
// In kDeAR mode, Step() synchronizes the reduce-scatters (OP1) and enqueues
// the all-gathers (OP2) in feed-forward order; PreForward(l) waits only for
// the group(s) covering layer l and lazily applies that group's SGD update
// — so communication of iteration i overlaps the feed-forward of iteration
// i+1, exactly the paper's FeedPipe. The one slice of each group a rank
// holds fully reduced after OP1 (its owned slice) is updated earlier,
// inside Step() as soon as that group's OP1 lands; PreForward updates the
// rest after OP2. The reduce-scatters read the gradient tensors in place.
//
// All ranks must drive the same sequence of hook calls (they do, since
// replicas execute the same network) — this is the no-negotiation property
// DeAR's design rests on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "comm/async.h"
#include "comm/communicator.h"
#include "flightrec/journal.h"
#include "fusion/plan.h"
#include "model/model_spec.h"
#include "train/mlp.h"
#include "train/sgd.h"

namespace dear::core {

enum class ScheduleMode {
  kDeAR,        // decoupled: RS in BackPipe, AG in FeedPipe
  kWFBP,        // all-reduce per group as gradients become ready
  kSequential,  // all-reduce everything after backward completes
  /// ZeRO-1/FSDP-style sharded optimizer (paper §VII-B): after the
  /// reduce-scatter, each rank applies the SGD update only to its owned
  /// slice of the fused buffer, and the all-gather then distributes
  /// *parameters* instead of gradients — same communication volume as
  /// kDeAR, but optimizer state is touched by exactly one rank per element.
  /// Requires the ring algorithm (slice ownership is ring-chunk ownership).
  kZeRO,
};

/// Gradient compression applied to fused buffers on the wire (the paper's
/// stated future work, §VI-D). kFp16/kBf16 select a 2-byte wire dtype for
/// the gradient collectives: the transport converts on pack directly into
/// the pooled slab (one pass, no extra sweep) and sends half the bytes;
/// receivers upconvert while folding, so accumulation stays fp32. The
/// numerics match real mixed-precision all-reduce — every partial sum is
/// rounded to the wire format at each hop — so convergence effects are
/// real. kZeRO's parameter all-gather stays fp32 regardless: master weights
/// must not lose precision in flight.
enum class Compression { kNone, kFp16, kBf16 };

/// Wire dtype the gradient collectives use under `c`.
constexpr comm::DType WireDType(Compression c) noexcept {
  switch (c) {
    case Compression::kFp16:
      return comm::DType::kF16;
    case Compression::kBf16:
      return comm::DType::kBF16;
    case Compression::kNone:
      break;
  }
  return comm::DType::kF32;
}

struct DistOptimOptions {
  ScheduleMode mode{ScheduleMode::kDeAR};
  std::size_t buffer_bytes{64 * 1024};  // tensor-fusion buffer (knob x)
  /// Gradient accumulation (PyTorch-DDP's no_sync pattern): gradients from
  /// this many consecutive backward passes are summed locally; only the
  /// last micro-step's Step() communicates and updates. The caller must
  /// NOT ZeroGrad() between micro-steps.
  int accumulation_steps{1};
  Compression compression{Compression::kNone};
  /// Decoupled collective pair used by kDeAR: kRing (RS+AG) or
  /// kHierarchical (intra-node reduce + leader ring, paper §VII-A); other
  /// values are rejected. kZeRO supports kRing only.
  comm::Algorithm algorithm{comm::Algorithm::kRing};
  int ranks_per_node{1};  // for kHierarchical; must divide the world size
  /// Degrade-and-continue: a failed collective (a peer was suspected and
  /// the membership epoch tripped, unwinding every in-flight op with
  /// Unavailable) records the failure — readable via failed()/failure() —
  /// instead of aborting the process. The owner then rebuilds a DistOptim
  /// over the survivor ring (see core/elastic.h). Off by default: a failed
  /// collective in a fixed-world run is a bug, and aborting loudly is the
  /// correct response.
  bool elastic{false};
  train::SgdOptions sgd;
};

class DistOptim {
 public:
  /// `bindings` must be index-aligned with spec.tensors(). The communicator
  /// (and its hub) must outlive this object.
  DistOptim(comm::Communicator comm, model::ModelSpec spec,
            std::vector<train::ParamBinding> bindings,
            DistOptimOptions options);
  ~DistOptim();

  DistOptim(const DistOptim&) = delete;
  DistOptim& operator=(const DistOptim&) = delete;

  /// FeedPipe hook: call before layer l's forward computation.
  void PreForward(int layer);
  /// BackPipe hook: call after layer l's gradients are computed.
  void OnBackwardLayer(int layer);
  /// End-of-iteration (the paper's optim.step()): closes BackPipe, applies
  /// or schedules updates depending on mode.
  void Step();
  /// Drains all outstanding communication and applies every pending update
  /// so parameters are globally consistent (call before evaluation).
  void Synchronize();

  /// Re-buckets tensor fusion with a new buffer size. Must be called with
  /// no outstanding communication (right after Synchronize()) and with the
  /// same value on every rank.
  void SetBufferBytes(std::size_t bytes);
  [[nodiscard]] std::size_t buffer_bytes() const noexcept {
    return options_.buffer_bytes;
  }

  /// Control-plane broadcast through the comm stream (blocks until done).
  /// Every rank must call it at the same point in the schedule. Returns
  /// false when the collective failed under `elastic` (aborts otherwise).
  bool BroadcastControl(std::span<float> data, comm::Rank root);
  /// Control-plane barrier over the communicator's group — the quiescence
  /// point the elastic readmission rendezvous runs on. Same failure
  /// contract as BroadcastControl.
  bool BarrierControl();

  /// Elastic failure state: set by the first collective that unwound with
  /// an error while options.elastic is on. Once failed, every hook becomes
  /// a no-op; the owner is expected to tear this instance down and rebuild
  /// over the survivor ring.
  [[nodiscard]] bool failed() const noexcept { return failed_; }
  [[nodiscard]] const Status& failure() const noexcept { return failure_; }

  [[nodiscard]] comm::Rank rank() const noexcept { return engine_->rank(); }
  [[nodiscard]] int world_size() const noexcept { return engine_->size(); }
  [[nodiscard]] const fusion::FusionPlan& plan() const noexcept {
    return plan_;
  }

  /// Schedule counts. Where the compute thread blocked on communication —
  /// Fig. 8's "non-overlapped communication time" — is read from the
  /// journal (analysis::AttributeIterations), not kept here.
  struct Stats {
    std::int64_t steps{0};        // completed Step() calls
    std::int64_t collectives{0};  // collectives launched
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  /// Micro-step position within the current accumulation window, in
  /// [0, accumulation_steps); communication happens on the last one.
  [[nodiscard]] int micro_step() const noexcept { return micro_step_; }

 private:
  enum class GroupPhase : std::uint8_t {
    kIdle,        // nothing outstanding
    kFilling,     // some gradients ready, communication not yet launched
    kRsPending,   // reduce-scatter (or all-reduce) in flight
    kAgPending,   // all-gather in flight (kDeAR only)
  };
  struct GroupState {
    std::vector<float> buffer;
    /// The group's gradient tensors in buffer order: the gather list its
    /// OP1 (or all-reduce) reads in place.
    std::vector<std::span<const float>> sources;
    /// Buffer range this rank holds fully reduced after OP1 and that OP2
    /// sends from (comm::ReduceScatterOwnedRange). Empty outside the
    /// decoupled modes.
    Range owned;
    comm::CollectiveHandle handle;
    GroupPhase phase{GroupPhase::kIdle};
    int tensors_ready{0};
    /// Sequence number of the in-flight (or last) op, journaled with every
    /// record about it so a reader can pair a wait with its launch, and one
    /// rank's op with the same op on its peers, without counting records.
    std::uint32_t op_seq{0};
  };

  void RebuildPlan();
  /// After OP2 (or the all-reduce): kZeRO installs the gathered
  /// parameters; the other modes update every parameter outside the owned
  /// slice from the averaged gradients.
  void UnpackAndApply(int g);
  void LaunchGroup(int g);
  /// Waits on `handle`. Returns true on success; on failure, aborts — or,
  /// under options.elastic, records the failure and returns false.
  bool WaitHandle(const comm::CollectiveHandle& handle);
  /// After OP1: updates the parameters of group g's owned slice from the
  /// reduce-scattered gradients. kZeRO then writes the fresh values back
  /// into the buffer for the parameter all-gather; kDeAR first rounds the
  /// slice to the wire dtype, as the all-gather will.
  void ApplyOwnedUpdate(int g);
  /// Applies ApplyOwnedUpdate to the groups of launch_order_ from
  /// `applied` on whose OP1 already completed OK, stopping at the first
  /// that has not; returns the new count of applied groups.
  std::size_t ApplyReadyOwnedUpdates(std::size_t applied);
  /// Calls fn(t, in_tensor, lo, len) for each tensor t of group g that
  /// overlaps buffer range `r`: the overlap is buffer [lo, lo + len), which
  /// is elements [in_tensor, in_tensor + len) of tensor t.
  template <typename Fn>
  void ForEachTensorSlice(int g, Range r, Fn&& fn) const;
  /// Submits the OP2 collective (ring or hierarchical all-gather).
  comm::CollectiveHandle SubmitGather(GroupState& state);

  /// Journals group `g`'s op `kind` (kRsLaunch / kAgLaunch) under a fresh
  /// op sequence number.
  void MarkLaunched(int g, flightrec::EventKind kind);
  /// Waits on group `g`'s in-flight op. The wait is bracketed in the
  /// journal by kWaitBegin and the op's kRsComplete / kAgComplete — the
  /// records the attribution report (analysis/timeline.h) splits the
  /// compute thread's blocked time from. Returns WaitHandle's verdict (no
  /// completion record on failure).
  bool AwaitGroup(int g);
  /// Journals the kStepEnd iteration boundary.
  void ObserveStepEnd();

  model::ModelSpec spec_;
  std::vector<train::ParamBinding> bindings_;
  DistOptimOptions options_;
  std::unique_ptr<comm::CommEngine> engine_;
  std::unique_ptr<train::Sgd> sgd_;
  fusion::FusionPlan plan_;
  std::vector<GroupState> groups_;
  /// Groups whose OP1 is in flight, in launch (= completion) order.
  std::vector<int> launch_order_;
  Stats stats_;
  bool failed_{false};
  Status failure_;
  int micro_step_{0};
  std::uint32_t next_op_seq_{0};  // op_seq of the next launched op
};

}  // namespace dear::core
