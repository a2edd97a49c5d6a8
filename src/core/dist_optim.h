// DistOptim — DeAR's public API (paper §V, Listing 1), for real execution
// on the in-process cluster. It wraps a local SGD optimizer and takes over
// gradient aggregation through four hooks; core::RunIteration (trainer.h)
// drives them for one iteration:
//
//   dear::core::DistOptim optim(comm, spec, mlp.Bindings(), options);
//   for each iteration:
//     auto out = mlp.Forward(x, b, [&](int l) { optim.PreForward(l); });
//     loss_grad = ...;
//     mlp.Backward(loss_grad, b, [&](int l) { optim.OnBackwardLayer(l); });
//     optim.Step();
//   optim.Synchronize();       // before evaluation (Listing 1 line 12)
//
// The hooks run the rows of sched::ScheduleTable for options.mode, the rows
// the simulator prices: OnBackwardLayer(l) launches the rows triggered by
// BP_l; Step() completes every row BP launched, updates each group's owned
// slice and launches the rows after the OP1 sync; PreForward(l) waits for
// the rows gating FF_l and applies their groups' updates. All ranks drive
// the same hooks, so they need no negotiation (§III-B).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "comm/async.h"
#include "comm/communicator.h"
#include "common/status.h"
#include "flightrec/journal.h"
#include "fusion/plan.h"
#include "model/model_spec.h"
#include "sched/schedule.h"
#include "train/mlp.h"
#include "train/sgd.h"

namespace dear::core {

/// Exists only so the repository benchmark (perfbench/), which still
/// spells the old runtime enum's name, keeps building; everything else
/// names sched::PolicyKind.
using ScheduleMode = sched::PolicyKind;

/// Gradient compression applied to fused buffers on the wire (the paper's
/// stated future work, §VI-D). kFp16/kBf16 select a 2-byte wire dtype for
/// the gradient collectives: the transport converts on pack directly into
/// the pooled slab (one pass, no extra sweep) and sends half the bytes;
/// receivers upconvert while folding, so accumulation stays fp32. The
/// numerics match real mixed-precision all-reduce — every partial sum is
/// rounded to the wire format at each hop — so convergence effects are
/// real. kZeRO1's parameter all-gather stays fp32 regardless: master weights
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
  /// The schedule table to run: kSequential, kDDP, kDeAR or kZeRO1.
  sched::PolicyKind mode{sched::PolicyKind::kDeAR};
  std::size_t buffer_bytes{64 * 1024};  // tensor-fusion buffer (knob x)
  /// Gradient accumulation (PyTorch-DDP's no_sync pattern): gradients from
  /// this many consecutive backward passes are summed locally; only the
  /// last micro-step's Step() communicates and updates. The caller must
  /// NOT ZeroGrad() between micro-steps.
  int accumulation_steps{1};
  Compression compression{Compression::kNone};
  /// Decoupled collective pair used by kDeAR: kRing (RS+AG),
  /// kHierarchical (intra-node reduce + leader ring, paper §VII-A) or
  /// kRecursiveHalvingDoubling; other values are rejected. kZeRO1 supports
  /// kRing only.
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

/// Why a DistOptim over `world` ranks cannot run `options`
/// (InvalidArgument), or OK: a kind the runtime does not execute, kZeRO1
/// or elastic training over a non-ring algorithm, a ranks_per_node that
/// does not divide the world (hierarchical), recursive halving-doubling at
/// a world that is not a power of two, or accumulation_steps < 1.
/// DistOptim's constructor CHECKs it; entry points call it first.
Status ValidateOptions(const DistOptimOptions& options, int world);

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
  /// End-of-iteration (the paper's optim.step()): closes BackPipe and
  /// launches the rows that follow it.
  void Step();
  /// Drains all outstanding communication and applies every pending update
  /// so parameters are globally consistent (call before evaluation).
  void Synchronize();

  /// Re-buckets tensor fusion with a new buffer size. Must be called with
  /// no outstanding communication (right after Synchronize()) and with the
  /// same value on every rank. Rejects (InvalidArgument, plan unchanged) a
  /// zero size and kZeRO1 with momentum: re-bucketing moves slice
  /// ownership, which would orphan the sharded momentum state.
  Status SetBufferBytes(std::size_t bytes);
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
    kIdle,      // nothing outstanding
    kFilling,   // some gradients ready, communication not yet launched
    kInFlight,  // row GroupState::row in flight (or landed, not consumed)
  };
  struct GroupState {
    std::vector<float> buffer;
    /// The group's gradient tensors in buffer order: the gather list its
    /// reduce-scatter (or all-reduce) reads in place.
    std::vector<std::span<const float>> sources;
    /// Range this rank holds reduced after the reduce-scatter and the
    /// all-gather sends (comm::ReduceScatterOwnedRange); empty otherwise.
    Range owned;
    comm::CollectiveHandle handle;
    GroupPhase phase{GroupPhase::kIdle};
    int tensors_ready{0};
    int row{-1};         // table row of the in-flight (or last) op
    int gather_row{-1};  // the row that all-gathers this group, if any
    /// Sequence number of the in-flight (or last) op, journaled with every
    /// record about it (pairs a wait with its launch, and ranks' ops).
    std::uint32_t op_seq{0};
  };

  /// Rebuilds the fusion plan, the table and the per-hook row lists.
  void RebuildPlan();
  /// Step()'s work: completes the rows BP launched, updates the owned
  /// slices, launches the rows after the OP1 sync. False on an elastic
  /// failure.
  bool CompleteBackPipe();
  [[nodiscard]] const sched::ScheduleRow& Row(int r) const {
    return table_.rows()[static_cast<std::size_t>(r)];
  }
  /// Submits row r's collective and journals its launch.
  void Launch(int r);
  /// After the all-gather (or all-reduce): installs gathered parameters,
  /// or updates everything outside the owned slice from the gradients.
  void UnpackAndApply(int g);
  /// Waits on `handle`. Returns true on success; on failure, aborts — or,
  /// under options.elastic, records the failure and returns false.
  bool WaitHandle(const comm::CollectiveHandle& handle);
  /// After the reduce-scatter: updates group g's owned slice (written
  /// back for a parameter all-gather; rounded to the wire dtype first for
  /// a gradient one, as it will be).
  void ApplyOwnedUpdate(int g);
  /// Calls fn(t, in_tensor, lo, len) for each tensor t of group g that
  /// overlaps buffer range `r`: the overlap is buffer [lo, lo + len), which
  /// is elements [in_tensor, in_tensor + len) of tensor t.
  template <typename Fn>
  void ForEachTensorSlice(int g, Range r, Fn&& fn) const;
  /// Journals a group record of group g's current row.
  void Journal(int g, flightrec::EventKind kind);
  /// Waits on group g's in-flight op, bracketed in the journal by
  /// kWaitBegin and kRsComplete / kAgComplete (the attribution report's
  /// blocked time). Returns WaitHandle's verdict.
  bool AwaitGroup(int g);

  model::ModelSpec spec_;
  std::vector<train::ParamBinding> bindings_;
  DistOptimOptions options_;
  std::unique_ptr<comm::CommEngine> engine_;
  std::unique_ptr<train::Sgd> sgd_;
  fusion::FusionPlan plan_;
  sched::ScheduleTable table_;
  /// Rows by hook, in row order: launched after BP_l, waited before FF_l.
  std::vector<std::vector<int>> launch_at_, gate_at_;
  std::vector<GroupState> groups_;
  std::vector<int> launch_order_;  // reduce-scatters in flight, in order
  Stats stats_;
  bool failed_{false};
  Status failure_;
  int micro_step_{0};
  std::uint32_t next_op_seq_{0};  // op_seq of the next launched op
};

}  // namespace dear::core
