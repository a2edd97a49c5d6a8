#include "core/dist_optim.h"

#include <algorithm>

#include "comm/kernels.h"
#include "comm/probe.h"
#include "common/math_util.h"
#include "common/logging.h"

namespace dear::core {

// Schedule events go through comm::probe::Group: one journal record each
// (the attribution report and the Chrome trace read them back), plus the
// dearcheck group state machine that verifies the BackPipe/FeedPipe
// ordering contract per (rank, group). DistOptim keeps no clock of its
// own: waits and iteration times are differences of the stamps those
// records carry, read back by analysis::AttributeIterations.
using flightrec::EventKind;

Status ValidateOptions(const DistOptimOptions& options, int world) {
  using comm::Algorithm;
  using sched::PolicyKind;
  const Algorithm algorithm = options.algorithm;
  const PolicyKind kind = options.mode;
  std::string why;
  if (kind != PolicyKind::kSequential && kind != PolicyKind::kDDP &&
      kind != PolicyKind::kDeAR && kind != PolicyKind::kZeRO1) {
    why = "schedule: the runtime executes sequential, ddp, dear and zero1, "
          "not " + sched::PolicyName(kind);
  } else if (algorithm != Algorithm::kRing &&
             algorithm != Algorithm::kHierarchical &&
             algorithm != Algorithm::kRecursiveHalvingDoubling) {
    why = "algorithm: DistOptim decouples ring, hierarchical or recursive "
          "halving-doubling only";
  } else if (algorithm != Algorithm::kRing && kind == PolicyKind::kZeRO1) {
    why = "algorithm: zero1 requires ring chunk ownership";
  } else if (algorithm != Algorithm::kRing && options.elastic) {
    why = "algorithm: elastic training re-forms over any survivor count, "
          "which only the ring supports";
  } else if (algorithm == Algorithm::kHierarchical &&
             (options.ranks_per_node <= 0 ||
              world % options.ranks_per_node != 0)) {
    why = "ranks_per_node: " + std::to_string(options.ranks_per_node) +
          " does not divide the world size " + std::to_string(world);
  } else if (algorithm == Algorithm::kRecursiveHalvingDoubling &&
             (world & (world - 1)) != 0) {
    why = "algorithm: recursive halving-doubling needs a power-of-two "
          "world, not " + std::to_string(world);
  } else if (options.accumulation_steps < 1) {
    why = "accumulation_steps must be at least 1";
  }
  return why.empty() ? Status::Ok() : Status::InvalidArgument(why);
}

// SetBufferBytes' rejections.
static Status ValidateRebucket(const DistOptimOptions& options,
                               std::size_t bytes) {
  if (bytes == 0) return Status::InvalidArgument("buffer size must be > 0");
  if (options.mode == sched::PolicyKind::kZeRO1 && options.sgd.momentum != 0)
    return Status::InvalidArgument(
        "zero1 with momentum: re-bucketing moves slice ownership, which "
        "would orphan sharded momentum state");
  return Status::Ok();
}

DistOptim::DistOptim(comm::Communicator comm, model::ModelSpec spec,
                     std::vector<train::ParamBinding> bindings,
                     DistOptimOptions options)
    : spec_(std::move(spec)),
      bindings_(std::move(bindings)),
      options_(options),
      engine_(std::make_unique<comm::CommEngine>(comm)) {
  DEAR_CHECK_MSG(
      static_cast<int>(bindings_.size()) == spec_.num_tensors(),
      "bindings must be index-aligned with the model spec's tensors");
  for (int t = 0; t < spec_.num_tensors(); ++t) {
    DEAR_CHECK_MSG(bindings_[static_cast<std::size_t>(t)].values.size() ==
                           spec_.tensor(t).elems &&
                       bindings_[static_cast<std::size_t>(t)].grads.size() ==
                           spec_.tensor(t).elems,
                   "binding size mismatch for tensor " + std::to_string(t));
  }
  const Status valid = ValidateOptions(options_, engine_->size());
  DEAR_CHECK_MSG(valid.ok(), valid.ToString());
  std::vector<std::size_t> sizes;
  sizes.reserve(bindings_.size());
  for (const auto& b : bindings_) sizes.push_back(b.values.size());
  sgd_ = std::make_unique<train::Sgd>(sizes, options_.sgd);
  RebuildPlan();
}

DistOptim::~DistOptim() { engine_->Shutdown(); }

void DistOptim::RebuildPlan() {
  plan_ = fusion::ByBufferBytes(spec_, options_.buffer_bytes);
  table_.Build(options_.mode, spec_, plan_, /*op1_barrier=*/true,
               /*partition_bytes=*/0);
  groups_.clear();
  groups_.resize(static_cast<std::size_t>(plan_.num_groups()));
  launch_order_.clear();
  launch_order_.reserve(groups_.size());
  for (int g = 0; g < plan_.num_groups(); ++g) {
    GroupState& state = groups_[static_cast<std::size_t>(g)];
    state.buffer.assign(plan_.group(g).bytes / model::kBytesPerElement, 0.0f);
    for (int t : plan_.group(g).tensors)
      state.sources.emplace_back(bindings_[static_cast<std::size_t>(t)].grads);
  }
  const auto layers = static_cast<std::size_t>(spec_.num_layers());
  launch_at_.assign(layers, {});
  gate_at_.assign(layers, {});
  for (int r = 0; r < static_cast<int>(table_.rows().size()); ++r) {
    const sched::ScheduleRow& row = Row(r);
    if (row.after_layer >= 0)
      launch_at_[static_cast<std::size_t>(row.after_layer)].push_back(r);
    DEAR_CHECK_MSG(!row.gate_backward, "DistOptim has no pre-backward hook");
    for (int l = row.gate_first; l <= row.gate_last; ++l)
      gate_at_[static_cast<std::size_t>(l)].push_back(r);
    if (row.group < 0) continue;
    GroupState& state = groups_[static_cast<std::size_t>(row.group)];
    if (row.op == sched::RowOp::kReduceScatter) {
      state.owned = comm::ReduceScatterOwnedRange(
          options_.algorithm, state.buffer.size(), engine_->rank(),
          engine_->size(), options_.ranks_per_node);
    } else if (row.op != sched::RowOp::kAllReduce) {
      state.gather_row = r;
    }
  }
}

template <typename Fn>
void DistOptim::ForEachTensorSlice(int g, Range r, Fn&& fn) const {
  std::size_t tensor_start = 0;
  for (int t : plan_.group(g).tensors) {
    if (tensor_start >= r.end) return;
    const std::size_t tensor_end =
        tensor_start + bindings_[static_cast<std::size_t>(t)].values.size();
    const std::size_t lo = std::max(r.begin, tensor_start);
    const std::size_t hi = std::min(r.end, tensor_end);
    if (lo < hi) fn(t, lo - tensor_start, lo, hi - lo);
    tensor_start = tensor_end;
  }
}

void DistOptim::Journal(int g, EventKind kind) {
  const GroupState& state = groups_[static_cast<std::size_t>(g)];
  comm::probe::Group(engine_->global_rank(), g, kind, state.op_seq,
                     state.row);
}

bool DistOptim::WaitHandle(const comm::CollectiveHandle& handle) {
  const Status st = handle.Wait();
  if (st.ok()) return true;
  if (options_.elastic) {
    // Degrade-and-continue: a suspected peer tripped the membership epoch
    // and this op unwound. Record the first failure; the owner rebuilds
    // over the survivor ring (core/elastic.h).
    if (!failed_) {
      failed_ = true;
      failure_ = st;
    }
    return false;
  }
  DEAR_CHECK_MSG(st.ok(), "collective failed: " + st.ToString());
  return false;
}

bool DistOptim::AwaitGroup(int g) {
  GroupState& state = groups_[static_cast<std::size_t>(g)];
  Journal(g, EventKind::kWaitBegin);
  if (!WaitHandle(state.handle)) return false;
  Journal(g, sched::IsGather(Row(state.row).op) ? EventKind::kAgComplete
                                                : EventKind::kRsComplete);
  return true;
}

void DistOptim::UnpackAndApply(int g) {
  GroupState& state = groups_[static_cast<std::size_t>(g)];
  const std::span<float> buffer(state.buffer);
  if (Row(state.row).op == sched::RowOp::kParamAllGather) {
    // The buffer holds freshly gathered PARAMETERS (owners already applied
    // the sharded update); install them.
    ForEachTensorSlice(g, Range{0, buffer.size()},
                       [&](int t, std::size_t in_tensor, std::size_t lo,
                           std::size_t len) {
                         const auto src = buffer.subspan(lo, len);
                         std::copy(src.begin(), src.end(),
                                   bindings_[static_cast<std::size_t>(t)]
                                           .values.begin() +
                                       static_cast<std::ptrdiff_t>(in_tensor));
                       });
  } else {
    // Apply the SGD update straight from the fused gradient buffer, to
    // everything but the owned slice (ApplyOwnedUpdate did that after
    // OP1). Elementwise, so splitting a tensor's update is bitwise the
    // same as one pass. Deliberately does NOT write back into
    // binding.grads: under FeedPipe this runs after the next iteration's
    // ZeroGrad(), and autograd-style accumulation must not see stale
    // averaged gradients.
    const auto step = [&](int t, std::size_t in_tensor, std::size_t lo,
                          std::size_t len) {
      sgd_->StepSlice(
          t, in_tensor,
          bindings_[static_cast<std::size_t>(t)].values.subspan(in_tensor, len),
          buffer.subspan(lo, len));
    };
    ForEachTensorSlice(g, Range{0, state.owned.begin}, step);
    ForEachTensorSlice(g, Range{state.owned.end, buffer.size()}, step);
  }
  state.phase = GroupPhase::kIdle;
  state.tensors_ready = 0;
  Journal(g, EventKind::kUnpack);
}

void DistOptim::ApplyOwnedUpdate(int g) {
  GroupState& state = groups_[static_cast<std::size_t>(g)];
  const std::span<float> buffer(state.buffer);
  const bool zero = Row(state.gather_row).op == sched::RowOp::kParamAllGather;
  // A gradient all-gather rounds the owned slice to the wire dtype and
  // sends that, so every peer applies the rounded gradient; apply the same.
  // Rounding is idempotent, so its own pass then changes nothing. (A
  // parameter all-gather sends at fp32; a one-rank all-gather sends
  // nothing and rounds nothing.)
  if (!zero && engine_->size() > 1) {
    comm::kernels::QuantizeInPlace(
        WireDType(options_.compression),
        buffer.subspan(state.owned.begin, state.owned.size()));
  }
  ForEachTensorSlice(
      g, state.owned,
      [&](int t, std::size_t in_tensor, std::size_t lo, std::size_t len) {
        const std::span<float> values =
            bindings_[static_cast<std::size_t>(t)].values.subspan(in_tensor,
                                                                  len);
        sgd_->StepSlice(t, in_tensor, values, buffer.subspan(lo, len));
        // The parameter all-gather distributes the fresh values.
        if (zero)
          std::copy(values.begin(), values.end(),
                    buffer.begin() + static_cast<std::ptrdiff_t>(lo));
      });
}

void DistOptim::Launch(int r) {
  using comm::Algorithm;
  constexpr auto kAvg = comm::ReduceOp::kAvg;
  const sched::ScheduleRow& row = Row(r);
  const int g = row.group;
  GroupState& state = groups_[static_cast<std::size_t>(g)];
  ++stats_.collectives;
  // No pack pass: gradient ops read the gradient tensors in place (a
  // gather list) and write their result into the fused buffer; the
  // transport's convert-on-pack narrows each payload to the wire dtype in
  // the pass that writes its slab. Parameter all-gathers stay fp32.
  const std::span<float> buffer(state.buffer);
  const comm::GatherList sources(state.sources);
  const comm::DType wire = row.op == sched::RowOp::kParamAllGather
                               ? comm::DType::kF32
                               : WireDType(options_.compression);
  const Algorithm algo = options_.algorithm;
  const int rpn = options_.ranks_per_node;
  const bool gather = sched::IsGather(row.op);
  DEAR_CHECK_MSG(gather || state.tensors_ready == static_cast<int>(
                                  plan_.group(g).tensors.size()),
                 "group launched before its gradients were ready");
  if (row.op == sched::RowOp::kAllReduce) {
    state.handle = engine_->SubmitAllReduce(buffer, kAvg, wire, sources);
  } else if (row.op == sched::RowOp::kReduceScatter) {
    state.handle =
        algo == Algorithm::kHierarchical
            ? engine_->SubmitHierarchicalReduceScatter(buffer, rpn, kAvg, wire,
                                                       sources)
        : algo == Algorithm::kRecursiveHalvingDoubling
            ? engine_->SubmitRecursiveHalvingReduceScatter(buffer, kAvg, wire,
                                                           sources)
            : engine_->SubmitReduceScatter(buffer, kAvg, wire, sources);
    launch_order_.push_back(g);
  } else {
    DEAR_CHECK_MSG(gather, "the OP1 sync is not a collective");
    state.handle =
        algo == Algorithm::kHierarchical
            ? engine_->SubmitHierarchicalAllGather(buffer, rpn, wire)
        : algo == Algorithm::kRecursiveHalvingDoubling
            ? engine_->SubmitRecursiveDoublingAllGather(buffer, wire)
            : engine_->SubmitAllGather(buffer, wire);
  }
  state.phase = GroupPhase::kInFlight;
  state.row = r;
  state.op_seq = next_op_seq_++;
  Journal(g, gather ? EventKind::kAgLaunch : EventKind::kRsLaunch);
}

void DistOptim::OnBackwardLayer(int layer) {
  DEAR_CHECK(layer >= 0 && layer < spec_.num_layers());
  if (failed_) return;  // elastic: owner tears down and rebuilds
  // Mid-accumulation micro-steps only accumulate into binding.grads;
  // communication waits for the window's final backward pass.
  if (micro_step_ + 1 < options_.accumulation_steps) return;
  const auto& layer_spec = spec_.layer(layer);
  for (int t = layer_spec.first_tensor;
       t < layer_spec.first_tensor + layer_spec.num_tensors; ++t) {
    GroupState& state =
        groups_[static_cast<std::size_t>(plan_.group_of_tensor(t))];
    DEAR_CHECK_MSG(state.phase != GroupPhase::kInFlight,
                   "gradient became ready while its group was in flight — "
                   "missing Synchronize()?");
    state.phase = GroupPhase::kFilling;
    ++state.tensors_ready;
  }
  for (int r : launch_at_[static_cast<std::size_t>(layer)]) Launch(r);
}

void DistOptim::Step() {
  if (failed_) return;  // elastic: owner tears down and rebuilds
  if (micro_step_ + 1 < options_.accumulation_steps) {
    ++micro_step_;
    return;  // accumulation continues; no communication, no update
  }
  micro_step_ = 0;
  ++stats_.steps;
  // Consecutive kStepEnd records bound the iteration windows the
  // attribution report decomposes.
  if (CompleteBackPipe())
    comm::probe::Group(engine_->global_rank(), /*group=*/0,
                       EventKind::kStepEnd,
                       static_cast<std::uint32_t>(stats_.steps));
}

bool DistOptim::CompleteBackPipe() {
  // The rows BP launched read the gradient tensors in place and the next
  // iteration's ZeroGrad() overwrites them, so complete every one, in row
  // order: the OP1 sync (paper §III-B), or the all-reduces' FF_0 gate,
  // which follows Step() at once. Each group's owned slice is updated in
  // launch order as soon as its reduce-scatter has landed, so the update
  // runs while later ones are still on the wire.
  const int rows = static_cast<int>(table_.rows().size());
  std::size_t applied = 0;
  for (int r = 0; r < rows; ++r) {
    if (Row(r).after_layer < 0) continue;
    const int g = Row(r).group;
    const GroupState& state = groups_[static_cast<std::size_t>(g)];
    DEAR_CHECK_MSG(state.phase == GroupPhase::kInFlight && state.row == r,
                   "Step() before backward completed");
    // Owned slices whose reduce-scatter landed OK, in launch order (a
    // failed one updates nothing; AwaitGroup reports it).
    for (Status st; applied < launch_order_.size(); ++applied) {
      const int done = launch_order_[applied];
      if (!groups_[static_cast<std::size_t>(done)].handle.Ready(&st) ||
          !st.ok())
        break;
      ApplyOwnedUpdate(done);
    }
    if (!AwaitGroup(g)) return false;
  }
  for (; applied < launch_order_.size(); ++applied)
    ApplyOwnedUpdate(launch_order_[applied]);
  launch_order_.clear();
  for (int r = 0; r < rows; ++r)
    if (Row(r).op == sched::RowOp::kAllReduce) UnpackAndApply(Row(r).group);
  // The all-gathers, in row (= feed-forward) order; the next iteration's
  // PreForward consumes them group by group (FeedPipe).
  for (int r = 0; r < rows; ++r)
    if (Row(r).after_row >= 0) Launch(r);
  return true;
}

void DistOptim::PreForward(int layer) {
  DEAR_CHECK(layer >= 0 && layer < spec_.num_layers());
  if (failed_) return;  // elastic: owner tears down and rebuilds
  for (int r : gate_at_[static_cast<std::size_t>(layer)]) {
    const int g = Row(r).group;
    const GroupState& state = groups_[static_cast<std::size_t>(g)];
    // Not in flight: the first iteration, or consumed at an earlier gate.
    if (state.phase != GroupPhase::kInFlight || state.row != r) continue;
    if (!AwaitGroup(g)) return;
    UnpackAndApply(g);
  }
}

void DistOptim::Synchronize() {
  if (failed_) return;  // elastic: owner tears down and rebuilds
  // Backward finished but Step() not called yet: finish BackPipe first.
  bool backpipe_open = false;
  for (const GroupState& st : groups_) {
    DEAR_CHECK_MSG(st.phase != GroupPhase::kFilling,
                   "Synchronize() mid-backward: a group is partially filled");
    backpipe_open |= st.phase == GroupPhase::kInFlight &&
                     Row(st.row).after_layer >= 0;
  }
  if (backpipe_open && !CompleteBackPipe()) return;
  for (int g = 0; g < plan_.num_groups(); ++g) {
    if (groups_[static_cast<std::size_t>(g)].phase != GroupPhase::kInFlight)
      continue;
    if (!AwaitGroup(g)) return;
    UnpackAndApply(g);
  }
}

Status DistOptim::SetBufferBytes(std::size_t bytes) {
  if (Status st = ValidateRebucket(options_, bytes); !st.ok()) return st;
  for (const auto& state : groups_)
    DEAR_CHECK_MSG(state.phase == GroupPhase::kIdle,
                   "SetBufferBytes with outstanding communication");
  options_.buffer_bytes = bytes;
  RebuildPlan();
  return Status::Ok();
}

bool DistOptim::BroadcastControl(std::span<float> data, comm::Rank root) {
  if (failed_) return false;
  return WaitHandle(engine_->SubmitBroadcast(data, root));
}

bool DistOptim::BarrierControl() {
  if (failed_) return false;
  return WaitHandle(engine_->SubmitBarrier());
}

}  // namespace dear::core
