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
  DEAR_CHECK_MSG(
      options_.algorithm == comm::Algorithm::kRing ||
          options_.algorithm == comm::Algorithm::kHierarchical ||
          options_.algorithm == comm::Algorithm::kRecursiveHalvingDoubling,
      "DistOptim supports ring, hierarchical, or recursive-halving "
      "decoupling");
  if (options_.algorithm != comm::Algorithm::kRing) {
    DEAR_CHECK_MSG(options_.mode != ScheduleMode::kZeRO,
                   "kZeRO requires ring chunk ownership");
  }
  if (options_.algorithm == comm::Algorithm::kHierarchical) {
    DEAR_CHECK_MSG(options_.ranks_per_node > 0 &&
                       engine_->size() % options_.ranks_per_node == 0,
                   "ranks_per_node must divide the world size");
  }
  if (options_.algorithm == comm::Algorithm::kRecursiveHalvingDoubling) {
    const int p = engine_->size();
    DEAR_CHECK_MSG((p & (p - 1)) == 0,
                   "recursive halving-doubling needs a power-of-two world");
  }
  DEAR_CHECK_MSG(options_.accumulation_steps >= 1,
                 "accumulation_steps must be at least 1");
  std::vector<std::size_t> sizes;
  sizes.reserve(bindings_.size());
  for (const auto& b : bindings_) sizes.push_back(b.values.size());
  sgd_ = std::make_unique<train::Sgd>(sizes, options_.sgd);
  RebuildPlan();
}

DistOptim::~DistOptim() { engine_->Shutdown(); }

void DistOptim::RebuildPlan() {
  plan_ = fusion::ByBufferBytes(spec_, options_.buffer_bytes);
  groups_.clear();
  groups_.resize(static_cast<std::size_t>(plan_.num_groups()));
  launch_order_.clear();
  launch_order_.reserve(groups_.size());
  const bool decoupled = options_.mode == ScheduleMode::kDeAR ||
                         options_.mode == ScheduleMode::kZeRO;
  for (int g = 0; g < plan_.num_groups(); ++g) {
    GroupState& state = groups_[static_cast<std::size_t>(g)];
    state.buffer.assign(plan_.group(g).bytes / model::kBytesPerElement, 0.0f);
    for (int t : plan_.group(g).tensors)
      state.sources.emplace_back(bindings_[static_cast<std::size_t>(t)].grads);
    if (decoupled) {
      state.owned = comm::ReduceScatterOwnedRange(
          options_.algorithm, state.buffer.size(), engine_->rank(),
          engine_->size(), options_.ranks_per_node);
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

void DistOptim::MarkLaunched(int g, EventKind kind) {
  GroupState& state = groups_[static_cast<std::size_t>(g)];
  state.op_seq = next_op_seq_++;
  comm::probe::Group(engine_->global_rank(), g, kind, state.op_seq);
}

void DistOptim::ObserveStepEnd() {
  // Consecutive kStepEnd records bound the iteration windows the
  // attribution report decomposes.
  comm::probe::Group(engine_->global_rank(), /*group=*/0, EventKind::kStepEnd,
                     static_cast<std::uint32_t>(stats_.steps));
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
  const int rank = engine_->global_rank();
  // Call sites flip state.phase only after completion, so it still names
  // the op being waited on: OP2 of the decoupled pair, or OP1 / a fused
  // all-reduce (WFBP/sequential paths).
  const bool ag = state.phase == GroupPhase::kAgPending;
  comm::probe::Group(rank, g, EventKind::kWaitBegin, state.op_seq);
  if (!WaitHandle(state.handle)) return false;
  comm::probe::Group(rank, g,
                     ag ? EventKind::kAgComplete : EventKind::kRsComplete,
                     state.op_seq);
  return true;
}

void DistOptim::UnpackAndApply(int g) {
  GroupState& state = groups_[static_cast<std::size_t>(g)];
  const std::span<float> buffer(state.buffer);
  if (options_.mode == ScheduleMode::kZeRO) {
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
  comm::probe::Group(engine_->global_rank(), g, EventKind::kUnpack,
                     state.op_seq);
}

void DistOptim::ApplyOwnedUpdate(int g) {
  GroupState& state = groups_[static_cast<std::size_t>(g)];
  const std::span<float> buffer(state.buffer);
  const bool zero = options_.mode == ScheduleMode::kZeRO;
  // kDeAR: OP2 rounds the owned slice to the wire dtype and sends that, so
  // every peer applies the rounded gradient; apply the same. Rounding is
  // idempotent, so OP2's own pass then changes nothing. (kZeRO's OP2 sends
  // parameters at fp32; a one-rank OP2 sends nothing and rounds nothing.)
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
        // kZeRO: OP2 distributes the fresh parameters.
        if (zero)
          std::copy(values.begin(), values.end(),
                    buffer.begin() + static_cast<std::ptrdiff_t>(lo));
      });
}

std::size_t DistOptim::ApplyReadyOwnedUpdates(std::size_t applied) {
  for (; applied < launch_order_.size(); ++applied) {
    const int g = launch_order_[applied];
    Status st;
    // A failed OP1 updates nothing; AwaitGroup reports it.
    if (!groups_[static_cast<std::size_t>(g)].handle.Ready(&st) || !st.ok())
      break;
    ApplyOwnedUpdate(g);
  }
  return applied;
}

comm::CollectiveHandle DistOptim::SubmitGather(GroupState& state) {
  ++stats_.collectives;
  // kZeRO's OP2 distributes freshly updated PARAMETERS; those stay on the
  // fp32 wire even under compression — only gradient traffic narrows.
  const comm::DType wire = options_.mode == ScheduleMode::kZeRO
                               ? comm::DType::kF32
                               : WireDType(options_.compression);
  switch (options_.algorithm) {
    case comm::Algorithm::kHierarchical:
      return engine_->SubmitHierarchicalAllGather(
          std::span<float>(state.buffer), options_.ranks_per_node, wire);
    case comm::Algorithm::kRecursiveHalvingDoubling:
      return engine_->SubmitRecursiveDoublingAllGather(
          std::span<float>(state.buffer), wire);
    default:
      return engine_->SubmitAllGather(std::span<float>(state.buffer), wire);
  }
}

void DistOptim::LaunchGroup(int g) {
  GroupState& state = groups_[static_cast<std::size_t>(g)];
  ++stats_.collectives;
  // No pack pass: the op reads the gradient tensors in place (a gather
  // list) and writes its result into the fused buffer. Compression needs
  // no sweep either — the transport's convert-on-pack rounds each payload
  // to fp16/bf16 in the same pass that writes it into the pooled slab.
  const std::span<float> buffer(state.buffer);
  const comm::GatherList sources(state.sources);
  const comm::DType wire = WireDType(options_.compression);
  switch (options_.mode) {
    case ScheduleMode::kDeAR:
    case ScheduleMode::kZeRO:
      switch (options_.algorithm) {
        case comm::Algorithm::kHierarchical:
          state.handle = engine_->SubmitHierarchicalReduceScatter(
              buffer, options_.ranks_per_node, comm::ReduceOp::kAvg, wire,
              sources);
          break;
        case comm::Algorithm::kRecursiveHalvingDoubling:
          state.handle = engine_->SubmitRecursiveHalvingReduceScatter(
              buffer, comm::ReduceOp::kAvg, wire, sources);
          break;
        default:
          state.handle = engine_->SubmitReduceScatter(
              buffer, comm::ReduceOp::kAvg, wire, sources);
      }
      launch_order_.push_back(g);
      break;
    case ScheduleMode::kWFBP:
    case ScheduleMode::kSequential:
      state.handle = engine_->SubmitAllReduce(buffer, comm::ReduceOp::kAvg,
                                              wire, sources);
      break;
  }
  state.phase = GroupPhase::kRsPending;
  MarkLaunched(g, EventKind::kRsLaunch);
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
    const int g = plan_.group_of_tensor(t);
    GroupState& state = groups_[static_cast<std::size_t>(g)];
    DEAR_CHECK_MSG(state.phase == GroupPhase::kIdle ||
                       state.phase == GroupPhase::kFilling,
                   "gradient became ready while its group was in flight — "
                   "missing Synchronize()?");
    state.phase = GroupPhase::kFilling;
    ++state.tensors_ready;
    if (state.tensors_ready ==
            static_cast<int>(plan_.group(g).tensors.size()) &&
        options_.mode != ScheduleMode::kSequential) {
      LaunchGroup(g);
    }
  }
}

void DistOptim::Step() {
  if (failed_) return;  // elastic: owner tears down and rebuilds
  if (micro_step_ + 1 < options_.accumulation_steps) {
    ++micro_step_;
    return;  // accumulation continues; no communication, no update
  }
  micro_step_ = 0;
  ++stats_.steps;
  switch (options_.mode) {
    case ScheduleMode::kSequential: {
      // Launch and drain everything; updates applied before returning.
      for (int g = plan_.num_groups() - 1; g >= 0; --g) {
        auto& state = groups_[static_cast<std::size_t>(g)];
        DEAR_CHECK_MSG(state.phase == GroupPhase::kFilling &&
                           state.tensors_ready ==
                               static_cast<int>(plan_.group(g).tensors.size()),
                       "Step() before backward completed");
        LaunchGroup(g);
      }
      for (int g = 0; g < plan_.num_groups(); ++g) {
        if (!AwaitGroup(g)) return;
      }
      for (int g = 0; g < plan_.num_groups(); ++g) UnpackAndApply(g);
      break;
    }
    case ScheduleMode::kWFBP: {
      // WFBP's implicit barrier: wait for every all-reduce, then update.
      for (int g = 0; g < plan_.num_groups(); ++g) {
        auto& state = groups_[static_cast<std::size_t>(g)];
        DEAR_CHECK_MSG(state.phase == GroupPhase::kRsPending,
                       "Step() before backward completed");
        if (!AwaitGroup(g)) return;
      }
      for (int g = 0; g < plan_.num_groups(); ++g) UnpackAndApply(g);
      break;
    }
    case ScheduleMode::kDeAR:
    case ScheduleMode::kZeRO: {
      // End of BackPipe: synchronize all OP1 tasks (paper §III-B), then
      // enqueue OP2 all-gathers in feed-forward order. No waiting after
      // that — PreForward of the next iteration consumes them group by
      // group. Between the halves each group's owned slice is updated
      // (kZeRO's sharded optimizer step, so its OP2 carries parameters):
      // in launch order, as soon as that group's OP1 has landed, so the
      // update runs while later OP1s are still on the wire.
      std::size_t applied = 0;
      for (int g = 0; g < plan_.num_groups(); ++g) {
        auto& state = groups_[static_cast<std::size_t>(g)];
        DEAR_CHECK_MSG(state.phase == GroupPhase::kRsPending,
                       "Step() before backward completed");
        applied = ApplyReadyOwnedUpdates(applied);
        if (!AwaitGroup(g)) return;
      }
      for (; applied < launch_order_.size(); ++applied)
        ApplyOwnedUpdate(launch_order_[applied]);
      launch_order_.clear();
      for (int g = 0; g < plan_.num_groups(); ++g) {
        auto& state = groups_[static_cast<std::size_t>(g)];
        state.handle = SubmitGather(state);
        state.phase = GroupPhase::kAgPending;
        MarkLaunched(g, EventKind::kAgLaunch);
      }
      break;
    }
  }
  ObserveStepEnd();
}

void DistOptim::PreForward(int layer) {
  DEAR_CHECK(layer >= 0 && layer < spec_.num_layers());
  if (failed_) return;  // elastic: owner tears down and rebuilds
  if (options_.mode != ScheduleMode::kDeAR &&
      options_.mode != ScheduleMode::kZeRO)
    return;
  for (int g : plan_.groups_of_layer(layer)) {
    GroupState& state = groups_[static_cast<std::size_t>(g)];
    if (state.phase != GroupPhase::kAgPending) continue;  // first iteration
    if (!AwaitGroup(g)) return;
    UnpackAndApply(g);
  }
}

void DistOptim::Synchronize() {
  if (failed_) return;  // elastic: owner tears down and rebuilds
  for (int g = 0; g < plan_.num_groups(); ++g) {
    GroupState& state = groups_[static_cast<std::size_t>(g)];
    switch (state.phase) {
      case GroupPhase::kIdle:
        break;
      case GroupPhase::kFilling:
        DEAR_CHECK_MSG(false,
                       "Synchronize() mid-backward: group " +
                           std::to_string(g) + " partially filled");
        break;
      case GroupPhase::kRsPending:
        // Backward finished but Step() not called yet. In the decoupled
        // modes the buffer holds a scattered result, so complete the pair
        // (updating the owned slice in between); in the all-reduce modes
        // the data is already fully reduced.
        if (!AwaitGroup(g)) return;
        if (options_.mode == ScheduleMode::kDeAR ||
            options_.mode == ScheduleMode::kZeRO) {
          ApplyOwnedUpdate(g);
          state.handle = SubmitGather(state);
          state.phase = GroupPhase::kAgPending;
          MarkLaunched(g, EventKind::kAgLaunch);
          if (!AwaitGroup(g)) return;
        }
        UnpackAndApply(g);
        break;
      case GroupPhase::kAgPending:
        if (!AwaitGroup(g)) return;
        UnpackAndApply(g);
        break;
    }
  }
  launch_order_.clear();
}

void DistOptim::SetBufferBytes(std::size_t bytes) {
  DEAR_CHECK(bytes > 0);
  DEAR_CHECK_MSG(options_.mode != ScheduleMode::kZeRO ||
                     options_.sgd.momentum == 0.0f,
                 "re-bucketing moves slice ownership, which would orphan "
                 "sharded momentum state");
  for (const auto& state : groups_)
    DEAR_CHECK_MSG(state.phase == GroupPhase::kIdle,
                   "SetBufferBytes with outstanding communication");
  options_.buffer_bytes = bytes;
  RebuildPlan();
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
