#include "comm/async.h"

#include <optional>
#include <utility>

#include "check/checker.h"
#include "comm/kernels.h"
#include "common/logging.h"
#include "common/schedule_point.h"

namespace dear::comm {
namespace {

std::size_t SourcesSize(GatherList sources) {
  std::size_t n = 0;
  for (const std::span<const float> piece : sources) n += piece.size();
  return n;
}

}  // namespace

CommEngine::CommEngine(Communicator comm)
    : comm_(comm), thread_([this] { Loop(); }) {}

CommEngine::~CommEngine() { Shutdown(); }

void CommEngine::Shutdown() {
  if (shut_down_) return;
  shut_down_ = true;
  queue_.Close();
  // The join is an OS-level wait on another schedulable worker: under a
  // schedlab controller the caller must not hold its turn here, or the
  // engine thread could never be granted its final steps.
  schedpoint::ScopedBlock block(schedpoint::Site::kEngineJoin);
  if (thread_.joinable()) thread_.join();
}

CollectiveHandle CommEngine::Submit(Kind kind, std::span<float> data,
                                    ReduceOp op, Rank root, DType dtype,
                                    GatherList sources) {
  DEAR_CHECK_MSG(sources.empty() || SourcesSize(sources) == data.size(),
                 "gather list size must equal the buffer size");
  CollectiveHandle handle;
  handle.state_ = std::make_shared<CollectiveHandle::State>();
  Request req{kind, data, op, root, dtype, sources, handle.state_};
  if (!queue_.Send(std::move(req))) {
    handle.state_->status = Status::Unavailable("comm engine shut down");
    handle.state_->done.CountDown();
  }
  return handle;
}

CollectiveHandle CommEngine::SubmitReduceScatter(std::span<float> data,
                                                 ReduceOp op, DType dtype,
                                                 GatherList sources) {
  return Submit(Kind::kReduceScatter, data, op, 0, dtype, sources);
}

CollectiveHandle CommEngine::SubmitAllGather(std::span<float> data,
                                            DType dtype) {
  return Submit(Kind::kAllGather, data, ReduceOp::kSum, 0, dtype);
}

CollectiveHandle CommEngine::SubmitAllReduce(std::span<float> data,
                                             ReduceOp op, DType dtype,
                                             GatherList sources) {
  return Submit(Kind::kAllReduce, data, op, 0, dtype, sources);
}

CollectiveHandle CommEngine::SubmitBarrier() {
  return Submit(Kind::kBarrier, {}, ReduceOp::kSum);
}

CollectiveHandle CommEngine::SubmitBroadcast(std::span<float> data,
                                             Rank root) {
  return Submit(Kind::kBroadcast, data, ReduceOp::kSum, root);
}

CollectiveHandle CommEngine::SubmitHierarchicalReduceScatter(
    std::span<float> data, int ranks_per_node, ReduceOp op, DType dtype,
    GatherList sources) {
  return Submit(Kind::kHierReduceScatter, data, op, ranks_per_node, dtype,
                sources);
}

CollectiveHandle CommEngine::SubmitHierarchicalAllGather(
    std::span<float> data, int ranks_per_node, DType dtype) {
  return Submit(Kind::kHierAllGather, data, ReduceOp::kSum, ranks_per_node,
                dtype);
}

CollectiveHandle CommEngine::SubmitRecursiveHalvingReduceScatter(
    std::span<float> data, ReduceOp op, DType dtype, GatherList sources) {
  return Submit(Kind::kRecursiveRs, data, op, 0, dtype, sources);
}

CollectiveHandle CommEngine::SubmitRecursiveDoublingAllGather(
    std::span<float> data, DType dtype) {
  return Submit(Kind::kRecursiveAg, data, ReduceOp::kSum, 0, dtype);
}

Status CommEngine::Execute(const Request& req) {
  // The engine thread is the only caller of comm_'s collectives, so setting
  // the wire dtype here (once per request, including the fault-injection
  // paths that call Execute directly) is race-free and lets fp16 gradient
  // requests interleave with fp32 control requests on one engine.
  comm_.set_wire_dtype(req.dtype);
  // Only the ring reads a gather list in place; every other op takes its
  // input from the buffer.
  const bool ring = req.kind == Kind::kReduceScatter ||
                    req.kind == Kind::kAllReduce;
  if (!req.sources.empty() && !ring) kernels::Gather(req.sources, req.data);
  switch (req.kind) {
    case Kind::kReduceScatter:
      return RingReduceScatter(comm_, req.data, req.op, req.sources);
    case Kind::kAllGather:
      return RingAllGather(comm_, req.data);
    case Kind::kAllReduce:
      return RingAllReduce(comm_, req.data, req.op, req.sources);
    case Kind::kBarrier:
      return Barrier(comm_);
    case Kind::kBroadcast:
      return TreeBroadcast(comm_, req.data, req.root);
    case Kind::kHierReduceScatter:
      return HierarchicalReduceScatter(comm_, req.data, req.root, req.op);
    case Kind::kHierAllGather:
      return HierarchicalAllGather(comm_, req.data, req.root);
    case Kind::kRecursiveRs:
      return RecursiveHalvingReduceScatter(comm_, req.data, req.op);
    case Kind::kRecursiveAg:
      return RecursiveDoublingAllGather(comm_, req.data);
  }
  return Status::InvalidArgument("unknown request kind");
}

void CommEngine::Complete(const Request& req, Status st) {
  req.state->status = std::move(st);
  req.state->done.CountDown();
}

void CommEngine::Loop() {
  // Register the comm thread as a schedulable worker so the schedlab
  // controller can serialize it against the compute threads. No-op unless
  // a schedule hook is installed.
  schedpoint::WorkerScope worker("comm", comm_.global_rank());
  // Dequeue index on this engine, for matching dearcheck fault specs.
  int op_index = 0;
  // A kReorder fault holds one request here so it runs *after* the next
  // one — the sequence divergence DeAR's no-negotiation contract forbids.
  std::optional<Request> deferred;
  while (auto req = queue_.Recv()) {
    // Schedule point between dequeue and execution: under a controller this
    // is where two engines' collectives can be interleaved differently.
    schedpoint::Point(schedpoint::Site::kEngineDequeue);
    check::FaultKind fault = check::FaultKind::kNone;
    check::Checker& checker = check::Checker::Get();
    if (checker.enabled()) {
      fault = checker.ConsumeEngineFault(comm_.global_rank(), op_index);
    }
    ++op_index;
    switch (fault) {
      case check::FaultKind::kNone:
        Complete(*req, Execute(*req));
        break;
      case check::FaultKind::kSkip:
        // Complete the handle without running the collective: this rank
        // silently drops out of one operation.
        Complete(*req, Status::Ok());
        break;
      case check::FaultKind::kShrink: {
        Request shrunk = *req;
        if (!shrunk.sources.empty()) {
          kernels::Gather(shrunk.sources, shrunk.data);
          shrunk.sources = {};
        }
        shrunk.data = shrunk.data.subspan(0, shrunk.data.size() / 2);
        Complete(*req, Execute(shrunk));
        break;
      }
      case check::FaultKind::kReorder:
        deferred = std::move(*req);
        continue;
    }
    if (deferred) {
      Request held = std::move(*deferred);
      deferred.reset();
      Complete(held, Execute(held));
    }
  }
  if (deferred) {
    Complete(*deferred,
             Status::Unavailable("comm engine shut down with request held"));
  }
}

}  // namespace dear::comm
