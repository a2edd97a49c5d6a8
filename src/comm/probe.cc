#include "comm/probe.h"

#include "check/checker.h"

namespace dear::comm::probe {
namespace {

/// Nesting depth of CollectiveProbe on this thread; only depth 0 records.
thread_local int t_collective_depth = 0;

}  // namespace

CollectiveProbe::CollectiveProbe(int rank, CollectiveKind kind,
                                 std::size_t elems, DType dtype) noexcept
    : outermost_(t_collective_depth++ == 0),
      kind_(kind),
      dtype_(dtype),
      rank_(rank) {
  if (!outermost_) return;
  flightrec::Recorder::Get().OnCollectiveBegin(
      rank, static_cast<std::uint16_t>(kind), elems);
  check::Checker& checker = check::Checker::Get();
  checked_ = checker.enabled();
  if (checked_) {
    if (const auto* counter = checker.epoch_counter()) {
      begin_epoch_ = counter->load(std::memory_order_acquire);
      epoch_stamped_ = true;
    }
    checker.OnCollectiveBegin(rank, CollectiveKindName(kind), elems);
  }
}

CollectiveProbe::~CollectiveProbe() {
  --t_collective_depth;
  if (!outermost_) return;
  flightrec::Recorder::Get().OnCollectiveEnd(
      rank_, static_cast<std::uint16_t>(kind_),
      static_cast<std::uint8_t>(dtype_));
  if (!checked_) return;
  check::Checker& checker = check::Checker::Get();
  checker.OnCollectiveEnd(rank_);
  if (epoch_stamped_) {
    if (const auto* counter = checker.epoch_counter()) {
      const std::uint32_t end = counter->load(std::memory_order_acquire);
      if (end != begin_epoch_) {
        checker.OnCrossEpochOp(rank_, CollectiveKindName(kind_),
                               begin_epoch_, end);
      }
    }
  }
}

void StaleDrop(int dst, int src, const Message& msg,
               std::uint32_t cur_epoch) {
  flightrec::Recorder::Get().OnStaleDrop(dst, src, msg.tag, msg.causal,
                                         msg.epoch, cur_epoch);
  check::Checker& checker = check::Checker::Get();
  if (checker.enabled()) checker.OnStaleMessage(dst, src, msg.epoch, cur_epoch);
}

void Group(int rank, int group, flightrec::EventKind kind,
           std::uint32_t seq) {
  flightrec::Recorder::Get().OnGroupEvent(rank, group, kind, seq);
  check::Checker& checker = check::Checker::Get();
  if (checker.enabled()) checker.OnGroupEvent(rank, group, kind);
}

void EpochTransition(int detector, std::uint32_t epoch, int kind,
                     int subject, std::uint64_t live_mask) {
  flightrec::Recorder::Get().OnEpoch(detector, epoch,
                                     static_cast<std::uint16_t>(kind),
                                     subject);
  check::Checker& checker = check::Checker::Get();
  if (checker.enabled())
    checker.OnEpochTransition(epoch, kind, subject, live_mask);
}

void EpochObserved(int rank, std::uint32_t epoch) {
  flightrec::Recorder::Get().OnEpoch(rank, epoch, /*kind=*/0,
                                     /*subject=*/-1);
  check::Checker& checker = check::Checker::Get();
  if (checker.enabled()) checker.OnEpochObserved(rank, epoch);
}

}  // namespace dear::comm::probe
