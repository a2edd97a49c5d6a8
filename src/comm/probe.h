// One instrumentation spine for the comm runtime and DistOptim.
//
// Every hot-path site makes exactly one probe call, and the probe fans out
// to the consumers of runtime events:
//
//   - the always-on flight-recorder journal (src/flightrec), which writes
//     one record per event and is what the Chrome trace, the attribution
//     report, `dearsim profile`'s tables and metrics and the checker dumps
//     read back;
//   - the dearcheck verifier (src/check), only inside an enabled session.
//
// tools/lint.py rule `single-probe` forbids calling those hooks directly
// from src/comm (outside this module) or src/core, so the consumers cannot
// drift apart again. The site → journal kind → consumer map is DESIGN.md
// §7.
#pragma once

#include <cstddef>
#include <cstdint>

#include "comm/communicator.h"
#include "comm/transport.h"
#include "comm/types.h"
#include "flightrec/recorder.h"

namespace dear::comm::probe {

/// Brackets one collective. Only the outermost probe on a thread records
/// (composites such as RingAllReduce = RS + AG count once, under their own
/// kind): it journals kCollectiveBegin/End with the kind as tag, `elems` as
/// the begin's payload and the wire `dtype` as the end's, and feeds the
/// checker ledger (which compares `elems` across ranks) and its epoch
/// stamps when a checker session is live. The bracket is the one timing of
/// a collective: analysis::CollectiveSamples prices it as
/// elems × DTypeSize(dtype) wire bytes over the bracket's span.
class CollectiveProbe {
 public:
  CollectiveProbe(int rank, CollectiveKind kind, std::size_t elems,
                  DType dtype = DType::kF32) noexcept;
  CollectiveProbe(const Communicator& comm, CollectiveKind kind,
                  std::size_t elems) noexcept
      : CollectiveProbe(comm.global_rank(), kind, elems, comm.wire_dtype()) {}
  ~CollectiveProbe();
  CollectiveProbe(const CollectiveProbe&) = delete;
  CollectiveProbe& operator=(const CollectiveProbe&) = delete;

 private:
  bool outermost_;
  bool checked_{false};  // checker session live at begin
  bool epoch_stamped_{false};
  CollectiveKind kind_;
  DType dtype_;
  int rank_;
  std::uint32_t begin_epoch_{0};
};

/// Transport send on `src` toward `dst`: journals the send edge with its
/// wire bytes (stamping `msg`'s causal ID and Lamport clock).
inline void Send(int src, int dst, Message& msg) noexcept {
  flightrec::Recorder::Get().OnSend(src, dst, msg.tag,
                                    msg.payload.wire_bytes(), &msg.causal,
                                    &msg.lamport);
}

/// Transport recv on `dst` from `src`: journals the matching edge endpoint
/// (same causal ID as the send) with its wire bytes.
inline void Recv(int dst, int src, const Message& msg) noexcept {
  flightrec::Recorder::Get().OnRecv(dst, src, msg.tag,
                                    msg.payload.wire_bytes(), msg.causal,
                                    msg.lamport);
}

/// Wrong-epoch message rejected on `dst` (receiver at `cur_epoch`).
void StaleDrop(int dst, int src, const Message& msg, std::uint32_t cur_epoch);

/// DistOptim schedule record on `rank`. Group kinds (kRsLaunch..kUnpack,
/// kWaitBegin) carry `group` and the group's in-flight op sequence number
/// `seq`; kStepEnd carries the step index in `seq`. The five protocol kinds
/// also drive the checker's BackPipe/FeedPipe machine.
void Group(int rank, int group, flightrec::EventKind kind,
           std::uint32_t seq = 0);

/// Membership epoch transition committed by `detector` (`kind` =
/// TransitionKind value, `live_mask` = live set after it), and `rank`'s
/// adoption of `epoch`.
void EpochTransition(int detector, std::uint32_t epoch, int kind,
                     int subject, std::uint64_t live_mask);
void EpochObserved(int rank, std::uint32_t epoch);

/// TransportHub::Shutdown of a `world`-rank hub.
inline void Shutdown(int world) noexcept {
  flightrec::Recorder::Get().OnShutdown(world);
}

}  // namespace dear::comm::probe
