// schedlab property layer — what must hold under EVERY schedule.
//
// Each property builds a fresh in-process cluster, runs it to completion
// under a schedlab controller, and checks oracle conditions on the result:
//
//  * Decoupled equivalence (paper Eq. 3-5): reduce-scatter followed by
//    all-gather must equal the fused ring all-reduce within 0 ULP — the
//    ring fixes the reduction order, so the thread schedule must not be
//    able to change a single bit. The 0-ULP bound holds for EVERY wire
//    dtype, including lossy fp16/bf16: the fused ring is literally the
//    decoupled pair, so both sides round identically at every hop.
//  * Collective correctness: all 15 collectives against exact oracles
//    (near-oracles for order-sensitive float sums), with a bitwise digest
//    of every defined output region so callers can assert invariance
//    across schedules. Under a lossy wire dtype the copy-collectives are
//    still checked BITWISE — against the quantized oracle (inputs rounded
//    once through the wire dtype; see kernels::QuantizeInPlace and the
//    "what you send is what you keep" rule in collectives.cc) — while the
//    reductions widen their tolerance to the dtype's epsilon scaled by
//    world size.
//  * Training-step schedule (paper §III-B): a DistOptim mini-run with
//    dearcheck's GroupEvent machine as the online oracle for FeedPipe
//    ("AG(l) completes before FF_l") and BackPipe FIFO order, plus
//    no-leak / no-deadlock teardown.
//  * Mutation self-check: the harness is only trusted because it
//    demonstrably catches known-bad runtimes — every dearcheck fault mode
//    (skip / shrink / reorder) must be detected within a schedule budget.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "check/checker.h"
#include "comm/types.h"
#include "schedlab/controller.h"

namespace dear::schedlab {

struct PropertyOptions {
  int world{2};
  /// Base tensor length; individual collectives adapt it to their
  /// divisibility constraints.
  std::size_t elems{24};
  std::uint64_t payload_seed{1234};
  /// Transport slab pooling (comm/buffer_pool.h). Running the same seeds
  /// with the pool on and off must produce identical digests — slab reuse
  /// is invisible to the collectives' arithmetic.
  bool use_pool{true};
  /// Wire payload dtype for every collective the properties run (kF32
  /// default keeps the historical fp32 digests bit-for-bit). A lossy
  /// dtype switches the copy-collective oracles to quantized-bitwise and
  /// the reduction oracles to eps-scaled tolerance; the decoupled-
  /// equivalence 0-ULP bound is dtype-independent. The training-step
  /// property maps kF16/kBF16 onto DistOptim's Compression knob.
  comm::DType wire_dtype{comm::DType::kF32};
};

struct PropertyReport {
  bool ok{true};
  std::string failure;  // first failure, human-readable; empty when ok
  /// FNV-1a over every defined output bit. Two schedules of the same
  /// property with equal digests produced bitwise-identical results.
  std::uint64_t result_digest{0};
  ScheduleResult schedule;
};

/// RS ; AG == fused ring all-reduce, bitwise (kSum and kAvg).
PropertyReport CheckDecoupledEquivalence(Picker& picker,
                                         const PropertyOptions& options);

/// Every collective under one controlled schedule, each against its oracle.
PropertyReport CheckAllCollectives(Picker& picker,
                                   const PropertyOptions& options);

/// DistOptim mini-training step under the controller, dearcheck enabled.
PropertyReport CheckTrainingStep(Picker& picker,
                                 const PropertyOptions& options);

/// Flight-recorder DAG invariance: runs the all-collectives sweep under
/// two schedules derived from `seed` and requires the reconstructed
/// happens-before edge set (analysis::EdgeSetFingerprint over the matched
/// Send->Recv pairs) to be bitwise identical — the thread schedule may
/// reorder wall-clock time, never the message pairing. Also requires every
/// send matched to a recv and Lamport order to hold on every edge.
/// Resets the process-wide flight recorder; callers must be quiescent.
PropertyReport CheckMessageDagInvariance(std::uint64_t seed,
                                         const PropertyOptions& options);

/// One fuzz schedule of the full suite (all three properties, pickers
/// seeded deterministically from `seed`). The combined fingerprint and
/// digest are what `dearsim fuzz` prints per schedule.
PropertyReport RunPropertySuite(std::uint64_t seed,
                                const PropertyOptions& options);

struct MutationOutcome {
  bool detected{false};
  int schedules_used{0};  // schedules run until detection (== budget if not)
  std::string how;        // "deadlock", "checker: ...", or "status: ..."
};

/// Arms `kind` on rank 1's comm engine (op 0) and fuzzes a decoupled
/// RS+AG round until the harness detects the divergence — by controller
/// deadlock, dearcheck trip, or error status — or the budget runs out.
MutationOutcome RunMutationCheck(check::FaultKind kind, int world,
                                 std::uint64_t base_seed, int budget);

}  // namespace dear::schedlab
