// Elastic training runtime: degrade-and-continue data-parallel SGD over a
// TransportHub with comm::Membership churn (DESIGN.md §13).
//
// Within one membership epoch every rank runs core::RunIteration — the
// fixed-world loop, under any DistOptimOptions on the ring — over the
// epoch's live group; kAvg divides by comm.size(), so it renormalizes to
// the survivor count for free. Across epochs the protocol is:
//
//   crash    the scripted victim requests readmission, suspects itself
//            (epoch turns, channels cycle), and parks in WaitLive;
//   recover  every survivor's in-flight collective unwinds with
//            Unavailable, it tears down its DistOptim (joining the
//            engine), adopts the new epoch, rebuilds engine + optimizer
//            over the survivor group, and resyncs parameters and the
//            iteration counter from the recovery root (the lowest live
//            survivor) via barrier + broadcast;
//   readmit  the root publishes a commit iteration; every survivor pauses
//            there, barriers, the root commits (epoch turns again), and
//            all ranks — including the woken victim — re-form over the
//            full group with one more state sync.
//
// Every iteration ends in Synchronize() and a barrier (which give up
// FeedPipe's overlap of OP2 with the next feed-forward, so the fixed-world
// harness does not have them): no rank starts iteration i+1 before all
// submitted barrier i, so whenever the epoch turns every rank's parameters
// are a *consistent* snapshot — all of the previous iteration applied,
// none of the current one, since a collective cannot complete without
// every live rank.
//
// That makes the run oracle-checkable: the recovery root records an
// ElasticSegment (first iteration, live set, base parameters) at every
// re-form, and SequentialOracle replays it with core::Replay. The replay's
// fresh train::Sgd matches the fresh DistOptim every re-form builds (zero
// velocity), so momentum is checked under churn like everything else.
// Hierarchical needs ranks_per_node to divide every survivor count and
// recursive halving-doubling a power-of-two one, so only the ring is
// accepted: any other `algorithm` is rejected at construction.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "comm/membership.h"
#include "comm/transport.h"
#include "comm/types.h"
#include "core/dist_optim.h"
#include "train/data.h"
#include "train/mlp.h"

namespace dear::core {

struct ElasticOptions {
  int world{3};
  int iterations{6};
  int batch{2};
  std::vector<int> dims{4, 8, 6, 2};
  /// Every rank's optimizer; Recover sets `elastic`. The 256 B buffer
  /// gives the MLP several fusion groups.
  DistOptimOptions optim{.buffer_bytes = 256,
                         .sgd = {.lr = 0.05f, .momentum = 0.0f}};
  /// Scripted churn: `victim` self-suspects at the top of iteration
  /// `kill_iteration` and rejoins `rejoin_delay` iterations later
  /// (rejoin_delay < 0: stays dead). victim < 0 disables churn.
  comm::Rank victim{-1};
  int kill_iteration{-1};
  int rejoin_delay{2};
  std::uint64_t data_seed{77};
  std::uint64_t model_seed{21};
  comm::MembershipOptions membership;
};

/// One piecewise-fixed span of the run, recorded by the recovery root at
/// every re-form (and once at startup for epoch 0).
struct ElasticSegment {
  int first_iteration{0};
  std::uint32_t epoch{0};
  std::vector<comm::Rank> live;
  std::vector<float> base_params;  // flattened, layer-major (w then b)
};

struct ElasticReport {
  bool ok{true};
  std::string failure;
  std::vector<ElasticSegment> segments;
  /// Flattened final parameters per physical rank; empty for a rank that
  /// was dead at the end.
  std::vector<std::vector<float>> final_params;
  std::string transition_log;  // Membership::FormatTransitions()
  std::uint64_t stale_drops{0};
  bool checker_tripped{false};
  std::string checker_report;
};

/// The per-rank worker bodies plus the shared hub/membership they run
/// over. Exposed (rather than hidden inside RunElasticTraining) so the
/// schedlab chaos harness can drive RunRank on controller-registered
/// threads.
class ElasticRuntime {
 public:
  explicit ElasticRuntime(ElasticOptions options);

  /// Worker body for physical rank `rank`; returns when the rank finished
  /// all iterations (or died for good). Call once per rank, concurrently.
  void RunRank(comm::Rank rank);

  /// Why these options cannot be kept correct under churn, or empty. A
  /// rejected runtime trains nothing: RunRank returns at once and the
  /// report says ok = false with this failure.
  [[nodiscard]] const std::string& rejection() const noexcept {
    return rejection_;
  }

  /// Collects the report. Call after every RunRank returned.
  ElasticReport TakeReport();

  [[nodiscard]] comm::TransportHub& hub() noexcept { return hub_; }
  [[nodiscard]] comm::Membership& membership() noexcept {
    return membership_;
  }
  [[nodiscard]] const ElasticOptions& options() const noexcept {
    return options_;
  }

 private:
  struct RankState;  // loop-local state bundle, defined in elastic.cc

  /// Tears down the optimizer, adopts the current epoch, rebuilds the
  /// engine + DistOptim over the live group, and state-syncs from the
  /// recovery root. False when the epoch moved again mid-recovery (the
  /// caller just re-enters).
  bool Recover(RankState& st);
  /// Rendezvous at the committed iteration: barrier over the old group,
  /// root commits the readmissions, everyone waits for the new epoch to
  /// settle and recovers over the re-formed group.
  void CommitRendezvous(RankState& st);
  void Fail(const std::string& what);

  ElasticOptions options_;
  std::string rejection_;
  train::Dataset data_;
  comm::TransportHub hub_;
  comm::Membership membership_;

  std::mutex mutex_;
  std::vector<ElasticSegment> segments_;
  std::vector<std::vector<float>> final_params_;
  bool ok_{true};
  std::string failure_;
};

/// Convenience driver: spawns one plain thread per rank (none for a
/// rejected runtime) and joins them. (The chaos harness instead runs
/// RunRank under a schedlab controller.)
ElasticReport RunElasticTraining(const ElasticOptions& options);

/// Replays `segment` with core::Replay — the live set's shard batches,
/// averaged, through a fresh train::Sgd under options.optim — from the
/// segment's base parameters up to (excluding) `end_iteration`. The
/// distributed run must match this within floating-point tolerance (a
/// lossy wire's drift envelope): each later segment's base against the
/// replay of its predecessor, and every surviving rank's final parameters
/// against the replay of the last segment.
std::vector<float> SequentialOracle(const ElasticOptions& options,
                                    const ElasticSegment& segment,
                                    int end_iteration);

}  // namespace dear::core
