// The S-SGD training loop and its sequential oracle (paper §II-B: S-SGD
// keeps mini-batch SGD semantics). Every runtime harness runs RunIteration
// (TrainDistributed, the elastic runtime, schedlab's training step); every
// reference is a Replay (TrainReference is Replay at world 1). Both read
// micro-batch k of a run at the same shard offset, so for equal total
// batch over the round-robin shards they follow the same trajectory up to
// floating-point reassociation.
#pragma once

#include <vector>

#include "comm/buffer_pool.h"
#include "comm/types.h"
#include "core/dist_optim.h"
#include "train/data.h"
#include "train/mlp.h"
#include "train/sgd.h"

namespace dear::core {

/// Flatten / load an Mlp's parameters (layer-major, w then b per layer).
std::vector<float> FlattenParams(train::Mlp& mlp);
void LoadParams(train::Mlp& mlp, std::span<const float> params);

/// One iteration of one rank: ZeroGrad, then `accumulation_steps`
/// micro-batches, each forward and backward through optim's hooks and
/// closed by optim.Step() (DistOptim communicates on the last). Micro-batch
/// k of the run (k = iteration x accumulation_steps + m) is `batch`
/// samples at (k mod ⌊n/batch⌋) x batch of the n-sample shard. Appends
/// each micro-batch's loss to `losses` when non-null.
void RunIteration(train::Mlp& mlp, DistOptim& optim,
                  const train::Dataset& shard, int batch,
                  int accumulation_steps, int iteration,
                  std::vector<float>* losses = nullptr);

/// Which batches a Replay sums and how it steps.
struct ReplayOptions {
  int world{1};                     // ranks the dataset is dealt over
  std::vector<comm::Rank> live{0};  // ranks whose batches an iteration sums
  int batch{1};                     // per rank and micro-batch
  int accumulation_steps{1};
  train::SgdOptions sgd;
};

/// The sequential oracle: runs iterations [first_iteration, end_iteration)
/// on `mlp`, summing every live rank's micro-batches (read from its shard
/// of `data` at RunIteration's offsets), averaging over the live ranks and
/// stepping a train::Sgd made for this call — zero velocity, as a freshly
/// built DistOptim has. Returns every forward pass's loss, in order.
std::vector<float> Replay(train::Mlp& mlp, const train::Dataset& data,
                          const ReplayOptions& options, int first_iteration,
                          int end_iteration);

struct ReferenceResult {
  std::vector<float> losses;               // per micro-batch
  std::vector<std::vector<float>> params;  // final, one entry per tensor
};

/// Single-process mini-batch SGD on the full dataset with global batch
/// `batch`, consuming batches sequentially (wrapping around). With
/// micro_batches > 1 each update accumulates that many consecutive
/// batches' gradient sums before stepping (matching DistOptim's
/// accumulation_steps semantics).
ReferenceResult TrainReference(const std::vector<int>& dims,
                               std::uint64_t model_seed,
                               const train::Dataset& data, int iterations,
                               int batch, const train::SgdOptions& sgd,
                               int micro_batches = 1);

struct DistributedResult {
  /// ValidateOptions' verdict; when it is not OK nothing ran and the
  /// fields below are empty.
  Status status;
  std::vector<float> rank0_losses;         // local losses on rank 0
  std::vector<std::vector<float>> params;  // rank 0 final params
  bool params_consistent{false};  // all ranks ended with identical params
  comm::PoolStats pool;  // the run's transport slab pool, after every rank
};

/// Data-parallel S-SGD: `world` worker threads, round-robin shards,
/// per-worker batch `batch`, gradients aggregated by DistOptim under
/// `options.mode`. Model replicas start from the same seed. Options that
/// ValidateOptions rejects start no thread and build no hub.
DistributedResult TrainDistributed(const std::vector<int>& dims,
                                   std::uint64_t model_seed,
                                   const train::Dataset& data, int iterations,
                                   int batch, int world,
                                   const DistOptimOptions& options);

}  // namespace dear::core
