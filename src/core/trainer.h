// Training harnesses: a single-process reference trainer (ground truth for
// S-SGD numerics) and a distributed trainer that spawns one worker thread
// per rank, each driving a DistOptim over the in-process cluster.
//
// The two are constructed so that, for equal total batch (world x
// per-worker batch) over the round-robin shards, they perform the *same*
// optimization trajectory up to floating-point reassociation — the property
// the integration tests assert (S-SGD preserves mini-batch SGD semantics,
// paper §II-B).
#pragma once

#include <vector>

#include "comm/buffer_pool.h"
#include "core/dist_optim.h"
#include "train/data.h"
#include "train/mlp.h"
#include "train/sgd.h"

namespace dear::core {

struct ReferenceResult {
  std::vector<float> losses;               // per iteration
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
  std::vector<float> rank0_losses;         // local losses on rank 0
  std::vector<std::vector<float>> params;  // rank 0 final params
  bool params_consistent{false};  // all ranks ended with identical params
  comm::PoolStats pool;  // the run's transport slab pool, after every rank
};

/// Data-parallel S-SGD: `world` worker threads, round-robin shards,
/// per-worker batch `batch`, gradients aggregated by DistOptim under
/// `options.mode`. Model replicas start from the same seed.
DistributedResult TrainDistributed(const std::vector<int>& dims,
                                   std::uint64_t model_seed,
                                   const train::Dataset& data, int iterations,
                                   int batch, int world,
                                   const DistOptimOptions& options);

}  // namespace dear::core
