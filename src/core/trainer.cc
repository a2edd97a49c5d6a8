#include "core/trainer.h"

#include <algorithm>
#include <cstdint>
#include <mutex>

#include "comm/worker_group.h"
#include "common/logging.h"

namespace dear::core {

using train::Dataset;
using train::Mlp;
using train::Sgd;
using train::SgdOptions;

namespace {

/// First sample of micro-batch `k` of a run in a shard of `samples`
/// samples: batches are read in order, wrapping to 0 before one would run
/// past the end.
int MicroBatchOffset(std::int64_t k, int samples, int batch) {
  const int batches = samples / batch;
  DEAR_CHECK_MSG(batches >= 1, "a shard must hold at least one batch");
  return static_cast<int>(k % batches) * batch;
}

std::vector<std::vector<float>> TensorParams(Mlp& mlp) {
  std::vector<std::vector<float>> params;
  for (auto& layer : mlp.layers()) {
    params.push_back(layer.w);
    params.push_back(layer.b);
  }
  return params;
}

}  // namespace

std::vector<float> FlattenParams(train::Mlp& mlp) {
  std::vector<float> out;
  for (train::DenseLayer& layer : mlp.layers()) {
    out.insert(out.end(), layer.w.begin(), layer.w.end());
    out.insert(out.end(), layer.b.begin(), layer.b.end());
  }
  return out;
}

void LoadParams(train::Mlp& mlp, std::span<const float> params) {
  std::size_t off = 0;
  for (train::DenseLayer& layer : mlp.layers()) {
    DEAR_CHECK(off + layer.w.size() + layer.b.size() <= params.size());
    std::copy_n(params.begin() + static_cast<std::ptrdiff_t>(off),
                layer.w.size(), layer.w.begin());
    off += layer.w.size();
    std::copy_n(params.begin() + static_cast<std::ptrdiff_t>(off),
                layer.b.size(), layer.b.begin());
    off += layer.b.size();
  }
  DEAR_CHECK_MSG(off == params.size(), "parameter blob size mismatch");
}

void RunIteration(Mlp& mlp, DistOptim& optim, const Dataset& shard, int batch,
                  int accumulation_steps, int iteration,
                  std::vector<float>* losses) {
  std::vector<float> x, y, grad;
  mlp.ZeroGrad();
  for (int micro = 0; micro < accumulation_steps; ++micro) {
    const std::int64_t k =
        std::int64_t{iteration} * accumulation_steps + micro;
    shard.Batch(MicroBatchOffset(k, shard.num_samples, batch), batch, &x, &y);
    const auto pred =
        mlp.Forward(x, batch, [&](int l) { optim.PreForward(l); });
    const float loss = Mlp::MseLoss(pred, y, &grad);
    if (losses != nullptr) losses->push_back(loss);
    mlp.Backward(grad, batch, [&](int l) { optim.OnBackwardLayer(l); });
    optim.Step();
  }
}

std::vector<float> Replay(Mlp& mlp, const Dataset& data,
                          const ReplayOptions& options, int first_iteration,
                          int end_iteration) {
  std::vector<Dataset> shards;
  for (const comm::Rank r : options.live)
    shards.push_back(data.Shard(r, options.world));
  const std::vector<train::ParamBinding> tensors = mlp.Bindings();
  std::vector<std::size_t> sizes;
  for (const auto& t : tensors) sizes.push_back(t.values.size());
  Sgd sgd(sizes, options.sgd);
  // DistOptim averages the gradient sums over the live group (kAvg).
  const float scale = 1.0f / static_cast<float>(shards.size());

  std::vector<float> losses, x, y, grad;
  const int steps = options.accumulation_steps;
  for (int it = first_iteration; it < end_iteration; ++it) {
    mlp.ZeroGrad();
    // DenseLayer::Backward accumulates into gw/gb, so running every pass
    // in sequence sums their gradients — the sum the reduce-scatter forms.
    for (int micro = 0; micro < steps; ++micro) {
      const std::int64_t k = std::int64_t{it} * steps + micro;
      for (const Dataset& shard : shards) {
        shard.Batch(MicroBatchOffset(k, shard.num_samples, options.batch),
                    options.batch, &x, &y);
        const auto pred = mlp.Forward(x, options.batch);
        losses.push_back(Mlp::MseLoss(pred, y, &grad));
        mlp.Backward(grad, options.batch);
      }
    }
    for (std::size_t t = 0; t < tensors.size(); ++t) {
      if (shards.size() > 1)
        for (float& g : tensors[t].grads) g *= scale;
      sgd.Step(static_cast<int>(t), tensors[t].values, tensors[t].grads);
    }
  }
  return losses;
}

ReferenceResult TrainReference(const std::vector<int>& dims,
                               std::uint64_t model_seed, const Dataset& data,
                               int iterations, int batch,
                               const SgdOptions& sgd_options,
                               int micro_batches) {
  Mlp mlp(dims, model_seed);
  ReferenceResult result;
  result.losses = Replay(mlp, data,
                         {.batch = batch,
                          .accumulation_steps = micro_batches,
                          .sgd = sgd_options},
                         0, iterations);
  result.params = TensorParams(mlp);
  return result;
}

DistributedResult TrainDistributed(const std::vector<int>& dims,
                                   std::uint64_t model_seed,
                                   const Dataset& data, int iterations,
                                   int batch, int world,
                                   const DistOptimOptions& options) {
  DistributedResult result;
  result.status = ValidateOptions(options, world);
  if (!result.status.ok()) return result;
  std::mutex result_mutex;
  std::vector<std::vector<std::vector<float>>> all_params(
      static_cast<std::size_t>(world));

  // Named: the group's threads hold a reference to the body.
  const comm::WorkerGroup::Body body = [&](comm::Communicator& comm) {
    const Dataset shard = data.Shard(comm.rank(), world);
    Mlp mlp(dims, model_seed);
    DistOptim optim(comm, mlp.Spec(), mlp.Bindings(), options);
    std::vector<float> local_losses;
    for (int it = 0; it < iterations; ++it) {
      RunIteration(mlp, optim, shard, batch, options.accumulation_steps, it,
                   &local_losses);
    }
    optim.Synchronize();

    auto params = TensorParams(mlp);
    std::lock_guard<std::mutex> lock(result_mutex);
    all_params[static_cast<std::size_t>(comm.rank())] = std::move(params);
    if (comm.rank() == 0) result.rank0_losses = std::move(local_losses);
  };
  comm::WorkerGroup group(world, body);
  group.Join();
  result.pool = group.hub().pool().stats();

  result.params = all_params[0];
  result.params_consistent = true;
  for (int r = 1; r < world; ++r) {
    if (all_params[static_cast<std::size_t>(r)] != all_params[0])
      result.params_consistent = false;
  }
  return result;
}

}  // namespace dear::core
