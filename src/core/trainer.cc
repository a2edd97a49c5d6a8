#include "core/trainer.h"

#include <mutex>

#include "comm/worker_group.h"
#include "common/logging.h"

namespace dear::core {

using train::Dataset;
using train::Mlp;
using train::Sgd;
using train::SgdOptions;

ReferenceResult TrainReference(const std::vector<int>& dims,
                               std::uint64_t model_seed, const Dataset& data,
                               int iterations, int batch,
                               const SgdOptions& sgd_options,
                               int micro_batches) {
  Mlp mlp(dims, model_seed);
  std::vector<std::size_t> sizes;
  for (auto& layer : mlp.layers()) {
    sizes.push_back(layer.w.size());
    sizes.push_back(layer.b.size());
  }
  Sgd sgd(sizes, sgd_options);

  ReferenceResult result;
  std::vector<float> x, y, grad;
  int cursor = 0;
  for (int it = 0; it < iterations; ++it) {
    mlp.ZeroGrad();
    for (int micro = 0; micro < micro_batches; ++micro) {
      if (cursor + batch > data.num_samples) cursor = 0;
      data.Batch(cursor, batch, &x, &y);
      cursor += batch;
      const auto pred = mlp.Forward(x, batch);
      result.losses.push_back(Mlp::MseLoss(pred, y, &grad));
      mlp.Backward(grad, batch);
    }
    int t = 0;
    for (auto& layer : mlp.layers()) {
      sgd.Step(t++, layer.w, layer.gw);
      sgd.Step(t++, layer.b, layer.gb);
    }
  }
  for (auto& layer : mlp.layers()) {
    result.params.push_back(layer.w);
    result.params.push_back(layer.b);
  }
  return result;
}

DistributedResult TrainDistributed(const std::vector<int>& dims,
                                   std::uint64_t model_seed,
                                   const Dataset& data, int iterations,
                                   int batch, int world,
                                   const DistOptimOptions& options) {
  DistributedResult result;
  std::mutex result_mutex;
  std::vector<std::vector<std::vector<float>>> all_params(
      static_cast<std::size_t>(world));

  // Named: the group's threads hold a reference to the body.
  const comm::WorkerGroup::Body body = [&](comm::Communicator& comm) {
    const Dataset shard = data.Shard(comm.rank(), world);
    Mlp mlp(dims, model_seed);
    DistOptim optim(comm, mlp.Spec(), mlp.Bindings(), options);

    std::vector<float> x, y, grad;
    std::vector<float> local_losses;
    int cursor = 0;
    const int micro_batches = options.accumulation_steps;
    for (int it = 0; it < iterations; ++it) {
      mlp.ZeroGrad();
      for (int micro = 0; micro < micro_batches; ++micro) {
        if (cursor + batch > shard.num_samples) cursor = 0;
        shard.Batch(cursor, batch, &x, &y);
        cursor += batch;
        const auto pred =
            mlp.Forward(x, batch, [&](int l) { optim.PreForward(l); });
        local_losses.push_back(Mlp::MseLoss(pred, y, &grad));
        mlp.Backward(grad, batch, [&](int l) { optim.OnBackwardLayer(l); });
        optim.Step();
      }
    }
    optim.Synchronize();

    std::vector<std::vector<float>> params;
    for (auto& layer : mlp.layers()) {
      params.push_back(layer.w);
      params.push_back(layer.b);
    }
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
