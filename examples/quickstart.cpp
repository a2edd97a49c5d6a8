// Quickstart: data-parallel training with DeAR on the in-process cluster.
//
// This is the C++ analog of the paper's Listing 1: wrap your optimizer in
// DistOptim, hook it into forward/backward, call Step() per iteration and
// Synchronize() before evaluation. Four worker threads stand in for four
// GPUs; gradients are aggregated with the decoupled reduce-scatter /
// all-gather pipeline (BackPipe + FeedPipe).
//
// Run: build/examples/quickstart
#include <cstdio>
#include <vector>

#include "comm/worker_group.h"
#include "core/dist_optim.h"
#include "train/data.h"
#include "train/mlp.h"

int main() {
  using namespace dear;
  constexpr int kWorld = 4;           // "GPUs"
  constexpr int kBatchPerWorker = 8;  // local mini-batch
  constexpr int kIterations = 60;
  const std::vector<int> dims{8, 32, 16, 1};

  const train::Dataset data = train::MakeRegressionDataset(
      /*num_samples=*/kWorld * kBatchPerWorker * 8, /*input_dim=*/8,
      /*output_dim=*/1, /*seed=*/42);

  std::printf("Training a %zu-layer MLP on %d workers with DeAR...\n",
              dims.size() - 1, kWorld);

  comm::RunOnRanks(kWorld, [&](comm::Communicator& comm) {
    const train::Dataset shard = data.Shard(comm.rank(), kWorld);
    train::Mlp mlp(dims, /*seed=*/7);  // same init on every replica

    core::DistOptimOptions options;
    options.mode = sched::PolicyKind::kDeAR;
    options.buffer_bytes = 64 * 1024;
    options.sgd = {.lr = 0.05f, .momentum = 0.9f};
    core::DistOptim optim(comm, mlp.Spec(), mlp.Bindings(), options);

    std::vector<float> x, y, grad;
    int cursor = 0;
    for (int it = 0; it < kIterations; ++it) {
      if (cursor + kBatchPerWorker > shard.num_samples) cursor = 0;
      shard.Batch(cursor, kBatchPerWorker, &x, &y);
      cursor += kBatchPerWorker;

      mlp.ZeroGrad();
      // FeedPipe: PreForward(l) waits for layer l's all-gather (previous
      // iteration) and lazily applies its update.
      const auto pred = mlp.Forward(x, kBatchPerWorker,
                                    [&](int l) { optim.PreForward(l); });
      const float loss = train::Mlp::MseLoss(pred, y, &grad);
      // BackPipe: OnBackwardLayer(l) launches reduce-scatter as soon as a
      // fusion group's gradients are complete.
      mlp.Backward(grad, kBatchPerWorker,
                   [&](int l) { optim.OnBackwardLayer(l); });
      optim.Step();

      if (comm.rank() == 0 && it % 10 == 0)
        std::printf("  iter %3d  local loss %.5f\n", it, loss);
    }
    optim.Synchronize();  // drain FeedPipe before evaluation

    if (comm.rank() == 0) {
      std::vector<float> val_x, val_y, unused;
      data.Batch(0, 16, &val_x, &val_y);
      const auto pred = mlp.Forward(val_x, 16);
      std::printf("final eval loss (16 samples): %.5f\n",
                  train::Mlp::MseLoss(pred, val_y, &unused));
      std::printf("fusion groups at %zu-byte buffer: %d\n",
                  optim.buffer_bytes(), optim.plan().num_groups());
    }
  });
  std::printf("done.\n");
  return 0;
}
