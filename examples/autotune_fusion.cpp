// Online tensor-fusion autotuning (paper §IV-B) on the real runtime:
// trains an MLP on 4 in-process workers while the BO tuner measures
// throughput windows, proposes buffer sizes, and re-buckets on the fly —
// rank 0 decides, everyone adopts via a broadcast.
//
// Run: build/examples/autotune_fusion
#include <chrono>
#include <cstdio>
#include <vector>

#include "comm/worker_group.h"
#include "core/auto_tuner.h"
#include "core/dist_optim.h"
#include "train/data.h"
#include "train/mlp.h"

int main() {
  using namespace dear;
  constexpr int kWorld = 4;
  constexpr int kBatch = 8;
  const std::vector<int> dims{16, 64, 64, 32, 1};

  const train::Dataset data =
      train::MakeRegressionDataset(kWorld * kBatch * 8, 16, 1, 11);

  comm::RunOnRanks(kWorld, [&](comm::Communicator& comm) {
    const train::Dataset shard = data.Shard(comm.rank(), kWorld);
    train::Mlp mlp(dims, 3);

    core::DistOptimOptions options;
    options.mode = sched::PolicyKind::kDeAR;
    options.buffer_bytes = 25u << 20;  // paper default: 25 MB
    options.sgd = {.lr = 0.02f, .momentum = 0.9f};
    core::DistOptim optim(comm, mlp.Spec(), mlp.Bindings(), options);

    core::AutoTunerOptions tuner_options;
    tuner_options.window_iters = 5;
    tuner_options.lo_mb = 0.001;  // this toy model is far below 1 MB
    tuner_options.hi_mb = 1.0;
    tuner_options.max_trials = 8;
    core::AutoTuner tuner(&optim, tuner_options);

    std::vector<float> x, y, grad;
    int cursor = 0;
    for (int it = 0; it < 60; ++it) {
      if (cursor + kBatch > shard.num_samples) cursor = 0;
      shard.Batch(cursor, kBatch, &x, &y);
      cursor += kBatch;

      const auto t0 = std::chrono::steady_clock::now();
      mlp.ZeroGrad();
      const auto pred =
          mlp.Forward(x, kBatch, [&](int l) { optim.PreForward(l); });
      train::Mlp::MseLoss(pred, y, &grad);
      mlp.Backward(grad, kBatch, [&](int l) { optim.OnBackwardLayer(l); });
      optim.Step();
      const double secs =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();

      const bool retuned =
          tuner.OnIterationEnd(kWorld * kBatch / (secs + 1e-9));
      if (retuned && comm.rank() == 0) {
        std::printf("trial %d: adopted buffer %zu bytes -> %d fusion groups\n",
                    tuner.trials(), optim.buffer_bytes(),
                    optim.plan().num_groups());
      }
    }
    optim.Synchronize();
    if (comm.rank() == 0) {
      std::printf("tuning finished after %d trials; best observed %.4f MB\n",
                  tuner.trials(), tuner.best_mb());
    }
  });
  return 0;
}
