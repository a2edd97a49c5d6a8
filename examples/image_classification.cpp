// Domain example: distributed image-style classification with DeAR —
// softmax cross-entropy on Gaussian-blob "images", 4 workers, fp16
// gradient compression, and the ZeRO-style sharded-optimizer mode for
// comparison. Prints accuracy as training progresses and shows both modes
// reach the same quality, plus the RS/AG time each schedule left exposed,
// read back from the run's flight-recorder journal.
//
// Run: build/examples/image_classification
#include <cstdio>
#include <vector>

#include "analysis/timeline.h"
#include "comm/worker_group.h"
#include "core/dist_optim.h"
#include "flightrec/recorder.h"
#include "train/data.h"
#include "train/mlp.h"

namespace {

using namespace dear;

float TrainOnce(core::ScheduleMode mode, core::Compression compression,
                const train::ClassificationDataset& data) {
  constexpr int kWorld = 4;
  constexpr int kBatch = 16;
  const std::vector<int> dims{8, 32, 16, 5};  // 5-way classifier
  float final_accuracy = 0.0f;
  core::DistOptim::Stats stats;  // rank 0

  auto& recorder = flightrec::Recorder::Get();
  recorder.Reset();
  comm::RunOnRanks(kWorld, [&](comm::Communicator& comm) {
    const auto shard = data.Shard(comm.rank(), kWorld);
    train::Mlp mlp(dims, /*seed=*/31);

    core::DistOptimOptions options;
    options.mode = mode;
    options.compression = compression;
    options.buffer_bytes = 2048;  // several fusion groups on this tiny net
    options.sgd = {.lr = 0.05f, .momentum = 0.9f};
    core::DistOptim optim(comm, mlp.Spec(), mlp.Bindings(), options);

    std::vector<float> x, grad;
    std::vector<int> y;
    int cursor = 0;
    for (int it = 0; it < 80; ++it) {
      if (cursor + kBatch > shard.num_samples) cursor = 0;
      shard.Batch(cursor, kBatch, &x, &y);
      cursor += kBatch;

      mlp.ZeroGrad();
      const auto logits =
          mlp.Forward(x, kBatch, [&](int l) { optim.PreForward(l); });
      train::Mlp::SoftmaxCrossEntropy(logits, y, data.num_classes, &grad);
      mlp.Backward(grad, kBatch, [&](int l) { optim.OnBackwardLayer(l); });
      optim.Step();
    }
    optim.Synchronize();

    if (comm.rank() == 0) {
      std::vector<float> all_x;
      std::vector<int> all_y;
      data.Batch(0, data.num_samples, &all_x, &all_y);
      const auto logits = mlp.Forward(all_x, data.num_samples);
      final_accuracy =
          train::Mlp::Accuracy(logits, all_y, data.num_classes);
      stats = optim.stats();
    }
  });

  // Non-overlapped communication (Fig. 8), from the journal's wait spans.
  const auto report =
      analysis::AttributeIterations(recorder.SnapshotAll(), kWorld);
  const auto& rank0 = report.ranks[0];
  std::printf("  steps=%lld collectives=%lld  exposed comm over %d "
              "iterations: RS %.1f ms, AG %.1f ms\n",
              static_cast<long long>(stats.steps),
              static_cast<long long>(stats.collectives), report.iterations,
              rank0.exposed_rs_ms, rank0.exposed_ag_ms);
  return final_accuracy;
}

}  // namespace

int main() {
  using namespace dear;
  const auto data = train::MakeClassificationDataset(
      /*num_samples=*/512, /*input_dim=*/8, /*num_classes=*/5, /*seed=*/3);

  struct Config {
    const char* label;
    core::ScheduleMode mode;
    core::Compression compression;
  };
  const Config configs[] = {
      {"DeAR", core::ScheduleMode::kDeAR, core::Compression::kNone},
      {"DeAR + fp16", core::ScheduleMode::kDeAR, core::Compression::kFp16},
      {"ZeRO-sharded", core::ScheduleMode::kZeRO, core::Compression::kNone},
      {"WFBP", core::ScheduleMode::kWFBP, core::Compression::kNone},
  };
  std::printf("5-way classification, 4 workers, 80 iterations each:\n");
  for (const auto& cfg : configs) {
    std::printf("%s:\n", cfg.label);
    const float acc = TrainOnce(cfg.mode, cfg.compression, data);
    std::printf("  final accuracy: %.1f%%\n", 100.0f * acc);
  }
  return 0;
}
