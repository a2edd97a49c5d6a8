#include "core/auto_tuner.h"

#include <cmath>

#include "common/logging.h"
#include "common/math_util.h"

namespace dear::core {

AutoTuner::AutoTuner(DistOptim* optim, AutoTunerOptions options)
    : optim_(optim), options_(options) {
  DEAR_CHECK(optim != nullptr);
  DEAR_CHECK(options_.window_iters >= 1);
  if (options_.bo.first_point == 0.0) {
    options_.bo.first_point =
        static_cast<double>(optim->buffer_bytes()) / (1024.0 * 1024.0);
  }
  tuner_ = std::make_unique<tune::BayesianOptimizer>(
      options_.lo_mb, options_.hi_mb, options_.bo);
}

bool AutoTuner::OnIterationEnd(double throughput_samples_per_s) {
  if (done()) return false;
  window_sum_ += throughput_samples_per_s;
  ++window_count_;
  if (window_count_ < options_.window_iters) return false;

  const double avg = window_sum_ / window_count_;
  window_sum_ = 0.0;
  window_count_ = 0;
  ++trials_;

  // Everything must be drained before re-bucketing, and the decision must
  // be identical on all ranks: rank 0 decides, then broadcasts megabytes
  // (float precision is ample for a value <= 100).
  optim_->Synchronize();
  float next_mb = 0.0f;
  if (optim_->rank() == 0) {
    const double cur_mb =
        static_cast<double>(optim_->buffer_bytes()) / (1024.0 * 1024.0);
    tuner_->Observe(cur_mb, avg);
    next_mb = static_cast<float>(done() ? tuner_->best_x()
                                        : tuner_->SuggestNext());
  }
  optim_->BroadcastControl(std::span<float>(&next_mb, 1), /*root=*/0);
  const auto bytes =
      static_cast<std::size_t>(std::lround(next_mb * 1024.0 * 1024.0));
  optim_->SetBufferBytes(bytes == 0 ? 1 : bytes);
  return true;
}

}  // namespace dear::core
