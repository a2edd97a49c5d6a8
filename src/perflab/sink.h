// Process-wide collection point for structured benchmark samples.
//
// The bench/ binaries print human-readable tables; the sink is how those
// same numbers additionally land in `BENCH_<suite>.json` without each
// binary growing its own serialization code. bench/bench_util.h opens a
// suite (SuiteGuard), the shared helpers (RunPolicy) record into the
// active sink as a side effect, and the guard writes the file on scope
// exit.
//
// Samples recorded under the same (name, params) fold into one BenchResult
// — repeated measurements become that result's raw sample vector.
//
// Thread-safe (bench binaries are single-threaded today, but the runtime
// suites time multi-rank code while recording).
#pragma once

#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "perflab/bench_schema.h"

namespace dear::perflab {

class ResultSink {
 public:
  static ResultSink& Get();

  /// Starts collecting under `suite`, dropping any previous samples.
  void Begin(std::string suite);
  /// Stops collecting and drops samples without writing.
  void Abandon();

  [[nodiscard]] bool active() const;

  /// No-op unless active.
  void Record(const std::string& name,
              const std::map<std::string, std::string>& params, double sample,
              const std::string& unit, bool higher_is_better = false,
              double gate_max_ratio = 0.0);

  /// Snapshot of everything recorded so far (environment stamped).
  [[nodiscard]] BenchSuite Snapshot() const;

  /// Writes Snapshot() to `path` and deactivates; the standard path for a
  /// suite named S is "BENCH_<S>.json".
  Status WriteAndEnd(const std::string& path);

 private:
  ResultSink() = default;

  mutable std::mutex mutex_;
  bool active_{false};
  std::string suite_;
  std::vector<BenchResult> results_;      // insertion order
  std::map<std::string, std::size_t> by_key_;
};

}  // namespace dear::perflab
