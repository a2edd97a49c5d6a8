// Structured benchmark results — the perf-lab schema.
//
// Every benchmark measurement in the repo reduces to a BenchResult: a named
// metric with a parameter map (model=resnet50, gpus=16, ...), the RAW
// samples it observed, and derived percentiles. A BenchSuite bundles the
// results of one run together with an environment fingerprint and
// serializes to/from `BENCH_<suite>.json`, which is what
// `tools/perf_gate.py` consumes for noise-aware regression gating.
//
// Raw samples are the schema's load-bearing choice: a comparator that only
// sees medians cannot distinguish a regression from run-to-run noise, so
// the JSON always carries every observation (benchmarks here take tens of
// samples, not millions).
//
// Percentile policy: with n <= kExactQuantileLimit samples, percentiles
// are exact order statistics over the raw data; only above that do we
// fall back to the bucketed common::Histogram estimate.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace dear::perflab {

/// Schema identifier written into every file; bump on breaking change.
inline constexpr const char* kSchemaVersion = "dear.bench/1";

/// Sample counts up to this use exact order-statistic percentiles.
inline constexpr std::size_t kExactQuantileLimit = 4096;

/// Exact linear-interpolated order statistic for n <= kExactQuantileLimit,
/// histogram-estimated above (geometric buckets, same ladder as the
/// telemetry registry). q in [0, 1].
double SampleQuantile(const std::vector<double>& samples, double q);

struct BenchResult {
  std::string name;  // metric, e.g. "runtime.train_iter_ms"
  std::string unit;  // "ms", "samples/s", ...
  bool higher_is_better{false};
  /// 0 disables the per-metric gate override; otherwise the maximum
  /// allowed regression ratio perf_gate.py applies to this metric
  /// (candidate-worse-than-baseline factor).
  double gate_max_ratio{0.0};
  std::map<std::string, std::string> params;
  std::vector<double> samples;

  struct Summary {
    std::size_t count{0};
    double mean{0.0};
    double min{0.0};
    double max{0.0};
    double p50{0.0};
    double p95{0.0};
    double p99{0.0};
  };
  [[nodiscard]] Summary Summarize() const;

  /// Stable identity for baseline matching: name plus sorted params.
  [[nodiscard]] std::string Key() const;
};

struct BenchSuite {
  std::string suite;  // "quick", "full", "fig7", ...
  std::map<std::string, std::string> environment;
  std::vector<BenchResult> results;

  /// Pretty-printed (one result per line block) schema-versioned JSON.
  [[nodiscard]] std::string ToJson() const;
  static StatusOr<BenchSuite> FromJson(const std::string& text);

  Status WriteFile(const std::string& path) const;
  static StatusOr<BenchSuite> ReadFile(const std::string& path);

  /// Result lookup by Key(); nullptr when absent.
  [[nodiscard]] const BenchResult* Find(const std::string& key) const;
};

/// Build/platform identity recorded into every suite: compiler, C++
/// standard, build type, OS, and pointer width. Deliberately excludes
/// wall-clock timestamps so identical builds fingerprint identically.
std::map<std::string, std::string> EnvironmentFingerprint();

}  // namespace dear::perflab
