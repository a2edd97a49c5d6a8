// Thread-safe metrics primitives and a named registry.
//
// A MetricsRegistry owns counters, gauges, and fixed-bucket histograms keyed
// by dotted names ("comm.bytes_sent", "comm.model.residual.all_gather").
// Lookups return stable references; updates on the returned objects are
// lock-free (counters/gauges) or take one short mutex (histograms).
// Snapshots export as JSON or Prometheus-style text.
//
// Nothing on the runtime's hot path writes a registry: `dearsim profile`
// fills local ones after the run, from the flight-recorder journal
// (analysis::ExportTransportMetrics), the transport pool's PoolStats and
// the offline calibration (tools/lint.py rule telemetry-export-only).
//
// Metric-name <-> paper-quantity mapping lives in DESIGN.md §Observability.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/stats.h"

namespace dear::telemetry {

/// Monotonically increasing integer (Prometheus "counter").
class Counter {
 public:
  void Add(std::int64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Last-write-wins floating-point value (Prometheus "gauge").
class Gauge {
 public:
  void Set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// Mutex-guarded Histogram (common/stats.h) for concurrent observation.
class HistogramMetric {
 public:
  explicit HistogramMetric(std::vector<double> edges)
      : histogram_(std::move(edges)) {}

  void Observe(double x) noexcept {
    std::lock_guard<std::mutex> lock(mutex_);
    histogram_.Add(x);
  }
  /// Consistent copy for percentile queries and export.
  [[nodiscard]] Histogram Snapshot() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return histogram_;
  }

 private:
  mutable std::mutex mutex_;
  Histogram histogram_;
};

class MetricsRegistry {
 public:
  /// Get-or-create; the returned reference stays valid for the registry's
  /// lifetime. Type collisions on a name (e.g. GetGauge on a counter name)
  /// are distinct namespaces — counters, gauges, and histograms do not
  /// share a key space.
  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  /// `edges` is used only on first creation; empty means the default
  /// geometric ladder covering ~1e-7 .. ~1e5 (good for seconds and MBs).
  HistogramMetric& GetHistogram(const std::string& name,
                                std::vector<double> edges = {});

  /// Name-sorted snapshots (histograms are copied at call time).
  [[nodiscard]] std::vector<std::pair<std::string, std::int64_t>> Counters()
      const;
  [[nodiscard]] std::vector<std::pair<std::string, double>> Gauges() const;
  [[nodiscard]] std::vector<std::pair<std::string, Histogram>> Histograms()
      const;

  /// {"counters":{...},"gauges":{...},"histograms":{name:{count,sum,min,
  /// max,p50,p95,p99}}}
  [[nodiscard]] std::string ToJson() const;

  /// Prometheus text exposition. Names are sanitized ('.' and '-' -> '_')
  /// and prefixed "dear_"; `labels` (e.g. "rank=\"0\"") is attached to
  /// every sample. Histograms export as summaries (quantile samples plus
  /// _count and _sum).
  [[nodiscard]] std::string ToPrometheus(const std::string& labels = "") const;

 private:
  mutable std::shared_mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<HistogramMetric>> histograms_;
};

}  // namespace dear::telemetry
