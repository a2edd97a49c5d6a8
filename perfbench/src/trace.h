// Outside-in span tracing for the benchmark.
//
// The benchmark wraps its own calls into each library layer (train, core,
// fusion, comm, kernels, sched, sim, tune) in spans; nothing inside the
// library is instrumented. Each thread owns one Recorder, so recording is
// lock-free: a span is two steady_clock reads and one vector append.
// Spans stay in memory until the run ends, when the analysis below turns
// them into per-layer metrics and they are written out as a Chrome trace.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench::trace {

/// Monotonic nanoseconds (std::chrono::steady_clock).
std::int64_t NowNs();

struct Span {
  const char* name{""};  // string literal; compared by content
  std::int32_t parent{-1};  // index into the same Recorder, -1 = root
  std::int64_t start_ns{0};
  std::int64_t end_ns{0};
  [[nodiscard]] std::int64_t duration() const { return end_ns - start_ns; }
};

/// Spans of one thread. Not thread-safe: one Recorder per thread.
class Recorder {
 public:
  explicit Recorder(int thread = 0) : thread_(thread) {}

  /// While disabled, Begin returns -1 and records nothing.
  void set_enabled(bool enabled) { enabled_ = enabled; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  int Begin(const char* name);
  void End(int index);

  [[nodiscard]] int thread() const { return thread_; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Appends a finished span (used by self-tests to build synthetic trees).
  int Add(const char* name, std::int32_t parent, std::int64_t start_ns,
          std::int64_t end_ns);

 private:
  int thread_;
  bool enabled_{false};
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;  // stack of open span indices
};

/// RAII span on `recorder`; a no-op when the recorder is disabled.
class Scope {
 public:
  Scope(Recorder& recorder, const char* name)
      : recorder_(recorder), index_(recorder.Begin(name)) {}
  ~Scope() { recorder_.End(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Recorder& recorder_;
  int index_;
};

/// Self time of every span: its duration minus the part of its interval
/// that the union of its children's intervals covers.
std::vector<std::int64_t> SelfTimes(const std::vector<Span>& spans);

/// Index of each span's root ancestor (itself for roots).
std::vector<std::int32_t> Roots(const std::vector<Span>& spans);

/// Structural check of one thread's spans: every span is closed, every
/// child lies inside its parent, and for every span self time plus the sum
/// of its children's durations equals its duration within `tolerance`
/// (relative; children that overlap each other break the equality).
/// Returns an empty string when the trace is sound, else the first defect.
std::string CheckNesting(const std::vector<Span>& spans,
                         double tolerance = 0.01);

/// Writes all recorders' spans as a Chrome trace-event JSON file (one tid
/// per recorder). Returns false if the file cannot be written.
bool WriteChromeTrace(const std::string& path,
                      const std::vector<const Recorder*>& recorders);

}  // namespace perfbench::trace
