// Online α–β calibration: streaming least-squares fits of the Hockney model
// from measured (bytes, seconds) collective samples.
//
// The paper's pipelining argument (Eq. 3–5) assumes collective time is
// t(d) = A·α + B·d·β with per-algorithm structure constants A and B (the
// message count and the effective bytes-on-the-wire factor). This module
// inverts that relationship: feed it measured completions per
// (collective shape, world size) and it recovers the network's (α, β) —
// the measured counterpart of comm::NetworkModel's hand-fitted presets,
// and the input the ROADMAP-2 topology-aware algorithm selector needs.
//
// Accumulation is Welford-style (centered second moments), so AddSample is
// O(1), allocation-free, and numerically stable over long runs; the comm
// engine calls it on every collective completion (see comm/calibration.h)
// under the same <1%-of-smallest-collective budget the perf-lab row
// doctor.overhead_pct enforces.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <vector>

namespace dear::analysis {

/// Cost *shapes* — collective algorithms with distinct (A, B) structure
/// constants in t = A·α + B·d·β. Values are stable: they appear in
/// flightrec anomaly records and dear.doctor/1 reports.
enum class CollectiveShape : std::uint8_t {
  kReduceScatter = 0,         // ring RS,    Eq. 3
  kAllGather = 1,             // ring AG,    Eq. 4
  kRingAllReduce = 2,         // fused ring, Eq. 5
  kTreeBroadcast = 3,         // binomial-tree broadcast (or reduce)
  kRecursiveHalvingReduceScatter = 4,
  kRecursiveDoublingAllGather = 5,
  kBarrier = 6,               // dissemination barrier: pure latency
  kTreeAllReduce = 7,
  kDoubleBinaryTreeAllReduce = 8,
  kRecursiveHalvingDoublingAllReduce = 9,
};
inline constexpr std::size_t kShapeCount = 10;

/// Short stable name ("reduce_scatter", ...) for reports and metric keys.
[[nodiscard]] const char* ShapeName(CollectiveShape shape) noexcept;

/// Structure constants of t = a·α + b·d·β for `shape` on `world` ranks.
/// Must stay in lockstep with comm::CostModel's formulas — calib_test
/// cross-checks every shape against the cost model at several world sizes.
/// Both are zero for world <= 1 (collectives are free on one rank).
struct ShapeCoeffs {
  double a{0.0};  // α multiplier: number of sequential message startups
  double b{0.0};  // β multiplier per payload byte
};
[[nodiscard]] ShapeCoeffs ShapeCoefficients(CollectiveShape shape,
                                            int world) noexcept;

/// Streaming simple linear regression y = intercept + slope·x using
/// centered (Welford) accumulators. O(1) state, no allocation; not
/// thread-safe (Calibrator guards each instance with a per-slot mutex).
class LinearFit {
 public:
  void Add(double x, double y) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean_x() const noexcept { return mean_x_; }
  [[nodiscard]] double mean_y() const noexcept { return mean_y_; }
  /// True when at least two distinct x values have been seen — without
  /// that the slope is undetermined (e.g. every sample the same size, or
  /// all zero-byte barriers).
  [[nodiscard]] bool has_spread() const noexcept;

  struct Line {
    double intercept{0.0};
    double slope{0.0};
    double r2{0.0};  // coefficient of determination; 1 for a noiseless line
    std::size_t n{0};
  };
  /// The fitted line, or nullopt when the data cannot determine one:
  /// fewer than `min_samples` points or no spread in x ("insufficient
  /// data" — never a garbage fit).
  [[nodiscard]] std::optional<Line> Fit(
      std::size_t min_samples = kMinSamples) const noexcept;

  void Reset() noexcept { *this = LinearFit{}; }

  static constexpr std::size_t kMinSamples = 3;

 private:
  std::size_t n_{0};
  double mean_x_{0.0};
  double mean_y_{0.0};
  double sxx_{0.0};  // Σ(x-x̄)²
  double sxy_{0.0};  // Σ(x-x̄)(y-ȳ)
  double syy_{0.0};  // Σ(y-ȳ)²
  double min_x_{0.0};
  double max_x_{0.0};
};

struct AlphaBeta {
  double alpha_s{0.0};
  double beta_s_per_byte{0.0};
};

/// Inverts the shape structure: given the fitted line over (bytes, seconds)
/// samples, α = intercept / a and β = slope / b. nullopt when the shape is
/// degenerate at this world size (a or b is zero — e.g. world 1, or a
/// latency-only barrier whose fit carries no bandwidth information) or the
/// recovered parameters are non-physical (negative).
[[nodiscard]] std::optional<AlphaBeta> AlphaBetaFromLine(
    CollectiveShape shape, int world, const LinearFit::Line& line) noexcept;

/// One (shape, world) population's fit outcome, for reports.
struct ShapeFit {
  CollectiveShape shape{CollectiveShape::kReduceScatter};
  int world{0};
  std::size_t samples{0};
  bool ok{false};
  const char* why{""};  // static reason string when !ok
  LinearFit::Line line;  // valid when ok
  AlphaBeta ab;          // valid when ok
};

/// Always-on streaming calibrator over a fixed slot table, one slot per
/// observed (shape, world) pair.
///
/// Concurrency: AddSample is safe from any thread and allocation-free —
/// slot lookup is a bounded scan over pre-claimed entries (published with
/// release stores), and each slot's accumulator is guarded by its own
/// mutex (a handful of double updates, nanoseconds of hold time). Samples
/// arriving when all kMaxSlots are claimed are counted in dropped(), never
/// blocked on.
class Calibrator {
 public:
  static constexpr std::size_t kMaxSlots = 64;

  /// Records one measured collective: `bytes` of payload took `seconds`
  /// on `world` ranks. Zero-byte samples are accepted (they simply never
  /// produce spread, so a zero-byte-only population reports insufficient
  /// data); non-finite or negative inputs are ignored.
  void AddSample(CollectiveShape shape, int world, double bytes,
                 double seconds) noexcept;

  /// Fit of every claimed slot (including the insufficient-data ones,
  /// with `ok == false` and a reason), ordered by claim time.
  [[nodiscard]] std::vector<ShapeFit> FitAll(
      std::size_t min_samples = LinearFit::kMinSamples) const;

  /// Pooled network estimate: sample-count-weighted mean of every slot
  /// that produced a valid (α, β). nullopt when no slot did.
  [[nodiscard]] std::optional<AlphaBeta> FitNetwork(
      std::size_t min_samples = LinearFit::kMinSamples) const;

  [[nodiscard]] std::uint64_t total_samples() const noexcept {
    return total_samples_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// NOT thread-safe: requires no concurrent AddSample.
  void Reset() noexcept;

 private:
  struct Slot {
    std::atomic<bool> live{false};
    CollectiveShape shape{CollectiveShape::kReduceScatter};
    int world{0};
    mutable std::mutex mutex;
    LinearFit fit;
  };

  Slot* FindOrClaim(CollectiveShape shape, int world) noexcept;

  std::array<Slot, kMaxSlots> slots_;
  std::atomic<std::size_t> used_{0};
  std::mutex claim_mutex_;
  std::atomic<std::uint64_t> total_samples_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

}  // namespace dear::analysis
