// Offline α–β calibration: least-squares fits of the Hockney model from
// the collective brackets a run's flight-recorder journal already holds.
//
// The paper's pipelining argument (Eq. 3–5) assumes collective time is
// t(d) = A·α + B·d·β with per-algorithm structure constants A and B (the
// message count and the effective bytes-on-the-wire factor). This module
// inverts that relationship, the way the paper fits α and β on its testbed:
// after a run, every top-level collective bracket (kCollectiveBegin/End,
// comm/probe.h) becomes one (bytes, ns) sample of its shape, and the fit
// recovers the network's (α, β) — the measured counterpart of
// comm::NetworkModel's hand-fitted presets.
//
// Nothing here runs while the collectives do: the bracket is the one
// timing of a collective, and `dearsim doctor` / `dearsim profile` call
// Calibrate on the journal snapshot they already take.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "flightrec/journal.h"

namespace dear::analysis {

/// Cost *shapes* — collective algorithms with distinct (A, B) structure
/// constants in t = A·α + B·d·β. Values are stable: reports and metric
/// keys name them through ShapeName.
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

/// Simple linear regression y = intercept + slope·x using centered
/// (Welford) accumulators. O(1) state, no allocation.
class LinearFit {
 public:
  void Add(double x, double y) noexcept;

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
  /// Fit() under intercept >= 0: when the free line's intercept is
  /// negative, the least-squares line through the origin (r2 then
  /// measured against the same mean as the free fit's).
  [[nodiscard]] std::optional<Line> FitNonNegativeIntercept(
      std::size_t min_samples = kMinSamples) const noexcept;

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

/// The shape whose line prices a journaled collective of `kind` (a
/// comm::CollectiveKind value), or nullopt when no single line does: the
/// hierarchical pair and the segmented ring depend on parameters the
/// bracket does not carry (ranks_per_node, segment size), and unknown
/// values are not collectives at all.
[[nodiscard]] std::optional<CollectiveShape> ShapeOfKind(
    std::uint32_t kind) noexcept;

/// One measured collective: `rank` moved `bytes` of wire payload through a
/// collective of `shape` in `ns`.
struct CollectiveSample {
  int rank{0};
  CollectiveShape shape{CollectiveShape::kReduceScatter};
  double bytes{0.0};
  double ns{0.0};
};

/// Every closed bracket of every rank's journal (index = rank, as
/// flightrec::Recorder::SnapshotAll returns them) whose kind has a shape,
/// as a sample: bytes = elems × the wire dtype's size, ns = the bracket's
/// span. Rank-major, journal order within a rank. A damaged journal yields
/// fewer samples, never wrong ones: an end without its begin (a wrapped
/// lane), a begin without its end, an unknown kind or dtype, and a
/// saturated element count (0xFFFFFFFF, the journal's clamp) are skipped.
[[nodiscard]] std::vector<CollectiveSample> CollectiveSamples(
    const std::vector<std::vector<flightrec::Record>>& per_rank);

/// Model duration (ns) of `shape` moving `bytes` on `world` ranks over
/// `net`: the straight line a·α + b·β·bytes.
[[nodiscard]] double PredictedNs(CollectiveShape shape, int world,
                                 const AlphaBeta& net, double bytes) noexcept;

/// Model-vs-measured residual of one population: EWMA over its samples in
/// order, with the straggler band below.
struct ResidualStats {
  std::uint64_t samples{0};
  double divergence{0.0};  // EWMA |ln(measured/predicted)|, 0 = model exact
  double mean_ratio{0.0};  // EWMA measured/predicted
  std::uint64_t anomalies{0};  // samples above the EWMA straggler band
};

/// EWMA step for the duration and residual trackers.
inline constexpr double kEwmaWeight = 0.125;
/// A sample is anomalous when its duration exceeds the (rank, shape)
/// population's EWMA mean + kBandDeviations · EWMA deviation...
inline constexpr double kBandDeviations = 6.0;
/// ...once that population has seen kWarmupSamples samples.
inline constexpr int kWarmupSamples = 8;

/// One shape's fit outcome and residuals (over every rank), for reports.
struct ShapeFit {
  CollectiveShape shape{CollectiveShape::kReduceScatter};
  int world{0};
  std::size_t samples{0};
  bool ok{false};
  const char* why{""};  // static reason string when !ok
  LinearFit::Line line;  // over the per-size minima; valid when ok
  AlphaBeta ab;          // valid when ok
  ResidualStats residual;  // sample-weighted over ranks
};

struct Calibration {
  /// Every shape with at least one sample, in CollectiveShape order.
  std::vector<ShapeFit> shapes;
  /// Pooled network estimate: sample-count-weighted mean of every shape
  /// that produced a valid (α, β); nullopt when none did.
  std::optional<AlphaBeta> network;
  std::uint64_t samples{0};  // samples calibrated (ranks in [0, world))
  /// [rank][shape] residual cells, size = world.
  std::vector<std::array<ResidualStats, kShapeCount>> ranks;
  /// Anomalies per rank (the straggler ranking input), size = world.
  [[nodiscard]] std::vector<std::uint64_t> AnomaliesByRank() const;
};

/// Fits (α, β) per shape from `samples` taken on `world` ranks and tracks
/// each (rank, shape) population's residual against `reference`.
///
/// The fit is robust to scheduling delay: it keeps the minimum duration
/// per (shape, bytes) and fits the line through those minima. A delay only
/// ever adds time, so the minimum over repetitions drops it; a population
/// needs LinearFit::kMinSamples samples over at least two sizes. α is a
/// startup cost and cannot be negative, so the line is the least-squares
/// one under intercept >= 0 (LinearFit::FitNonNegativeIntercept): a wire
/// whose per-byte cost rises with size, like an in-process memcpy past
/// the caches, bends the free line below the origin while α is ~0. Samples
/// of ranks outside [0, world) or with negative or non-finite values are
/// ignored.
[[nodiscard]] Calibration Calibrate(
    const std::vector<CollectiveSample>& samples, int world,
    const AlphaBeta& reference);

}  // namespace dear::analysis
