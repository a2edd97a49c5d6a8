#include "analysis/calib.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "analysis/timeline.h"
#include "comm/types.h"  // header-only: kind and dtype values of the brackets

namespace dear::analysis {
namespace {

int CeilLog2(int p) noexcept {
  int log = 0;
  int v = 1;
  while (v < p) {
    v <<= 1;
    ++log;
  }
  return log;
}

}  // namespace

const char* ShapeName(CollectiveShape shape) noexcept {
  switch (shape) {
    case CollectiveShape::kReduceScatter:
      return "reduce_scatter";
    case CollectiveShape::kAllGather:
      return "all_gather";
    case CollectiveShape::kRingAllReduce:
      return "ring_all_reduce";
    case CollectiveShape::kTreeBroadcast:
      return "tree_broadcast";
    case CollectiveShape::kRecursiveHalvingReduceScatter:
      return "recursive_halving_rs";
    case CollectiveShape::kRecursiveDoublingAllGather:
      return "recursive_doubling_ag";
    case CollectiveShape::kBarrier:
      return "barrier";
    case CollectiveShape::kTreeAllReduce:
      return "tree_all_reduce";
    case CollectiveShape::kDoubleBinaryTreeAllReduce:
      return "double_binary_tree";
    case CollectiveShape::kRecursiveHalvingDoublingAllReduce:
      return "recursive_halving_doubling";
  }
  return "unknown";
}

ShapeCoeffs ShapeCoefficients(CollectiveShape shape, int world) noexcept {
  if (world <= 1) return {};
  const double p = static_cast<double>(world);
  const double log_p = static_cast<double>(CeilLog2(world));
  switch (shape) {
    case CollectiveShape::kReduceScatter:
    case CollectiveShape::kAllGather:
      // Eq. 3/4: (P-1)(α + d/P·β)
      return {p - 1.0, (p - 1.0) / p};
    case CollectiveShape::kRingAllReduce:
      // Eq. 5: 2(P-1)α + 2(P-1)/P·d·β
      return {2.0 * (p - 1.0), 2.0 * (p - 1.0) / p};
    case CollectiveShape::kTreeBroadcast:
      // ceil(log2 P)·(α + d·β)
      return {log_p, log_p};
    case CollectiveShape::kRecursiveHalvingReduceScatter:
    case CollectiveShape::kRecursiveDoublingAllGather:
      // ceil(log2 P)·α + (P-1)/P·d·β
      return {log_p, (p - 1.0) / p};
    case CollectiveShape::kBarrier:
      // Dissemination: ceil(log2 P)·α, no payload
      return {log_p, 0.0};
    case CollectiveShape::kTreeAllReduce:
      return {2.0 * log_p, 2.0 * log_p};
    case CollectiveShape::kDoubleBinaryTreeAllReduce:
      // 2·ceil(log2 P)·(α + d/2·β)
      return {2.0 * log_p, log_p};
    case CollectiveShape::kRecursiveHalvingDoublingAllReduce:
      return {2.0 * log_p, 2.0 * (p - 1.0) / p};
  }
  return {};
}

void LinearFit::Add(double x, double y) noexcept {
  if (n_ == 0) {
    min_x_ = x;
    max_x_ = x;
  } else {
    if (x < min_x_) min_x_ = x;
    if (x > max_x_) max_x_ = x;
  }
  ++n_;
  const double inv_n = 1.0 / static_cast<double>(n_);
  const double dx = x - mean_x_;
  const double dy = y - mean_y_;
  mean_x_ += dx * inv_n;
  mean_y_ += dy * inv_n;
  // Centered cross/second moments: dx uses the *old* mean, (x - mean_x_)
  // the updated one — the standard numerically stable pairwise form.
  sxx_ += dx * (x - mean_x_);
  sxy_ += dx * (y - mean_y_);
  syy_ += dy * (y - mean_y_);
}

bool LinearFit::has_spread() const noexcept {
  if (n_ < 2) return false;
  // Relative spread guard: sizes differing only by rounding noise cannot
  // anchor a slope.
  const double scale = std::fmax(std::fabs(min_x_), std::fabs(max_x_));
  return (max_x_ - min_x_) > 1e-9 * std::fmax(scale, 1.0);
}

std::optional<LinearFit::Line> LinearFit::Fit(
    std::size_t min_samples) const noexcept {
  if (n_ < min_samples || !has_spread() || sxx_ <= 0.0) return std::nullopt;
  Line line;
  line.n = n_;
  line.slope = sxy_ / sxx_;
  line.intercept = mean_y_ - line.slope * mean_x_;
  line.r2 = syy_ > 0.0 ? (sxy_ * sxy_) / (sxx_ * syy_) : 1.0;
  return line;
}

std::optional<LinearFit::Line> LinearFit::FitNonNegativeIntercept(
    std::size_t min_samples) const noexcept {
  auto line = Fit(min_samples);
  if (!line || line->intercept >= 0.0) return line;
  // Uncentered sums from the centered moments: the line through the
  // origin minimizes Σ(y - s·x)² at s = Σxy / Σxx.
  const double n = static_cast<double>(n_);
  const double sum_xx = sxx_ + n * mean_x_ * mean_x_;
  const double sum_xy = sxy_ + n * mean_x_ * mean_y_;
  const double sum_yy = syy_ + n * mean_y_ * mean_y_;
  line->intercept = 0.0;
  line->slope = sum_xy / sum_xx;
  const double sse = sum_yy - sum_xy * line->slope;
  line->r2 = syy_ > 0.0 ? std::fmax(0.0, 1.0 - sse / syy_) : 1.0;
  return line;
}

std::optional<AlphaBeta> AlphaBetaFromLine(
    CollectiveShape shape, int world, const LinearFit::Line& line) noexcept {
  const ShapeCoeffs c = ShapeCoefficients(shape, world);
  if (c.a <= 0.0 || c.b <= 0.0) return std::nullopt;
  AlphaBeta ab;
  ab.alpha_s = line.intercept / c.a;
  ab.beta_s_per_byte = line.slope / c.b;
  if (!std::isfinite(ab.alpha_s) || !std::isfinite(ab.beta_s_per_byte) ||
      ab.alpha_s < 0.0 || ab.beta_s_per_byte <= 0.0) {
    return std::nullopt;
  }
  return ab;
}

std::optional<CollectiveShape> ShapeOfKind(std::uint32_t kind) noexcept {
  using comm::CollectiveKind;
  if (kind >= static_cast<std::uint32_t>(comm::kNumCollectiveKinds))
    return std::nullopt;
  switch (static_cast<CollectiveKind>(kind)) {
    case CollectiveKind::kRingReduceScatter:
      return CollectiveShape::kReduceScatter;
    case CollectiveKind::kRingAllGather:
      return CollectiveShape::kAllGather;
    case CollectiveKind::kRingAllReduce:
      return CollectiveShape::kRingAllReduce;
    case CollectiveKind::kTreeReduce:  // same line as the broadcast
    case CollectiveKind::kTreeBroadcast:
      return CollectiveShape::kTreeBroadcast;
    case CollectiveKind::kTreeAllReduce:
      return CollectiveShape::kTreeAllReduce;
    case CollectiveKind::kDbtAllReduce:
      return CollectiveShape::kDoubleBinaryTreeAllReduce;
    case CollectiveKind::kRecursiveReduceScatter:
      return CollectiveShape::kRecursiveHalvingReduceScatter;
    case CollectiveKind::kRecursiveAllGather:
      return CollectiveShape::kRecursiveDoublingAllGather;
    case CollectiveKind::kRecursiveAllReduce:
      return CollectiveShape::kRecursiveHalvingDoublingAllReduce;
    case CollectiveKind::kBarrier:
      return CollectiveShape::kBarrier;
    case CollectiveKind::kHierReduceScatter:
    case CollectiveKind::kHierAllGather:
    case CollectiveKind::kHierAllReduce:
    case CollectiveKind::kRingAllReduceSegmented:
      return std::nullopt;
  }
  return std::nullopt;
}

std::vector<CollectiveSample> CollectiveSamples(
    const std::vector<std::vector<flightrec::Record>>& per_rank) {
  std::vector<CollectiveSample> out;
  for (std::size_t r = 0; r < per_rank.size(); ++r) {
    for (const auto& c : PairScheduleRecords(per_rank[r]).collectives) {
      const auto shape = ShapeOfKind(c.kind);
      if (!shape || c.elems == 0xFFFFFFFFu ||
          c.dtype >= static_cast<std::uint32_t>(comm::kNumDTypes)) {
        continue;
      }
      out.push_back(
          {static_cast<int>(r), *shape,
           static_cast<double>(c.elems) *
               static_cast<double>(
                   comm::DTypeSize(static_cast<comm::DType>(c.dtype))),
           static_cast<double>(c.span.length())});
    }
  }
  return out;
}

double PredictedNs(CollectiveShape shape, int world, const AlphaBeta& net,
                   double bytes) noexcept {
  const ShapeCoeffs c = ShapeCoefficients(shape, world);
  return (c.a * net.alpha_s + c.b * net.beta_s_per_byte * bytes) * 1e9;
}

std::vector<std::uint64_t> Calibration::AnomaliesByRank() const {
  std::vector<std::uint64_t> out;
  for (const auto& cells : ranks) {
    std::uint64_t n = 0;
    for (const ResidualStats& cell : cells) n += cell.anomalies;
    out.push_back(n);
  }
  return out;
}

Calibration Calibrate(const std::vector<CollectiveSample>& samples,
                      int world, const AlphaBeta& reference) {
  Calibration out;
  out.ranks.resize(static_cast<std::size_t>(std::max(world, 0)));
  // Per (rank, shape): EWMA mean and deviation of the raw duration, the
  // straggler band's state.
  struct Band {
    double mean_ns{0.0};
    double dev_ns{0.0};
  };
  std::vector<std::array<Band, kShapeCount>> bands(out.ranks.size());
  // Per shape: the fastest duration seen at each payload size.
  std::array<std::map<double, double>, kShapeCount> fastest;
  constexpr double w = kEwmaWeight;

  for (const CollectiveSample& sample : samples) {
    const auto s = static_cast<std::size_t>(sample.shape);
    if (static_cast<unsigned>(sample.rank) >= out.ranks.size() ||
        s >= kShapeCount || !std::isfinite(sample.bytes) ||
        !std::isfinite(sample.ns) || sample.bytes < 0.0 || sample.ns < 0.0) {
      continue;
    }
    ++out.samples;
    auto [it, fresh] = fastest[s].try_emplace(sample.bytes, sample.ns);
    if (!fresh) it->second = std::min(it->second, sample.ns);

    ResidualStats& cell = out.ranks[static_cast<std::size_t>(sample.rank)][s];
    Band& band = bands[static_cast<std::size_t>(sample.rank)][s];
    const bool first = cell.samples == 0;
    if (cell.samples >= static_cast<std::uint64_t>(kWarmupSamples) &&
        sample.ns > band.mean_ns + kBandDeviations * band.dev_ns) {
      ++cell.anomalies;
    }
    if (first) {
      band.mean_ns = sample.ns;
    } else {
      band.dev_ns += w * (std::fabs(sample.ns - band.mean_ns) - band.dev_ns);
      band.mean_ns += w * (sample.ns - band.mean_ns);
    }
    // Residual against the reference line; no ratio when the model
    // predicts zero (a zero-byte payload on a latency-free shape).
    const double predicted =
        PredictedNs(sample.shape, world, reference, sample.bytes);
    if (predicted > 0.0) {
      const double ratio = sample.ns / predicted;
      const double log_abs = std::fabs(std::log(ratio > 0.0 ? ratio : 1e-12));
      cell.divergence =
          first ? log_abs : cell.divergence + w * (log_abs - cell.divergence);
      cell.mean_ratio =
          first ? ratio : cell.mean_ratio + w * (ratio - cell.mean_ratio);
    }
    ++cell.samples;
  }

  double pooled_weight = 0.0;
  AlphaBeta pooled;
  for (std::size_t s = 0; s < kShapeCount; ++s) {
    if (fastest[s].empty()) continue;
    ShapeFit sf;
    sf.shape = static_cast<CollectiveShape>(s);
    sf.world = world;
    for (const auto& cells : out.ranks) {
      const ResidualStats& cell = cells[s];
      const double n = static_cast<double>(cell.samples);
      sf.residual.samples += cell.samples;
      sf.residual.divergence += n * cell.divergence;
      sf.residual.mean_ratio += n * cell.mean_ratio;
      sf.residual.anomalies += cell.anomalies;
    }
    sf.samples = sf.residual.samples;
    sf.residual.divergence /= static_cast<double>(sf.samples);
    sf.residual.mean_ratio /= static_cast<double>(sf.samples);

    LinearFit fit;
    for (const auto& [bytes, ns] : fastest[s]) fit.Add(bytes, ns * 1e-9);
    // Two sizes suffice once the population holds kMinSamples samples:
    // each point is already a minimum over repetitions.
    const auto line = sf.samples < LinearFit::kMinSamples
                          ? std::nullopt
                          : fit.FitNonNegativeIntercept(/*min_samples=*/2);
    const auto ab =
        line ? AlphaBetaFromLine(sf.shape, world, *line) : std::nullopt;
    if (line) sf.line = *line;
    if (!line) {
      sf.why = sf.samples < LinearFit::kMinSamples
                   ? "insufficient data: too few samples"
                   : "insufficient data: no payload-size spread";
    } else if (!ab) {
      sf.why = ShapeCoefficients(sf.shape, world).b <= 0.0
                   ? "insufficient data: latency-only shape"
                   : "insufficient data: non-physical fit";
    } else {
      sf.ok = true;
      sf.ab = *ab;
      const double n = static_cast<double>(sf.samples);
      pooled.alpha_s += n * ab->alpha_s;
      pooled.beta_s_per_byte += n * ab->beta_s_per_byte;
      pooled_weight += n;
    }
    out.shapes.push_back(sf);
  }
  if (pooled_weight > 0.0) {
    pooled.alpha_s /= pooled_weight;
    pooled.beta_s_per_byte /= pooled_weight;
    out.network = pooled;
  }
  return out;
}

}  // namespace dear::analysis
