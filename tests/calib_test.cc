#include "analysis/calib.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "comm/async.h"
#include "comm/communicator.h"
#include "comm/cost_model.h"
#include "comm/transport.h"
#include "comm/types.h"
#include "common/rng.h"
#include "flightrec/journal.h"
#include "flightrec/recorder.h"

namespace dear::analysis {
namespace {

// Every calibrated shape with the CostModel function it must agree with.
SimTime CostFor(const comm::CostModel& cost, CollectiveShape shape,
                std::size_t bytes) {
  switch (shape) {
    case CollectiveShape::kReduceScatter:
      return cost.ReduceScatter(bytes);
    case CollectiveShape::kAllGather:
      return cost.AllGather(bytes);
    case CollectiveShape::kRingAllReduce:
      return cost.RingAllReduce(bytes);
    case CollectiveShape::kTreeBroadcast:
      return cost.TreeBroadcast(bytes);
    case CollectiveShape::kRecursiveHalvingReduceScatter:
      return cost.RecursiveHalvingReduceScatter(bytes);
    case CollectiveShape::kRecursiveDoublingAllGather:
      return cost.RecursiveDoublingAllGather(bytes);
    case CollectiveShape::kBarrier:
      return cost.NegotiationLatency();
    case CollectiveShape::kTreeAllReduce:
      return cost.TreeAllReduce(bytes);
    case CollectiveShape::kDoubleBinaryTreeAllReduce:
      return cost.DoubleBinaryTreeAllReduce(bytes);
    case CollectiveShape::kRecursiveHalvingDoublingAllReduce:
      return cost.RecursiveHalvingDoublingAllReduce(bytes);
  }
  return 0;
}

// The load-bearing invariant of the whole calibration design: the (a, b)
// structure constants in calib.cc and the cost formulas in cost_model.cc
// describe the SAME algorithms. For every shape and world size, the
// straight-line prediction a·α + b·β·d must match the CostModel within its
// nanosecond rounding.
TEST(ShapeCoefficientsTest, AgreeWithCostModelForEveryShapeAndWorld) {
  const comm::NetworkModel net = comm::NetworkModel::TenGbE();
  for (int world : {2, 5, 16, 64}) {
    const comm::CostModel cost(net, world);
    for (std::size_t s = 0; s < kShapeCount; ++s) {
      const auto shape = static_cast<CollectiveShape>(s);
      const ShapeCoeffs c = ShapeCoefficients(shape, world);
      for (std::size_t bytes : {std::size_t{4096}, std::size_t{1048576}}) {
        const double predicted_ns =
            (c.a * net.alpha_s + c.b * net.beta_s_per_byte *
                                     static_cast<double>(bytes)) *
            1e9;
        const double model_ns =
            static_cast<double>(CostFor(cost, shape, bytes));
        EXPECT_NEAR(predicted_ns, model_ns, 2.0)
            << ShapeName(shape) << " world=" << world << " bytes=" << bytes;
      }
    }
  }
}

TEST(ShapeCoefficientsTest, DegenerateWorldsHaveZeroCoefficients) {
  for (std::size_t s = 0; s < kShapeCount; ++s) {
    const auto shape = static_cast<CollectiveShape>(s);
    EXPECT_EQ(ShapeCoefficients(shape, 1).a, 0.0) << ShapeName(shape);
    EXPECT_EQ(ShapeCoefficients(shape, 0).b, 0.0) << ShapeName(shape);
  }
}

TEST(LinearFitTest, RecoversNoiselessLineExactly) {
  LinearFit fit;
  for (double x : {1e3, 2e3, 4e3, 8e3}) fit.Add(x, 5.0 + 0.25 * x);
  const auto line = fit.Fit();
  ASSERT_TRUE(line.has_value());
  EXPECT_NEAR(line->intercept, 5.0, 1e-9);
  EXPECT_NEAR(line->slope, 0.25, 1e-12);
  EXPECT_NEAR(line->r2, 1.0, 1e-12);
  EXPECT_EQ(line->n, 4u);
}

TEST(LinearFitTest, InsufficientDataReturnsNullopt) {
  LinearFit two;
  two.Add(1.0, 1.0);
  two.Add(2.0, 2.0);
  EXPECT_FALSE(two.Fit().has_value());  // below kMinSamples

  LinearFit same_x;
  for (int i = 0; i < 10; ++i) same_x.Add(1024.0, 3.0 + 0.001 * i);
  EXPECT_FALSE(same_x.has_spread());
  EXPECT_FALSE(same_x.Fit().has_value());  // slope undetermined

  LinearFit zeros;
  for (int i = 0; i < 10; ++i) zeros.Add(0.0, 1.0);
  EXPECT_FALSE(zeros.Fit().has_value());  // all zero-byte samples
}

TEST(LinearFitTest, NonNegativeInterceptFitsThroughTheOriginWhenBent) {
  LinearFit convex;  // y = x²: the free line crosses below the origin
  for (double x : {1.0, 2.0, 4.0, 8.0}) convex.Add(x, x * x);
  ASSERT_LT(convex.Fit()->intercept, 0.0);
  const auto line = convex.FitNonNegativeIntercept();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(line->intercept, 0.0);
  EXPECT_NEAR(line->slope, 585.0 / 85.0, 1e-12);  // Σx³ / Σx²
  EXPECT_GT(line->r2, 0.0);
  EXPECT_LE(line->r2, 1.0);

  LinearFit straight;  // a positive intercept is left alone
  for (double x : {1e3, 2e3, 4e3, 8e3}) straight.Add(x, 5.0 + 0.25 * x);
  EXPECT_NEAR(straight.FitNonNegativeIntercept()->intercept, 5.0, 1e-9);
  EXPECT_NEAR(straight.FitNonNegativeIntercept()->slope, 0.25, 1e-12);
}

TEST(AlphaBetaTest, RoundTripsThroughEveryShape) {
  constexpr double kAlpha = 2.0e-5;
  constexpr double kBeta = 8.0e-10;
  for (int world : {2, 16, 64}) {
    for (std::size_t s = 0; s < kShapeCount; ++s) {
      const auto shape = static_cast<CollectiveShape>(s);
      const ShapeCoeffs c = ShapeCoefficients(shape, world);
      if (c.a <= 0.0 || c.b <= 0.0) continue;  // latency-only (barrier)
      LinearFit::Line line;
      line.intercept = c.a * kAlpha;
      line.slope = c.b * kBeta;
      line.n = 7;
      const auto ab = AlphaBetaFromLine(shape, world, line);
      ASSERT_TRUE(ab.has_value()) << ShapeName(shape);
      EXPECT_NEAR(ab->alpha_s, kAlpha, kAlpha * 1e-12) << ShapeName(shape);
      EXPECT_NEAR(ab->beta_s_per_byte, kBeta, kBeta * 1e-12)
          << ShapeName(shape);
    }
  }
}

TEST(AlphaBetaTest, NonPhysicalFitsAreRejected) {
  LinearFit::Line negative_slope;
  negative_slope.intercept = 1e-4;
  negative_slope.slope = -1e-10;
  negative_slope.n = 7;
  EXPECT_FALSE(AlphaBetaFromLine(CollectiveShape::kRingAllReduce, 16,
                                 negative_slope)
                   .has_value());
  // Barrier has b == 0: no line can yield a β.
  LinearFit::Line line;
  line.intercept = 1e-4;
  line.slope = 1e-10;
  line.n = 7;
  EXPECT_FALSE(
      AlphaBetaFromLine(CollectiveShape::kBarrier, 16, line).has_value());
}

AlphaBeta Reference(const comm::NetworkModel& net) {
  return {net.alpha_s, net.beta_s_per_byte};
}

TEST(CalibrateTest, RecoversKnownParametersFromNoisySamples) {
  constexpr double kAlpha = 3.0e-5;
  constexpr double kBeta = 7.0e-10;
  constexpr int kWorld = 16;
  Rng rng(42);
  const ShapeCoeffs c =
      ShapeCoefficients(CollectiveShape::kRingAllReduce, kWorld);
  std::vector<CollectiveSample> samples;
  for (int rep = 0; rep < 40; ++rep) {
    for (std::size_t bytes = 65536; bytes <= 4194304; bytes *= 2) {
      const double truth_ns =
          (c.a * kAlpha + c.b * kBeta * static_cast<double>(bytes)) * 1e9;
      // ±3% multiplicative noise.
      samples.push_back({0, CollectiveShape::kRingAllReduce,
                         static_cast<double>(bytes),
                         truth_ns * rng.Uniform(0.97, 1.03)});
    }
  }
  const Calibration calib = Calibrate(samples, kWorld, {kAlpha, kBeta});
  ASSERT_TRUE(calib.network.has_value());
  EXPECT_NEAR(calib.network->alpha_s, kAlpha, kAlpha * 0.10);
  EXPECT_NEAR(calib.network->beta_s_per_byte, kBeta, kBeta * 0.05);
  EXPECT_EQ(calib.samples, samples.size());
  ASSERT_EQ(calib.shapes.size(), 1u);
  EXPECT_EQ(calib.shapes[0].samples, samples.size());
  EXPECT_EQ(calib.shapes[0].line.n, 7u);  // one point per payload size
}

// Scheduling delays only ever add time. Cost-model durations with
// millisecond stalls on a third of the small-size samples — enough to tilt
// a least-squares line through every sample to a negative β — still
// recover α and β within 1%, because the fit keeps each size's minimum.
TEST(CalibrateTest, PerSizeMinimumDropsSchedulingDelays) {
  const comm::NetworkModel net = comm::NetworkModel::TenGbE();
  constexpr int kWorld = 4;
  const comm::CostModel cost(net, kWorld);
  Rng rng(7);
  std::vector<CollectiveSample> samples;
  int delayed = 0;
  for (int rep = 0; rep < 6; ++rep) {
    for (std::size_t bytes = 65536; bytes <= 4194304; bytes *= 2) {
      double ns = static_cast<double>(cost.ReduceScatter(bytes));
      const bool small = bytes <= 262144;
      if (small && (rep + static_cast<int>(bytes >> 16)) % 3 == 0) {
        ns += rng.Uniform(2e6, 20e6);  // 2-20 ms stall
        ++delayed;
      }
      samples.push_back(
          {0, CollectiveShape::kReduceScatter, static_cast<double>(bytes), ns});
    }
  }
  ASSERT_EQ(delayed, 6);  // a third of the 18 small-size samples

  // The delays do wreck a plain fit through every sample: its β is
  // non-physical or far off.
  LinearFit plain;
  for (const auto& s : samples) plain.Add(s.bytes, s.ns * 1e-9);
  const auto plain_line = plain.Fit();
  ASSERT_TRUE(plain_line.has_value());
  const auto plain_ab =
      AlphaBetaFromLine(CollectiveShape::kReduceScatter, kWorld, *plain_line);
  EXPECT_TRUE(!plain_ab || std::fabs(plain_ab->beta_s_per_byte -
                                     net.beta_s_per_byte) >
                               0.25 * net.beta_s_per_byte);

  const Calibration calib = Calibrate(samples, kWorld, Reference(net));
  ASSERT_TRUE(calib.network.has_value());
  EXPECT_NEAR(calib.network->alpha_s, net.alpha_s, net.alpha_s * 0.01);
  EXPECT_NEAR(calib.network->beta_s_per_byte, net.beta_s_per_byte,
              net.beta_s_per_byte * 0.01);
}

TEST(CalibrateTest, DegeneratePopulationsReportInsufficientData) {
  std::vector<CollectiveSample> samples;
  // One size only, many samples.
  for (int i = 0; i < 20; ++i) {
    samples.push_back({0, CollectiveShape::kReduceScatter, 1048576.0, 1e6});
  }
  // Two samples only.
  samples.push_back({0, CollectiveShape::kAllGather, 1024.0, 1e5});
  samples.push_back({0, CollectiveShape::kAllGather, 2048.0, 2e5});
  // Zero-byte barriers.
  for (int i = 0; i < 5; ++i) {
    samples.push_back({0, CollectiveShape::kBarrier, 0.0, 5e4});
  }
  const Calibration calib =
      Calibrate(samples, 8, Reference(comm::NetworkModel::TenGbE()));
  ASSERT_EQ(calib.shapes.size(), 3u);
  for (const auto& f : calib.shapes) {
    EXPECT_FALSE(f.ok) << ShapeName(f.shape);
    EXPECT_TRUE(std::string(f.why).rfind("insufficient data", 0) == 0)
        << ShapeName(f.shape) << ": " << f.why;
  }
  EXPECT_FALSE(calib.network.has_value());
}

TEST(CalibrateTest, IgnoresNonFiniteNegativeAndOutOfRangeSamples) {
  const std::vector<CollectiveSample> samples = {
      {0, CollectiveShape::kRingAllReduce, 1024.0, -1.0},
      {0, CollectiveShape::kRingAllReduce,
       std::numeric_limits<double>::quiet_NaN(), 1e6},
      {0, CollectiveShape::kRingAllReduce, 1024.0,
       std::numeric_limits<double>::infinity()},
      {4, CollectiveShape::kRingAllReduce, 1024.0, 1e6},   // rank >= world
      {-1, CollectiveShape::kRingAllReduce, 1024.0, 1e6},  // negative rank
  };
  const Calibration calib =
      Calibrate(samples, 4, Reference(comm::NetworkModel::TenGbE()));
  EXPECT_EQ(calib.samples, 0u);
  EXPECT_TRUE(calib.shapes.empty());
  EXPECT_EQ(calib.ranks.size(), 4u);
}

TEST(CalibrateTest, SelfConsistentSamplesShowNoDivergence) {
  const comm::NetworkModel net = comm::NetworkModel::TenGbE();
  const comm::CostModel cost(net, 4);
  std::vector<CollectiveSample> samples;
  for (std::size_t bytes = 65536; bytes <= 4194304; bytes *= 2) {
    samples.push_back({0, CollectiveShape::kRingAllReduce,
                       static_cast<double>(bytes),
                       static_cast<double>(cost.RingAllReduce(bytes))});
  }
  const Calibration calib = Calibrate(samples, 4, Reference(net));
  ASSERT_EQ(calib.shapes.size(), 1u);
  const ShapeFit& fit = calib.shapes[0];
  EXPECT_EQ(fit.shape, CollectiveShape::kRingAllReduce);
  EXPECT_EQ(fit.samples, 7u);
  EXPECT_EQ(fit.residual.samples, 7u);
  EXPECT_LT(fit.residual.divergence, 1e-3);
  EXPECT_NEAR(fit.residual.mean_ratio, 1.0, 1e-3);
  EXPECT_EQ(fit.residual.anomalies, 0u);
  ASSERT_TRUE(calib.network.has_value());
  EXPECT_NEAR(calib.network->alpha_s, net.alpha_s, net.alpha_s * 0.01);
  EXPECT_NEAR(calib.network->beta_s_per_byte, net.beta_s_per_byte,
              net.beta_s_per_byte * 0.01);
}

TEST(CalibrateTest, OutlierTripsTheStragglerBandOnItsRank) {
  std::vector<CollectiveSample> samples;
  const double steady = 1e6;  // 1 ms nominal duration
  for (int i = 0; i < 20; ++i) {
    samples.push_back({2, CollectiveShape::kReduceScatter, 1048576.0,
                       steady + (i % 3) * 1000.0});
  }
  // 10x the steady duration: far outside mean + 6·dev.
  samples.push_back(
      {2, CollectiveShape::kReduceScatter, 1048576.0, steady * 10});
  const Calibration calib =
      Calibrate(samples, 4, Reference(comm::NetworkModel::TenGbE()));
  const auto anomalies = calib.AnomaliesByRank();
  ASSERT_EQ(anomalies.size(), 4u);
  EXPECT_EQ(anomalies[2], 1u);
  EXPECT_EQ(anomalies[0] + anomalies[1] + anomalies[3], 0u);
  ASSERT_EQ(calib.shapes.size(), 1u);
  EXPECT_EQ(calib.shapes[0].residual.anomalies, 1u);
}

TEST(CalibrateTest, EveryEngineCollectiveHasAShape) {
  using comm::CollectiveKind;
  const auto shape = [](CollectiveKind kind) {
    return ShapeOfKind(static_cast<std::uint32_t>(kind));
  };
  EXPECT_EQ(shape(CollectiveKind::kRingReduceScatter),
            CollectiveShape::kReduceScatter);
  EXPECT_EQ(shape(CollectiveKind::kRingAllGather),
            CollectiveShape::kAllGather);
  EXPECT_EQ(shape(CollectiveKind::kRingAllReduce),
            CollectiveShape::kRingAllReduce);
  EXPECT_EQ(shape(CollectiveKind::kBarrier), CollectiveShape::kBarrier);
  EXPECT_EQ(shape(CollectiveKind::kTreeBroadcast),
            CollectiveShape::kTreeBroadcast);
  EXPECT_EQ(shape(CollectiveKind::kRecursiveReduceScatter),
            CollectiveShape::kRecursiveHalvingReduceScatter);
  EXPECT_EQ(shape(CollectiveKind::kRecursiveAllGather),
            CollectiveShape::kRecursiveDoublingAllGather);
  // No single Hockney line: two-level or segment-size dependent.
  EXPECT_FALSE(shape(CollectiveKind::kHierReduceScatter).has_value());
  EXPECT_FALSE(shape(CollectiveKind::kHierAllGather).has_value());
  EXPECT_FALSE(shape(CollectiveKind::kRingAllReduceSegmented).has_value());
  EXPECT_FALSE(
      ShapeOfKind(static_cast<std::uint32_t>(comm::kNumCollectiveKinds))
          .has_value());
}

// ---- Journal brackets -> samples -------------------------------------------

// Runs `reps` passes of a reduce-scatter + all-gather ladder on a world-2
// engine pair over `dtype`, and returns the run's samples.
std::vector<CollectiveSample> SweepSamples(comm::DType dtype, int reps) {
  flightrec::Recorder::Get().Reset();
  comm::TransportHub hub(2);
  comm::CommEngine e0(comm::Communicator(&hub, 0));
  comm::CommEngine e1(comm::Communicator(&hub, 1));
  for (int rep = 0; rep < reps; ++rep) {
    for (std::size_t elems = 1024; elems <= 65536; elems *= 4) {
      std::vector<float> a(elems, 1.0f), b(elems, 2.0f);
      std::vector<comm::CollectiveHandle> handles;
      for (auto* e : {&e0, &e1}) {
        auto& buf = e == &e0 ? a : b;
        handles.push_back(
            e->SubmitReduceScatter(buf, comm::ReduceOp::kSum, dtype));
        handles.push_back(e->SubmitAllGather(buf, dtype));
      }
      for (auto& h : handles) EXPECT_TRUE(h.Wait().ok());
    }
  }
  e0.Shutdown();
  e1.Shutdown();
  return CollectiveSamples(flightrec::Recorder::Get().SnapshotAll());
}

TEST(CollectiveSamplesTest, HalfPrecisionWireHalvesEverySamplesBytes) {
  const auto f32 = SweepSamples(comm::DType::kF32, 2);
  const auto f16 = SweepSamples(comm::DType::kF16, 2);
  // 2 passes x 4 sizes x (RS + AG) on each of 2 ranks.
  ASSERT_EQ(f32.size(), 32u);
  ASSERT_EQ(f16.size(), f32.size());
  for (std::size_t i = 0; i < f32.size(); ++i) {
    EXPECT_EQ(f16[i].rank, f32[i].rank);
    EXPECT_EQ(f16[i].shape, f32[i].shape);
    EXPECT_EQ(f16[i].bytes * 2.0, f32[i].bytes) << i;
    EXPECT_GE(f32[i].ns, 0.0);
  }
  EXPECT_EQ(f32.front().bytes, 1024.0 * 4.0);  // elems x fp32 size
}

// Records a bracket on a stand-alone journal with explicit timestamps.
void Bracket(std::vector<flightrec::Record>& out, std::uint64_t t0,
             std::uint64_t t1, comm::CollectiveKind kind, std::uint32_t elems,
             std::uint32_t dtype = 0) {
  flightrec::Record begin;
  begin.ts_ns = t0;
  begin.kind =
      static_cast<std::uint16_t>(flightrec::EventKind::kCollectiveBegin);
  begin.tag = static_cast<std::uint32_t>(kind);
  begin.payload = elems;
  flightrec::Record end = begin;
  end.ts_ns = t1;
  end.kind = static_cast<std::uint16_t>(flightrec::EventKind::kCollectiveEnd);
  end.payload = dtype;
  out.push_back(begin);
  out.push_back(end);
}

TEST(CollectiveSamplesTest, DamagedJournalYieldsOnlyIntactBrackets) {
  using comm::CollectiveKind;
  std::vector<flightrec::Record> rank0;
  // An end whose begin is gone (the lane wrapped past it).
  Bracket(rank0, 0, 10, CollectiveKind::kRingAllGather, 64);
  rank0.erase(rank0.begin());
  Bracket(rank0, 100, 200, CollectiveKind::kRingReduceScatter, 256);  // ok
  // Unknown kind tag, unknown wire dtype, saturated element count.
  Bracket(rank0, 300, 400, static_cast<CollectiveKind>(999), 256);
  Bracket(rank0, 500, 600, CollectiveKind::kRingReduceScatter, 256,
          /*dtype=*/7);
  Bracket(rank0, 700, 800, CollectiveKind::kRingReduceScatter, 0xFFFFFFFFu);
  Bracket(rank0, 900, 1500, CollectiveKind::kRingAllReduce, 128, 1);  // ok
  // A begin whose end never came (the rank is stuck in it).
  Bracket(rank0, 2000, 2100, CollectiveKind::kBarrier, 0);
  rank0.pop_back();

  const auto samples = CollectiveSamples({rank0, {}});
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[0].shape, CollectiveShape::kReduceScatter);
  EXPECT_EQ(samples[0].bytes, 1024.0);
  EXPECT_EQ(samples[0].ns, 100.0);
  EXPECT_EQ(samples[1].shape, CollectiveShape::kRingAllReduce);
  EXPECT_EQ(samples[1].bytes, 256.0);  // f16 wire: 2 bytes per element
  EXPECT_EQ(samples[1].ns, 600.0);
}

TEST(CollectiveSamplesTest, WrappedLaneKeepsItsLiveWindow) {
  // A 64-record ring written with 101 records: the live window starts at
  // an end record whose begin was overwritten.
  flightrec::Journal journal(64);
  std::vector<flightrec::Record> records;
  for (int i = 0; i < 51; ++i) {
    Bracket(records, 1000 * static_cast<std::uint64_t>(i),
            1000 * static_cast<std::uint64_t>(i) + 500,
            comm::CollectiveKind::kRingAllGather, 4096);
  }
  records.erase(records.begin());
  for (const auto& rec : records) journal.Append(rec);
  ASSERT_TRUE(journal.wrapped());
  std::vector<flightrec::Record> window;
  journal.SnapshotInto(window);
  ASSERT_EQ(window.size(), 64u);
  const auto samples = CollectiveSamples({window});
  EXPECT_EQ(samples.size(), 32u);
  for (const auto& s : samples) {
    EXPECT_EQ(s.ns, 500.0);
    EXPECT_EQ(s.bytes, 4096.0 * 4.0);
  }
}

}  // namespace
}  // namespace dear::analysis
