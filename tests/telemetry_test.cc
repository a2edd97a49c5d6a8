#include "telemetry/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/timeline.h"
#include "comm/async.h"
#include "comm/communicator.h"
#include "comm/probe.h"
#include "comm/transport.h"
#include "core/trainer.h"
#include "flightrec/recorder.h"
#include "train/data.h"

namespace dear::telemetry {
namespace {

TEST(MetricsRegistryTest, CounterGaugeHistogramRoundTrip) {
  MetricsRegistry reg;
  reg.GetCounter("a").Add(3);
  reg.GetCounter("a").Add(2);
  reg.GetGauge("g").Set(1.5);
  reg.GetHistogram("h").Observe(0.25);

  EXPECT_EQ(reg.GetCounter("a").value(), 5);
  EXPECT_DOUBLE_EQ(reg.GetGauge("g").value(), 1.5);
  EXPECT_EQ(reg.GetHistogram("h").Snapshot().count(), 1u);
}

TEST(MetricsRegistryTest, SeparateKeySpacesPerType) {
  MetricsRegistry reg;
  reg.GetCounter("x").Add(1);
  reg.GetGauge("x").Set(2.0);
  reg.GetHistogram("x").Observe(3.0);
  EXPECT_EQ(reg.Counters().size(), 1u);
  EXPECT_EQ(reg.Gauges().size(), 1u);
  EXPECT_EQ(reg.Histograms().size(), 1u);
}

TEST(MetricsRegistryTest, ConcurrentUpdatesFromManyThreads) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kOps = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, t] {
      for (int i = 0; i < kOps; ++i) {
        // Same names from every thread: exercises the get-or-create race.
        reg.GetCounter("shared.counter").Add(1);
        reg.GetGauge("shared.gauge").Set(static_cast<double>(t));
        reg.GetHistogram("shared.hist").Observe(static_cast<double>(i));
        reg.GetCounter("per." + std::to_string(t)).Add(1);
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(reg.GetCounter("shared.counter").value(), kThreads * kOps);
  EXPECT_EQ(reg.GetHistogram("shared.hist").Snapshot().count(),
            static_cast<std::size_t>(kThreads * kOps));
  for (int t = 0; t < kThreads; ++t)
    EXPECT_EQ(reg.GetCounter("per." + std::to_string(t)).value(), kOps);
  const double g = reg.GetGauge("shared.gauge").value();
  EXPECT_GE(g, 0.0);
  EXPECT_LT(g, kThreads);
}

TEST(MetricsRegistryTest, JsonExportIsWellFormed) {
  MetricsRegistry reg;
  reg.GetCounter("c.one").Add(7);
  reg.GetGauge("g.one").Set(-2.5);
  reg.GetHistogram("h.one").Observe(1.0);
  const std::string json = reg.ToJson();
  EXPECT_NE(json.find("\"counters\":{\"c.one\":7}"), std::string::npos);
  EXPECT_NE(json.find("\"g.one\":-2.5"), std::string::npos);
  EXPECT_NE(json.find("\"p99\":"), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(MetricsRegistryTest, PrometheusExportSanitizesNames) {
  MetricsRegistry reg;
  reg.GetCounter("comm.bytes-sent").Add(1);
  const std::string text = reg.ToPrometheus("rank=\"3\"");
  EXPECT_NE(text.find("# TYPE dear_comm_bytes_sent counter"),
            std::string::npos);
  EXPECT_NE(text.find("dear_comm_bytes_sent{rank=\"3\"} 1"),
            std::string::npos);
}

TEST(MetricsRegistryTest, PrometheusEveryFamilyHasHelpAndType) {
  // Prometheus exposition hygiene: every metric family must carry a
  // `# HELP` line immediately followed by its `# TYPE` line. Exercise one
  // family of each kind plus names covered by the curated help table.
  MetricsRegistry reg;
  reg.GetCounter("comm.messages_sent").Add(3);
  reg.GetCounter("comm.wire_bytes.f16").Add(1);
  reg.GetGauge("transport.pool.bytes_in_flight").Set(42);
  reg.GetHistogram("comm.model.residual.all_gather").Observe(0.5);
  const std::string text = reg.ToPrometheus("");

  std::istringstream lines(text);
  std::string line;
  std::string pending_help_family;
  std::size_t families = 0;
  while (std::getline(lines, line)) {
    if (line.rfind("# HELP ", 0) == 0) {
      // "# HELP <family> <non-empty text>"
      std::istringstream fields(line.substr(7));
      std::string family, word;
      fields >> family;
      ASSERT_TRUE(fields >> word) << "empty HELP text: " << line;
      EXPECT_TRUE(pending_help_family.empty())
          << "two HELP lines without a TYPE between: " << line;
      pending_help_family = family;
      ++families;
    } else if (line.rfind("# TYPE ", 0) == 0) {
      std::istringstream fields(line.substr(7));
      std::string family, kind;
      fields >> family >> kind;
      EXPECT_EQ(family, pending_help_family)
          << "TYPE family does not match the preceding HELP";
      EXPECT_TRUE(kind == "counter" || kind == "gauge" || kind == "summary")
          << "unknown TYPE kind: " << line;
      pending_help_family.clear();
    }
  }
  EXPECT_TRUE(pending_help_family.empty()) << "trailing HELP without TYPE";
  // counter x2, gauge, and the summary family all made it out.
  EXPECT_EQ(families, 4u);

  // Curated help text for the hot families, not just the fallback.
  EXPECT_NE(text.find("# HELP dear_comm_messages_sent "), std::string::npos);
  EXPECT_NE(
      text.find("# TYPE dear_transport_pool_bytes_in_flight gauge"),
      std::string::npos);
  EXPECT_NE(
      text.find("# TYPE dear_comm_model_residual_all_gather summary"),
      std::string::npos);
}

// Validates one exposition-format metric line:
//   name ::= [a-zA-Z_:][a-zA-Z0-9_:]*
//   line ::= name ['{' label '=' '"' escaped '"' (',' label...)* '}'] ' ' value
//   value ::= Go-style float | "NaN" | "+Inf" | "-Inf"
void ExpectValidPrometheusLine(const std::string& line) {
  auto name_char = [](char c, bool first) {
    const bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       c == '_' || c == ':';
    return first ? alpha : (alpha || (c >= '0' && c <= '9'));
  };
  std::size_t i = 0;
  ASSERT_FALSE(line.empty());
  ASSERT_TRUE(name_char(line[0], true)) << line;
  while (i < line.size() && name_char(line[i], false)) ++i;
  if (i < line.size() && line[i] == '{') {
    ++i;
    while (i < line.size() && line[i] != '}') {
      ASSERT_TRUE(name_char(line[i], true)) << "label name: " << line;
      while (i < line.size() && name_char(line[i], false)) ++i;
      ASSERT_LT(i, line.size());
      ASSERT_EQ(line[i], '=') << line;
      ASSERT_EQ(line[++i], '"') << line;
      ++i;
      while (i < line.size() && line[i] != '"') {
        if (line[i] == '\\') ++i;  // escaped char
        ++i;
      }
      ASSERT_LT(i, line.size()) << "unterminated label value: " << line;
      ++i;  // closing quote
      if (i < line.size() && line[i] == ',') ++i;
    }
    ASSERT_LT(i, line.size()) << "unterminated label set: " << line;
    ++i;  // '}'
  }
  ASSERT_LT(i, line.size()) << "missing value: " << line;
  ASSERT_EQ(line[i], ' ') << line;
  const std::string value = line.substr(i + 1);
  ASSERT_FALSE(value.empty()) << line;
  if (value == "NaN" || value == "+Inf" || value == "-Inf") return;
  // Everything else must parse as a float consuming the whole token —
  // and printf's lowercase "nan"/"inf" forms are NOT valid exposition.
  EXPECT_EQ(value.find("nan"), std::string::npos) << line;
  EXPECT_EQ(value.find("inf"), std::string::npos) << line;
  std::size_t consumed = 0;
  const double parsed = std::stod(value, &consumed);
  EXPECT_EQ(consumed, value.size()) << "trailing junk in value: " << line;
  (void)parsed;
}

TEST(MetricsRegistryTest, PrometheusScrapeGrammarHoldsForEveryLine) {
  MetricsRegistry reg;
  reg.GetCounter("comm.messages_sent").Add(12);
  reg.GetCounter("weird-name.with%chars").Add(1);
  reg.GetGauge("comm.model.divergence.ring_all_reduce").Set(0.125);
  reg.GetGauge("gauge.nan").Set(std::nan(""));
  reg.GetGauge("gauge.pos_inf").Set(std::numeric_limits<double>::infinity());
  reg.GetGauge("gauge.neg_inf").Set(-std::numeric_limits<double>::infinity());
  auto& h = reg.GetHistogram("comm.model.residual.ring_all_reduce");
  h.Observe(0.5);
  h.Observe(1.5);
  reg.GetHistogram("hist.empty");  // quantiles over zero observations

  for (const char* labels : {"", "rank=\"3\",job=\"dear\""}) {
    const std::string text = reg.ToPrometheus(labels);
    std::istringstream lines(text);
    std::string line;
    std::size_t metric_lines = 0;
    while (std::getline(lines, line)) {
      if (line.empty() || line[0] == '#') continue;
      ExpectValidPrometheusLine(line);
      ++metric_lines;
    }
    // 2 counters + 4 gauges + 2 summaries x (3 quantiles + sum + count).
    EXPECT_EQ(metric_lines, 2u + 4u + 2u * 5u);
  }

  // The non-finite spellings themselves.
  const std::string text = reg.ToPrometheus("");
  EXPECT_NE(text.find("dear_gauge_nan NaN"), std::string::npos);
  EXPECT_NE(text.find("dear_gauge_pos_inf +Inf"), std::string::npos);
  EXPECT_NE(text.find("dear_gauge_neg_inf -Inf"), std::string::npos);

  // JSON cannot carry non-finite numbers; they export as 0 there.
  const std::string json = reg.ToJson();
  EXPECT_NE(json.find("\"gauge.nan\":0"), std::string::npos);
  EXPECT_NE(json.find("\"gauge.pos_inf\":0"), std::string::npos);
  EXPECT_NE(json.find("\"gauge.neg_inf\":0"), std::string::npos);
}

// Only the outermost probe on a thread journals: a composite collective is
// one begin/end pair under its own kind.
TEST(TelemetryRuntimeTest, NestedCollectiveProbesCountOnce) {
  auto& recorder = flightrec::Recorder::Get();
  recorder.EnsureRanks(1);
  recorder.Reset();
  {
    comm::probe::CollectiveProbe outer(0, comm::CollectiveKind::kRingAllReduce,
                                       64);
    comm::probe::CollectiveProbe inner(  // nested: suppressed
        0, comm::CollectiveKind::kRingReduceScatter, 64);
  }
  const auto journal = recorder.SnapshotAll();
  int begins = 0, ends = 0;
  for (const auto& rec : journal[0]) {
    const auto kind = static_cast<flightrec::EventKind>(rec.kind);
    if (kind != flightrec::EventKind::kCollectiveBegin &&
        kind != flightrec::EventKind::kCollectiveEnd)
      continue;
    (kind == flightrec::EventKind::kCollectiveBegin ? begins : ends)++;
    EXPECT_EQ(rec.tag,
              static_cast<std::uint32_t>(comm::CollectiveKind::kRingAllReduce));
  }
  EXPECT_EQ(begins, 1);
  EXPECT_EQ(ends, 1);
}

// Runs one all-reduce of `n` elements of `dtype` wire on a fresh
// `world`-rank hub and returns each rank's journal, paired.
std::vector<analysis::ScheduleSpans> JournaledAllReduce(int world,
                                                        std::size_t n,
                                                        comm::DType dtype) {
  comm::TransportHub hub(world);
  auto& recorder = flightrec::Recorder::Get();
  recorder.Reset();
  {
    std::vector<std::unique_ptr<comm::CommEngine>> engines;
    std::vector<std::vector<float>> buffers(static_cast<std::size_t>(world),
                                            std::vector<float>(n, 1.0f));
    std::vector<comm::CollectiveHandle> handles;
    for (int r = 0; r < world; ++r) {
      engines.push_back(
          std::make_unique<comm::CommEngine>(comm::Communicator(&hub, r)));
      handles.push_back(engines.back()->SubmitAllReduce(
          std::span<float>(buffers[static_cast<std::size_t>(r)]),
          comm::ReduceOp::kSum, dtype));
    }
    for (auto& h : handles) EXPECT_TRUE(h.Wait().ok());
  }
  const auto journal = recorder.SnapshotAll();
  std::vector<analysis::ScheduleSpans> spans;
  for (int r = 0; r < world; ++r)
    spans.push_back(
        analysis::PairScheduleRecords(journal[static_cast<std::size_t>(r)]));
  return spans;
}

// A world-2 fp16 ring all-reduce of n elements puts exactly n 2-byte
// elements on the wire per rank (RS + AG each send one half), which is what
// the export's comm.wire_bytes.f16 counter sums; the journal's bracket
// records the n elements the collective was called with.
TEST(TelemetryRuntimeTest, WireBytesAndJournalAgreeUnderFp16) {
  constexpr int kWorld = 2;
  constexpr std::size_t kN = 64;
  const auto spans = JournaledAllReduce(kWorld, kN, comm::DType::kF16);
  for (int r = 0; r < kWorld; ++r) {
    const analysis::ScheduleSpans& rank = spans[static_cast<std::size_t>(r)];
    MetricsRegistry reg;
    analysis::ExportTransportMetrics(rank, reg);
    EXPECT_EQ(reg.GetCounter("comm.wire_bytes.f16").value(),
              static_cast<std::int64_t>(kN * 2))
        << "rank " << r;
    ASSERT_EQ(rank.collectives.size(), 1u) << "rank " << r;
    EXPECT_EQ(rank.collectives[0].kind,
              static_cast<std::uint32_t>(comm::CollectiveKind::kRingAllReduce));
    EXPECT_EQ(rank.collectives[0].elems, kN) << "rank " << r;
  }
}

// World-4 fp32 ring all-reduce of n elements: RS and AG each run P-1 = 3
// rounds of one n/P-element chunk, so every rank sends and receives 6
// messages of n/4 floats, all inside the one f32 bracket.
TEST(TelemetryRuntimeTest, RingAllReduceCountsAreClosedForm) {
  constexpr int kWorld = 4;
  constexpr std::size_t kN = 256;
  constexpr std::int64_t kMessages = 2 * (kWorld - 1);
  constexpr std::int64_t kBytes = kMessages * (kN / kWorld) * sizeof(float);
  const auto spans = JournaledAllReduce(kWorld, kN, comm::DType::kF32);
  for (int r = 0; r < kWorld; ++r) {
    MetricsRegistry reg;
    analysis::ExportTransportMetrics(spans[static_cast<std::size_t>(r)], reg);
    EXPECT_EQ(reg.GetCounter("comm.messages_sent").value(), kMessages) << r;
    EXPECT_EQ(reg.GetCounter("comm.messages_received").value(), kMessages)
        << r;
    EXPECT_EQ(reg.GetCounter("comm.bytes_sent").value(), kBytes) << r;
    EXPECT_EQ(reg.GetCounter("comm.bytes_received").value(), kBytes) << r;
    EXPECT_EQ(reg.GetCounter("comm.wire_bytes.f32").value(), kBytes) << r;
    EXPECT_EQ(reg.GetCounter("comm.wire_bytes.f16").value(), 0) << r;
    EXPECT_EQ(reg.GetCounter("comm.wire_bytes.bf16").value(), 0) << r;
  }
}

// ZeRO under an fp16 wire mixes formats in one run: gradients are
// reduce-scattered as f16, parameters all-gathered as f32, the same
// element count each. Per rank the export splits the sends by bracket, so
// f32 wire bytes are exactly twice the f16 ones.
TEST(TelemetryIntegrationTest, ZeroFp16SplitsWireBytesByBracketDtype) {
  constexpr int kWorld = 4;
  auto& recorder = flightrec::Recorder::Get();
  recorder.Reset();
  const auto data = train::MakeRegressionDataset(64, 8, 4, /*seed=*/11);
  core::DistOptimOptions options;
  options.mode = sched::PolicyKind::kZeRO1;
  options.compression = core::Compression::kFp16;
  options.buffer_bytes = 256;  // several fusion groups
  core::TrainDistributed({8, 16, 16, 4}, /*model_seed=*/3, data,
                         /*iterations=*/3, /*batch=*/4, kWorld, options);
  const auto journal = recorder.SnapshotAll();
  for (int r = 0; r < kWorld; ++r) {
    MetricsRegistry reg;
    analysis::ExportTransportMetrics(
        analysis::PairScheduleRecords(journal[static_cast<std::size_t>(r)]),
        reg);
    const std::int64_t f32 = reg.GetCounter("comm.wire_bytes.f32").value();
    const std::int64_t f16 = reg.GetCounter("comm.wire_bytes.f16").value();
    EXPECT_GT(f16, 0) << "rank " << r;
    EXPECT_EQ(f32, 2 * f16) << "rank " << r;
    EXPECT_EQ(reg.GetCounter("comm.wire_bytes.bf16").value(), 0);
  }
}

// End-to-end: a real threaded DeAR training run must journal, for every
// rank, reduce-scatter AND all-gather collective brackets (the decoupled
// BackPipe/FeedPipe pair), strictly alternating begin/end — one CommEngine
// thread per rank never overlaps itself — and every send inside one of
// them, so the per-dtype wire bytes add up to all bytes sent.
TEST(TelemetryIntegrationTest, TrainDistributedJournalsPerRankCollectives) {
  constexpr int kWorld = 4;
  constexpr int kIterations = 3;
  auto& recorder = flightrec::Recorder::Get();
  recorder.Reset();

  const std::vector<int> dims{8, 16, 16, 4};
  const auto data = train::MakeRegressionDataset(64, 8, 4, /*seed=*/11);
  core::DistOptimOptions options;
  options.mode = sched::PolicyKind::kDeAR;
  options.buffer_bytes = 256;  // several fusion groups
  const auto result =
      core::TrainDistributed(dims, /*model_seed=*/3, data, kIterations,
                             /*batch=*/4, kWorld, options);
  EXPECT_TRUE(result.params_consistent);
  // The pool's stats are read after every rank joined: each buffer the run
  // acquired has been released.
  EXPECT_GT(result.pool.hits + result.pool.misses, 0);
  EXPECT_EQ(result.pool.in_flight_buffers, 0);

  const auto journal = recorder.SnapshotAll();
  ASSERT_GE(journal.size(), static_cast<std::size_t>(kWorld));
  for (int r = 0; r < kWorld; ++r) {
    int rs = 0, ag = 0, depth = 0;
    for (const auto& rec : journal[static_cast<std::size_t>(r)]) {
      const auto kind = static_cast<flightrec::EventKind>(rec.kind);
      if (kind == flightrec::EventKind::kCollectiveBegin) {
        EXPECT_EQ(depth++, 0) << "rank " << r << ": overlapping collectives";
        const std::string name = comm::CollectiveKindName(rec.tag);
        if (name == "ring_reduce_scatter") ++rs;
        if (name == "ring_all_gather") ++ag;
      } else if (kind == flightrec::EventKind::kCollectiveEnd) {
        EXPECT_EQ(--depth, 0) << "rank " << r;
      }
    }
    EXPECT_GE(rs, 1) << "rank " << r;
    EXPECT_GE(ag, 1) << "rank " << r;

    // DistOptim's schedule records: one step-end per iteration, and the
    // launches of both halves of the decoupled pair.
    int step_ends = 0, rs_launches = 0, ag_launches = 0;
    for (const auto& rec : journal[static_cast<std::size_t>(r)]) {
      switch (static_cast<flightrec::EventKind>(rec.kind)) {
        case flightrec::EventKind::kStepEnd: ++step_ends; break;
        case flightrec::EventKind::kRsLaunch: ++rs_launches; break;
        case flightrec::EventKind::kAgLaunch: ++ag_launches; break;
        default: break;
      }
    }
    EXPECT_EQ(step_ends, kIterations) << "rank " << r;
    EXPECT_GE(rs_launches, 1) << "rank " << r;
    EXPECT_GE(ag_launches, 1) << "rank " << r;

    const auto spans =
        analysis::PairScheduleRecords(journal[static_cast<std::size_t>(r)]);
    EXPECT_GT(spans.sent.bytes, 0) << "rank " << r;
    EXPECT_GT(spans.received.bytes, 0) << "rank " << r;
    std::int64_t in_brackets = 0;
    for (const auto& c : spans.collectives)
      in_brackets += static_cast<std::int64_t>(c.sent_bytes);
    EXPECT_EQ(in_brackets, spans.sent.bytes) << "rank " << r;
  }
}

// The attribution report built from a REAL threaded run's journal must
// reconcile: every rank's compute + exposed-RS + exposed-AG + straggler must
// equal its measured iteration time within the 1% default tolerance,
// across schedule modes (dear exercises the rs/ag wait pair, wfbp the
// fused all-reduce path).
TEST(TelemetryIntegrationTest, AttributionDecompositionSumsToIterationTime) {
  for (const auto mode :
       {sched::PolicyKind::kDeAR, sched::PolicyKind::kDDP}) {
    constexpr int kWorld = 3;
    auto& recorder = flightrec::Recorder::Get();
    recorder.Reset();
    const auto data = train::MakeRegressionDataset(48, 8, 4, /*seed=*/11);
    core::DistOptimOptions options;
    options.mode = mode;
    options.buffer_bytes = 256;  // several fusion groups
    core::TrainDistributed({8, 16, 16, 4}, /*model_seed=*/3, data,
                           /*iterations=*/4, /*batch=*/4, kWorld, options);

    const auto report =
        analysis::AttributeIterations(recorder.SnapshotAll(), kWorld);
    // 4 Step() calls -> 3 between-step windows on every rank.
    ASSERT_EQ(report.iterations, 3);
    EXPECT_TRUE(report.consistent)
        << "max residual " << report.max_residual_fraction;
    double total_caused = 0.0, total_straggler = 0.0;
    for (const auto& rank : report.ranks) {
      EXPECT_GT(rank.iter_ms, 0.0);
      EXPECT_GE(rank.compute_ms, 0.0);
      EXPECT_GE(rank.exposed_rs_ms + rank.exposed_ag_ms, 0.0);
      EXPECT_LE(rank.exposed_rs_ms + rank.exposed_ag_ms, rank.iter_ms);
      EXPECT_LE(rank.residual_fraction, report.tolerance);
      EXPECT_FALSE(rank.groups.empty());
      total_caused += rank.caused_straggler_ms;
      total_straggler += rank.straggler_ms;
    }
    // Every charged straggler-millisecond names a culprit rank.
    EXPECT_NEAR(total_caused, total_straggler, 1e-9);
    EXPECT_EQ(report.straggler_ranking.size(),
              static_cast<std::size_t>(kWorld));
  }
}

}  // namespace
}  // namespace dear::telemetry
