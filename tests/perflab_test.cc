// Perf-lab structured results: JSON parser, schema round-trip, quantile
// policy, the process-wide sink, and the measurement table (registry
// invariants, bar evaluation, and every count row).
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <limits>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "perflab/bench_schema.h"
#include "perflab/json.h"
#include "perflab/samplers.h"
#include "perflab/sink.h"
#include "perflab/suites.h"

namespace dear::perflab {
namespace {

TEST(JsonTest, ParsesScalarsArraysObjects) {
  const auto v = Json::Parse(
      R"({"a": 1.5, "b": "x\ny", "c": [true, false, null], "d": {}})");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->type(), Json::Type::kObject);
  EXPECT_DOUBLE_EQ(v->GetNumber("a"), 1.5);
  EXPECT_EQ(v->GetString("b"), "x\ny");
  const Json* c = v->Get("c");
  ASSERT_NE(c, nullptr);
  ASSERT_EQ(c->array().size(), 3u);
  EXPECT_TRUE(c->array()[0].boolean());
  EXPECT_TRUE(c->array()[2].is_null());
  EXPECT_EQ(v->Get("missing"), nullptr);
  EXPECT_DOUBLE_EQ(v->GetNumber("missing", -1.0), -1.0);
}

TEST(JsonTest, RejectsMalformedInput) {
  for (const char* bad : {"", "{", "[1,]", "{\"a\":}", "1 2", "tru",
                          "\"unterminated", "{\"a\" 1}"}) {
    EXPECT_FALSE(Json::Parse(bad).ok()) << "input: " << bad;
  }
}

TEST(JsonTest, RejectsExcessiveNesting) {
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += "[";
  for (int i = 0; i < 100; ++i) deep += "]";
  EXPECT_FALSE(Json::Parse(deep).ok());
}

TEST(JsonTest, DuplicateKeysKeepFirst) {
  const auto v = Json::Parse(R"({"k": 1, "k": 2})");
  ASSERT_TRUE(v.ok());
  EXPECT_DOUBLE_EQ(v->GetNumber("k"), 1.0);
  EXPECT_EQ(v->members().size(), 1u);
}

TEST(JsonTest, NumberFormattingRoundTrips) {
  for (double d : {0.0, 1.0, -2.5, 0.1, 1e-9, 12345.6789, 1e300}) {
    const std::string text = JsonNumber(d);
    const auto parsed = Json::Parse(text);
    ASSERT_TRUE(parsed.ok()) << text;
    EXPECT_DOUBLE_EQ(parsed->number(), d) << text;
  }
  EXPECT_EQ(JsonNumber(std::numeric_limits<double>::infinity()), "0");
}

TEST(JsonTest, EscapeCoversQuotesAndControls) {
  EXPECT_EQ(JsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  const auto parsed = Json::Parse("\"" + JsonEscape("tab\there") + "\"");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->str(), "tab\there");
}

TEST(SampleQuantileTest, ExactOrderStatisticsForSmallN) {
  const std::vector<double> v{40.0, 10.0, 30.0, 20.0};
  EXPECT_DOUBLE_EQ(SampleQuantile(v, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(SampleQuantile(v, 1.0), 40.0);
  EXPECT_DOUBLE_EQ(SampleQuantile(v, 0.5), 25.0);   // interpolated
  EXPECT_DOUBLE_EQ(SampleQuantile(v, 0.25), 17.5);  // matches Percentile
  EXPECT_DOUBLE_EQ(SampleQuantile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(SampleQuantile({7.0}, 0.99), 7.0);
}

TEST(SampleQuantileTest, FallsBackToHistogramAboveLimit) {
  std::vector<double> v(kExactQuantileLimit + 1);
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i] = 1e-3 * static_cast<double>(i + 1);
  const double p50 = SampleQuantile(v, 0.5);
  // Bucketed estimate: not exact, but must stay in the data's range and
  // near the true median (geometric buckets -> within a factor of 2).
  const double exact = 1e-3 * 0.5 * static_cast<double>(v.size());
  EXPECT_GT(p50, exact / 2.0);
  EXPECT_LT(p50, exact * 2.0);
}

TEST(BenchSchemaTest, KeyIsNamePlusSortedParams) {
  BenchResult r;
  r.name = "sim.iter_ms";
  r.params = {{"model", "resnet50"}, {"gpus", "16"}};
  EXPECT_EQ(r.Key(), "sim.iter_ms|gpus=16|model=resnet50");
}

TEST(BenchSchemaTest, SummaryPercentilesFromRawSamples) {
  BenchResult r;
  for (int i = 1; i <= 100; ++i) r.samples.push_back(static_cast<double>(i));
  const auto s = r.Summarize();
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.mean, 50.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_NEAR(s.p50, 50.5, 1e-9);
  EXPECT_NEAR(s.p95, 95.05, 1e-9);
}

TEST(BenchSchemaTest, JsonRoundTripPreservesResults) {
  BenchSuite suite;
  suite.suite = "roundtrip";
  suite.environment = EnvironmentFingerprint();
  BenchResult r;
  r.name = "metric.a";
  r.unit = "ms";
  r.higher_is_better = false;
  r.gate_max_ratio = 1.5;
  r.params = {{"k", "v"}, {"n", "2"}};
  r.samples = {1.25, 2.5, 0.125};
  suite.results.push_back(r);

  const auto parsed = BenchSuite::FromJson(suite.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->suite, "roundtrip");
  EXPECT_EQ(parsed->environment.at("schema"), kSchemaVersion);
  ASSERT_EQ(parsed->results.size(), 1u);
  const BenchResult& back = parsed->results[0];
  EXPECT_EQ(back.Key(), r.Key());
  EXPECT_EQ(back.unit, "ms");
  EXPECT_DOUBLE_EQ(back.gate_max_ratio, 1.5);
  EXPECT_EQ(back.samples, r.samples);
  EXPECT_NE(parsed->Find(r.Key()), nullptr);
  EXPECT_EQ(parsed->Find("metric.a"), nullptr);  // params are part of the key
}

TEST(BenchSchemaTest, FromJsonRejectsWrongSchemaAndShape) {
  EXPECT_FALSE(BenchSuite::FromJson("").ok());
  EXPECT_FALSE(BenchSuite::FromJson("{}").ok());
  EXPECT_FALSE(BenchSuite::FromJson(
                   R"({"schema":"dear.bench/999","suite":"x","results":[]})")
                   .ok());
  EXPECT_FALSE(
      BenchSuite::FromJson(R"({"schema":"dear.bench/1","suite":"x"})").ok());
}

TEST(BenchSchemaTest, FileRoundTripAndUnwritablePath) {
  BenchSuite suite;
  suite.suite = "file";
  const std::string path = ::testing::TempDir() + "/dear_bench_file.json";
  ASSERT_TRUE(suite.WriteFile(path).ok());
  const auto back = BenchSuite::ReadFile(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->suite, "file");
  std::remove(path.c_str());

  EXPECT_FALSE(suite.WriteFile("/nonexistent-dir/x.json").ok());
  EXPECT_FALSE(BenchSuite::ReadFile("/nonexistent-dir/x.json").ok());
}

TEST(ResultSinkTest, FoldsSamplesByKeyAndWrites) {
  auto& sink = ResultSink::Get();
  sink.Begin("sink_test");
  ASSERT_TRUE(sink.active());
  sink.Record("m.latency", {{"world", "2"}}, 1.0, "ms");
  sink.Record("m.latency", {{"world", "2"}}, 2.0, "ms");
  sink.Record("m.latency", {{"world", "4"}}, 9.0, "ms");
  const BenchSuite snap = sink.Snapshot();
  EXPECT_EQ(snap.suite, "sink_test");
  ASSERT_EQ(snap.results.size(), 2u);  // two keys, first with two samples
  const BenchResult* folded = snap.Find("m.latency|world=2");
  ASSERT_NE(folded, nullptr);
  EXPECT_EQ(folded->samples, (std::vector<double>{1.0, 2.0}));

  const std::string path = ::testing::TempDir() + "/dear_bench_sink.json";
  ASSERT_TRUE(sink.WriteAndEnd(path).ok());
  EXPECT_FALSE(sink.active());
  // Recording after the suite ended is a silent no-op.
  sink.Record("m.latency", {}, 5.0, "ms");
  const auto back = BenchSuite::ReadFile(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->results.size(), 2u);
  std::remove(path.c_str());
}

TEST(ResultSinkTest, WriteToUnwritablePathDeactivatesAndFails) {
  auto& sink = ResultSink::Get();
  sink.Begin("sink_err");
  sink.Record("m", {}, 1.0, "ms");
  EXPECT_FALSE(sink.WriteAndEnd("/nonexistent-dir/out.json").ok());
  EXPECT_FALSE(sink.active());
}

TEST(SuitesTest, UnknownSuiteIsNotFound) {
  const auto r = RunSuite("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_NE(r.status().ToString().find("quick"), std::string::npos);
}

const Row* FindRow(const std::string& key) {
  for (const Row& row : Rows()) {
    if (row.Key() == key) return &row;
  }
  return nullptr;
}

TEST(SuitesTest, RegistryInvariants) {
  std::set<std::string> keys;
  for (const Row& row : Rows()) {
    EXPECT_TRUE(keys.insert(row.Key()).second) << "duplicate " << row.Key();
    EXPECT_NE(row.views & kFull, 0u) << row.Key() << ": quick must be in full";
    EXPECT_FALSE(row.unit.empty()) << row.Key();
    EXPECT_GT(row.gate_max_ratio, 1.0) << row.Key();
    if (!row.bar) continue;
    EXPECT_NE(row.bar->views & kFull, 0u) << row.Key();
    // Deterministic bars gate quick; timing bars only the full view.
    EXPECT_EQ((row.bar->views & kQuick) != 0, row.kind == Kind::kCount)
        << row.Key();
  }
  EXPECT_EQ(SuiteNames(), (std::vector<std::string>{"quick", "full"}));
}

TEST(SuitesTest, QuickSuiteHoldsBarsAndCoversBaseline) {
  SuiteRunOptions options;
  options.repeats = 1;  // keep the test fast; coverage, not statistics
  std::ostringstream progress;
  options.progress = &progress;
  const auto run = RunSuite("quick", options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const BenchSuite& suite = run->suite;
  EXPECT_EQ(suite.suite, "quick");
  EXPECT_EQ(suite.environment.at("schema"), kSchemaVersion);
  for (const auto& r : suite.results) {
    EXPECT_FALSE(r.samples.empty()) << r.Key();
    const Row* row = FindRow(r.Key());
    ASSERT_NE(row, nullptr) << r.Key();
    EXPECT_NE(row->views & kQuick, 0u) << r.Key();
  }
  // The count bars are enforced in quick, and they hold.
  EXPECT_FALSE(run->bars.empty());
  for (const BarVerdict& v : run->bars) {
    EXPECT_TRUE(v.pass) << v.key << ": " << v.rule << " measured " << v.value;
  }
  EXPECT_TRUE(run->ok());
  // Every key of the committed baseline is still measured, so no gate
  // silently disappears.
  const auto baseline = BenchSuite::ReadFile(DEAR_QUICK_BASELINE);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  for (const BenchResult& b : baseline->results) {
    EXPECT_NE(suite.Find(b.Key()), nullptr) << "dropped " << b.Key();
  }
  // The wall/exact metric classes both appear, with their distinct gates.
  const BenchResult* wall =
      suite.Find("runtime.train_iter_ms|schedule=dear|world=2");
  ASSERT_NE(wall, nullptr);
  EXPECT_DOUBLE_EQ(wall->gate_max_ratio, 3.0);
  const BenchResult* sim = suite.Find(
      "sim.iter_ms|gpus=16|model=resnet50|network=10gbe|policy=dear");
  ASSERT_NE(sim, nullptr);
  EXPECT_DOUBLE_EQ(sim->gate_max_ratio, 1.02);
  EXPECT_GT(sim->samples[0], 0.0);
  const auto back = BenchSuite::FromJson(suite.ToJson());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->results.size(), suite.results.size());
  EXPECT_NE(progress.str().find("runtime.train_iter_ms"), std::string::npos);
}

/// A row that records fixed samples under `name` + `params`.
Row Fixed(const std::string& name, std::map<std::string, std::string> params,
          double value) {
  Row row;
  row.name = name;
  row.params = std::move(params);
  row.unit = "x";
  row.gate_max_ratio = 3.0;
  row.kind = Kind::kValue;
  row.body = [value](const RowContext&) -> StatusOr<std::vector<double>> {
    return std::vector<double>{value};
  };
  return row;
}

TEST(SuitesTest, OverheadBarPassesAtHalfPercentFailsAtOneAndAHalf) {
  const Row* overhead = FindRow("flightrec.overhead_pct|kb=4|world=2");
  ASSERT_NE(overhead, nullptr);
  const std::map<std::string, std::string> small = {{"kb", "4"},
                                                    {"world", "2"}};
  // 25 ns x 12 records = 300 ns on a 60 us op is 0.5%; on 20 us, 1.5%.
  for (const auto& [op_ms, pass] : {std::pair{0.06, true}, {0.02, false}}) {
    const std::vector<Row> rows = {
        Fixed("flightrec.event_ns", {}, 25.0),
        Fixed("flightrec.records_per_op", small, 12.0),
        Fixed("comm.small_allreduce_ms", small, op_ms), *overhead};
    const SuiteRun run = RunRows(rows, "synthetic", kFull, {});
    ASSERT_EQ(run.bars.size(), 1u);
    EXPECT_NEAR(run.bars[0].value, pass ? 0.5 : 1.5, 1e-9);
    EXPECT_EQ(run.bars[0].pass, pass) << run.bars[0].rule;
    EXPECT_EQ(run.ok(), pass);
  }
  // Missing inputs fail the row instead of passing it vacuously.
  const SuiteRun orphan = RunRows({*overhead}, "synthetic", kFull, {});
  ASSERT_EQ(orphan.bars.size(), 1u);
  EXPECT_FALSE(orphan.ok());
}

TEST(SuitesTest, CountRowCatchesOneAllocationPerOp) {
  const Row mutant = AllocRow("mutant.alloc_per_op", {}, [](int repeats) {
    return AllocsPerOp(repeats, 16, [] {
      auto leak_free = std::make_unique<int>(7);
      Escape(leak_free);
    });
  });
  SuiteRunOptions options;
  options.repeats = 2;
  const SuiteRun run = RunRows({mutant}, "mutation", kQuick, options);
  ASSERT_EQ(run.suite.results.size(), 1u);
  // Recorded as 1 + allocs/op: one allocation per op reads 2.
  EXPECT_EQ(run.suite.results[0].samples, (std::vector<double>{2.0, 2.0}));
  ASSERT_EQ(run.bars.size(), 1u);
  EXPECT_FALSE(run.bars[0].pass);
  EXPECT_DOUBLE_EQ(run.bars[0].value, 2.0);
}

// Every count row, as its own unit-tier case (ctest perflab_count_rows):
// exact and deterministic, so its bar holds under every build.
class CountRowTest : public ::testing::TestWithParam<std::string> {};

TEST_P(CountRowTest, MeasuresAndHoldsItsBar) {
  const Row* row = FindRow(GetParam());
  ASSERT_NE(row, nullptr);
  SuiteRunOptions options;
  options.repeats = 2;
  const SuiteRun run = RunRows({*row}, "count", kQuick, options);
  ASSERT_EQ(run.suite.results.size(), 1u) << run.bars.front().rule;
  for (double s : run.suite.results[0].samples) EXPECT_GE(s, 1.0);
  for (const BarVerdict& v : run.bars) {
    EXPECT_TRUE(v.pass) << v.key << ": " << v.rule << " measured " << v.value;
  }
}

std::vector<std::string> CountRowKeys() {
  std::vector<std::string> keys;
  for (const Row& row : Rows()) {
    if (row.kind == Kind::kCount) keys.push_back(row.Key());
  }
  return keys;
}

INSTANTIATE_TEST_SUITE_P(
    CountRows, CountRowTest, ::testing::ValuesIn(CountRowKeys()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& ch : name) {
        if (std::isalnum(static_cast<unsigned char>(ch)) == 0) ch = '_';
      }
      return name;
    });

}  // namespace
}  // namespace dear::perflab
