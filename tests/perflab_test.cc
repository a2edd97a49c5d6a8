// Perf-lab structured results: JSON parser, schema round-trip, quantile
// policy, the measurement table (registry invariants, bar evaluation,
// every count row) and its paper view.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "perflab/bench_schema.h"
#include "perflab/doctor.h"
#include "perflab/json.h"
#include "perflab/samplers.h"
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
  EXPECT_EQ(parsed->environment.at("cores"),
            std::to_string(std::thread::hardware_concurrency()));
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
    // Paper rows are exact and sit in the paper and full views only.
    const bool paper = row.name.rfind("paper.", 0) == 0;
    EXPECT_EQ((row.views & kPaper) != 0, paper) << row.Key();
    if (paper) {
      EXPECT_EQ(row.kind, Kind::kValue) << row.Key();
      EXPECT_EQ(row.views, kPaper | kFull) << row.Key();
      EXPECT_DOUBLE_EQ(row.gate_max_ratio, kExactGate) << row.Key();
    } else {
      EXPECT_TRUE(row.paper.empty()) << row.Key();
    }
    for (const Bar& bar : row.bars) {
      EXPECT_NE(bar.views & kFull, 0u) << row.Key();
      // Count bars gate quick; timing and paper bars only their views.
      EXPECT_EQ((bar.views & kQuick) != 0, row.kind == Kind::kCount)
          << row.Key();
      if (paper) {
        EXPECT_EQ(bar.views, kPaper | kFull) << row.Key();
      }
    }
  }
  EXPECT_EQ(SuiteNames(),
            (std::vector<std::string>{"quick", "full", "paper"}));
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


// ---- The paper view -------------------------------------------------------

/// One paper-view run, shared by the PaperView cases.
const SuiteRun& PaperRun() {
  static const SuiteRun run = [] {
    auto r = RunSuite("paper");
    return r.ok() ? *std::move(r) : SuiteRun{};
  }();
  return run;
}

TEST(PaperView, EveryClaimHolds) {
  const SuiteRun& run = PaperRun();
  ASSERT_FALSE(run.suite.results.empty());
  for (const BarVerdict& v : run.bars) {
    EXPECT_TRUE(v.pass) << v.key << ": " << v.rule << " measured " << v.value;
  }
  // The paper's 161 shape claims, none dropped.
  EXPECT_EQ(run.bars.size(), 161u);
}

TEST(PaperView, ExperimentsMdEmbedsEveryTableVerbatim) {
  std::ifstream f(DEAR_EXPERIMENTS_MD);
  ASSERT_TRUE(f.good()) << DEAR_EXPERIMENTS_MD;
  std::stringstream buf;
  buf << f.rdbuf();
  const std::string md = buf.str();
  const std::string begin = "<!-- paper-view:begin ";
  const std::string end = "<!-- paper-view:end -->\n";
  std::set<std::string> ids;
  for (const PaperTable& table : RenderPaperTables(PaperRun().suite)) {
    ids.insert(table.id);
    const auto start = md.find(begin + table.id + " -->");
    const auto stop = md.find(end, start);
    const std::string embedded =
        start == std::string::npos || stop == std::string::npos
            ? ""
            : md.substr(start, stop + end.size() - start);
    EXPECT_EQ(embedded, table.block)
        << "EXPERIMENTS.md block '" << table.id
        << "' differs from the paper view; replace it with this block from "
           "`dearsim bench --suite paper`:\n"
        << table.block;
  }
  // Every embedded block (a marker opening a line) is one the paper view
  // renders.
  for (auto at = md.find("\n" + begin); at != std::string::npos;
       at = md.find("\n" + begin, at + 1)) {
    const auto id_start = at + 1 + begin.size();
    const std::string id =
        md.substr(id_start, md.find(' ', id_start) - id_start);
    EXPECT_EQ(ids.count(id), 1u) << "EXPERIMENTS.md embeds unknown table "
                                 << id;
  }
}

// ---- Loaders of outside input ---------------------------------------------

DoctorReport ValidDoctorReport() {
  DoctorReport report;
  report.backend = "runtime";
  report.world = 4;
  report.reference = {"10GbE", 2.6e-5, 6.1e-10, 8e-10};
  report.has_fit = true;
  report.fitted = {"10GbE", 3.1e-5, 5.5e-10, 0.0};
  report.fit_samples = 96;
  DoctorShape shape;
  shape.shape = "ring_all_reduce";
  shape.world = 2;
  shape.samples = 48;
  shape.ok = true;
  shape.divergence = 0.25;
  shape.mean_ratio = 1.5;
  shape.anomalies = 3;
  report.shapes.push_back(shape);
  report.stragglers.push_back({1, 7});
  report.verdict = "warn";
  return report;
}

/// `doc` with the first occurrence of `from` replaced by `to`.
std::string Patched(std::string doc, const std::string& from,
                    const std::string& to) {
  const auto at = doc.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  return at == std::string::npos ? doc : doc.replace(at, from.size(), to);
}

TEST(DoctorLoadTest, RejectsCountsTooLargeForTheirField) {
  const std::string doc = ValidDoctorReport().ToJson();
  ASSERT_TRUE(DoctorReport::FromJson(doc).ok());  // only the patch is bad
  for (const auto& [from, to] :
       {std::pair{"\"world\": 4,", "\"world\": 1e300,"},
        {"\"world\": 4,", "\"world\": 2147483648,"},
        {"\"fit_samples\": 96", "\"fit_samples\": 1e300"},
        {"\"world\": 2,", "\"world\": 1e300,"},
        {"\"samples\": 48", "\"samples\": 1e20"},
        {"\"anomalies\": 3}", "\"anomalies\": 1e300}"},
        {"\"rank\": 1", "\"rank\": 1e300"},
        {"\"anomalies\": 7}", "\"anomalies\": 1e300}"}}) {
    const auto r = DoctorReport::FromJson(Patched(doc, from, to));
    ASSERT_FALSE(r.ok()) << to;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << to;
  }
}

TEST(DoctorLoadTest, RejectsNegativeCounts) {
  const std::string doc = ValidDoctorReport().ToJson();
  for (const auto& [from, to] :
       {std::pair{"\"world\": 4,", "\"world\": -1,"},
        {"\"fit_samples\": 96", "\"fit_samples\": -1"},
        {"\"samples\": 48", "\"samples\": -5"},
        {"\"anomalies\": 3}", "\"anomalies\": -1}"},
        {"\"rank\": 1", "\"rank\": -2"},
        {"\"anomalies\": 7}", "\"anomalies\": -0.5}"}}) {
    const auto r = DoctorReport::FromJson(Patched(doc, from, to));
    ASSERT_FALSE(r.ok()) << to;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << to;
  }
}

TEST(DoctorLoadTest, RejectsNonObjectStraggler) {
  const std::string doc = ValidDoctorReport().ToJson();
  for (const char* entry : {"3", "\"rank\"", "[1, 7]", "null"}) {
    const auto r = DoctorReport::FromJson(
        Patched(doc, "{\"rank\": 1, \"anomalies\": 7}", entry));
    ASSERT_FALSE(r.ok()) << entry;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << entry;
  }
}

/// `doc` after 1-3 seeded edits: a flipped byte, a truncation, a deleted
/// bracket, or a number swapped for one no field can hold.
std::string Mutate(std::string doc, std::uint64_t seed) {
  static const char* const kWild[] = {"1e300", "-1", "1e-400", "-0"};
  Rng rng(seed);
  for (auto edits = 1 + rng.NextBounded(3); edits > 0 && !doc.empty();
       --edits) {
    const std::size_t at = rng.NextBounded(doc.size());
    switch (rng.NextBounded(4)) {
      case 0:
        doc[at] = static_cast<char>(doc[at] ^ (1 + rng.NextBounded(255)));
        break;
      case 1:
        doc.resize(at);
        break;
      case 2:
        if (const auto b = doc.find_first_of("{}[]", at); b != doc.npos) {
          doc.erase(b, 1);
        }
        break;
      default:
        if (const auto n = doc.find_first_of("-0123456789", at);
            n != doc.npos) {
          const auto len = doc.find_first_not_of("+-.0123456789eE", n) - n;
          doc.replace(n, len, kWild[rng.NextBounded(4)]);
        }
    }
  }
  return doc;
}

TEST(LoaderFuzzTest, MutatedDocumentsYieldOkOrStatus) {
  const auto baseline = BenchSuite::ReadFile(DEAR_QUICK_BASELINE);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  const std::string bench = baseline->ToJson();
  const std::string doctor = ValidDoctorReport().ToJson();
  ASSERT_TRUE(DoctorReport::FromJson(doctor).ok());
  constexpr std::uint64_t kSeeds = 1000;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    // A crash (a sanitizer abort) leaves its seed as the last one printed.
    std::fprintf(stderr, "\rloader fuzz seed %llu",
                 static_cast<unsigned long long>(seed));
    SCOPED_TRACE("seed " + std::to_string(seed));
    // Whatever a loader accepts must serialize back to a loadable document.
    if (const auto b = BenchSuite::FromJson(Mutate(bench, seed)); b.ok()) {
      EXPECT_TRUE(BenchSuite::FromJson(b->ToJson()).ok());
    }
    if (const auto d = DoctorReport::FromJson(Mutate(doctor, seed)); d.ok()) {
      EXPECT_TRUE(DoctorReport::FromJson(d->ToJson()).ok());
    }
  }
  std::fprintf(stderr, "\n");
}

}  // namespace
}  // namespace dear::perflab
