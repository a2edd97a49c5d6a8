// dearsim CLI: subcommand routing, flag handling, and output contents.
#include "cli/cli.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iomanip>
#include <map>
#include <set>
#include <sstream>
#include <thread>

#include "analysis/calib.h"
#include "analysis/timeline.h"
#include "common/stats.h"
#include "flightrec/recorder.h"
#include "perflab/doctor.h"
#include "perflab/json.h"

namespace dear::cli {
namespace {

struct CliResult {
  int code;
  std::string out;
  std::string err;
};

CliResult RunDearsim(std::vector<const char*> args) {
  args.insert(args.begin(), "dearsim");
  std::ostringstream out, err;
  const int code =
      RunCli(static_cast<int>(args.size()), args.data(), out, err);
  return {code, out.str(), err.str()};
}

TEST(CliTest, NoArgsPrintsUsageAndFails) {
  const auto r = RunDearsim({});
  EXPECT_NE(r.code, 0);
  EXPECT_NE(r.err.find("usage:"), std::string::npos);
}

TEST(CliTest, UnknownSubcommandFails) {
  const auto r = RunDearsim({"frobnicate"});
  EXPECT_NE(r.code, 0);
  EXPECT_NE(r.err.find("unknown subcommand"), std::string::npos);
}

TEST(CliTest, HelpShowsFlags) {
  const auto r = RunDearsim({"simulate", "--help"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("--scheduler"), std::string::npos);
}

TEST(CliTest, ModelsListsZoo) {
  const auto r = RunDearsim({"models"});
  EXPECT_EQ(r.code, 0);
  for (const char* name : {"resnet50", "bert_large", "vgg16"})
    EXPECT_NE(r.out.find(name), std::string::npos) << name;
}

TEST(CliTest, SimulateReportsMetrics) {
  const auto r = RunDearsim({"simulate", "--model=bert_base", "--gpus=16",
                      "--network=10gbe", "--scheduler=dear"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("iteration time"), std::string::npos);
  EXPECT_NE(r.out.find("throughput"), std::string::npos);
  EXPECT_NE(r.out.find("speedup"), std::string::npos);
}

TEST(CliTest, SimulateGanttRendersStreams) {
  const auto r = RunDearsim({"simulate", "--model=resnet50", "--gpus=8", "--gantt"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("stream 0 |"), std::string::npos);
  EXPECT_NE(r.out.find("stream 1 |"), std::string::npos);
}

TEST(CliTest, SimulateEveryScheduler) {
  for (const char* sched : {"sequential", "wfbp", "ddp", "horovod", "mg-wfbp",
                            "bytescheduler", "dear", "zero"}) {
    const auto r = RunDearsim({"simulate", "--model=alexnet", "--gpus=8",
                        "--scheduler", sched});
    EXPECT_EQ(r.code, 0) << sched << ": " << r.err;
  }
}

TEST(CliTest, SimulateRejectsBadInputs) {
  EXPECT_NE(RunDearsim({"simulate", "--model=notamodel"}).code, 0);
  EXPECT_NE(RunDearsim({"simulate", "--network=carrierpigeon"}).code, 0);
  EXPECT_NE(RunDearsim({"simulate", "--scheduler=yolo"}).code, 0);
  EXPECT_NE(RunDearsim({"simulate", "--gpus=abc"}).code, 0);
}

TEST(CliTest, CompareListsEveryScheduler) {
  const auto r = RunDearsim({"compare", "--model=bert_base", "--gpus=16"});
  EXPECT_EQ(r.code, 0) << r.err;
  for (const char* sched : {"sequential", "wfbp", "bytescheduler", "horovod",
                            "pytorch-ddp", "mg-wfbp", "zero", "dear"})
    EXPECT_NE(r.out.find(sched), std::string::npos) << sched;
}

TEST(CliTest, CompareCsvIsMachineReadable) {
  const auto r =
      RunDearsim({"compare", "--model=alexnet", "--gpus=8", "--csv"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("scheduler,iter_ms,throughput,speedup,"),
            std::string::npos);
  // 8 schedulers + header = 9 lines.
  EXPECT_EQ(std::count(r.out.begin(), r.out.end(), '\n'), 9);
  EXPECT_EQ(r.out.find("|"), std::string::npos);  // no pretty-printing
}

TEST(CliTest, TunePrintsTrialsAndBest) {
  const auto r = RunDearsim({"tune", "--model=densenet201", "--gpus=16",
                      "--trials=5"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("trial"), std::string::npos);
  EXPECT_NE(r.out.find("best:"), std::string::npos);
}

TEST(CliTest, SweepCoversClusterSizes) {
  const auto r = RunDearsim({"sweep", "--model=resnet50", "--scheduler=dear"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("gpus"), std::string::npos);
  EXPECT_NE(r.out.find("256"), std::string::npos);
  EXPECT_NE(r.out.find("efficiency"), std::string::npos);
}

TEST(CliTest, ProfileRunsRealRuntimeAndWritesTrace) {
  const std::string trace_path = ::testing::TempDir() + "/cli_profile.json";
  const std::string trace_flag = "--trace-out=" + trace_path;
  const auto r =
      RunDearsim({"profile", "--model=alexnet", "--world=2", "--iters=2",
                  "--batch-size=4", trace_flag.c_str()});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("rank"), std::string::npos);
  EXPECT_NE(r.out.find("exposed"), std::string::npos);
  EXPECT_NE(r.out.find("reduce_scatter"), std::string::npos);
  EXPECT_NE(r.out.find("all_gather"), std::string::npos);

  std::ifstream f(trace_path);
  ASSERT_TRUE(f.good());
  std::string content((std::istreambuf_iterator<char>(f)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content.front(), '[');
  EXPECT_NE(content.find("\"ph\":\"X\""), std::string::npos);
  std::remove(trace_path.c_str());
}

TEST(CliTest, ProfilePrintsAttributionReport) {
  const auto r = RunDearsim({"profile", "--model=alexnet", "--world=2",
                             "--iters=3", "--batch-size=4"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("critical-path attribution"), std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("straggl"), std::string::npos);
  EXPECT_NE(r.out.find("consistency: OK"), std::string::npos) << r.out;
  // Job-level row over every rank's iteration windows.
  EXPECT_NE(r.out.find("merged 2 ranks"), std::string::npos) << r.out;

  // The per-rank iter_ms quantiles are exact over that rank's step-end ->
  // step-end windows in the run's journal, as many as the attribution
  // report attributes.
  const auto journal = flightrec::Recorder::Get().SnapshotAll();
  const auto report = analysis::AttributeIterations(journal, /*world=*/2);
  EXPECT_EQ(report.iterations, 2);
  for (int rank = 0; rank < 2; ++rank) {
    const auto windows =
        analysis::PairScheduleRecords(journal[static_cast<std::size_t>(rank)])
            .windows;
    EXPECT_EQ(static_cast<int>(windows.size()), report.iterations);
    std::vector<double> ms;
    for (const auto& w : windows)
      ms.push_back(static_cast<double>(w.span.length()) * 1e-6);
    std::ostringstream quantiles;
    quantiles << std::fixed << std::setprecision(3) << std::setw(10)
              << Percentile(ms, 50) << std::setw(10) << Percentile(ms, 95)
              << std::setw(10) << Percentile(ms, 99);
    EXPECT_NE(r.out.find(quantiles.str()), std::string::npos)
        << "rank " << rank << " quantiles '" << quantiles.str() << "' in\n"
        << r.out;
  }
}

// The per-collective table reads rank 0's journal: on a DeAR run every
// rs-launch / ag-launch is one ring reduce-scatter / all-gather bracket.
TEST(CliTest, ProfileCollectiveTableCountsJournalBrackets) {
  const auto r = RunDearsim({"profile", "--model=alexnet", "--world=2",
                             "--iters=3", "--batch-size=4"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("journal window (ms): r0="), std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("no lane wrapped"), std::string::npos) << r.out;

  const auto journal = flightrec::Recorder::Get().SnapshotAll();
  ASSERT_FALSE(journal.empty());
  long rs_launches = 0, ag_launches = 0;
  for (const auto& rec : journal[0]) {
    const auto kind = static_cast<flightrec::EventKind>(rec.kind);
    if (kind == flightrec::EventKind::kRsLaunch) ++rs_launches;
    if (kind == flightrec::EventKind::kAgLaunch) ++ag_launches;
  }
  EXPECT_GT(rs_launches, 0);
  // The "calls" column of the table row named `kind`.
  const auto calls = [&](const std::string& kind) -> long {
    const std::size_t at = r.out.find("\n" + kind + " ");
    if (at == std::string::npos) return -1;
    std::istringstream row(r.out.substr(at + 1));
    std::string name;
    long n = -1;
    row >> name >> n;
    return n;
  };
  EXPECT_EQ(calls("ring_reduce_scatter"), rs_launches) << r.out;
  EXPECT_EQ(calls("ring_all_gather"), ag_launches) << r.out;
}

TEST(CliTest, ProfileRejectsBadInputs) {
  EXPECT_NE(RunDearsim({"profile", "--scheduler=warp"}).code, 0);
  EXPECT_NE(RunDearsim({"profile", "--world=1"}).code, 0);
  EXPECT_NE(RunDearsim({"profile", "--model=notamodel"}).code, 0);
  // Unknown flags must be flag-parse errors, not silently ignored.
  const auto r = RunDearsim({"profile", "--no-such-flag=1"});
  EXPECT_NE(r.code, 0);
  EXPECT_FALSE(r.err.empty());
}

TEST(CliTest, ProfileUnwritableOutputsFailCleanly) {
  const auto trace = RunDearsim({"profile", "--model=alexnet", "--world=2",
                                 "--iters=2", "--batch-size=4",
                                 "--trace-out=/nonexistent-dir/t.json"});
  EXPECT_NE(trace.code, 0);
  EXPECT_NE(trace.err.find("failed to write trace"), std::string::npos);
  const auto metrics = RunDearsim({"profile", "--model=alexnet", "--world=2",
                                   "--iters=2", "--batch-size=4",
                                   "--metrics-out=/nonexistent-dir/m.json"});
  EXPECT_NE(metrics.code, 0);
  EXPECT_NE(metrics.err.find("failed to write metrics"), std::string::npos);
}

TEST(CliTest, BenchRunsQuickSuiteAndWritesJson) {
  const std::string json_path = ::testing::TempDir() + "/cli_bench.json";
  const std::string json_flag = "--json-out=" + json_path;
  const auto r = RunDearsim({"bench", "--suite=quick", "--repeats=1",
                             json_flag.c_str()});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("suite 'quick'"), std::string::npos);
  EXPECT_NE(r.out.find("runtime.train_iter_ms"), std::string::npos);
  EXPECT_NE(r.out.find("sim.iter_ms"), std::string::npos);
  EXPECT_NE(r.out.find("wrote "), std::string::npos);

  std::ifstream f(json_path);
  ASSERT_TRUE(f.good());
  std::string content((std::istreambuf_iterator<char>(f)),
                      std::istreambuf_iterator<char>());
  EXPECT_NE(content.find("\"schema\": \"dear.bench/1\""), std::string::npos);
  EXPECT_NE(content.find("\"samples\""), std::string::npos);
  std::remove(json_path.c_str());
}

TEST(CliTest, BenchPaperPrintsTheTablesInPlaceOfTheMetricTable) {
  const std::string json_flag =
      "--json-out=" + ::testing::TempDir() + "/cli_bench_paper.json";
  const auto r = RunDearsim({"bench", "--suite=paper", json_flag.c_str()});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("<!-- paper-view:begin fig7 -->"), std::string::npos);
  EXPECT_NE(r.out.find("PASS paper.grid.dear_over_ddp"), std::string::npos);
  EXPECT_EQ(r.out.find("suite 'paper'"), std::string::npos);
  std::remove((::testing::TempDir() + "/cli_bench_paper.json").c_str());
}

TEST(CliTest, BenchRejectsBadInputs) {
  const auto unknown = RunDearsim({"bench", "--suite=bogus", "--repeats=1"});
  EXPECT_NE(unknown.code, 0);
  EXPECT_NE(unknown.err.find("unknown bench suite 'bogus'"), std::string::npos);
  // The registered suites are listed once, the paper view among them.
  const auto quick = unknown.err.find("quick");
  ASSERT_NE(quick, std::string::npos) << unknown.err;
  EXPECT_EQ(unknown.err.find("quick", quick + 1), std::string::npos)
      << unknown.err;
  EXPECT_NE(unknown.err.find("paper"), std::string::npos) << unknown.err;

  EXPECT_NE(RunDearsim({"bench", "--repeats=-2"}).code, 0);
  EXPECT_NE(RunDearsim({"bench", "--no-such-flag=1"}).code, 0);

  const auto unwritable =
      RunDearsim({"bench", "--suite=quick", "--repeats=1",
                  "--json-out=/nonexistent-dir/b.json"});
  EXPECT_NE(unwritable.code, 0);
  EXPECT_FALSE(unwritable.err.empty());
}

TEST(CliTest, CheckCleanRunVerifiesCollectives) {
  const auto r = RunDearsim({"check", "--model=alexnet", "--world=2",
                             "--iters=2", "--batch-size=4"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("no divergence"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("verified"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("rank 1"), std::string::npos) << r.out;
}

TEST(CliTest, CheckInjectedFaultsAreDiagnosedNotHung) {
  for (const char* inject :
       {"--inject=skip", "--inject=shrink", "--inject=reorder"}) {
    const auto r = RunDearsim({"check", inject, "--inject-rank=1",
                               "--inject-op=0", "--world=4",
                               "--timeout-ms=500"});
    EXPECT_EQ(r.code, 0) << inject << ": " << r.err;
    EXPECT_NE(r.out.find("diagnosis:"), std::string::npos)
        << inject << ": " << r.out;
    EXPECT_NE(r.out.find("rank 1"), std::string::npos)
        << inject << ": " << r.out;
  }
}

TEST(CliTest, TimelineWritesPerfettoTraceWithFlowArrows) {
  const std::string trace_path = ::testing::TempDir() + "/cli_timeline.json";
  const std::string trace_flag = "--trace-out=" + trace_path;
  const auto r = RunDearsim({"timeline", "--world=2", trace_flag.c_str()});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("timeline: world=2"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("message-edges="), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("unmatched-sends=0"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("message-chain critical path"), std::string::npos)
      << r.out;

  std::ifstream f(trace_path);
  ASSERT_TRUE(f.good());
  std::string content((std::istreambuf_iterator<char>(f)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content.front(), '[');
  // Lanes are named and every Send slice flows to its Recv slice.
  EXPECT_NE(content.find("\"process_name\""), std::string::npos);
  EXPECT_NE(content.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(content.find("\"bind_id\""), std::string::npos);
  EXPECT_NE(content.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(content.find("\"ph\":\"f\""), std::string::npos);
  std::remove(trace_path.c_str());
}

TEST(CliTest, TimelineRejectsBadInputs) {
  EXPECT_NE(RunDearsim({"timeline", "--world=1"}).code, 0);
  const auto r = RunDearsim({"timeline", "--world=2",
                             "--trace-out=/nonexistent-dir/t.json"});
  EXPECT_NE(r.code, 0);
  EXPECT_FALSE(r.err.empty());
}

TEST(CliTest, CheckRejectsBadInputs) {
  EXPECT_NE(RunDearsim({"check", "--world=1"}).code, 0);
  EXPECT_NE(RunDearsim({"check", "--inject=meteor"}).code, 0);
  EXPECT_NE(RunDearsim({"check", "--inject=skip", "--inject-rank=9",
                        "--world=4"}).code, 0);
}

TEST(CliTest, DoctorSimBackendRecoversReferenceNetwork) {
  const std::string path = "cli_doctor_sim.json";
  const auto r = RunDearsim({"doctor", "--backend=sim", "--world=16",
                             ("--json-out=" + path).c_str()});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("verdict: pass"), std::string::npos) << r.out;

  const auto report = perflab::DoctorReport::ReadFile(path);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->backend, "sim");
  EXPECT_EQ(report->world, 16);
  ASSERT_TRUE(report->has_fit);
  // Acceptance bar: the fit inverts the cost model to within 10% of the
  // reference alpha-beta parameters (it is exact modulo float noise).
  const auto& ref = report->reference;
  EXPECT_NEAR(report->fitted.alpha_s, ref.alpha_s, 0.10 * ref.alpha_s);
  EXPECT_NEAR(report->fitted.beta_s_per_byte, ref.beta_s_per_byte,
              0.10 * ref.beta_s_per_byte);
  std::remove(path.c_str());
}

TEST(CliTest, DoctorJsonRoundTripsByteIdentically) {
  const std::string path = "cli_doctor_roundtrip.json";
  ASSERT_EQ(RunDearsim({"doctor", "--backend=sim", "--world=8",
                        ("--json-out=" + path).c_str()}).code, 0);
  std::ifstream in(path, std::ios::binary);
  std::ostringstream raw;
  raw << in.rdbuf();
  const auto report = perflab::DoctorReport::ReadFile(path);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->ToJson(), raw.str());
  std::remove(path.c_str());
}

TEST(CliTest, DoctorReportFeedsSimulateAsNetworkModel) {
  const std::string path = "cli_doctor_feed.json";
  ASSERT_EQ(RunDearsim({"doctor", "--backend=sim", "--world=16",
                        ("--json-out=" + path).c_str()}).code, 0);
  const auto r = RunDearsim({"simulate", "--model=resnet50", "--gpus=16",
                             ("--network=" + path).c_str()});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("fitted:"), std::string::npos) << r.out;
  std::remove(path.c_str());
}

TEST(CliTest, DoctorRuntimeReportsExposedCommFraction) {
  const auto r = RunDearsim({"doctor", "--backend=runtime", "--world=2",
                             "--model=alexnet", "--iters=3",
                             "--batch-size=4"});
  EXPECT_EQ(r.code, 0) << r.err;
  const std::string key = "health: exposed comm fraction ";
  const auto at = r.out.find(key);
  ASSERT_NE(at, std::string::npos) << r.out;
  const double fraction = std::stod(r.out.substr(at + key.size()));
  EXPECT_GE(fraction, 0.0);
  EXPECT_LE(fraction, 1.0);
}

TEST(CliTest, DoctorRejectsBadInputs) {
  EXPECT_NE(RunDearsim({"doctor", "--backend=voodoo"}).code, 0);
  EXPECT_NE(RunDearsim({"doctor", "--world=1"}).code, 0);
  EXPECT_NE(RunDearsim({"doctor", "--backend=sim", "--world=8",
                        "--json-out=/nonexistent-dir/d.json"}).code, 0);
}

TEST(CliTest, OversubscriptionWarningNamesThreadsAndCores) {
  EXPECT_EQ(OversubscriptionWarning(2, 4), "");
  EXPECT_EQ(OversubscriptionWarning(8, 16), "");
  EXPECT_EQ(OversubscriptionWarning(64, 0), "");  // core count unknown
  EXPECT_EQ(OversubscriptionWarning(3, 4),
            "warning: 3 ranks run 6 threads on 4 cores; measured times "
            "include waiting for a core\n");
}

// Occurrences of `needle` in `text`.
std::size_t Count(const std::string& text, const std::string& needle) {
  std::size_t n = 0;
  for (auto at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + needle.size()))
    ++n;
  return n;
}

TEST(CliTest, ProfileWarnsOnceWhenThreadsOutnumberCores) {
  const unsigned cores = std::thread::hardware_concurrency();
  const auto small = RunDearsim({"profile", "--model=alexnet", "--world=2",
                                 "--iters=1"});
  EXPECT_EQ(small.code, 0) << small.err;
  EXPECT_EQ(Count(small.err, "warning:"), cores != 0 && cores < 4 ? 1u : 0u)
      << small.err;
  // Just past the cores on small machines (a world of many ranks would
  // cost more than this test should on large ones).
  if (cores == 0 || cores > 16) return;
  const std::string world = "--world=" + std::to_string(cores / 2 + 1);
  const auto over = RunDearsim({"profile", "--model=alexnet", world.c_str(),
                                "--iters=1"});
  EXPECT_EQ(over.code, 0) << over.err;
  EXPECT_EQ(Count(over.err, "warning:"), 1u) << over.err;
  EXPECT_NE(over.err.find(std::to_string(cores) + " cores"),
            std::string::npos)
      << over.err;
}

// The comm.model.* metrics and the residual table come from the run's
// journal after it ends: every rank exports every shape's residual
// histogram and divergence gauge plus its anomaly counter, and the table
// lists the shapes DeAR's schedule ran, with the histograms' sample counts.
TEST(CliTest, ProfileReportsModelResidual) {
  const std::string metrics_path =
      ::testing::TempDir() + "/cli_profile_model.json";
  const std::string metrics_flag = "--metrics-out=" + metrics_path;
  const auto r = RunDearsim({"profile", "--model=alexnet", "--world=2",
                             "--iters=2", metrics_flag.c_str()});
  EXPECT_EQ(r.code, 0) << r.err;
  const auto at = r.out.find("model residual");
  ASSERT_NE(at, std::string::npos) << r.out;
  std::map<std::string, double> table;  // shape -> samples
  std::istringstream rows(r.out.substr(at));
  std::string line;
  std::getline(rows, line);  // title
  std::getline(rows, line);  // column header
  while (std::getline(rows, line) && !line.empty()) {
    std::istringstream cols(line);
    std::string shape;
    double samples = 0.0;
    cols >> shape >> samples;
    table[shape] = samples;
  }
  EXPECT_EQ(table.size(), 2u) << r.out;
  EXPECT_GT(table["reduce_scatter"], 0.0) << r.out;
  EXPECT_GT(table["all_gather"], 0.0) << r.out;

  std::ifstream f(metrics_path);
  ASSERT_TRUE(f.good());
  const std::string text((std::istreambuf_iterator<char>(f)),
                         std::istreambuf_iterator<char>());
  const auto doc = perflab::Json::Parse(text);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  std::set<std::string> expected = {"comm.model.anomalies"};
  for (std::size_t s = 0; s < analysis::kShapeCount; ++s) {
    const std::string shape =
        analysis::ShapeName(static_cast<analysis::CollectiveShape>(s));
    expected.insert("comm.model.residual." + shape);
    expected.insert("comm.model.divergence." + shape);
  }
  std::map<std::string, double> observed;  // residual histogram counts
  for (const char* rank : {"rank0", "rank1"}) {
    const perflab::Json* reg = doc->Get(rank);
    ASSERT_NE(reg, nullptr) << rank;
    std::set<std::string> names;
    for (const char* family : {"counters", "gauges", "histograms"}) {
      const perflab::Json* metrics = reg->Get(family);
      ASSERT_NE(metrics, nullptr) << rank << " " << family;
      for (const auto& [name, value] : metrics->members()) {
        if (name.rfind("comm.model.", 0) != 0) continue;
        names.insert(name);
        if (std::string(family) == "histograms")
          observed[name] += value.GetNumber("count");
      }
    }
    EXPECT_EQ(names, expected) << rank;
  }
  for (const auto& [shape, samples] : table)
    EXPECT_EQ(observed["comm.model.residual." + shape], samples) << shape;
  std::remove(metrics_path.c_str());
}

TEST(CliTest, ProfileDtypeRoutesWireBytesToThatFormat) {
  const auto r = RunDearsim({"profile", "--model=alexnet", "--world=2",
                             "--iters=2", "--batch-size=4", "--dtype=f16"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("dtype=f16"), std::string::npos) << r.out;
  // The wire-bytes line proves every gradient byte rode the 2-byte
  // format: f32 wire traffic must be exactly zero.
  EXPECT_NE(r.out.find("wire bytes by dtype: f32=0 KB"), std::string::npos)
      << r.out;
  // Lossy wire, but ranks still agree bitwise.
  EXPECT_NE(r.out.find("consistency: OK"), std::string::npos) << r.out;
}

// A journal lane that wraps keeps only its newest records, so the counts
// profile reads from it are short: it must flag them as partial, not print
// them as whole. The ring size is fixed when the recorder starts, so this
// runs the dearsim binary as a child with a 64-record ring.
TEST(CliTest, ProfileFlagsWrappedCountsAsPartial) {
  const std::string metrics_path =
      ::testing::TempDir() + "/cli_profile_wrapped.json";
  const std::string cmd = std::string("DEAR_FLIGHTREC_CAPACITY=64 '") +
                          DEAR_DEARSIM_BIN +
                          "' profile --model=alexnet --world=2 --iters=4 "
                          "--metrics-out='" +
                          metrics_path + "' 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  ASSERT_NE(pipe, nullptr);
  std::string out;
  char buf[4096];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof(buf), pipe)) > 0;)
    out.append(buf, n);
  ASSERT_EQ(pclose(pipe), 0) << out;
  EXPECT_NE(out.find("; wrapped (rank 0 1): the counts,"), std::string::npos)
      << out;
  EXPECT_EQ(out.find("no lane wrapped"), std::string::npos) << out;
  std::istringstream lines(out);
  std::string line;
  int partial_rows = 0;
  while (std::getline(lines, line)) {
    const std::string suffix = "%  partial";
    if (line.size() > suffix.size() &&
        line.compare(line.size() - suffix.size(), suffix.size(), suffix) == 0)
      ++partial_rows;
  }
  EXPECT_EQ(partial_rows, 2) << out;
  EXPECT_NE(out.find("(comm.* counts of wrapped ranks are partial)"),
            std::string::npos)
      << out;
  std::remove(metrics_path.c_str());
}

TEST(CliTest, ProfileRejectsUnknownDtype) {
  const auto r = RunDearsim({"profile", "--model=alexnet", "--world=2",
                             "--dtype=f64"});
  EXPECT_NE(r.code, 0);
  EXPECT_NE(r.err.find("unknown dtype"), std::string::npos) << r.err;
}

TEST(CliTest, FuzzAcceptsLossyDtypeAndStaysDeterministic) {
  const auto r = RunDearsim({"fuzz", "--world=2", "--schedules=2",
                             "--dtype=bf16"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("dtype=bf16"), std::string::npos) << r.out;
  // Schedule-invariance must survive lossy rounding: one result digest.
  EXPECT_NE(r.out.find("1 distinct result digests"), std::string::npos)
      << r.out;
}

// The simulator commands reject a cluster without GPUs and a fusion
// buffer that is not a positive size_t byte count, instead of reporting
// negative throughput or aborting in the fusion planner.
TEST(CliTest, SimulatorCommandsRejectBadSizes) {
  struct Case {
    std::vector<const char*> args;
    const char* flag;  // the flag the error must name
  };
  const std::vector<Case> cases = {
      {{"simulate", "--model=resnet50", "--buffer-mb=-5"}, "--buffer-mb"},
      {{"simulate", "--model=resnet50", "--buffer-mb=0"}, "--buffer-mb"},
      {{"simulate", "--model=resnet50", "--buffer-mb=1e-9"}, "--buffer-mb"},
      {{"simulate", "--model=resnet50", "--buffer-mb=1e300"}, "--buffer-mb"},
      {{"compare", "--model=resnet50", "--buffer-mb=0"}, "--buffer-mb"},
      {{"sweep", "--model=resnet50", "--buffer-mb=-1"}, "--buffer-mb"},
      {{"simulate", "--model=resnet50", "--gpus=0"}, "--gpus"},
      {{"simulate", "--model=resnet50", "--gpus=-3"}, "--gpus"},
      {{"compare", "--model=resnet50", "--gpus=0"}, "--gpus"},
      {{"tune", "--model=resnet50", "--gpus=-3", "--trials=1"}, "--gpus"},
  };
  for (const auto& c : cases) {
    const auto r = RunDearsim(c.args);
    EXPECT_EQ(r.code, 1) << c.args[0] << " " << c.args[2] << "\n" << r.out;
    EXPECT_NE(r.err.find(c.flag), std::string::npos) << r.err;
    EXPECT_NE(r.err.find("usage:"), std::string::npos) << r.err;
    EXPECT_EQ(r.out, "") << c.args[0] << " " << c.args[2];
  }
  // The smallest sizes that make sense still run.
  EXPECT_EQ(RunDearsim({"simulate", "--model=resnet50", "--gpus=1",
                        "--buffer-mb=0.001"})
                .code,
            0);
}

TEST(CliTest, RuntimeCommandsRejectSizesBeforeAnyRankRuns) {
  // A world the membership mask cannot hold, and world x batch x 4 past an
  // int: each is refused before a hub exists, so no rank journals a thing.
  const std::vector<std::vector<const char*>> cases = {
      {"chaos", "--world=65", "--schedules=1"},
      {"profile", "--world=2", "--batch-size=300000000", "--iters=1"},
      {"doctor", "--backend=runtime", "--world=2", "--batch-size=300000000"},
      {"check", "--world=2", "--batch-size=300000000", "--iters=1"},
  };
  auto& recorder = flightrec::Recorder::Get();
  for (const auto& args : cases) {
    recorder.Reset();
    const auto r = RunDearsim(args);
    EXPECT_EQ(r.code, 1) << args[0] << " " << args[1] << "\n" << r.out;
    EXPECT_NE(r.err.find("--world"), std::string::npos) << r.err;
    EXPECT_NE(r.err.find("usage:"), std::string::npos) << r.err;
    EXPECT_EQ(r.out, "") << args[0];
    for (const auto& lane : recorder.SnapshotAll())
      EXPECT_TRUE(lane.empty()) << args[0] << ": a rank ran";
  }
}

TEST(CliTest, RuntimeCommandsRejectKindsTheRuntimeCannotExecute) {
  // ByteScheduler (per-chunk negotiation) and ZeRO-3 are simulated only:
  // refused before a hub exists, naming the kinds the runtime executes.
  auto& recorder = flightrec::Recorder::Get();
  for (const char* kind : {"--scheduler=bytescheduler", "--scheduler=zero"}) {
    recorder.Reset();
    const auto r = RunDearsim({"profile", "--world=2", "--iters=1", kind});
    EXPECT_EQ(r.code, 1) << kind;
    EXPECT_NE(r.err.find("sequential, ddp, dear and zero1"),
              std::string::npos)
        << r.err;
    EXPECT_EQ(r.out, "") << kind;
    for (const auto& lane : recorder.SnapshotAll())
      EXPECT_TRUE(lane.empty()) << kind << ": a rank ran";
  }
}

TEST(CliTest, BatchSizeOverrideChangesThroughput) {
  const auto a = RunDearsim({"simulate", "--model=resnet50", "--gpus=4",
                      "--batch-size=16"});
  const auto b = RunDearsim({"simulate", "--model=resnet50", "--gpus=4",
                      "--batch-size=64"});
  EXPECT_EQ(a.code, 0);
  EXPECT_EQ(b.code, 0);
  EXPECT_NE(a.out, b.out);
}

}  // namespace
}  // namespace dear::cli
