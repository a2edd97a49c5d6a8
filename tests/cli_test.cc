// dearsim CLI: subcommand routing, flag handling, and output contents.
#include "cli/cli.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "analysis/timeline.h"
#include "common/stats.h"
#include "flightrec/recorder.h"
#include "perflab/doctor.h"

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

TEST(CliTest, ProfileRejectsBadInputs) {
  EXPECT_NE(RunDearsim({"profile", "--schedule=warp"}).code, 0);
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

TEST(CliTest, ProfileReportsModelResidual) {
  const auto r = RunDearsim({"profile", "--model=alexnet", "--world=2",
                             "--iters=2"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("model residual"), std::string::npos) << r.out;
}

TEST(CliTest, ProfileDtypeRoutesWireBytesToThatFormat) {
  const auto r = RunDearsim({"profile", "--model=alexnet", "--world=2",
                             "--iters=2", "--batch-size=4", "--dtype=f16"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("dtype=f16"), std::string::npos) << r.out;
  // The telemetry section proves every gradient byte rode the 2-byte
  // format: f32 wire traffic must be exactly zero.
  EXPECT_NE(r.out.find("wire bytes by dtype: f32=0 KB"), std::string::npos)
      << r.out;
  // Lossy wire, but ranks still agree bitwise.
  EXPECT_NE(r.out.find("consistency: OK"), std::string::npos) << r.out;
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
