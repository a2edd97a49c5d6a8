#include "cli/cli.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <limits>
#include <map>
#include <thread>

#include "analysis/calib.h"
#include "analysis/causal.h"
#include "analysis/timeline.h"
#include "check/checker.h"
#include "flightrec/recorder.h"
#include "comm/async.h"
#include "comm/communicator.h"
#include "comm/cost_model.h"
#include "comm/transport.h"
#include "common/flags.h"
#include "common/stats.h"
#include "core/trainer.h"
#include "fusion/plan.h"
#include "model/zoo.h"
#include "perflab/doctor.h"
#include "perflab/suites.h"
#include "sched/runner.h"
#include "schedlab/chaos.h"
#include "schedlab/properties.h"
#include "sim/engine.h"
#include "telemetry/metrics.h"
#include "train/data.h"
#include "tune/search.h"

namespace dear::cli {
namespace {

constexpr const char* kUsage =
    "usage: dearsim "
    "<models|simulate|compare|tune|sweep|profile|doctor|bench|check|fuzz|"
    "chaos|timeline> [flags]\n"
    "Run 'dearsim <subcommand> --help' for that subcommand's flags.\n";

StatusOr<comm::NetworkModel> NetworkByName(const std::string& name) {
  if (name == "10gbe") return comm::NetworkModel::TenGbE();
  if (name == "100gbib") return comm::NetworkModel::HundredGbIB();
  if (name == "25gbe") return comm::NetworkModel::TwentyFiveGbE();
  // Feed-forward path: a `dearsim doctor --json-out` report supplies the
  // fitted (α, β) as a network model, closing the measure → fit →
  // re-simulate loop.
  if (name.size() > 5 && name.compare(name.size() - 5, 5, ".json") == 0) {
    auto report = perflab::DoctorReport::ReadFile(name);
    if (!report.ok()) return report.status();
    if (!report->has_fit) {
      return Status::InvalidArgument("doctor report '" + name +
                                     "' carries no fitted network");
    }
    comm::NetworkModel net;
    net.alpha_s = report->fitted.alpha_s;
    net.beta_s_per_byte = report->fitted.beta_s_per_byte;
    net.bound_beta_s_per_byte = report->fitted.bound_beta_s_per_byte;
    // NetworkModel holds a borrowed name; intentionally leak one copy per
    // load (a CLI run loads O(1) reports).
    net.name = (new std::string(report->fitted.name))->c_str();
    return net;
  }
  return Status::InvalidArgument(
      "unknown network '" + name +
      "' (expected 10gbe, 25gbe, 100gbib, or a doctor-report .json path)");
}

/// --dtype spellings, aligned with what frameworks print: torch.float16 /
/// "half" / "fp16" all mean the same wire format.
StatusOr<comm::DType> DTypeByName(const std::string& name) {
  if (name == "f32" || name == "fp32" || name == "float32")
    return comm::DType::kF32;
  if (name == "f16" || name == "fp16" || name == "float16" || name == "half")
    return comm::DType::kF16;
  if (name == "bf16" || name == "bfloat16") return comm::DType::kBF16;
  return Status::InvalidArgument("unknown dtype '" + name +
                                 "' (expected f32, f16, or bf16)");
}

core::Compression CompressionFor(comm::DType dtype) {
  switch (dtype) {
    case comm::DType::kF16: return core::Compression::kFp16;
    case comm::DType::kBF16: return core::Compression::kBf16;
    case comm::DType::kF32: break;
  }
  return core::Compression::kNone;
}

StatusOr<sched::PolicyKind> SchedulerByName(const std::string& name) {
  if (name == "sequential") return sched::PolicyKind::kSequential;
  if (name == "wfbp") return sched::PolicyKind::kWFBP;
  if (name == "ddp") return sched::PolicyKind::kDDP;
  if (name == "horovod") return sched::PolicyKind::kHorovod;
  if (name == "mg-wfbp") return sched::PolicyKind::kMGWFBP;
  if (name == "bytescheduler") return sched::PolicyKind::kByteScheduler;
  if (name == "dear") return sched::PolicyKind::kDeAR;
  if (name == "zero") return sched::PolicyKind::kZeRO;
  if (name == "zero1") return sched::PolicyKind::kZeRO1;
  return Status::InvalidArgument("unknown scheduler '" + name + "'");
}

bool KnownModel(const std::string& name) {
  for (const char* m : {"resnet50", "densenet201", "inception_v4",
                        "bert_base", "bert_large", "vgg16", "alexnet"})
    if (name == m) return true;
  return false;
}

/// The simulator commands' plan recipe at a --buffer-mb fusion buffer.
sched::PolicyConfig MakeConfig(sched::PolicyKind kind,
                               const model::ModelSpec& m,
                               const sched::ClusterSpec& cluster,
                               double buffer_mb) {
  return sched::DefaultConfig(
      kind, m, cluster, static_cast<std::size_t>(buffer_mb * 1024 * 1024));
}

int CmdModels(std::ostream& out) {
  out << "model           BS  layers tensors   params(M)  ff(ms)  bp(ms)\n";
  auto print = [&](const model::ModelSpec& m) {
    out << std::left << std::setw(15) << m.name() << std::right
        << std::setw(4) << m.batch_size() << std::setw(8) << m.num_layers()
        << std::setw(8) << m.num_tensors() << std::setw(12) << std::fixed
        << std::setprecision(1)
        << static_cast<double>(m.total_params()) / 1e6 << std::setw(8)
        << ToMilliseconds(m.total_ff_time()) << std::setw(8)
        << ToMilliseconds(m.total_bp_time()) << "\n";
  };
  for (const auto& m : model::PaperModels()) print(m);
  for (const auto& m : model::ExtensionModels()) print(m);
  return 0;
}

int CmdSimulate(FlagParser& flags, std::ostream& out, std::ostream& err) {
  const std::string model_name = flags.GetString("model");
  if (!KnownModel(model_name)) {
    err << "unknown model '" << model_name << "'; run 'dearsim models'\n";
    return 1;
  }
  auto net = NetworkByName(flags.GetString("network"));
  auto kind = SchedulerByName(flags.GetString("scheduler"));
  if (!net.ok() || !kind.ok()) {
    err << (net.ok() ? kind.status() : net.status()).ToString() << "\n";
    return 1;
  }
  auto m = model::ByName(model_name);
  if (flags.GetInt("batch-size") > 0)
    m = m.WithBatchSize(flags.GetInt("batch-size"));
  sched::ClusterSpec cluster;
  cluster.world_size = flags.GetInt("gpus");
  cluster.network = *net;

  const auto cfg = MakeConfig(*kind, m, cluster, flags.GetDouble("buffer-mb"));
  const auto r = sched::EvaluatePolicy(m, cluster, cfg);
  out << model_name << " x" << cluster.world_size << " on " << net->name
      << ", scheduler=" << sched::PolicyName(*kind) << "\n"
      << std::fixed << std::setprecision(1)
      << "  iteration time : " << ToMilliseconds(r.iter_time) << " ms\n"
      << "  throughput     : " << std::setprecision(0)
      << r.throughput_samples_per_s << " samples/s\n"
      << std::setprecision(1)
      << "  speedup        : " << r.speedup_vs_single_gpu << " of "
      << cluster.world_size
      << " (Eq.6 max: " << sched::MaxSpeedup(m, cluster) << ")\n"
      << "  exposed comm   : " << ToMilliseconds(r.breakdown.comm_exposed)
      << " ms/iter\n";

  if (flags.GetBool("gantt")) {
    const auto built = sched::BuildTaskGraph(m, cluster, cfg, 3);
    const auto sim = sim::Simulate(built.graph, built.stream_policies);
    if (sim.ok())
      out << "\n" << analysis::RenderAsciiGantt(built.graph, *sim, 76);
  }
  return 0;
}

int CmdTune(FlagParser& flags, std::ostream& out, std::ostream& err) {
  const std::string model_name = flags.GetString("model");
  if (!KnownModel(model_name)) {
    err << "unknown model '" << model_name << "'\n";
    return 1;
  }
  auto net = NetworkByName(flags.GetString("network"));
  if (!net.ok()) {
    err << net.status().ToString() << "\n";
    return 1;
  }
  const auto m = model::ByName(model_name);
  sched::ClusterSpec cluster;
  cluster.world_size = flags.GetInt("gpus");
  cluster.network = *net;

  tune::BoOptions opts;
  opts.first_point = 25.0;
  tune::BayesianOptimizer bo(1.0, 100.0, opts);
  out << "trial  buffer(MB)  throughput(samples/s)\n";
  for (int trial = 1; trial <= flags.GetInt("trials"); ++trial) {
    const double mb = bo.SuggestNext();
    const auto r = sched::EvaluatePolicy(
        m, cluster,
        MakeConfig(sched::PolicyKind::kDeAR, m, cluster, mb));
    bo.Observe(mb, r.throughput_samples_per_s);
    out << std::setw(5) << trial << std::fixed << std::setprecision(2)
        << std::setw(12) << mb << std::setprecision(0) << std::setw(18)
        << r.throughput_samples_per_s << "\n";
  }
  out << "best: " << std::fixed << std::setprecision(1) << bo.best_x()
      << " MB at " << std::setprecision(0) << bo.best_y() << " samples/s\n";
  return 0;
}

int CmdSweep(FlagParser& flags, std::ostream& out, std::ostream& err) {
  const std::string model_name = flags.GetString("model");
  if (!KnownModel(model_name)) {
    err << "unknown model '" << model_name << "'\n";
    return 1;
  }
  auto net = NetworkByName(flags.GetString("network"));
  auto kind = SchedulerByName(flags.GetString("scheduler"));
  if (!net.ok() || !kind.ok()) {
    err << (net.ok() ? kind.status() : net.status()).ToString() << "\n";
    return 1;
  }
  const auto m = model::ByName(model_name);
  out << "gpus  iter(ms)  throughput  speedup  efficiency\n";
  for (int gpus : {2, 4, 8, 16, 32, 64, 128, 256}) {
    sched::ClusterSpec cluster;
    cluster.world_size = gpus;
    cluster.network = *net;
    const auto r = sched::EvaluatePolicy(
        m, cluster,
        MakeConfig(*kind, m, cluster, flags.GetDouble("buffer-mb")));
    out << std::setw(4) << gpus << std::fixed << std::setprecision(1)
        << std::setw(10) << ToMilliseconds(r.iter_time) << std::setprecision(0)
        << std::setw(12) << r.throughput_samples_per_s << std::setprecision(1)
        << std::setw(9) << r.speedup_vs_single_gpu << std::setprecision(1)
        << std::setw(10) << 100.0 * r.speedup_vs_single_gpu / gpus << "%\n";
  }
  return 0;
}

int CmdCompare(FlagParser& flags, std::ostream& out, std::ostream& err) {
  const std::string model_name = flags.GetString("model");
  if (!KnownModel(model_name)) {
    err << "unknown model '" << model_name << "'\n";
    return 1;
  }
  auto net = NetworkByName(flags.GetString("network"));
  if (!net.ok()) {
    err << net.status().ToString() << "\n";
    return 1;
  }
  const auto m = model::ByName(model_name);
  sched::ClusterSpec cluster;
  cluster.world_size = flags.GetInt("gpus");
  cluster.network = *net;
  const bool csv = flags.GetBool("csv");
  const double buffer_mb = flags.GetDouble("buffer-mb");

  if (csv) {
    out << "scheduler,iter_ms,throughput,speedup,exposed_comm_ms\n";
  } else {
    out << model_name << " x" << cluster.world_size << " on " << net->name
        << "\n";
    out << std::left << std::setw(16) << "scheduler" << std::right
        << std::setw(10) << "iter(ms)" << std::setw(12) << "samples/s"
        << std::setw(9) << "speedup" << std::setw(12) << "exposed(ms)"
        << "\n";
  }
  for (auto kind :
       {sched::PolicyKind::kSequential, sched::PolicyKind::kWFBP,
        sched::PolicyKind::kByteScheduler, sched::PolicyKind::kHorovod,
        sched::PolicyKind::kDDP, sched::PolicyKind::kMGWFBP,
        sched::PolicyKind::kZeRO, sched::PolicyKind::kDeAR}) {
    const auto r = sched::EvaluatePolicy(
        m, cluster, MakeConfig(kind, m, cluster, buffer_mb));
    if (csv) {
      out << sched::PolicyName(kind) << "," << std::fixed
          << std::setprecision(3) << ToMilliseconds(r.iter_time) << ","
          << std::setprecision(1) << r.throughput_samples_per_s << ","
          << std::setprecision(3) << r.speedup_vs_single_gpu << ","
          << ToMilliseconds(r.breakdown.comm_exposed) << "\n";
    } else {
      out << std::left << std::setw(16) << sched::PolicyName(kind)
          << std::right << std::fixed << std::setprecision(1)
          << std::setw(10) << ToMilliseconds(r.iter_time)
          << std::setprecision(0) << std::setw(12)
          << r.throughput_samples_per_s << std::setprecision(1)
          << std::setw(9) << r.speedup_vs_single_gpu << std::setw(12)
          << ToMilliseconds(r.breakdown.comm_exposed) << "\n";
    }
  }
  return 0;
}

/// A small MLP whose layer count scales with the zoo model so the profile
/// run exercises realistic per-layer hook traffic while staying fast on a
/// laptop: the zoo entries describe GPU networks (25M..334M params) the
/// in-process runtime cannot train at full size.
std::vector<int> ProxyDims(const model::ModelSpec& m) {
  const int layers = std::clamp(m.num_layers() / 16, 3, 8);
  const double budget =
      std::min(static_cast<double>(m.total_params()), 150000.0);
  const int width = std::clamp(
      static_cast<int>(std::sqrt(budget / layers)), 16, 256);
  std::vector<int> dims;
  dims.push_back(32);
  for (int l = 0; l < layers; ++l) dims.push_back(width);
  dims.push_back(8);
  return dims;
}

/// The runtime commands' DistOptim options (--scheduler, --buffer-kb,
/// --dtype), validated for `world` ranks before any hub exists. The error
/// names the kinds the runtime executes.
StatusOr<core::DistOptimOptions> RuntimeOptions(const FlagParser& flags,
                                                int world) {
  auto kind = SchedulerByName(flags.GetString("scheduler"));
  if (!kind.ok()) return kind.status();
  auto dtype = DTypeByName(flags.GetString("dtype"));
  if (!dtype.ok()) return dtype.status();
  core::DistOptimOptions options;
  options.mode = *kind;
  options.buffer_bytes = static_cast<std::size_t>(
      std::max(1, flags.GetInt("buffer-kb")) * 1024);
  options.compression = CompressionFor(*dtype);
  if (Status st = core::ValidateOptions(options, world); !st.ok()) return st;
  return options;
}

/// Per-rank batch of the runtime commands (profile, doctor's runtime
/// backend, check): --batch-size, or 8 when unset.
int RuntimeBatch(const FlagParser& flags) {
  return flags.GetInt("batch-size") > 0 ? flags.GetInt("batch-size") : 8;
}

/// The runtime commands' dataset: four batches per rank. RunCli has
/// checked that the sample count fits an int.
train::Dataset RuntimeData(int world, int batch, const std::vector<int>& dims) {
  return train::MakeRegressionDataset(world * batch * 4, dims.front(),
                                      dims.back(), /*seed=*/42);
}

/// Exact p50/p95/p99 over `samples`.
void PrintQuantiles(std::ostream& out, const std::vector<double>& samples) {
  out << std::fixed << std::setprecision(3);
  for (const double p : {50.0, 95.0, 99.0})
    out << std::setw(10) << Percentile(samples, p);
}

/// Residual histogram edges: geometric ladder around ratio 1 covering
/// 1/64x .. 64x model error at ~19% resolution.
std::vector<double> ResidualEdges() {
  return Histogram::ExponentialEdges(1.0 / 64.0, std::pow(2.0, 0.25), 48);
}

/// Fills each rank's comm.model.* metrics from the run's calibration: per
/// shape a comm.model.residual.<shape> histogram of measured/predicted
/// ratios and a comm.model.divergence.<shape> gauge (the EWMA), and one
/// comm.model.anomalies counter. Every rank gets every shape's metrics,
/// zero when the run had no such collective.
void ExportModelMetrics(const analysis::Calibration& calib,
                        const std::vector<analysis::CollectiveSample>& samples,
                        const analysis::AlphaBeta& reference,
                        std::vector<telemetry::MetricsRegistry>& ranks) {
  using analysis::CollectiveShape;
  const int world = static_cast<int>(ranks.size());
  const auto shape_metric = [](const char* family, std::size_t s) {
    return std::string("comm.model.") + family + "." +
           analysis::ShapeName(static_cast<CollectiveShape>(s));
  };
  for (int r = 0; r < world; ++r) {
    telemetry::MetricsRegistry& reg = ranks[static_cast<std::size_t>(r)];
    const auto& cells = calib.ranks[static_cast<std::size_t>(r)];
    std::uint64_t anomalies = 0;
    for (std::size_t s = 0; s < analysis::kShapeCount; ++s) {
      reg.GetHistogram(shape_metric("residual", s), ResidualEdges());
      reg.GetGauge(shape_metric("divergence", s)).Set(cells[s].divergence);
      anomalies += cells[s].anomalies;
    }
    reg.GetCounter("comm.model.anomalies")
        .Add(static_cast<std::int64_t>(anomalies));
  }
  for (const auto& sample : samples) {
    const double predicted = analysis::PredictedNs(sample.shape, world,
                                                   reference, sample.bytes);
    if (sample.rank < 0 || sample.rank >= world || predicted <= 0.0) continue;
    ranks[static_cast<std::size_t>(sample.rank)]
        .GetHistogram(
            shape_metric("residual", static_cast<std::size_t>(sample.shape)),
            ResidualEdges())
        .Observe(sample.ns / predicted);
  }
}

/// The transport pool's transport.pool.* metrics from its end-of-run
/// stats: every acquire is a hit or a miss, and every buffer no longer in
/// flight was released.
void ExportPoolMetrics(const comm::PoolStats& pool,
                       telemetry::MetricsRegistry& reg) {
  reg.GetCounter("transport.pool.hits").Add(pool.hits);
  reg.GetCounter("transport.pool.misses").Add(pool.misses);
  reg.GetCounter("transport.pool.releases")
      .Add(pool.hits + pool.misses - pool.in_flight_buffers);
  reg.GetCounter("transport.pool.bytes_acquired").Add(pool.acquired_bytes);
  reg.GetGauge("transport.pool.bytes_in_flight")
      .Set(static_cast<double>(pool.in_flight_bytes));
}

int CmdProfile(FlagParser& flags, std::ostream& out, std::ostream& err) {
  const std::string model_name = flags.GetString("model");
  if (!KnownModel(model_name)) {
    err << "unknown model '" << model_name << "'; run 'dearsim models'\n";
    return 1;
  }
  const int world = flags.GetInt("world");
  const int iters = flags.GetInt("iters");
  if (world < 2 || iters < 1) {
    err << "profile needs --world >= 2 and --iters >= 1\n";
    return 1;
  }
  const auto options = RuntimeOptions(flags, world);
  if (!options.ok()) {
    err << options.status().ToString() << "\n";
    return 1;
  }
  const int batch = RuntimeBatch(flags);
  err << OversubscriptionWarning(world, std::thread::hardware_concurrency());

  const auto m = model::ByName(model_name);
  const std::vector<int> dims = ProxyDims(m);
  const auto data = RuntimeData(world, batch, dims);

  auto net = NetworkByName(flags.GetString("network"));
  if (!net.ok()) {
    err << net.status().ToString() << "\n";
    return 1;
  }
  // Fresh journals at this quiescent start: every table, metric and the
  // Chrome trace below read exactly this run back from the flight recorder.
  auto& recorder = flightrec::Recorder::Get();
  recorder.Reset();
  const auto result = core::TrainDistributed(
      dims, /*model_seed=*/7, data, iters, batch, world, *options);

  out << "profile: " << model_name << " proxy (";
  for (std::size_t i = 0; i < dims.size(); ++i)
    out << (i ? "x" : "") << dims[i];
  out << "), world=" << world
      << ", scheduler=" << flags.GetString("scheduler") << ", iters=" << iters
      << ", batch=" << batch << ", buffer=" << options->buffer_bytes / 1024
      << "KB, dtype=" << flags.GetString("dtype") << "\n\n";

  // Metrics are a view of the run, built once it is over: per-rank
  // transport counts and model residuals from the journal, the pool's from
  // the hub's end-of-run stats.
  const auto journal = recorder.SnapshotAll();
  DEAR_CHECK(journal.size() >= static_cast<std::size_t>(world));
  const auto attribution = analysis::AttributeIterations(journal, world);
  std::vector<analysis::ScheduleSpans> spans;
  std::vector<telemetry::MetricsRegistry> metrics(
      static_cast<std::size_t>(world));
  telemetry::MetricsRegistry global_metrics;
  for (int r = 0; r < world; ++r) {
    spans.push_back(
        analysis::PairScheduleRecords(journal[static_cast<std::size_t>(r)]));
    analysis::ExportTransportMetrics(spans.back(),
                                     metrics[static_cast<std::size_t>(r)]);
  }
  ExportPoolMetrics(result.pool, global_metrics);
  // Model-vs-measured residuals of every collective bracket against the
  // --network reference, exported as the comm.model.* metrics.
  const analysis::AlphaBeta reference{net->alpha_s, net->beta_s_per_byte};
  const auto samples = analysis::CollectiveSamples(journal);
  const auto calib = analysis::Calibrate(samples, world, reference);
  ExportModelMetrics(calib, samples, reference, metrics);
  // Which window of the run each rank's journal still holds. Once a writer
  // lane has wrapped, that rank's counts, the per-collective table, iter_ms
  // and the attribution report below cover only that window.
  std::string wrapped;
  out << "journal window (ms):" << std::fixed << std::setprecision(3);
  for (int r = 0; r < world; ++r) {
    const auto& records = journal[static_cast<std::size_t>(r)];
    out << " r" << r << "="
        << (records.empty() ? 0.0
                            : static_cast<double>(records.back().ts_ns -
                                                  records.front().ts_ns) *
                                  1e-6);
    if (recorder.journal(r)->wrapped()) wrapped += " " + std::to_string(r);
  }
  out << (wrapped.empty() ? "; complete, no lane wrapped"
                          : "; wrapped (rank" + wrapped +
                                "): the counts, tables and attribution "
                                "below cover only these windows")
      << "\n\n";
  // iter_ms: exact quantiles of the rank's step-end -> step-end windows.
  // exposed_ms: Eq. 9's exposed RS + AG time from the attribution report;
  // exposed% is its share of the attributed iteration time.
  std::vector<double> all_iter_ms;
  out << "rank   sent(KB)   recv(KB)  msgs   iter_ms(p50/p95/p99)"
      << "   exposed_ms  exposed%\n";
  for (int r = 0; r < world; ++r) {
    const analysis::ScheduleSpans& rank_spans =
        spans[static_cast<std::size_t>(r)];
    const analysis::RankAttribution& attr =
        attribution.ranks[static_cast<std::size_t>(r)];
    const double exposed_ms = attr.exposed_rs_ms + attr.exposed_ag_ms;
    out << std::setw(4) << r << std::fixed << std::setprecision(1)
        << std::setw(11) << rank_spans.sent.bytes / 1024.0 << std::setw(11)
        << rank_spans.received.bytes / 1024.0 << std::setw(6)
        << rank_spans.sent.messages;
    std::vector<double> iter_ms;
    for (const auto& w : rank_spans.windows)
      iter_ms.push_back(static_cast<double>(w.span.length()) * 1e-6);
    if (iter_ms.empty()) {
      out << std::setw(32) << "-";
    } else {
      out << "  ";
      PrintQuantiles(out, iter_ms);
      all_iter_ms.insert(all_iter_ms.end(), iter_ms.begin(), iter_ms.end());
    }
    out << std::fixed << std::setprecision(3) << std::setw(13) << exposed_ms
        << std::setw(9) << std::setprecision(1)
        << (attr.iter_ms > 0.0 ? 100.0 * exposed_ms / attr.iter_ms : 0.0)
        << "%" << (recorder.journal(r)->wrapped() ? "  partial" : "") << "\n";
  }

  // Job-level iteration-time row: every (rank, iteration) window — the
  // p99 a job dashboard shows.
  if (!all_iter_ms.empty()) {
    out << " all (merged " << world << " ranks)       ";
    PrintQuantiles(out, all_iter_ms);
    out << "\n";
  }

  // Transport buffer-pool accounting (one pool per hub, not per rank). Hit
  // rate near 1.0 means steady-state sends recycled slabs instead of
  // allocating (see DESIGN.md §10).
  {
    const comm::PoolStats& pool = result.pool;
    const std::int64_t total = pool.hits + pool.misses;
    out << "\ntransport pool: " << pool.hits << " hits / " << pool.misses
        << " misses";
    if (total > 0)
      out << " (hit rate " << std::fixed << std::setprecision(3)
          << static_cast<double>(pool.hits) / static_cast<double>(total)
          << ")";
    out << ", " << pool.acquired_bytes / 1024 << " KB acquired\n";
  }

  // Wire bytes by payload dtype, summed over ranks: what mixed precision
  // actually saved on the wire. (comm.bytes_sent counts the same traffic;
  // under --dtype f16/bf16 the gradient share of it shows up here halved.)
  out << "wire bytes by dtype:";
  for (int d = 0; d < comm::kNumDTypes; ++d) {
    const std::string name(comm::DTypeName(static_cast<comm::DType>(d)));
    std::int64_t bytes = 0;
    for (auto& reg : metrics)
      bytes += reg.GetCounter("comm.wire_bytes." + name).value();
    out << (d ? ", " : " ") << name << "=" << bytes / 1024 << " KB";
  }
  out << "\n";

  // Rank 0's collective brackets from the journal, one row per kind.
  out << "\nper-collective latency, rank 0 (ms):\n"
      << "kind                         calls   p50       p95       p99\n";
  {
    std::map<std::string, std::vector<double>> ms_by_kind;
    for (const auto& c : spans[0].collectives)
      ms_by_kind[comm::CollectiveKindName(c.kind)].push_back(
          static_cast<double>(c.span.length()) * 1e-6);
    for (const auto& [kind, ms] : ms_by_kind) {
      out << std::left << std::setw(26) << kind << std::right << std::setw(8)
          << ms.size();
      PrintQuantiles(out, ms);
      out << "\n";
    }
  }

  // Model-vs-measured residuals: how far each collective's wall time sits
  // from the --network reference's Hockney prediction (the same numbers the
  // comm.model.residual.* histograms export).
  if (!calib.shapes.empty()) {
    out << "\nmodel residual vs " << net->name
        << " (divergence = EWMA |ln measured/predicted|):\n"
        << "shape                    samples  divergence  mean-ratio  "
           "anomalies\n";
    for (const auto& s : calib.shapes) {
      out << std::left << std::setw(24) << analysis::ShapeName(s.shape)
          << std::right << std::setw(8) << s.residual.samples << std::fixed
          << std::setprecision(3) << std::setw(12) << s.residual.divergence
          << std::setw(12) << s.residual.mean_ratio << std::setw(11)
          << s.residual.anomalies << "\n";
    }
  }

  out << "\n" << analysis::RenderAttributionReport(attribution);

  const std::string trace_out = flags.GetString("trace-out");
  if (!trace_out.empty()) {
    // Same exporter as `dearsim timeline`, over this run's journal.
    TraceRecorder trace;
    analysis::BuildTimelineTrace(analysis::BuildCausalGraph(journal), trace);
    if (!trace.WriteFile(trace_out)) {
      err << "failed to write trace to '" << trace_out << "'\n";
      return 1;
    }
    out << "\nwrote Chrome trace (" << trace.size() << " events) to "
        << trace_out << "\n";
  }
  const std::string metrics_out = flags.GetString("metrics-out");
  if (!metrics_out.empty()) {
    std::string json = "{";
    for (int r = 0; r < world; ++r) {
      if (r) json += ",";
      json += "\"rank" + std::to_string(r) + "\":" +
              metrics[static_cast<std::size_t>(r)].ToJson();
    }
    json += ",\"global\":" + global_metrics.ToJson() + "}";
    std::ofstream file(metrics_out, std::ios::binary);
    file << json;
    if (!file) {
      err << "failed to write metrics to '" << metrics_out << "'\n";
      return 1;
    }
    out << "wrote metrics JSON to " << metrics_out
        << (wrapped.empty() ? "" : " (comm.* counts of wrapped ranks are "
                                   "partial)")
        << "\n";
  }
  if (flags.GetBool("prometheus")) {
    out << "\n";
    for (int r = 0; r < world; ++r) {
      out << metrics[static_cast<std::size_t>(r)].ToPrometheus(
          "rank=\"" + std::to_string(r) + "\"");
    }
  }
  return 0;
}

/// The sample list a run of every calibrated collective shape would
/// journal if its durations were exactly CostModel's, over a geometric size
/// ladder. This is a genuine selftest, not a tautology: the predictions
/// come from cost_model.cc's formulas while the recovery inverts calib.h's
/// ShapeCoefficients — any divergence between the two shows up as fit
/// error.
std::vector<analysis::CollectiveSample> SimBackendSamples(
    const comm::CostModel& cost) {
  using analysis::CollectiveShape;
  std::vector<analysis::CollectiveSample> samples;
  constexpr int kSizes = 7;
  for (int i = 0; i < kSizes; ++i) {
    const std::size_t bytes = std::size_t{65536} << i;  // 64 KiB .. 4 MiB
    const auto feed = [&](CollectiveShape shape, SimTime t) {
      samples.push_back({0, shape, static_cast<double>(bytes),
                         static_cast<double>(t)});
    };
    feed(CollectiveShape::kReduceScatter, cost.ReduceScatter(bytes));
    feed(CollectiveShape::kAllGather, cost.AllGather(bytes));
    feed(CollectiveShape::kRingAllReduce, cost.RingAllReduce(bytes));
    feed(CollectiveShape::kTreeBroadcast, cost.TreeBroadcast(bytes));
    feed(CollectiveShape::kRecursiveHalvingReduceScatter,
         cost.RecursiveHalvingReduceScatter(bytes));
    feed(CollectiveShape::kRecursiveDoublingAllGather,
         cost.RecursiveDoublingAllGather(bytes));
    feed(CollectiveShape::kTreeAllReduce, cost.TreeAllReduce(bytes));
    feed(CollectiveShape::kDoubleBinaryTreeAllReduce,
         cost.DoubleBinaryTreeAllReduce(bytes));
    feed(CollectiveShape::kRecursiveHalvingDoublingAllReduce,
         cost.RecursiveHalvingDoublingAllReduce(bytes));
  }
  // Zero-byte barriers: latency-only, so the fit must honestly report
  // "insufficient data" for this shape rather than invent a β.
  for (int i = 0; i < 3; ++i) {
    samples.push_back({0, CollectiveShape::kBarrier, 0.0,
                       static_cast<double>(cost.NegotiationLatency())});
  }
  return samples;
}

/// Multi-size collective sweep on real in-process engines: each collective
/// leaves its bracket in the journal, which the fit reads afterwards.
void RunRuntimeSweep(int world) {
  comm::TransportHub hub(world);
  std::vector<std::unique_ptr<comm::CommEngine>> engines;
  engines.reserve(static_cast<std::size_t>(world));
  for (int r = 0; r < world; ++r) {
    engines.push_back(
        std::make_unique<comm::CommEngine>(comm::Communicator(&hub, r)));
  }
  const bool pow2 = (world & (world - 1)) == 0;
  // Element counts per rank: geometric ladder, 3 passes each so every
  // (shape, size) point is sampled more than once.
  for (int pass = 0; pass < 3; ++pass) {
    for (std::size_t elems = 1024; elems <= 262144; elems *= 4) {
      const std::size_t n = elems * static_cast<std::size_t>(world);
      std::vector<std::vector<float>> buffers(
          static_cast<std::size_t>(world), std::vector<float>(n, 1.0f));
      std::vector<comm::CollectiveHandle> handles;
      for (int r = 0; r < world; ++r) {
        auto& engine = *engines[static_cast<std::size_t>(r)];
        std::span<float> buf(buffers[static_cast<std::size_t>(r)]);
        handles.push_back(engine.SubmitReduceScatter(buf));
        handles.push_back(engine.SubmitAllGather(buf));
        handles.push_back(engine.SubmitAllReduce(buf));
        if (pow2) {
          handles.push_back(engine.SubmitRecursiveHalvingReduceScatter(buf));
          handles.push_back(engine.SubmitRecursiveDoublingAllGather(buf));
        }
        handles.push_back(engine.SubmitBarrier());
      }
      for (auto& h : handles) {
        const Status st = h.Wait();
        (void)st;  // the fit reads the brackets, not the statuses
      }
    }
  }
  for (auto& engine : engines) engine->Shutdown();
}

/// `dearsim doctor` — α–β calibration health report: fits the network
/// parameters offline from the journal's collective brackets (or, with
/// --backend sim, from model-predicted collective times), compares model
/// vs measurement per shape, ranks stragglers, and emits a pass/warn/fail
/// verdict. --json-out writes the
/// `dear.doctor/1` report, which --network accepts back as a fitted model.
int CmdDoctor(FlagParser& flags, std::ostream& out, std::ostream& err) {
  const std::string backend = flags.GetString("backend");
  if (backend != "sim" && backend != "runtime") {
    err << "unknown --backend '" << backend << "' (expected sim or runtime)\n";
    return 1;
  }
  auto net = NetworkByName(flags.GetString("network"));
  if (!net.ok()) {
    err << net.status().ToString() << "\n";
    return 1;
  }
  const int world = flags.GetInt("world");
  if (world < 2) {
    err << "doctor needs --world >= 2\n";
    return 1;
  }
  const auto options = RuntimeOptions(flags, world);
  if (backend == "runtime" && !options.ok()) {
    err << options.status().ToString() << "\n";
    return 1;
  }

  const analysis::AlphaBeta reference{net->alpha_s, net->beta_s_per_byte};
  double exposed_fraction = -1.0;
  std::vector<analysis::CollectiveSample> samples;

  if (backend == "sim") {
    samples = SimBackendSamples(comm::CostModel(*net, world));
  } else {
    // Fresh journals: the raw sweep and a short training run on top of it
    // (which samples the shapes a real schedule uses) leave one bracket per
    // collective, and the training run's schedule records yield the
    // pipeline-health share.
    auto& recorder = flightrec::Recorder::Get();
    recorder.Reset();
    RunRuntimeSweep(world);
    {
      const auto m = model::ByName(flags.GetString("model"));
      const std::vector<int> dims = ProxyDims(m);
      const int batch = RuntimeBatch(flags);
      const int iters = std::max(1, flags.GetInt("iters"));
      const auto data = RuntimeData(world, batch, dims);
      core::TrainDistributed(dims, /*model_seed=*/7, data, iters, batch,
                             world, *options);
    }
    const auto journal = recorder.SnapshotAll();
    samples = analysis::CollectiveSamples(journal);
    // Fraction of iteration time the compute thread spent blocked on
    // collectives (0 = perfect overlap), worst rank.
    const auto attribution = analysis::AttributeIterations(journal, world);
    for (const auto& rank : attribution.ranks) {
      if (rank.iter_ms > 0.0)
        exposed_fraction = std::max(
            exposed_fraction, (rank.iter_ms - rank.compute_ms) / rank.iter_ms);
    }
  }
  const analysis::Calibration calib =
      analysis::Calibrate(samples, world, reference);

  // ---- Assemble the report ------------------------------------------------
  perflab::DoctorReport report;
  report.backend = backend;
  report.world = world;
  report.reference = {net->name, net->alpha_s, net->beta_s_per_byte,
                      net->bound_beta_s_per_byte};
  report.exposed_comm_fraction = exposed_fraction;

  for (const auto& f : calib.shapes) {
    perflab::DoctorShape s;
    s.shape = analysis::ShapeName(f.shape);
    s.world = f.world;
    s.samples = f.samples;
    s.ok = f.ok;
    if (f.ok) {
      s.alpha_s = f.ab.alpha_s;
      s.beta_s_per_byte = f.ab.beta_s_per_byte;
      s.r2 = f.line.r2;
    } else {
      s.why = f.why;
    }
    s.divergence = f.residual.divergence;
    s.mean_ratio = f.residual.mean_ratio;
    s.anomalies = f.residual.anomalies;
    report.shapes.push_back(std::move(s));
  }

  if (calib.network) {
    report.has_fit = true;
    report.fitted = {std::string("fitted:") + net->name,
                     calib.network->alpha_s, calib.network->beta_s_per_byte,
                     net->bound_beta_s_per_byte};
    report.fit_samples = calib.samples;
  }

  const auto anomalies = calib.AnomaliesByRank();
  std::vector<perflab::DoctorStraggler> stragglers;
  for (int r = 0; r < static_cast<int>(anomalies.size()); ++r) {
    if (anomalies[static_cast<std::size_t>(r)] > 0)
      stragglers.push_back({r, anomalies[static_cast<std::size_t>(r)]});
  }
  std::sort(stragglers.begin(), stragglers.end(),
            [](const auto& a, const auto& b) {
              return a.anomalies != b.anomalies ? a.anomalies > b.anomalies
                                                : a.rank < b.rank;
            });
  if (stragglers.size() > 5) stragglers.resize(5);
  report.stragglers = stragglers;

  // ---- Verdict ------------------------------------------------------------
  std::string verdict = "pass";
  if (!report.has_fit) {
    verdict = "fail";
    report.notes.push_back(
        "no usable alpha-beta fit: every shape reported insufficient data");
  } else {
    const double alpha_err =
        std::fabs(report.fitted.alpha_s - net->alpha_s) / net->alpha_s;
    const double beta_err =
        std::fabs(report.fitted.beta_s_per_byte - net->beta_s_per_byte) /
        net->beta_s_per_byte;
    if (alpha_err > 0.25 || beta_err > 0.25) {
      verdict = "warn";
      report.notes.push_back(
          "fitted alpha-beta deviates >25% from reference '" +
          std::string(net->name) +
          "' (expected when measuring the in-process runtime against a "
          "hardware preset; re-simulate with --network <this report>)");
    }
    for (const auto& s : report.shapes) {
      if (s.ok && s.divergence > 0.25) {
        verdict = "warn";
        report.notes.push_back("model-vs-measured divergence high on " +
                               s.shape);
      }
    }
  }
  if (!stragglers.empty()) {
    report.notes.push_back(
        std::to_string(stragglers.size()) +
        " rank(s) flagged by the EWMA straggler detector");
  }
  report.verdict = verdict;

  // ---- Human-readable report ---------------------------------------------
  out << "doctor: backend=" << backend << ", world=" << world
      << ", reference=" << net->name << "\n";
  out << std::fixed << std::setprecision(3)
      << "  reference alpha = " << net->alpha_s * 1e6
      << " us   beta = " << std::setprecision(4)
      << net->beta_s_per_byte * 1e9 << " ns/B (nominal "
      << net->bound_beta() * 1e9 << " ns/B)\n";
  if (report.has_fit) {
    const double alpha_err =
        100.0 * std::fabs(report.fitted.alpha_s - net->alpha_s) /
        net->alpha_s;
    const double beta_err =
        100.0 * std::fabs(report.fitted.beta_s_per_byte -
                          net->beta_s_per_byte) /
        net->beta_s_per_byte;
    out << std::setprecision(3)
        << "  fitted    alpha = " << report.fitted.alpha_s * 1e6
        << " us   beta = " << std::setprecision(4)
        << report.fitted.beta_s_per_byte * 1e9 << " ns/B   (err "
        << std::setprecision(1) << alpha_err << "% / " << beta_err << "%, "
        << report.fit_samples << " samples)\n";
  } else {
    out << "  fitted    (no usable fit)\n";
  }
  out << "\nshape                     world  samples  fit  alpha(us)  "
         "beta(ns/B)      r2     div   ratio  anom\n";
  for (const auto& s : report.shapes) {
    out << std::left << std::setw(25) << s.shape << std::right
        << std::setw(6) << s.world << std::setw(9) << s.samples;
    if (s.ok) {
      out << "   ok " << std::fixed << std::setprecision(3) << std::setw(10)
          << s.alpha_s * 1e6 << std::setprecision(4) << std::setw(12)
          << s.beta_s_per_byte * 1e9 << std::setprecision(4) << std::setw(8)
          << s.r2 << std::setprecision(3) << std::setw(8) << s.divergence
          << std::setw(8) << s.mean_ratio << std::setw(6) << s.anomalies
          << "\n";
    } else {
      out << "   -- " << s.why << "\n";
    }
  }
  out << "\nstragglers: ";
  if (report.stragglers.empty()) {
    out << "none\n";
  } else {
    for (std::size_t i = 0; i < report.stragglers.size(); ++i) {
      out << (i ? ", " : "") << "rank " << report.stragglers[i].rank << " ("
          << report.stragglers[i].anomalies << " anomalies)";
    }
    out << "\n";
  }
  if (report.exposed_comm_fraction >= 0.0) {
    out << "health: exposed comm fraction " << std::fixed
        << std::setprecision(3) << report.exposed_comm_fraction << "\n";
  }
  for (const auto& note : report.notes) out << "note: " << note << "\n";
  out << "verdict: " << verdict << "\n";

  const std::string json_out = flags.GetString("json-out");
  if (!json_out.empty()) {
    const Status st = report.WriteFile(json_out);
    if (!st.ok()) {
      err << st.ToString() << "\n";
      return 1;
    }
    out << "wrote " << perflab::kDoctorSchemaVersion << " report to "
        << json_out << "\n";
  }
  return verdict == "fail" ? 1 : 0;
}

/// `dearsim bench` — run a view of the perf-lab table and write the
/// structured results file (BENCH_<suite>.json unless --json-out overrides
/// it) that tools/perf_gate.py compares against a baseline. The paper view
/// prints its paper-vs-ours markdown tables (the blocks EXPERIMENTS.md
/// embeds) in place of the metric table. Prints every bar verdict and
/// exits 1 if any bar fails.
int CmdBench(FlagParser& flags, std::ostream& out, std::ostream& err) {
  perflab::SuiteRunOptions opts;
  opts.repeats = flags.GetInt("repeats");
  if (opts.repeats < 0) {
    err << "--repeats must be >= 0 (0 = suite default)\n";
    return 1;
  }
  const std::string name = flags.GetString("suite");
  // The paper view's exact rows take milliseconds; its tables are the
  // output.
  if (name != "paper") opts.progress = &out;
  auto run = perflab::RunSuite(name, opts);
  if (!run.ok()) {
    err << run.status().ToString() << "\n";
    return 1;
  }
  const perflab::BenchSuite& suite = run->suite;

  if (name == "paper") {
    for (const auto& table : perflab::RenderPaperTables(suite)) {
      out << "\n" << table.block;
    }
  } else {
    out << "\nsuite '" << suite.suite << "': " << suite.results.size()
        << " metrics\n"
        << std::left << std::setw(26) << "metric" << std::setw(36) << "params"
        << std::right << std::setw(3) << "n" << std::setw(11) << "p50"
        << std::setw(11) << "p95" << "  unit\n";
    for (const auto& r : suite.results) {
      const auto s = r.Summarize();
      std::string params;
      for (const auto& [k, v] : r.params) {
        if (!params.empty()) params += " ";
        params += k + "=" + v;
      }
      out << std::left << std::setw(26) << r.name << std::setw(36) << params
          << std::right << std::setw(3) << s.count << std::fixed
          << std::setprecision(3) << std::setw(11) << s.p50 << std::setw(11)
          << s.p95 << "  " << r.unit << "\n";
    }
  }

  out << "\nbars (" << run->bars.size() << "):\n";
  for (const auto& bar : run->bars) {
    out << (bar.pass ? "  PASS " : "  FAIL ") << bar.key << ": " << bar.rule
        << " (measured " << std::setprecision(4) << bar.value << ")\n";
  }

  std::string json_out = flags.GetString("json-out");
  if (json_out.empty()) json_out = "BENCH_" + suite.suite + ".json";
  const Status st = suite.WriteFile(json_out);
  if (!st.ok()) {
    err << st.ToString() << "\n";
    return 1;
  }
  out << "wrote " << json_out << " (compare: tools/perf_gate.py baseline "
      << json_out << ")\n";
  if (!run->ok()) {
    err << "bench: a bar failed (see FAIL lines above)\n";
    return 1;
  }
  return 0;
}

/// `dearsim check` — run the dearcheck protocol verifier.
///
/// Clean mode (default): trains the proxy model with the checker enabled
/// and reports how many collective operations verified as identical across
/// ranks (exit 1 if anything tripped). With --inject, deliberately breaks
/// one rank's comm-engine stream (skip | shrink | reorder) on a synthetic
/// schedule and prints the rank-attributed diagnosis the checker produces
/// instead of hanging — exit 0 when the fault was caught.
int CmdCheck(FlagParser& flags, std::ostream& out, std::ostream& err) {
  const int world = flags.GetInt("world");
  if (world < 2) {
    err << "check needs --world >= 2\n";
    return 1;
  }
  check::CheckerOptions copts;
  copts.watchdog_timeout_s = std::max(1, flags.GetInt("timeout-ms")) * 1e-3;
  auto& checker = check::Checker::Get();

  const std::string inject = flags.GetString("inject");
  if (inject == "none") {
    const int iters = flags.GetInt("iters");
    const int batch = RuntimeBatch(flags);
    const auto options = RuntimeOptions(flags, world);
    if (!options.ok()) {
      err << options.status().ToString() << "\n";
      return 1;
    }
    const auto m = model::ByName(flags.GetString("model"));
    const std::vector<int> dims = ProxyDims(m);
    const auto data = RuntimeData(world, batch, dims);
    checker.Enable(world, copts);
    core::TrainDistributed(dims, /*model_seed=*/7, data, iters, batch, world,
                           *options);
    const bool tripped = checker.tripped();
    out << "dearcheck: scheduler=" << flags.GetString("scheduler")
        << " world=" << world << " iters=" << iters << "\n"
        << "  verified " << checker.verified_ops()
        << " collective operations, "
        << (tripped ? "TRIPPED" : "no divergence") << "\n";
    for (int r = 0; r < world; ++r)
      out << "  rank " << r << ": " << checker.ledger_size(r)
          << " collectives recorded\n";
    if (tripped) out << checker.report() << "\n";
    checker.Disable();
    return tripped ? 1 : 0;
  }

  check::FaultSpec fault;
  fault.rank = flags.GetInt("inject-rank");
  fault.op_index = flags.GetInt("inject-op");
  if (inject == "skip") {
    fault.kind = check::FaultKind::kSkip;
  } else if (inject == "shrink") {
    fault.kind = check::FaultKind::kShrink;
  } else if (inject == "reorder") {
    fault.kind = check::FaultKind::kReorder;
  } else {
    err << "unknown --inject '" << inject
        << "' (expected none, skip, shrink, or reorder)\n";
    return 1;
  }
  if (fault.rank < 0 || fault.rank >= world || fault.op_index < 0) {
    err << "--inject-rank must be in [0, world) and --inject-op >= 0\n";
    return 1;
  }

  out << "dearcheck: injecting '" << inject << "' at rank " << fault.rank
      << " op#" << fault.op_index << " on a " << world
      << "-rank reduce-scatter/all-gather schedule\n";
  checker.Enable(world, copts);
  checker.ArmFault(fault);
  {
    comm::TransportHub hub(world);
    checker.SetTripHandler([&hub] { hub.Shutdown(); });
    const std::size_t n = static_cast<std::size_t>(world) * 64;
    std::vector<std::vector<float>> buffers(
        static_cast<std::size_t>(world), std::vector<float>(n, 1.0f));
    std::vector<std::unique_ptr<comm::CommEngine>> engines;
    engines.reserve(static_cast<std::size_t>(world));
    for (int r = 0; r < world; ++r)
      engines.push_back(std::make_unique<comm::CommEngine>(
          comm::Communicator(&hub, r)));
    // The canonical DeAR iteration: OP1 reduce-scatter, then OP2
    // all-gather, on every rank — distinct kinds back-to-back, so every
    // fault class is observable.
    std::vector<comm::CollectiveHandle> handles;
    for (int r = 0; r < world; ++r) {
      auto& engine = *engines[static_cast<std::size_t>(r)];
      std::span<float> buf(buffers[static_cast<std::size_t>(r)]);
      handles.push_back(engine.SubmitReduceScatter(buf, comm::ReduceOp::kAvg));
      handles.push_back(engine.SubmitAllGather(buf));
    }
    for (auto& h : handles) {
      // Unavailable is expected on ranks released by the trip handler.
      const Status st = h.Wait();
      (void)st;
    }
    for (auto& engine : engines) engine->Shutdown();
    if (checker.tripped()) {
      out << "diagnosis:\n" << checker.report() << "\n";
    } else {
      out << "fault was NOT detected\n" << checker.Dump() << "\n";
    }
    const bool caught = checker.tripped();
    checker.Disable();
    return caught ? 0 : 1;
  }
}

std::string Hex64(std::uint64_t v) {
  std::ostringstream s;
  s << std::hex << std::setw(16) << std::setfill('0') << v;
  return s.str();
}

int CmdFuzz(FlagParser& flags, std::ostream& out, std::ostream& err) {
  const int world = flags.GetInt("world");
  if (world < 2) {
    err << "fuzz needs --world >= 2\n";
    return 1;
  }
  auto dtype = DTypeByName(flags.GetString("dtype"));
  if (!dtype.ok()) {
    err << dtype.status().ToString() << "\n";
    return 1;
  }
  schedlab::PropertyOptions popts;
  popts.world = world;
  popts.wire_dtype = *dtype;
  const std::string dtype_arg = flags.GetString("dtype");

  // --replay S: rerun the single failing schedule S with its full decision
  // trace — the one-command reproduction printed on failure.
  const int replay = flags.GetInt("replay");
  if (replay >= 0) {
    const auto seed = static_cast<std::uint64_t>(replay);
    const auto report = schedlab::RunPropertySuite(seed, popts);
    out << "replaying seed " << seed << " (world=" << world << ")\n";
    for (const auto& line : report.schedule.trace) out << "  " << line << "\n";
    out << "decisions=" << report.schedule.decisions
        << " fingerprint=" << Hex64(report.schedule.fingerprint)
        << " digest=" << Hex64(report.result_digest) << "\n";
    if (!report.ok) {
      out << "FAIL: " << report.failure << "\n";
      return 1;
    }
    out << "ok\n";
    return 0;
  }

  const auto base_seed = static_cast<std::uint64_t>(flags.GetInt("seed"));
  const int schedules = std::max(1, flags.GetInt("schedules"));
  out << "fuzz: world=" << world << " schedules=" << schedules
      << " base-seed=" << base_seed << " dtype=" << dtype_arg << "\n";
  std::map<std::uint64_t, int> digests;
  std::map<std::uint64_t, int> fingerprints;
  for (int i = 0; i < schedules; ++i) {
    const std::uint64_t seed = base_seed + static_cast<std::uint64_t>(i);
    const auto report = schedlab::RunPropertySuite(seed, popts);
    out << "  seed=" << seed << " decisions=" << report.schedule.decisions
        << " fingerprint=" << Hex64(report.schedule.fingerprint)
        << " digest=" << Hex64(report.result_digest)
        << (report.ok ? " ok" : " FAIL") << "\n";
    if (!report.ok) {
      out << "property failed: " << report.failure << "\n"
          << "replay with: dearsim fuzz --world " << world << " --dtype "
          << dtype_arg << " --replay " << seed << "\n";
      return 1;
    }
    ++digests[report.result_digest];
    ++fingerprints[report.schedule.fingerprint];
  }
  out << "explored " << fingerprints.size() << " distinct schedules, "
      << digests.size() << " distinct result digests\n";
  if (digests.size() != 1) {
    // Different schedules produced different bits — exactly what the
    // paper's no-negotiation contract (Eq. 3-5) forbids.
    out << "FAIL: results are schedule-dependent\n";
    return 1;
  }
  out << "all schedules produced bitwise-identical results\n";
  return 0;
}

// `dearsim chaos` — seeded crash/rejoin schedules over the elastic
// training runtime (DESIGN.md §13). One seed determines both the injected
// fault (victim, kill iteration, rejoin delay) and the thread
// interleaving, so a failing seed replays byte-identically:
//   dearsim chaos --seed N --replay N   (full decision trace)
int CmdChaos(FlagParser& flags, std::ostream& out, std::ostream& err) {
  const int world = flags.GetInt("world");
  if (world < 2 || world > 64) {
    err << "chaos needs 2 <= --world <= 64 (membership tracks liveness in a "
           "64-bit mask)\n"
        << kUsage;
    return 1;
  }
  schedlab::ChaosOptions copts;
  copts.elastic.world = world;

  const int replay = flags.GetInt("replay");
  if (replay >= 0) {
    const auto seed = static_cast<std::uint64_t>(replay);
    const auto report = schedlab::RunCrashRejoin(seed, copts);
    out << "replaying chaos seed " << seed << " (world=" << world
        << " victim=" << report.victim << " kill@" << report.kill_iteration
        << " rejoin+" << report.rejoin_delay << ")\n";
    for (const auto& line : report.schedule.trace) out << "  " << line << "\n";
    out << "transitions:\n" << report.elastic.transition_log;
    out << "decisions=" << report.schedule.decisions
        << " fingerprint=" << Hex64(report.schedule.fingerprint) << "\n";
    if (!report.ok) {
      out << "FAIL: " << report.failure << "\n";
      return 1;
    }
    out << "ok\n";
    return 0;
  }

  const auto base_seed = static_cast<std::uint64_t>(flags.GetInt("seed"));
  const int schedules = std::max(1, flags.GetInt("schedules"));
  out << "chaos: world=" << world << " schedules=" << schedules
      << " base-seed=" << base_seed << "\n";
  for (int i = 0; i < schedules; ++i) {
    const std::uint64_t seed = base_seed + static_cast<std::uint64_t>(i);
    const auto report = schedlab::RunCrashRejoin(seed, copts);
    out << "  seed=" << seed << " victim=" << report.victim << " kill@"
        << report.kill_iteration << " rejoin+" << report.rejoin_delay
        << " decisions=" << report.schedule.decisions
        << " fingerprint=" << Hex64(report.schedule.fingerprint)
        << " segments=" << report.elastic.segments.size()
        << " stale-drops=" << report.elastic.stale_drops
        << (report.ok ? " ok" : " FAIL") << "\n";
    if (!report.ok) {
      out << "chaos schedule failed: " << report.failure << "\n"
          << "replay with: dearsim chaos --world " << world << " --replay "
          << seed << "\n";
      return 1;
    }
  }
  out << "all chaos schedules matched the sequential gradient oracle\n";
  return 0;
}

// `dearsim timeline` — run every collective once under a controlled
// schedule with the always-on flight recorder, merge the per-rank journals
// into the cross-rank happens-before DAG, and emit a Chrome/Perfetto trace
// whose flow arrows connect every Send slice to its Recv slice. The
// companion text output prints the message-chain critical path (the
// cross-rank analogue of `profile`'s per-rank interval attribution).
int CmdTimeline(FlagParser& flags, std::ostream& out, std::ostream& err) {
  const int world = flags.GetInt("world");
  if (world < 2) {
    err << "timeline needs --world >= 2\n";
    return 1;
  }
  std::string path = flags.GetString("trace-out");
  if (path.empty()) path = "timeline.json";
  schedlab::PropertyOptions popts;
  popts.world = world;

  // Fresh journals so the trace covers exactly this sweep, then drive all
  // 15 collectives (with their oracles) under one controlled schedule.
  auto& recorder = flightrec::Recorder::Get();
  recorder.Reset();
  schedlab::RandomWalkPicker picker(
      static_cast<std::uint64_t>(flags.GetInt("seed")));
  const auto report = schedlab::CheckAllCollectives(picker, popts);
  if (!report.ok) {
    err << "collective sweep failed: " << report.failure << "\n";
    return 1;
  }

  const auto graph = analysis::BuildCausalGraph(recorder.SnapshotAll());
  TraceRecorder trace;
  analysis::BuildTimelineTrace(graph, trace);
  if (!trace.WriteFile(path)) {
    err << "cannot write " << path << "\n";
    return 1;
  }

  out << "timeline: world=" << world << " events=" << graph.events.size()
      << " message-edges=" << graph.edges.size()
      << " unmatched-sends=" << graph.unmatched_sends
      << " unmatched-recvs=" << graph.unmatched_recvs << "\n";
  out << analysis::DescribeChain(graph, analysis::MessageCriticalPath(graph));
  out << "wrote " << path << " (load in ui.perfetto.dev; flow arrows = "
      << "Send->Recv causal edges)\n";
  if (graph.unmatched_sends != 0 || graph.unmatched_recvs != 0) {
    err << "FAIL: " << graph.unmatched_sends << " sends / "
        << graph.unmatched_recvs
        << " recvs without a causal match (ring too small? raise "
        << "DEAR_FLIGHTREC_CAPACITY)\n";
    return 1;
  }
  if (!graph.lamport_consistent) {
    err << "FAIL: Lamport order violated on a message edge\n";
    return 1;
  }
  return 0;
}

}  // namespace

std::string OversubscriptionWarning(int world, unsigned cores) {
  const long threads = 2L * world;
  if (cores == 0 || threads <= static_cast<long>(cores)) return "";
  return "warning: " + std::to_string(world) + " ranks run " +
         std::to_string(threads) + " threads on " + std::to_string(cores) +
         " cores; measured times include waiting for a core\n";
}

int RunCli(int argc, const char* const* argv, std::ostream& out,
           std::ostream& err) {
  if (argc < 2) {
    err << kUsage;
    return 1;
  }
  const std::string cmd = argv[1];

  FlagParser flags;
  flags.AddString("model", "resnet50", "model zoo entry (see 'models')");
  flags.AddInt("gpus", 64, "cluster size");
  flags.AddString("network", "10gbe", "10gbe | 25gbe | 100gbib");
  flags.AddString("scheduler", "dear",
                  "sequential|wfbp|ddp|horovod|mg-wfbp|bytescheduler|dear|zero|"
                  "zero1 (profile, check and the runtime doctor execute "
                  "sequential|ddp|dear|zero1)");
  flags.AddDouble("buffer-mb", 25.0, "tensor fusion buffer size");
  flags.AddInt("batch-size", 0, "override per-GPU batch (0 = model default)");
  flags.AddInt("trials", 15, "tuning trials");
  flags.AddBool("gantt", false, "print an ASCII Gantt of the schedule");
  flags.AddBool("csv", false, "emit CSV instead of aligned text (compare)");
  flags.AddInt("world", 4, "worker count for the real runtime (profile)");
  flags.AddInt("iters", 8, "training iterations (profile)");
  flags.AddString("dtype", "f32",
                  "gradient wire dtype: f32|f16|bf16 (profile, check, "
                  "doctor, fuzz)");
  flags.AddInt("buffer-kb", 64, "runtime fusion buffer in KB (profile)");
  flags.AddString("trace-out", "",
                  "write Chrome trace JSON here (profile, timeline)");
  flags.AddString("metrics-out", "", "write metrics JSON here (profile)");
  flags.AddString("suite", "quick", "bench: suite to run (quick|full|paper)");
  flags.AddInt("repeats", 0,
               "bench: wall-metric repeats (0 = suite default)");
  flags.AddString("json-out", "",
                  "bench: results path (default BENCH_<suite>.json); "
                  "doctor: dear.doctor/1 report path");
  flags.AddString("backend", "sim",
                  "doctor: sim (model selftest) | runtime (measure the "
                  "in-process engines)");
  flags.AddBool("prometheus", false, "also print Prometheus text (profile)");
  flags.AddString("inject", "none",
                  "check: fault to inject (none|skip|shrink|reorder)");
  flags.AddInt("inject-rank", 1, "check: rank whose engine misbehaves");
  flags.AddInt("inject-op", 0, "check: 0-based request index to corrupt");
  flags.AddInt("timeout-ms", 2000, "check: watchdog deadline for blocked Recv");
  flags.AddInt("seed", 1, "fuzz/chaos: base seed (schedule i uses seed+i)");
  flags.AddInt("schedules", 8, "fuzz/chaos: number of schedules to run");
  flags.AddInt("replay", -1,
               "fuzz/chaos: replay this seed with a full decision trace");
  flags.AddBool("help", false, "show flags");

  const Status st = flags.Parse(argc - 1, argv + 1);
  if (!st.ok()) {
    err << st.ToString() << "\n" << flags.Usage();
    return 1;
  }
  if (flags.GetBool("help")) {
    out << kUsage << flags.Usage();
    return 0;
  }

  // The simulator commands price a cluster of --gpus ranks (sweep sets its
  // own) with a --buffer-mb fusion buffer (tune searches its own), which
  // MakeConfig converts to a byte count.
  const bool sim_cmd = cmd == "simulate" || cmd == "compare";
  if ((sim_cmd || cmd == "tune") && flags.GetInt("gpus") < 1) {
    err << "--gpus must be at least 1\n" << kUsage;
    return 1;
  }
  const double buffer_bytes = flags.GetDouble("buffer-mb") * 1024 * 1024;
  if ((sim_cmd || cmd == "sweep") &&
      !(buffer_bytes >= 1.0 &&  // false for NaN too
        buffer_bytes <
            static_cast<double>(std::numeric_limits<std::size_t>::max()))) {
    err << "--buffer-mb must be positive and fit a size_t byte count\n"
        << kUsage;
    return 1;
  }

  // The runtime commands train on world x batch x 4 samples, an int.
  const bool trains =
      cmd == "profile" || cmd == "check" ||
      (cmd == "doctor" && flags.GetString("backend") == "runtime");
  if (trains && std::int64_t{flags.GetInt("world")} * RuntimeBatch(flags) >
                    std::numeric_limits<int>::max() / 4) {
    err << "--world x --batch-size x 4 samples must fit an int\n" << kUsage;
    return 1;
  }

  if (cmd == "models") return CmdModels(out);
  if (cmd == "simulate") return CmdSimulate(flags, out, err);
  if (cmd == "compare") return CmdCompare(flags, out, err);
  if (cmd == "tune") return CmdTune(flags, out, err);
  if (cmd == "sweep") return CmdSweep(flags, out, err);
  if (cmd == "profile") return CmdProfile(flags, out, err);
  if (cmd == "doctor") return CmdDoctor(flags, out, err);
  if (cmd == "bench") return CmdBench(flags, out, err);
  if (cmd == "check") return CmdCheck(flags, out, err);
  if (cmd == "fuzz") return CmdFuzz(flags, out, err);
  if (cmd == "chaos") return CmdChaos(flags, out, err);
  if (cmd == "timeline") return CmdTimeline(flags, out, err);
  err << "unknown subcommand '" << cmd << "'\n" << kUsage;
  return 1;
}

}  // namespace dear::cli
