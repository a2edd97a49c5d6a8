#include "report.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <numeric>
#include <thread>

#include "common/stats.h"
#include "perflab/bench_schema.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> defs = {
      {"throughput_per_s", "1/s"},
      {"op_ms_p50", "ms"},
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
  };
  return defs;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> defs = {
      {"op_ms_p90", "ms"},
      {"train.forward_ms", "ms"},
      {"train.backward_ms", "ms"},
      {"train.gflops", "GFLOP/s"},
      {"train.ref_samples_per_s", "1/s"},
      {"core.pre_forward_wait_ms", "ms"},
      {"core.on_backward_ms", "ms"},
      {"core.step_ms", "ms"},
      {"core.synchronize_ms", "ms"},
      {"core.exposed_frac", "ratio"},
      {"core.collectives_per_step", "count"},
      {"fusion.groups", "count"},
      {"fusion.group_kb_p50", "KiB"},
      {"fusion.plan_us", "us"},
      {"comm.rs_us", "us"},
      {"comm.ag_us", "us"},
      {"comm.algbw_gbps", "GB/s"},
      {"comm.hop_us", "us"},
      {"comm.pool_misses_per_msg", "ratio"},
      {"comm.wire_bytes_per_step", "bytes"},
      {"kernels.reduce_gbps", "GB/s"},
      {"kernels.pack_gbps", "GB/s"},
      {"sched.build_graph_us", "us"},
      {"sim.simulate_us", "us"},
      {"sim.tasks", "count"},
      {"sched.evaluate_us", "us"},
      {"tune.suggest_us", "us"},
      {"tune.observe_us", "us"},
      {"trace.overhead_ms", "ms"},
      {"trace.spans", "count"},
      {"trace.runtime_spans", "count"},
  };
  return defs;
}

namespace {

/// Shortest decimal that round-trips `v` exactly: every digit measured.
std::string Number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

}  // namespace

void PrintEnvironment(const Options& options, int threads) {
  const unsigned cores = std::thread::hardware_concurrency();
  double load[3] = {0, 0, 0};
  if (getloadavg(load, 3) != 3) load[0] = load[1] = load[2] = -1;
  auto env = dear::perflab::EnvironmentFingerprint();
  env["build_type"] = PERFBENCH_BUILD_TYPE;
  env["commit"] = options.commit;
  env["nproc"] = std::to_string(cores);
  env["loadavg_1m"] = Number(load[0]);
  env["workload"] = options.workload;
  env["seed"] = std::to_string(options.seed);
  env["threads"] = std::to_string(threads);
  env["oversubscribed"] =
      static_cast<unsigned>(threads) > cores ? "yes" : "no";
  for (const auto& [k, v] : env) std::cout << "# env " << k << "=" << v << "\n";
  if (static_cast<unsigned>(threads) > cores)
    std::cout << "# warning: " << threads << " runnable threads on " << cores
              << " cores; wall-clock numbers measure oversubscription\n";
}

void PrintResult(const Options& options, const Result& result) {
  const auto& defs = options.trace ? PerLayerMetrics() : EndToEndMetrics();
  for (const auto& [alias, source] : result.aliases) {
    const auto it = result.values.find(source);
    if (it != result.values.end())
      std::cout << "# " << alias << " = " << Number(it->second) << "\n";
  }
  std::string json = "{\"correct\": ";
  const bool correct = result.checks_ok && result.failed == 0;
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& def : defs) {
    const auto it = result.values.find(def.name);
    const double v = it == result.values.end() ? 0.0 : it->second;
    std::cout << "metric " << def.name << " " << Number(v) << " " << def.unit
              << "\n";
    json += first ? "" : ", ";
    json += std::string("\"") + def.name + "\": {\"value\": " + Number(v) +
            ", \"unit\": \"" + def.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::cout << json << std::endl;
}

double PeakRssMb() {
  // VmHWM, not getrusage's ru_maxrss: the latter survives exec, so it
  // would report the launching process's footprint when that is larger.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // KiB -> MiB
  }
  return 0.0;
}

double Quantile(const std::vector<double>& values, double q) {
  return dear::Percentile(values, 100.0 * q);
}

std::vector<std::size_t> QuietBlocks(const std::vector<double>& block_ms) {
  std::vector<std::size_t> idx(block_ms.size());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    return block_ms[a] < block_ms[b];
  });
  idx.resize(std::min(idx.size(), std::max<std::size_t>(1, idx.size() / 20)));
  return idx;
}

}  // namespace perfbench
