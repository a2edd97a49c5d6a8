// Shared helpers for the figure/table regeneration binaries.
//
// Each bench/ binary prints one table or figure from the paper's evaluation
// section (see DESIGN.md's experiment index) in plain text, with the
// paper's reported values alongside where the paper states them, so the
// output is directly comparable. EXPERIMENTS.md archives one run.
//
// Every binary also opens a perflab::ResultSink suite (SuiteGuard below),
// so the numbers behind each table additionally land in a structured
// `BENCH_<suite>.json` that tools/perf_gate.py can diff against a baseline
// — the text stays the human artifact, the JSON the machine one.
#pragma once

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "fusion/plan.h"
#include "model/zoo.h"
#include "perflab/bench_schema.h"
#include "perflab/sink.h"
#include "sched/runner.h"
#include "tune/search.h"

namespace dear::bench {

/// Opens the structured-results suite for one bench binary; on scope exit
/// writes BENCH_<suite>.json next to the text output. Declare first in
/// main(): `dear::bench::SuiteGuard results("fig7");`.
class SuiteGuard {
 public:
  explicit SuiteGuard(std::string suite) : suite_(std::move(suite)) {
    perflab::ResultSink::Get().Begin(suite_);
  }
  ~SuiteGuard() {
    const std::string path = "BENCH_" + suite_ + ".json";
    const Status st = perflab::ResultSink::Get().WriteAndEnd(path);
    if (st.ok())
      std::printf("[perf-lab] wrote %s\n", path.c_str());
    else
      std::fprintf(stderr, "[perf-lab] %s\n", st.ToString().c_str());
  }
  SuiteGuard(const SuiteGuard&) = delete;
  SuiteGuard& operator=(const SuiteGuard&) = delete;

 private:
  std::string suite_;
};

inline sched::ClusterSpec MakeCluster(int world, comm::NetworkModel net) {
  sched::ClusterSpec c;
  c.world_size = world;
  c.network = net;
  return c;
}

inline sched::RunResult RunPolicy(const model::ModelSpec& m,
                                  const sched::ClusterSpec& cluster,
                                  sched::PolicyKind kind,
                                  fusion::FusionPlan plan) {
  sched::PolicyConfig cfg;
  cfg.kind = kind;
  cfg.plan = std::move(plan);
  const auto r = sched::EvaluatePolicy(m, cluster, cfg);
  // Structured mirror of the table cell this run feeds. Simulator output
  // is bit-deterministic, so the tight gate catches any modeled-perf
  // drift; configurations that differ only in fusion plan fold into one
  // sample vector, which is still stable run to run.
  auto& sink = perflab::ResultSink::Get();
  if (sink.active()) {
    const std::map<std::string, std::string> params = {
        {"model", m.name()},
        {"gpus", std::to_string(cluster.world_size)},
        {"network", cluster.network.name},
        {"policy", sched::PolicyName(kind)}};
    sink.Record("sim.iter_ms", params, ToMilliseconds(r.iter_time), "ms",
                /*higher_is_better=*/false, /*gate_max_ratio=*/1.02);
    sink.Record("sim.throughput", params, r.throughput_samples_per_s,
                "samples/s", /*higher_is_better=*/true,
                /*gate_max_ratio=*/1.02);
  }
  return r;
}

/// Per-tensor granularity (no fusion) run.
inline sched::RunResult RunUnfused(const model::ModelSpec& m,
                                   const sched::ClusterSpec& cluster,
                                   sched::PolicyKind kind) {
  return RunPolicy(m, cluster, kind, fusion::PerTensor(m));
}

/// Simulator-side BO tuning of the fusion buffer size for `kind` (the
/// analog of core::AutoTuner, §IV-B): maximizes simulated throughput over
/// [1, 100] MB starting from the 25 MB default. Returns the best buffer in
/// bytes after `trials` observations.
inline std::size_t TuneBufferBytes(const model::ModelSpec& m,
                                   const sched::ClusterSpec& cluster,
                                   sched::PolicyKind kind, int trials = 15) {
  tune::BoOptions opts;
  opts.first_point = 25.0;
  tune::BayesianOptimizer bo(1.0, 100.0, opts);
  for (int i = 0; i < trials; ++i) {
    const double mb = bo.SuggestNext();
    const auto bytes = static_cast<std::size_t>(mb * 1024.0 * 1024.0);
    const auto r = RunPolicy(m, cluster, kind, fusion::ByBufferBytes(m, bytes));
    bo.Observe(mb, r.throughput_samples_per_s);
  }
  return static_cast<std::size_t>(bo.best_x() * 1024.0 * 1024.0);
}

inline void PrintHeader(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

inline void PrintRule(int width = 78) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

}  // namespace dear::bench
