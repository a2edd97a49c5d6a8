// sim-tune: the simulator and tuner doing what `dearsim compare` and
// `dearsim tune` do, one cell (zoo model x world x network) per operation.
// Single-threaded; no runtime (comm/train/core) call is made.
#include <iostream>
#include <string_view>

#include "checks.h"
#include "common/rng.h"
#include "fusion/plan.h"
#include "model/zoo.h"
#include "sched/policies.h"
#include "sched/runner.h"
#include "sim/engine.h"
#include "tune/search.h"
#include "workloads.h"

namespace perfbench {

namespace sched = dear::sched;

namespace {

constexpr int kSetups = 5;
constexpr double kBufferMb = 25.0;  // compare's default fusion buffer
constexpr int kTuneTrials = 10;

constexpr sched::PolicyKind kPolicies[] = {
    sched::PolicyKind::kSequential, sched::PolicyKind::kWFBP,
    sched::PolicyKind::kByteScheduler, sched::PolicyKind::kHorovod,
    sched::PolicyKind::kDDP, sched::PolicyKind::kMGWFBP,
    sched::PolicyKind::kZeRO, sched::PolicyKind::kDeAR};

struct Cell {
  std::size_t model{0};
  sched::ClusterSpec cluster;
  double max_speedup{0.0};  // Eq. 6 at the preset's effective bandwidth
};

/// The fusion plan `compare` gives each policy.
sched::PolicyConfig MakeConfig(sched::PolicyKind kind,
                               const dear::model::ModelSpec& m,
                               const sched::ClusterSpec& cluster,
                               double buffer_mb, trace::Recorder& rec) {
  trace::Scope s(rec, "fusion.plan");
  sched::PolicyConfig cfg;
  cfg.kind = kind;
  if (kind == sched::PolicyKind::kWFBP ||
      kind == sched::PolicyKind::kByteScheduler ||
      kind == sched::PolicyKind::kSequential) {
    cfg.plan = dear::fusion::PerTensor(m);
  } else if (kind == sched::PolicyKind::kMGWFBP) {
    cfg.plan = dear::fusion::MergeGradientsWisely(m, cluster.network.alpha_s,
                                                  cluster.world_size);
  } else {
    cfg.plan = dear::fusion::ByBufferBytes(
        m, static_cast<std::size_t>(buffer_mb * 1024 * 1024));
  }
  return cfg;
}

sched::RunResult Evaluate(const dear::model::ModelSpec& m, const Cell& cell,
                          const sched::PolicyConfig& cfg,
                          trace::Recorder& rec) {
  trace::Scope s(rec, "sched.evaluate");
  return sched::EvaluatePolicy(m, cell.cluster, cfg);
}

/// One cell: 8-policy compare, then a BO tune of DeAR's buffer size.
std::vector<sched::RunResult> RunCell(const dear::model::ModelSpec& m,
                                      const Cell& cell, trace::Recorder& rec) {
  trace::Scope s(rec, "cell");
  std::vector<sched::RunResult> results;
  for (auto kind : kPolicies)
    results.push_back(
        Evaluate(m, cell, MakeConfig(kind, m, cell.cluster, kBufferMb, rec),
                 rec));
  dear::tune::BoOptions opts;
  opts.first_point = kBufferMb;
  dear::tune::BayesianOptimizer bo(1.0, 100.0, opts);
  for (int t = 0; t < kTuneTrials; ++t) {
    double mb = 0.0;
    {
      trace::Scope su(rec, "tune.suggest");
      mb = bo.SuggestNext();
    }
    results.push_back(Evaluate(
        m, cell,
        MakeConfig(sched::PolicyKind::kDeAR, m, cell.cluster, mb, rec), rec));
    trace::Scope so(rec, "tune.observe");
    bo.Observe(mb, results.back().throughput_samples_per_s);
  }
  return results;
}

struct Setup {
  std::vector<dear::model::ModelSpec> models;
  std::vector<Cell> cells;
  /// Per cell, the iteration times of its first (warm-up) evaluation:
  /// every measured visit must reproduce them exactly.
  std::vector<std::vector<dear::SimTime>> expected;
  long defects{0};  // warm-up results that failed the Eq. 6 check
};

/// Iteration times of a cell's results; counts Eq. 6 defects into
/// `defect` (first one kept).
std::vector<dear::SimTime> CheckCell(
    const std::vector<sched::RunResult>& results, const Cell& cell,
    std::string& defect) {
  std::vector<dear::SimTime> times;
  for (const auto& r : results) {
    if (defect.empty())
      defect = CheckSimResult(r, cell.cluster.world_size, cell.max_speedup);
    times.push_back(r.iter_time);
  }
  return times;
}

/// Builds the zoo and the cells, then evaluates every cell once so that
/// lazy state is warm and each cell has its expected result.
Setup MakeSetup() {
  Setup s;
  s.models = dear::model::PaperModels();
  for (auto& m : dear::model::ExtensionModels()) s.models.push_back(m);
  for (std::size_t m = 0; m < s.models.size(); ++m) {
    for (int world : {16, 64}) {
      for (auto net : {dear::comm::NetworkModel::TenGbE(),
                       dear::comm::NetworkModel::HundredGbIB()}) {
        Cell c;
        c.model = m;
        c.cluster.world_size = world;
        c.cluster.network = net;
        // Simulated collectives move bytes at the effective rate, so that
        // rate (not Table II's nominal one) bounds any achieved speedup.
        auto eff = c.cluster;
        eff.network.bound_beta_s_per_byte = net.beta_s_per_byte;
        c.max_speedup = sched::MaxSpeedup(s.models[m], eff);
        s.cells.push_back(c);
      }
    }
  }
  trace::Recorder off;
  for (const auto& cell : s.cells) {
    std::string defect;
    s.expected.push_back(
        CheckCell(RunCell(s.models[cell.model], cell, off), cell, defect));
    if (!defect.empty()) ++s.defects;
  }
  return s;
}

/// Traced runs only: DeAR's graph built and simulated step by step, which
/// EvaluatePolicy does as one call. Returns false if the simulation fails.
bool ProbeSimulator(const dear::model::ModelSpec& m, const Cell& cell,
                    trace::Recorder& rec, std::vector<double>& tasks,
                    std::vector<double>& groups,
                    std::vector<double>& group_kb) {
  trace::Scope s(rec, "probe.sim");
  const auto cfg =
      MakeConfig(sched::PolicyKind::kDeAR, m, cell.cluster, kBufferMb, rec);
  sched::BuiltGraph built;
  {
    trace::Scope b(rec, "sched.build_graph");
    built = sched::BuildTaskGraph(m, cell.cluster, cfg,
                                  sched::RunOptions{}.iterations);
  }
  bool ok = false;
  {
    trace::Scope sim(rec, "sim.simulate");
    ok = dear::sim::Simulate(built.graph, built.stream_policies).ok();
  }
  tasks.push_back(static_cast<double>(built.graph.size()));
  groups.push_back(cfg.plan.num_groups());
  for (const auto& g : cfg.plan.groups())
    group_kb.push_back(static_cast<double>(g.bytes) / 1024.0);
  return ok;
}

}  // namespace

Result RunSimTune(const Options& options) {
  Result result;
  Values& v = result.values;
  std::vector<double> setup_s;
  Setup setup;
  for (int k = 0; k < kSetups; ++k) {
    const auto t0 = trace::NowNs();
    setup = MakeSetup();
    setup_s.push_back(static_cast<double>(trace::NowNs() - t0) / 1e9);
  }

  result.checks_ok = setup.defects == 0;
  trace::Recorder rec(0);
  std::vector<double> traced_ms, tasks, groups, group_kb;
  // Untraced passes that visited every cell: wall time and cell times.
  std::vector<double> pass_ms, plain_ms;
  std::vector<std::vector<double>> pass_cell_ms;
  std::vector<std::size_t> order(setup.cells.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  dear::Rng rng(options.seed);
  const auto budget = static_cast<std::int64_t>(options.seconds * 1e9);
  const auto begin = trace::NowNs();
  auto last_end = begin;
  for (long pass = 0; last_end - begin < budget; ++pass) {
    // A fresh seeded order each pass; traced runs trace every other pass.
    for (std::size_t i = order.size(); i > 1; --i)
      std::swap(order[i - 1], order[rng.NextBounded(i)]);
    const bool traced = options.trace && pass % 2 == 1;
    const auto pass_begin = last_end;
    std::size_t done = 0;
    std::vector<double> cell_ms(order.size());
    for (std::size_t idx : order) {
      if (last_end - begin >= budget) break;
      ++done;
      const Cell& cell = setup.cells[idx];
      const auto& m = setup.models[cell.model];
      rec.set_enabled(traced);
      const auto a = trace::NowNs();
      const auto results = RunCell(m, cell, rec);
      last_end = trace::NowNs();
      cell_ms[idx] = static_cast<double>(last_end - a) / 1e6;
      (traced ? traced_ms : plain_ms).push_back(cell_ms[idx]);
      if (traced && !ProbeSimulator(m, cell, rec, tasks, groups, group_kb))
        result.checks_ok = false;
      rec.set_enabled(false);

      // Checks (untimed): Eq. 6 bound on every result, and the cell must
      // reproduce its warm-up iteration times exactly.
      ++result.attempted;
      std::string defect;
      const auto times = CheckCell(results, cell, defect);
      if (defect.empty() && times != setup.expected[idx])
        defect = "iteration times differ from the warm-up evaluation";
      if (!defect.empty()) {
        ++result.failed;
        std::cout << "# check failed: " << setup.models[cell.model].name()
                  << " x" << cell.cluster.world_size << " "
                  << cell.cluster.network.name << ": " << defect << "\n";
      }
    }
    if (done == order.size() && !traced) {
      pass_ms.push_back(static_cast<double>(last_end - pass_begin) / 1e6);
      pass_cell_ms.push_back(std::move(cell_ms));
    }
  }
  const double elapsed_s = static_cast<double>(last_end - begin) / 1e9;

  // Quiet passes (see QuietBlocks): cells/s over them, and each cell's
  // median time over them. Cell times span 28 distinct cells up to 5x
  // apart, so the op quantiles are taken over those per-cell medians; a
  // quantile over all visits would jump between neighbouring cells.
  const auto quiet = QuietBlocks(pass_ms);
  double quiet_ms = 0.0;
  for (auto p : quiet) quiet_ms += pass_ms[p];
  const auto quiet_cells = static_cast<double>(quiet.size() * order.size());
  v["throughput_per_s"] = quiet_ms > 0 ? quiet_cells * 1e3 / quiet_ms : 0.0;
  std::vector<double> per_cell;
  for (std::size_t c = 0; c < setup.cells.size() && !quiet.empty(); ++c) {
    std::vector<double> visits;
    for (auto p : quiet) visits.push_back(pass_cell_ms[p][c]);
    per_cell.push_back(Quantile(visits, 0.5));
  }
  v["op_ms_p50"] = Quantile(per_cell, 0.5);
  v["op_ms_p90"] = Quantile(per_cell, 0.9);
  v["setup_s"] = Quantile(setup_s, 0.5);
  v["peak_rss_mb"] = PeakRssMb();
  result.aliases = {{"cells_per_s", "throughput_per_s"},
                    {"cell_ms_p50", "op_ms_p50"},
                    {"cell_ms_p90", "op_ms_p90"}};
  std::cout << "# cells " << result.attempted << " over " << elapsed_s
            << " s, " << setup.cells.size() << " distinct; quiet passes "
            << quiet.size() << " of " << pass_ms.size() << "\n";
  if (!options.trace) return result;

  v["sched.evaluate_us"] = MedianSpanUs(rec, "sched.evaluate");
  v["sched.build_graph_us"] = MedianSpanUs(rec, "sched.build_graph");
  v["sim.simulate_us"] = MedianSpanUs(rec, "sim.simulate");
  v["tune.suggest_us"] = MedianSpanUs(rec, "tune.suggest");
  v["tune.observe_us"] = MedianSpanUs(rec, "tune.observe");
  v["fusion.plan_us"] = MedianSpanUs(rec, "fusion.plan");
  v["sim.tasks"] = Quantile(tasks, 0.5);
  v["fusion.groups"] = Quantile(groups, 0.5);
  v["fusion.group_kb_p50"] = Quantile(group_kb, 0.5);
  v["trace.overhead_ms"] = Quantile(traced_ms, 0.5) - Quantile(plain_ms, 0.5);
  FinishTrace(options, {&rec}, result);
  return result;
}

}  // namespace perfbench
