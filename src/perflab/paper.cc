// The paper view of the perf-lab table (`dearsim bench --suite paper`).
//
// Every cell of the paper's evaluation (Table I, Figs. 3 and 5-11,
// Table II, Eq. 9) and of the ablations around it is one exact simulator
// row keyed paper.<table>.<metric>, carrying the value the paper reports.
// The paper's shape claims are bars: a claim about one cell sits on that
// cell's row, and a claim that compares cells is a derived row that reads
// the cells measured earlier in the run. RenderPaperTables() turns the
// rows back into the markdown tables EXPERIMENTS.md embeds.
//
// A `method` param names a full simulator configuration (MethodConfig).
// Within a table, the lines are the distinct parameter sets of its rows
// without `method`, and the columns are the distinct (metric, method)
// pairs; parameters every line shares move into the table's caption.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <sstream>
#include <utility>

#include "comm/cost_model.h"
#include "common/logging.h"
#include "common/sim_time.h"
#include "common/stats.h"
#include "fusion/plan.h"
#include "model/zoo.h"
#include "perflab/suites.h"
#include "sched/multiworker.h"
#include "sched/runner.h"
#include "tune/search.h"

namespace dear::perflab {
namespace {

using Params = std::map<std::string, std::string>;
using Values = std::vector<double>;
using sched::PolicyKind;
using Pick = double (*)(const sched::RunResult&);

constexpr unsigned kPaperViews = kPaper | kFull;
constexpr std::size_t kMB = 1u << 20;

Bar Claim(Bar::Cmp cmp, double threshold) {
  return {Bar::Stat::kMedian, cmp, threshold, kPaperViews};
}
/// "DeAR wins": the ratio is strictly above 1.
const Bar kWins = Claim(Bar::Cmp::kAbove, 1.0);

std::string Num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

double Ratio(const Values& v) { return v[0] / v[1]; }
double Throughput(const sched::RunResult& r) {
  return r.throughput_samples_per_s;
}
double IterMs(const sched::RunResult& r) { return ToMilliseconds(r.iter_time); }

std::vector<std::string> PaperModelNames() {
  std::vector<std::string> names;
  for (const auto& m : model::PaperModels()) names.push_back(m.name());
  return names;
}

struct Net {
  std::string key;
  comm::NetworkModel model;
};
const Net kTenGbE{"10gbe", comm::NetworkModel::TenGbE()};
const Net kIB{"100gbib", comm::NetworkModel::HundredGbIB()};

/// Where a cell runs: a zoo model at per-GPU batch `bs` (0 = Table I's) on
/// `gpus` GPUs of `net`.
struct At {
  std::string model;
  Net net = kTenGbE;
  int gpus = 64;
  int bs = 0;

  [[nodiscard]] Params params() const {
    Params p = {{"model", model},
                {"network", net.key},
                {"gpus", std::to_string(gpus)}};
    if (bs != 0) p["bs"] = std::to_string(bs);
    return p;
  }
  [[nodiscard]] model::ModelSpec spec() const {
    const auto m = model::ByName(model);
    return bs == 0 ? m : m.WithBatchSize(bs);
  }
  [[nodiscard]] sched::ClusterSpec cluster() const {
    sched::ClusterSpec c;
    c.world_size = gpus;
    c.network = net.model;
    return c;
  }
};

/// Every (network, model, GPUs) point of a sweep, in that nesting order.
std::vector<At> Points(const std::vector<std::string>& models,
                       const std::vector<Net>& nets = {kTenGbE},
                       const std::vector<int>& gpus = {64}) {
  std::vector<At> points;
  for (const Net& net : nets) {
    for (const std::string& model : models) {
      for (const int g : gpus) points.push_back({model, net, g});
    }
  }
  return points;
}

std::size_t MbBytes(double mb) {
  return static_cast<std::size_t>(mb * 1024.0 * 1024.0);
}

/// BO over [1, 100] MB from the 25 MB default (§IV-B).
tune::BoOptions BoFrom25MB() {
  tune::BoOptions options;
  options.first_point = 25.0;
  return options;
}

double Throughput(const model::ModelSpec& m, const sched::ClusterSpec& cluster,
                  PolicyKind kind, std::size_t buffer_bytes) {
  sched::PolicyConfig cfg;
  cfg.kind = kind;
  cfg.plan = fusion::ByBufferBytes(m, buffer_bytes);
  return sched::EvaluatePolicy(m, cluster, cfg).throughput_samples_per_s;
}

/// Simulator-side BO of the fusion buffer for `kind` (the analog of
/// core::AutoTuner): the best buffer after `trials` observations.
std::size_t TunedBufferBytes(const model::ModelSpec& m,
                             const sched::ClusterSpec& cluster,
                             PolicyKind kind, int trials) {
  tune::BayesianOptimizer bo(1.0, 100.0, BoFrom25MB());
  for (int i = 0; i < trials; ++i) {
    const double mb = bo.SuggestNext();
    bo.Observe(mb, Throughput(m, cluster, kind, MbBytes(mb)));
  }
  return MbBytes(bo.best_x());
}

/// The simulator configuration a `method` param names: a base policy, at
/// the paper's 25 MB fusion buffer unless its name says otherwise (-notf:
/// per tensor, -nl: four layers per group, -fb: the fixed default buffer,
/// -bo: BO-tuned), then `+`-joined tweaks.
sched::PolicyConfig MethodConfig(const std::string& method,
                                 const model::ModelSpec& m,
                                 const sched::ClusterSpec& cluster,
                                 int bo_trials) {
  static const std::map<std::string, PolicyKind> kinds = {
      {"wfbp", PolicyKind::kWFBP},
      {"bytescheduler", PolicyKind::kByteScheduler},
      {"horovod", PolicyKind::kHorovod}, {"hvd-fb", PolicyKind::kHorovod},
      {"hvd-bo", PolicyKind::kHorovod},  {"ddp", PolicyKind::kDDP},
      {"zero", PolicyKind::kZeRO},       {"mg-wfbp", PolicyKind::kMGWFBP},
      {"dear", PolicyKind::kDeAR},       {"dear-notf", PolicyKind::kDeAR},
      {"dear-nl", PolicyKind::kDeAR},    {"dear-fb", PolicyKind::kDeAR},
      {"dear-bo", PolicyKind::kDeAR}};
  using Tweak = void (*)(sched::PolicyConfig&);
  static const std::map<std::string, Tweak> tweaks = {
      {"dbl-tree",
       [](sched::PolicyConfig& c) {
         c.dear_algorithm = comm::Algorithm::kDoubleBinaryTree;
       }},
      {"hierarchical",
       [](sched::PolicyConfig& c) {
         c.dear_algorithm = comm::Algorithm::kHierarchical;
       }},
      {"rabenseifner",
       [](sched::PolicyConfig& c) {
         c.dear_algorithm = comm::Algorithm::kRecursiveHalvingDoubling;
       }},
      {"no-op1", [](sched::PolicyConfig& c) { c.dear_op1_barrier = false; }},
      {"rs-only", [](sched::PolicyConfig& c) { c.include_all_gather = false; }},
      {"ag-only",
       [](sched::PolicyConfig& c) { c.include_reduce_scatter = false; }},
      // fp16 converts on pack, so it pays no encode cost; top-k does.
      {"f16", [](sched::PolicyConfig& c) { c.compression_ratio = 0.5; }},
      {"topk1pct",
       [](sched::PolicyConfig& c) {
         c.compression_ratio = 0.01;
         c.compression_overhead_s = 500e-6;
       }},
      {"no-coord",
       [](sched::PolicyConfig& c) { c.coordinator_overhead_s = 0.0; }},
      {"no-nego", [](sched::PolicyConfig& c) { c.charge_negotiation = false; }},
      {"no-part", [](sched::PolicyConfig& c) { c.partition_bytes = 0; }}};

  std::vector<std::string> parts;
  std::stringstream in(method);
  for (std::string part; std::getline(in, part, '+');) parts.push_back(part);
  const std::string& base = parts[0];
  sched::PolicyConfig cfg;
  cfg.kind = kinds.at(base);
  if (base == "wfbp" || base == "dear-notf") {
    cfg.plan = fusion::PerTensor(m);
  } else if (base == "mg-wfbp") {
    cfg.plan = fusion::MergeGradientsWisely(m, cluster.network.alpha_s,
                                            cluster.world_size);
  } else if (base == "dear-nl") {
    cfg.plan = fusion::ByLayerCount(m, 4);
  } else if (base != "bytescheduler") {  // it partitions instead
    std::size_t bytes = 25 * kMB;
    if (base == "hvd-fb") bytes = 64 * kMB;  // Horovod's default buffer
    if (base == "dear-fb") bytes = 5 * kMB;
    if (base.ends_with("-bo")) {
      bytes = TunedBufferBytes(m, cluster, cfg.kind, bo_trials);
    }
    cfg.plan = fusion::ByBufferBytes(m, bytes);
  }
  for (std::size_t i = 1; i < parts.size(); ++i) {
    if (parts[i].starts_with("copy")) {  // host copy bandwidth, GB/s
      cfg.host_copy_gbps = std::stod(parts[i].substr(4));
    } else {
      tweaks.at(parts[i])(cfg);
    }
  }
  return cfg;
}

sched::RunResult Run(const std::string& method, const At& at,
                     int bo_trials = 15) {
  const auto m = at.spec();
  const auto cluster = at.cluster();
  return sched::EvaluatePolicy(m, cluster,
                               MethodConfig(method, m, cluster, bo_trials));
}

/// `method`'s throughput at `at` over `baseline`'s.
std::function<double()> Over(const At& at, const std::string& method,
                             const std::string& baseline) {
  return [=] {
    return Throughput(Run(method, at)) / Throughput(Run(baseline, at));
  };
}

bool HigherIsBetter(const std::string& unit) {
  return unit == "x" || unit == "samples/s" || unit == "S/P" || unit == "%" ||
         unit == "frac";
}

/// Appends the rows of one paper table, keyed paper.<id>.<metric>.
class Table {
 public:
  Table(std::vector<Row>& rows, const std::string& id)
      : rows_(rows), prefix_("paper." + id + ".") {}

  /// A cell computed from the cells `inputs` measured earlier in the run;
  /// returns its key.
  std::string Derived(const std::string& metric, Params params,
                      std::string unit, std::vector<std::string> inputs,
                      std::function<double(const Values&)> combine,
                      std::string paper = {}, std::vector<Bar> bars = {}) {
    Row row;
    row.name = prefix_ + metric;
    row.params = std::move(params);
    row.unit = std::move(unit);
    row.higher_is_better = HigherIsBetter(row.unit);
    row.gate_max_ratio = kExactGate;
    row.views = kPaperViews;
    row.kind = Kind::kValue;
    row.body = [inputs = std::move(inputs), combine = std::move(combine)](
                   const RowContext& c) -> StatusOr<Values> {
      Values in;
      for (const std::string& key : inputs) {
        const BenchResult* r = c.measured->Find(key);
        if (r == nullptr || r->samples.empty()) {
          return Status::FailedPrecondition("input not measured: " + key);
        }
        in.push_back(r->samples[0]);
      }
      return Values{combine(in)};
    };
    row.bars = std::move(bars);
    row.paper = std::move(paper);
    rows_.push_back(std::move(row));
    return rows_.back().Key();
  }

  /// A cell `value` computes.
  std::string Cell(const std::string& metric, Params params, std::string unit,
                   std::function<double()> value, std::string paper = {},
                   std::vector<Bar> bars = {}) {
    return Derived(
        metric, std::move(params), std::move(unit), {},
        [value = std::move(value)](const Values&) { return value(); },
        std::move(paper), std::move(bars));
  }

  /// One `metric` cell per method at `at`: `pick` of its run, over `pick`
  /// of `baseline`'s unless that is empty. Returns the keys by method.
  std::map<std::string, std::string> Methods(
      const std::string& metric, const std::string& unit, const At& at,
      const std::vector<std::string>& methods, Pick pick,
      const std::string& baseline = {}, int bo_trials = 15) {
    std::map<std::string, std::string> keys;
    for (const std::string& method : methods) {
      Params params = at.params();
      params["method"] = method;
      keys[method] = Cell(metric, std::move(params), unit, [=] {
        const double value = pick(Run(method, at, bo_trials));
        return baseline.empty() ? value : value / pick(Run(baseline, at));
      });
    }
    return keys;
  }

  /// Attaches the paper's value and claims to the cell behind `key`.
  void Annotate(const std::string& key, std::string paper,
                std::vector<Bar> bars = {}) {
    const auto row = std::find_if(rows_.rbegin(), rows_.rend(),
                                  [&](const Row& r) { return r.Key() == key; });
    DEAR_CHECK(row != rows_.rend());
    row->paper = std::move(paper);
    row->bars.insert(row->bars.end(), bars.begin(), bars.end());
  }

 private:
  std::vector<Row>& rows_;
  std::string prefix_;
};

// ---- Table I and Fig. 3 -----------------------------------------------------

void AddTable1(std::vector<Row>& rows) {
  Table t(rows, "table1");
  const char* const metrics[][2] = {{"batch", "count"},  {"layers", "count"},
                                    {"tensors", "count"}, {"params", "M"},
                                    {"t_ff_ms", "ms"},    {"t_bp_ms", "ms"}};
  // Table I as published: batch, layers, tensors, params (M).
  const char* const pub[5][4] = {{"64", "107", "161", "25.6"},
                                 {"32", "402", "604", "20.0"},
                                 {"64", "299", "449", "42.7"},
                                 {"64", "105", "206", "110.1"},
                                 {"32", "201", "398", "336.2"}};
  const auto names = PaperModelNames();
  for (std::size_t i = 0; i < names.size(); ++i) {
    for (std::size_t s = 0; s < std::size(metrics); ++s) {
      t.Cell(
          metrics[s][0], {{"model", names[i]}}, metrics[s][1],
          [name = names[i], s] {
            const auto m = model::ByName(name);
            const double stats[] = {double(m.batch_size()),
                                    double(m.num_layers()),
                                    double(m.num_tensors()),
                                    m.total_params() / 1e6,
                                    ToMilliseconds(m.total_ff_time()),
                                    ToMilliseconds(m.total_bp_time())};
            return stats[s];
          },
          s < 4 ? pub[i][s] : "");
    }
  }
}

/// Fig. 3's BO run (DenseNet-201, DeAR, 10GbE, 64 GPUs, nine samples from
/// the 25 MB default) and the 1 MB-grid optimum. Run once; every fig3 row
/// reads it.
struct Fig3Run {
  Values sample_mb, sample_y;
  std::unique_ptr<tune::BayesianOptimizer> bo;
  double optimum_mb{1.0};
  double optimum_y{0.0};
};

double Fig3Throughput(double mb) {
  const At at{"densenet201"};
  return Throughput(at.spec(), at.cluster(), PolicyKind::kDeAR, MbBytes(mb));
}

const Fig3Run& Fig3() {
  static const Fig3Run run = [] {
    Fig3Run r;
    r.bo = std::make_unique<tune::BayesianOptimizer>(1.0, 100.0, BoFrom25MB());
    for (int trial = 1; trial <= 9; ++trial) {
      const double mb = r.bo->SuggestNext();
      const double y = Fig3Throughput(mb);
      r.bo->Observe(mb, y);
      r.sample_mb.push_back(mb);
      r.sample_y.push_back(y);
    }
    for (double mb = 1.0; mb <= 100.0; mb += 1.0) {
      const double y = Fig3Throughput(mb);
      if (y > r.optimum_y) {
        r.optimum_y = y;
        r.optimum_mb = mb;
      }
    }
    return r;
  }();
  return run;
}

void AddFig3(std::vector<Row>& rows) {
  Table t(rows, "fig3");
  t.Cell("bo_best_mb", {}, "MB", [] { return Fig3().bo->best_x(); }, "~35");
  t.Cell("bo_best_throughput", {}, "samples/s",
         [] { return Fig3().bo->best_y(); });
  t.Cell("optimum_mb", {}, "MB", [] { return Fig3().optimum_mb; });
  t.Cell("optimum_throughput", {}, "samples/s",
         [] { return Fig3().optimum_y; });
  Table samples(rows, "fig3_samples");
  for (std::size_t i = 0; i < 9; ++i) {
    const Params p = {{"trial", std::to_string(i + 1)}};
    samples.Cell("buffer_mb", p, "MB", [i] { return Fig3().sample_mb[i]; });
    samples.Cell("throughput", p, "samples/s",
                 [i] { return Fig3().sample_y[i]; });
  }
  // The GP posterior next to the true curve P(x).
  Table curve(rows, "fig3_curve");
  for (double mb = 5.0; mb <= 100.0; mb += 5.0) {
    const Params p = {{"mb", Num(mb)}};
    curve.Cell("posterior_mean", p, "samples/s",
               [mb] { return Fig3().bo->Posterior(mb).mean; });
    curve.Cell("posterior_sd", p, "samples/s",
               [mb] { return Fig3().bo->Posterior(mb).stddev(); });
    curve.Cell("sim_throughput", p, "samples/s",
               [mb] { return Fig3Throughput(mb); });
  }
}

// ---- Figs. 5-11 and Table II ------------------------------------------------

/// Fig. 5: RS and AG each cost half an all-reduce (64 GPUs, 10GbE).
void AddFig5(std::vector<Row>& rows) {
  Table t(rows, "fig5");
  const comm::CostModel cost(kTenGbE.model, 64);
  for (const std::size_t bytes :
       {1u << 10, 4u << 10, 16u << 10, 64u << 10, 256u << 10, 1u << 20,
        4u << 20, 16u << 20, 32u << 20, 64u << 20, 100u << 20}) {
    const Params p = {{"bytes", std::to_string(bytes)}};
    const std::string ar = t.Cell("allreduce_ms", p, "ms", [cost, bytes] {
      return ToMilliseconds(cost.RingAllReduce(bytes));
    });
    const std::string rs = t.Cell("rs_ms", p, "ms", [cost, bytes] {
      return ToMilliseconds(cost.ReduceScatter(bytes));
    });
    const std::string ag = t.Cell("ag_ms", p, "ms", [cost, bytes] {
      return ToMilliseconds(cost.AllGather(bytes));
    });
    t.Derived("rsag_over_ar", p, "x", {rs, ag, ar},
              [](const Values& v) { return (v[0] + v[1]) / v[2]; }, "≈1");
  }
}

/// Fig. 6: speedup over WFBP without tensor fusion, 64 GPUs.
void AddFig6(std::vector<Row>& rows) {
  Table t(rows, "fig6");
  for (const At& at : Points(PaperModelNames(), {kTenGbE, kIB})) {
    auto key = t.Methods("speedup_vs_wfbp", "x", at,
                         {"bytescheduler", "dear-notf"}, Throughput, "wfbp");
    t.Annotate(key["dear-notf"], "1.06–1.19", {kWins});
    // Partitioning + negotiation hurt ByteScheduler on CNNs over 10GbE.
    if (at.net.key == kTenGbE.key && !at.model.starts_with("bert")) {
      t.Annotate(key["bytescheduler"], "<0.9", {Claim(Bar::Cmp::kBelow, 0.95)});
    }
  }
}

/// Fig. 7: speedup over Horovod with 25 MB fusion, 16/32/64 GPUs.
void AddFig7(std::vector<Row>& rows) {
  Table t(rows, "fig7");
  Table claims(rows, "fig7_claims");
  Table gains(rows, "fig7_gain");
  std::vector<std::string> mean_gain;  // one per network
  for (const Net& net : {kTenGbE, kIB}) {
    const bool ethernet = net.key == kTenGbE.key;
    std::vector<std::string> bo_vs_others;  // (dear-bo, ddp, mg-wfbp) per cell
    std::vector<std::string> dear_at_64;
    for (const At& at : Points(PaperModelNames(), {net}, {16, 32, 64})) {
      auto key = t.Methods("speedup_vs_horovod", "x", at,
                           {"ddp", "mg-wfbp", "dear", "dear-bo"}, Throughput,
                           "horovod");
      bo_vs_others.insert(bo_vs_others.end(),
                          {key["dear-bo"], key["ddp"], key["mg-wfbp"]});
      if (at.gpus != 64) continue;
      dear_at_64.push_back(key["dear"]);
      if (!ethernet) continue;
      t.Annotate(key["dear"], "", {kWins});
      claims.Derived("dear_over_ddp", at.params(), "x",
                     {key["dear"], key["ddp"]}, Ratio, "", {kWins});
      claims.Derived("dear_over_mgwfbp", at.params(), "x",
                     {key["dear"], key["mg-wfbp"]}, Ratio, "", {kWins});
    }
    // DeAR-BO's improvement over each existing method, one comparison per
    // (model, GPUs, method) cell; Horovod's speedup is 1 by definition.
    const auto gains_of = [](const Values& v) {
      Values g;
      for (std::size_t i = 0; i < v.size(); ++i) {
        g.push_back(i % 3 == 0 ? v[i] - 1.0 : v[i - i % 3] / v[i] - 1.0);
      }
      return g;
    };
    const Params p = {{"network", net.key}};
    gains.Derived(
        "bo_gain_avg_pct", p, "%", bo_vs_others,
        [gains_of](const Values& v) {
          double sum = 0.0;
          for (const double g : gains_of(v)) sum += g;
          return 100.0 * sum / static_cast<double>(v.size());
        },
        ethernet ? "36" : "8");
    gains.Derived(
        "bo_gain_max_pct", p, "%", bo_vs_others,
        [gains_of](const Values& v) {
          double best = 0.0;
          for (const double g : gains_of(v)) best = std::max(best, g);
          return 100.0 * best;
        },
        ethernet ? "83" : "15");
    // DeAR's mean gain over Horovod at 64 GPUs, over the five models.
    mean_gain.push_back(gains.Derived(
        "dear_gain_64gpu", p, "frac", dear_at_64,
        [](const Values& v) {
          double mean = 0.0;
          for (const double s : v) mean += (s - 1.0) / 5.0;
          return mean;
        },
        "", {Claim(Bar::Cmp::kAbove, ethernet ? 0.05 : 0.0)}));
  }
  // The gain shrinks on the fast network (paper: 36% vs 8% on average).
  gains.Derived(
      "dear_gain_64gpu", {{"network", "10gbe-100gbib"}}, "frac", mean_gain,
      [](const Values& v) { return v[0] - v[1]; }, "",
      {Claim(Bar::Cmp::kAbove, 0.0)});
}

/// Table II: DeAR-BO's speedup S against Eq. 6's S^max, 64 GPUs.
void AddTable2(std::vector<Row>& rows) {
  Table t(rows, "table2");
  Table claims(rows, "table2_claims");
  // Table II as published, [network][model]: S^max, S, S/S^max (%).
  const char* const pub[2][5][3] = {{{"61.6", "61.1", "99.2"},
                                     {"64.0", "52.8", "82.5"},
                                     {"59.8", "56.5", "94.5"},
                                     {"25.5", "23.9", "93.7"},
                                     {"12.1", "11.8", "97.5"}},
                                    {{"64.0", "61.6", "96.2"},
                                     {"64.0", "54.0", "84.4"},
                                     {"64.0", "57.2", "89.4"},
                                     {"64.0", "49.6", "77.5"},
                                     {"51.8", "37.5", "72.4"}}};
  const Net nets[] = {kTenGbE, kIB};
  const auto names = PaperModelNames();
  for (std::size_t n = 0; n < 2; ++n) {
    for (std::size_t i = 0; i < names.size(); ++i) {
      const At at{names[i], nets[n]};
      const auto speedup = [at](const char* method) {
        return [=] { return Run(method, at).speedup_vs_single_gpu; };
      };
      const std::string smax = t.Cell(
          "smax", at.params(), "x",
          [at] { return sched::MaxSpeedup(at.spec(), at.cluster()); },
          pub[n][i][0]);
      const std::string s =
          t.Cell("s_bo", at.params(), "x", speedup("dear-bo"), pub[n][i][1]);
      t.Derived("s_bo_over_smax_pct", at.params(), "%", {s, smax},
                [](const Values& v) { return 100.0 * v[0] / v[1]; },
                pub[n][i][2]);
      // DeAR at 25 MB reaches >= 70% of S^max and never beats the ceiling
      // of the preset's effective rate (S^max uses the nominal one).
      const std::string s25 =
          claims.Cell("s_25mb", at.params(), "x", speedup("dear"));
      At eff = at;
      eff.net.model.bound_beta_s_per_byte = eff.net.model.beta_s_per_byte;
      const std::string smax_eff =
          claims.Cell("smax_eff", at.params(), "x", [at, eff] {
            return sched::MaxSpeedup(at.spec(), eff.cluster());
          });
      claims.Derived("s25_over_smax_eff", at.params(), "x", {s25, smax_eff},
                     Ratio, "", {Claim(Bar::Cmp::kAtMost, 1.001)});
      claims.Derived("s25_over_smax", at.params(), "x", {s25, smax}, Ratio,
                     "", {Claim(Bar::Cmp::kAtLeast, 0.70)});
    }
  }
}

/// Fig. 8: FF / BP / exposed communication per iteration (64 GPUs, 10GbE),
/// one line per (model, policy).
void AddFig8(std::vector<Row>& rows) {
  Table t(rows, "fig8");
  Table claims(rows, "fig8_claims");
  const std::pair<const char*, Pick> parts[] = {
      {"ff_ms",
       [](const sched::RunResult& r) {
         return ToMilliseconds(r.breakdown.ff);
       }},
      {"bp_ms",
       [](const sched::RunResult& r) {
         return ToMilliseconds(r.breakdown.bp);
       }},
      {"comm_ms",
       [](const sched::RunResult& r) {
         return ToMilliseconds(r.breakdown.comm_exposed);
       }},
      {"iter_ms", IterMs}};
  for (const std::string& name : PaperModelNames()) {
    const At at{name};
    std::map<std::string, std::string> comm;  // policy -> exposed comm
    for (const std::string policy :
         {"horovod", "dear", "dear+rs-only", "dear+ag-only"}) {
      Params p = at.params();
      p["policy"] = policy;
      for (const auto& [metric, pick] : parts) {
        const std::string key = t.Cell(metric, p, "ms", [=, pick = pick] {
          return pick(Run(policy, at));
        });
        if (metric == std::string("comm_ms")) comm[policy] = key;
      }
    }
    // BP (2x FF) gives the reduce-scatter half more room to overlap.
    if (name == "resnet50" || name == "bert_base") {
      claims.Derived("rs_only_over_ag_only_comm", at.params(), "x",
                     {comm["dear+rs-only"], comm["dear+ag-only"]}, Ratio, "",
                     {Claim(Bar::Cmp::kAtMost, 1.0)});
    }
    claims.Derived("dear_over_horovod_comm", at.params(), "x",
                   {comm["dear"], comm["horovod"]}, Ratio, "",
                   {Claim(Bar::Cmp::kAtMost, 1.0)});
  }
}

/// Fig. 9: fusion strategies over Horovod's 64 MB default buffer.
void AddFig9(std::vector<Row>& rows) {
  Table t(rows, "fig9");
  Table claims(rows, "fig9_claims");
  for (const At& at : Points({"resnet50", "densenet201", "bert_base"},
                            {kTenGbE, kIB})) {
    const bool ethernet = at.net.key == kTenGbE.key;
    auto key = t.Methods(
        "speedup_vs_hvd_fb", "x", at,
        {"dear-notf", "hvd-bo", "dear-nl", "dear-fb", "dear-bo"}, Throughput,
        "hvd-fb");
    t.Annotate(key["hvd-bo"], "≈1");
    t.Annotate(key["dear-bo"], ethernet ? "1.22–1.56" : "1.07–1.14");
    claims.Derived("bo_over_notf", at.params(), "x",
                   {key["dear-bo"], key["dear-notf"]}, Ratio,
                   ethernet ? "1.35–4.54" : "");
    // Layer-count fusion suits the uniform BERT (§VI-G).
    if (ethernet && at.model == "bert_base") {
      claims.Derived("nl_over_fb", at.params(), "x",
                     {key["dear-nl"], key["dear-fb"]}, Ratio, "", {kWins});
    }
  }
  // 25 MB fusion beats no fusion by more than 1.3x on every 10GbE model.
  for (const At& at : Points(PaperModelNames())) {
    claims.Cell("fused_over_notf", at.params(), "x",
                Over(at, "dear", "dear-notf"), "",
                {Claim(Bar::Cmp::kAbove, 1.3)});
  }
}

/// Trials until `tuner`'s best DeAR throughput reaches `target` (cap 40).
double TrialsToReach(tune::Tuner& tuner, const At& at, double target) {
  constexpr int kMaxTrials = 40;
  const auto m = at.spec();
  for (int i = 1; i <= kMaxTrials; ++i) {
    const double x = tuner.SuggestNext();
    tuner.Observe(x,
                  Throughput(m, at.cluster(), PolicyKind::kDeAR, MbBytes(x)));
    if (tuner.best_y() >= target) return i;
  }
  return kMaxTrials;
}

RunningStat RandomSearchTrials(const At& at, double target) {
  RunningStat stat;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    tune::RandomSearch rs(1.0, 100.0, seed);
    stat.Add(TrialsToReach(rs, at, target));
  }
  return stat;
}

/// Fig. 10: trials each search needs to come within 2% of the 1 MB-grid
/// optimum (64 GPUs, 10GbE).
void AddFig10(std::vector<Row>& rows) {
  Table t(rows, "fig10");
  using Search = double (*)(const At&, double target);
  const struct {
    const char *metric, *method, *paper;
    Search search;
  } searches[] = {{"trials", "bo", "few",
                   [](const At& at, double target) {
                     tune::BayesianOptimizer bo(1.0, 100.0, BoFrom25MB());
                     return TrialsToReach(bo, at, target);
                   }},
                  {"trials", "random", "tens",
                   [](const At& at, double target) {
                     return RandomSearchTrials(at, target).mean();
                   }},
                  {"trials_sd", "random", "",
                   [](const At& at, double target) {
                     return RandomSearchTrials(at, target).stddev();
                   }},
                  {"trials", "grid", "tens", [](const At& at, double target) {
                     tune::GridSearch gs(1.0, 100.0, 20);
                     return TrialsToReach(gs, at, target);
                   }}};
  for (const std::string name : {"resnet50", "densenet201", "bert_base"}) {
    const At at{name};
    const std::string optimum =
        t.Cell("optimum_throughput", at.params(), "samples/s", [at] {
          double best = 0.0;
          for (double mb = 1.0; mb <= 100.0; mb += 1.0) {
            best = std::max(best, Throughput(at.spec(), at.cluster(),
                                             PolicyKind::kDeAR, MbBytes(mb)));
          }
          return best;
        });
    for (const auto& s : searches) {
      Params p = at.params();
      p["method"] = s.method;
      t.Derived(s.metric, p, "trials", {optimum},
                [at, search = s.search](const Values& v) {
                  return search(at, 0.98 * v[0]);
                },
                s.paper);
    }
  }
}

/// Fig. 11: speedup over Horovod across per-GPU batch sizes (64 GPUs,
/// 10GbE).
void AddFig11(std::vector<Row>& rows) {
  Table t(rows, "fig11");
  Table claims(rows, "fig11_claims");
  const std::pair<std::string, std::vector<int>> sweeps[] = {
      {"resnet50", {16, 32, 64, 128}}, {"bert_base", {16, 32, 64}}};
  std::vector<std::string> dear_over_ddp;  // BERT-Base, by batch size
  for (const auto& [name, batches] : sweeps) {
    for (const int bs : batches) {
      const At at{name, kTenGbE, 64, bs};
      t.Methods("throughput", "samples/s", at, {"horovod"}, Throughput);
      auto key = t.Methods("speedup_vs_horovod", "x", at,
                           {"ddp", "mg-wfbp", "dear"}, Throughput, "horovod");
      t.Methods("throughput", "samples/s", at, {"dear"}, Throughput);
      // DeAR wins at every batch size (ResNet-50 is the claimed sweep).
      t.Annotate(key["dear"], ">1",
                 name == "resnet50" ? std::vector<Bar>{kWins}
                                    : std::vector<Bar>{});
      if (name == "bert_base") {
        dear_over_ddp.push_back(claims.Derived(
            "dear_over_ddp", at.params(), "x", {key["dear"], key["ddp"]},
            Ratio, "",
            bs == 16 ? std::vector<Bar>{kWins} : std::vector<Bar>{}));
      }
    }
  }
  // Eq. 9 caps DeAR's absolute gain at one t_ff, so on comm-bound BERT the
  // relative gain over DDP grows with the batch size.
  for (std::size_t i = 1; i < dear_over_ddp.size(); ++i) {
    claims.Derived("gain_growth",
                   At{"bert_base", kTenGbE, 64, 16 << i}.params(), "x",
                   {dear_over_ddp[i], dear_over_ddp[i - 1]}, Ratio, "",
                   {Claim(Bar::Cmp::kAtLeast, 0.999)});
  }
}

/// §VI-I / Eq. 7-9: the analytic DeAR-vs-baseline gap, and the simulator's
/// on a 64-layer uniform model (one group per 8 layers) whose gradient
/// size sweeps the comm/comp ratio (64 GPUs, 10GbE).
void AddEq9(std::vector<Row>& rows) {
  Table t(rows, "eq9");
  const SimTime ff = Milliseconds(30);
  const SimTime bp = 2 * ff;
  for (double ag_ms = 5.0; ag_ms <= 120.0; ag_ms += 5.0) {
    const SimTime ag = Milliseconds(ag_ms);
    const SimTime dear = sched::OptimalDeARIterTime(ff, bp, ag, ag);
    const SimTime base = sched::OptimalBaselineIterTime(ff, bp, 2 * ag);
    const Params p = {{"t_ag_ms", Num(ag_ms)}};
    t.Cell("dear_ms", p, "ms", [=] { return ToMilliseconds(dear); });
    t.Cell("baseline_ms", p, "ms", [=] { return ToMilliseconds(base); });
    t.Cell("gap_ms", p, "ms", [=] { return ToMilliseconds(base - dear); },
           ag <= ff ? "0" : ag <= 2 * ff ? "t_ag − t_ff" : "t_ff");
  }
  Table sim(rows, "eq9_sim");
  const auto cluster = At{"resnet50"}.cluster();
  for (const std::size_t elems :
       {20000u, 100000u, 400000u, 1000000u, 3000000u}) {
    const Params p = {{"params_per_layer", std::to_string(elems)}};
    const auto uniform = [elems] {
      return model::UniformTestModel(64, elems, /*ff_us=*/500.0);
    };
    const auto iter = [=](PolicyKind kind) {
      const auto m = uniform();
      sched::PolicyConfig cfg;
      cfg.kind = kind;
      cfg.plan = fusion::ByLayerCount(m, 8);
      return sched::EvaluatePolicy(m, cluster, cfg).iter_time;
    };
    const auto gap = [iter] {
      return iter(PolicyKind::kDDP) - iter(PolicyKind::kDeAR);
    };
    sim.Cell("dear_ms", p, "ms",
             [=] { return ToMilliseconds(iter(PolicyKind::kDeAR)); });
    sim.Cell("baseline_ms", p, "ms",
             [=] { return ToMilliseconds(iter(PolicyKind::kDDP)); });
    sim.Cell("gap_ms", p, "ms", [=] { return ToMilliseconds(gap()); });
    sim.Cell(
        "gap_over_tff", p, "x",
        [=] {
          return static_cast<double>(gap()) /
                 static_cast<double>(uniform().total_ff_time());
        },
        "→1");
  }
}

/// The blanket claim behind Fig. 7 and Eq. 9: with equal 25 MB fusion,
/// DeAR never loses to DDP or Horovod anywhere on the grid.
void AddGrid(std::vector<Row>& rows) {
  Table t(rows, "grid");
  for (const At& at : Points({"resnet50", "densenet201", "inception_v4",
                             "bert_base", "bert_large", "vgg16", "alexnet"},
                            {kTenGbE, kIB}, {8, 32, 128})) {
    for (const std::string baseline : {"ddp", "horovod"}) {
      t.Cell("dear_over_" + baseline, at.params(), "x",
             Over(at, "dear", baseline), "",
             {Claim(Bar::Cmp::kAtLeast, 0.9999)});
    }
  }
}

// ---- Ablations and extensions -----------------------------------------------

/// All-reduce algorithm costs under the α-β model (4 ranks per node).
void AddAlgorithms(std::vector<Row>& rows) {
  Table t(rows, "algorithms");
  const std::pair<const char*, comm::Algorithm> algorithms[] = {
      {"ring", comm::Algorithm::kRing},
      {"tree", comm::Algorithm::kTree},
      {"dbl-tree", comm::Algorithm::kDoubleBinaryTree},
      {"hier4", comm::Algorithm::kHierarchical},
      {"rabenseifner", comm::Algorithm::kRecursiveHalvingDoubling}};
  for (const Net& net : {kTenGbE, kIB}) {
    for (const int gpus : {16, 64}) {
      const comm::CostModel cost(net.model, gpus);
      for (std::size_t bytes = 1u << 10; bytes <= (128u << 20); bytes <<= 3) {
        for (const auto& [method, alg] : algorithms) {
          t.Cell("allreduce_ms",
                 {{"network", net.key},
                  {"gpus", std::to_string(gpus)},
                  {"bytes", std::to_string(bytes)},
                  {"method", method}},
                 "ms", [cost, bytes, alg = alg] {
                   return ToMilliseconds(cost.Dispatch(alg, bytes, 4));
                 });
        }
      }
    }
  }
}

/// Gradient compression inside DeAR (§VI-D future work): scaling
/// efficiency S/P next to Eq. 6's ceiling; and DeAR over other decoupled
/// all-reduce algorithms (§VII-A future work), fused and per tensor.
void AddCompressionAndDecoupling(std::vector<Row>& rows) {
  Table compression(rows, "compression");
  for (const At& at : Points(PaperModelNames())) {
    compression.Methods("efficiency", "S/P", at,
                        {"dear", "dear+f16", "dear+topk1pct"},
                        [](const sched::RunResult& r) {
                          return r.speedup_vs_single_gpu / 64.0;
                        });
    compression.Cell("smax_efficiency", at.params(), "S/P", [at] {
      return sched::MaxSpeedup(at.spec(), at.cluster()) / 64.0;
    });
  }
  Table decoupling(rows, "decoupling");
  for (const At& at : Points(PaperModelNames(), {kTenGbE, kIB})) {
    decoupling.Methods("throughput", "samples/s", at,
                       {"dear", "dear+dbl-tree", "dear+hierarchical",
                        "dear+rabenseifner"},
                       Throughput);
  }
  // Per-tensor groups: the latency-bound regime where trees shine.
  Table unfused(rows, "decoupling_unfused");
  for (const std::string name : {"resnet50", "densenet201"}) {
    unfused.Methods("throughput", "samples/s", {name},
                    {"dear-notf", "dear-notf+dbl-tree"}, Throughput);
  }
  // §III-B: dropping the OP1 barrier never helps.
  Table op1(rows, "op1_barrier");
  for (const std::string& name : PaperModelNames()) {
    op1.Methods("iter_ms", "ms", {name}, {"dear", "dear+no-op1"}, IterMs);
  }
}

/// ByteScheduler's slowdown split into coordinator cost, negotiation and
/// partitioning; what negotiation costs Horovod; DeAR's gain over Horovod
/// on ResNet-50 as bandwidth, latency and scale vary (§VI-I: it grows with
/// the comm/comp ratio); and the host copy cost the paper ignores.
void AddOverheadsAndNetworks(std::vector<Row>& rows) {
  Table negotiation(rows, "negotiation");
  Table horovod(rows, "horovod_negotiation");
  for (const std::string& name : PaperModelNames()) {
    negotiation.Methods("speedup_vs_wfbp", "x", {name},
                        {"bytescheduler", "bytescheduler+no-coord",
                         "bytescheduler+no-coord+no-nego",
                         "bytescheduler+no-part"},
                        Throughput, "wfbp");
    horovod.Methods("throughput", "samples/s", {name},
                    {"horovod", "horovod+no-nego"}, Throughput);
  }
  Table bandwidth(rows, "network_bandwidth");
  for (const double gbps : {1.0, 5.0, 10.0, 25.0, 50.0, 100.0}) {
    const Net net{"sweep", {23.5e-6, 8.0 / (gbps * 1e9), 0.0, "sweep"}};
    bandwidth.Cell("dear_over_horovod",
                   {{"model", "resnet50"}, {"gbps", Num(gbps)}}, "x",
                   Over({"resnet50", net}, "dear", "horovod"));
  }
  Table latency(rows, "network_latency");
  for (const double alpha_us : {1.0, 5.0, 10.0, 25.0, 50.0, 100.0}) {
    const Net net{"sweep", {alpha_us * 1e-6, 1.0 / 1.25e9, 0.0, "sweep"}};
    latency.Cell("dear_over_horovod",
                 {{"model", "resnet50"}, {"alpha_us", Num(alpha_us)}}, "x",
                 Over({"resnet50", net}, "dear", "horovod"));
  }
  Table scale(rows, "network_scale");
  for (const int gpus : {4, 8, 16, 32, 64, 128, 256}) {
    const At at{"resnet50", kTenGbE, gpus};
    scale.Cell("dear_over_horovod", at.params(), "x",
               Over(at, "dear", "horovod"));
  }
  Table copy(rows, "host_copy");
  copy.Methods("throughput", "samples/s", {"resnet50"},
               {"dear", "dear+copy2", "dear+copy5", "dear+copy10",
                "dear+copy25", "dear+copy100"},
               Throughput);
}

/// Straggler sensitivity: per-worker lognormal compute jitter (ResNet-50,
/// 16 workers, 10GbE), iteration time averaged over the seeds.
void AddStraggler(std::vector<Row>& rows) {
  Table t(rows, "straggler");
  const At at{"resnet50", kTenGbE, 16};
  for (const double sigma : {0.0, 0.05, 0.1, 0.2, 0.4}) {
    Params p = at.params();
    p["sigma"] = Num(sigma);
    std::map<std::string, std::string> key;
    for (const std::string method : {"ddp", "dear"}) {
      Params pm = p;
      pm["method"] = method;
      key[method] = t.Cell("iter_ms", pm, "ms", [=] {
        const auto m = at.spec();
        const auto cfg = MethodConfig(method, m, at.cluster(), 0);
        const int seeds = sigma == 0.0 ? 1 : 5;
        double sum = 0.0;
        for (int seed = 1; seed <= seeds; ++seed) {
          sched::MultiWorkerOptions opts;
          opts.jitter_sigma = sigma;
          opts.seed = static_cast<std::uint64_t>(seed);
          sum += IterMs(
              sched::EvaluateMultiWorker(m, at.cluster(), cfg, opts));
        }
        return sum / seeds;
      });
    }
    t.Derived("dear_over_ddp", p, "x", {key["dear"], key["ddp"]}, Ratio);
  }
}

/// fc-heavy extension models (VGG-16, AlexNet), whose giant tensor arrives
/// first in backpropagation (DeAR-BO tunes with 20 trials here); and
/// §VII-B: ZeRO re-gathers parameters for backward too, moving 1.5x the
/// bytes, so DeAR never loses to it where communication is exposed.
void AddExtensionsAndZeRO(std::vector<Row>& rows) {
  Table extension(rows, "extension");
  for (const At& at : Points({"vgg16", "alexnet"}, {kTenGbE, kIB})) {
    extension.Methods("throughput", "samples/s", at,
                      {"wfbp", "bytescheduler", "horovod", "mg-wfbp", "dear",
                       "dear-bo"},
                      Throughput, "", /*bo_trials=*/20);
    extension.Cell("bo_buffer_mb", at.params(), "MB", [at] {
      return static_cast<double>(TunedBufferBytes(
                 at.spec(), at.cluster(), PolicyKind::kDeAR, 20)) /
             (1024.0 * 1024.0);
    });
  }
  Table zero(rows, "zero");
  for (const At& at : Points(PaperModelNames(), {kTenGbE, kIB})) {
    auto key = zero.Methods("throughput", "samples/s", at,
                            {"ddp", "zero", "dear"}, Throughput);
    std::vector<Bar> bars;
    if (at.net.key == kTenGbE.key) {
      bars.push_back(Claim(Bar::Cmp::kAtLeast, 1.0));
      // Heavily comm-bound BERT-Large: the gap is material.
      if (at.model == "bert_large") {
        bars.push_back(Claim(Bar::Cmp::kAbove, 1.2));
      }
    }
    zero.Derived("dear_over_zero", at.params(), "x",
                 {key["dear"], key["zero"]}, Ratio, "", std::move(bars));
  }
}

// ---- Rendering --------------------------------------------------------------

std::string FormatValue(double value, const std::string& unit) {
  static const std::map<std::string, int> decimals = {
      {"samples/s", 0}, {"count", 0}, {"%", 1},     {"MB", 1},
      {"M", 1},         {"trials", 1}, {"ms", 2}};
  const auto it = decimals.find(unit);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", it == decimals.end() ? 3 : it->second,
                value);
  return buf;
}

template <typename T>
std::size_t IndexOf(std::vector<T>& items, const T& item) {
  const auto it = std::find(items.begin(), items.end(), item);
  if (it != items.end()) return static_cast<std::size_t>(it - items.begin());
  items.push_back(item);
  return items.size() - 1;
}

std::string RenderTable(const std::string& id,
                        const std::vector<const Row*>& rows,
                        const BenchSuite& suite) {
  const std::string prefix = "paper." + id + ".";
  std::vector<std::pair<std::string, std::string>> metrics;  // name, unit
  std::vector<std::pair<std::string, std::string>> columns;  // metric, method
  std::vector<Params> lines;
  std::map<std::pair<std::size_t, std::size_t>, std::string> cells;
  for (const Row* row : rows) {
    Params line = row->params;
    std::string method;
    if (const auto it = line.find("method"); it != line.end()) {
      method = it->second;
      line.erase(it);
    }
    const std::string metric = row->name.substr(prefix.size());
    IndexOf(metrics, {metric, row->unit});
    const BenchResult* result = suite.Find(row->Key());
    std::string cell = result != nullptr && !result->samples.empty()
                           ? FormatValue(result->samples[0], row->unit)
                           : "n/a";
    if (!row->paper.empty()) cell += " (" + row->paper + ")";
    cells[{IndexOf(lines, line), IndexOf(columns, {metric, method})}] = cell;
  }
  // Parameters every line shares go to the caption; the rest are columns,
  // identifying ones first.
  std::vector<std::string> names;
  for (const Params& line : lines) {
    for (const auto& [name, value] : line) IndexOf(names, name);
  }
  Params shared;
  std::vector<std::string> varying;
  for (const std::string& name : names) {
    const auto first = lines.front().find(name);
    const bool same =
        first != lines.front().end() &&
        std::all_of(lines.begin(), lines.end(), [&](const Params& line) {
          const auto it = line.find(name);
          return it != line.end() && it->second == first->second;
        });
    if (same) {
      shared[name] = first->second;
    } else {
      varying.push_back(name);
    }
  }
  const std::vector<std::string> lead = {"model", "policy", "network", "gpus",
                                         "bs"};
  const auto rank = [&](const std::string& name) {
    return std::find(lead.begin(), lead.end(), name) - lead.begin();
  };
  std::stable_sort(varying.begin(), varying.end(),
                   [&](const std::string& a, const std::string& b) {
                     return rank(a) < rank(b);
                   });

  std::ostringstream out;
  out << "<!-- paper-view:begin " << id << " -->\n`" << prefix << "*`";
  for (const auto& [name, value] : shared) out << " " << name << "=" << value;
  out << ":";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? ", " : " ") << metrics[i].first << " [" << metrics[i].second
        << "]";
  }
  out << "\n\n|";
  for (const std::string& name : varying) out << " " << name << " |";
  for (const auto& [metric, method] : columns) {
    out << " "
        << (method.empty()         ? metric
            : metrics.size() == 1 ? method
                                   : metric + " " + method)
        << " |";
  }
  out << "\n|";
  for (std::size_t i = 0; i < varying.size() + columns.size(); ++i) {
    out << "---|";
  }
  for (std::size_t l = 0; l < lines.size(); ++l) {
    out << "\n|";
    for (const std::string& name : varying) {
      const auto it = lines[l].find(name);
      out << " " << (it == lines[l].end() ? "" : it->second) << " |";
    }
    for (std::size_t c = 0; c < columns.size(); ++c) {
      const auto it = cells.find({l, c});
      out << " " << (it == cells.end() ? "–" : it->second) << " |";
    }
  }
  out << "\n<!-- paper-view:end -->\n";
  return out.str();
}

}  // namespace

void AppendPaperRows(std::vector<Row>& rows) {
  for (const auto add :
       {AddTable1, AddFig3, AddFig5, AddFig6, AddFig7, AddTable2, AddFig8,
        AddFig9, AddFig10, AddFig11, AddEq9, AddGrid, AddAlgorithms,
        AddCompressionAndDecoupling, AddOverheadsAndNetworks, AddStraggler,
        AddExtensionsAndZeRO}) {
    add(rows);
  }
}

std::vector<PaperTable> RenderPaperTables(const BenchSuite& suite) {
  std::vector<std::string> ids;
  std::vector<std::vector<const Row*>> grouped;
  for (const Row& row : Rows()) {
    if ((row.views & kPaper) == 0) continue;
    const std::size_t start = row.name.find('.') + 1;
    const std::size_t i = IndexOf(
        ids, row.name.substr(start, row.name.find('.', start) - start));
    if (i == grouped.size()) grouped.emplace_back();
    grouped[i].push_back(&row);
  }
  std::vector<PaperTable> tables;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    tables.push_back({ids[i], RenderTable(ids[i], grouped[i], suite)});
  }
  return tables;
}

}  // namespace dear::perflab
