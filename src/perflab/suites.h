// The perf-lab measurement table behind `dearsim bench`.
//
// Every measurement in the repo's perf lab is one Row of one registry
// (Rows()): a metric key, how perf_gate gates it, the views it belongs
// to, a body that measures it through the shared samplers
// (perflab/samplers.h), and any hard bars. Rows mix two metric
// classes:
//
//  * wall-clock rows (timed, per-call, A/B) — noisy, machine-dependent;
//    gated generously and only with the significance test in
//    tools/perf_gate.py;
//  * exact rows (counts, simulator outputs) — bit-deterministic; gated
//    tightly, since any drift is a real change, not noise.
//
// A suite is a view that filters the table. "quick" is the CI/pre-commit
// gate (a few seconds) and enforces the count bars, which are
// deterministic; "full" is a superset that adds the wider matrices, the
// A/B comparisons, the timed ops and the paper rows, and enforces every
// bar. "paper" is the paper's evaluation (perflab/paper.cc): every table
// and figure cell as one exact simulator row, the paper's shape claims as
// bars on those rows, rendered back into the tables EXPERIMENTS.md embeds.
#pragma once

#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "perflab/bench_schema.h"

namespace dear::perflab {

/// Suite views a row belongs to (bit set).
enum View : unsigned { kQuick = 1u << 0, kFull = 1u << 1, kPaper = 1u << 2 };

/// perf_gate ceiling for exact rows (counts, simulator outputs): any drift
/// is a real change, not noise.
inline constexpr double kExactGate = 1.02;

/// The sampler a row's body measures with.
enum class Kind {
  kCount,     // exact count per op over a warmed window
  kPerCall,   // ns/call of a tight loop of one hook
  kAB,        // p10 ratio of interleaved pairs
  kTimed,     // ms per call of one body
  kValue,     // deterministic simulator output, recorded once
  kOverhead,  // per-call x count / timed op, from rows measured earlier
};

/// A hard bar: `stat` over a row's samples must satisfy `cmp` against
/// `threshold` (kAbove is a strict >), in every view in `views`.
struct Bar {
  enum class Stat { kMax, kMedian };
  enum class Cmp { kBelow, kAtMost, kAtLeast, kAbove };
  Stat stat{Stat::kMedian};
  Cmp cmp{Cmp::kBelow};
  double threshold{0.0};
  unsigned views{kFull};
};

struct BarVerdict {
  std::string key;
  std::string rule;  // e.g. "median < 1"
  double value{0.0};
  bool pass{false};
};

/// Evaluates `bar` over `result`'s samples; no samples fails.
BarVerdict EvaluateBar(const Bar& bar, const BenchResult& result);

/// A hook's cost in percent of the op it rides: `per_call_ns` x
/// `calls_per_op` / `op_ms`.
double OverheadPct(double per_call_ns, double calls_per_op, double op_ms);

struct RowContext {
  /// Samples a wall-clock row takes (suite default or --repeats).
  int repeats{1};
  /// Rows already measured in this run (overhead rows and derived paper
  /// rows read their inputs).
  const BenchSuite* measured{nullptr};
};

struct Row {
  std::string name;
  std::map<std::string, std::string> params;
  std::string unit;
  bool higher_is_better{false};
  double gate_max_ratio{0.0};
  unsigned views{kFull};
  Kind kind{Kind::kTimed};
  std::function<StatusOr<std::vector<double>>(const RowContext&)> body;
  std::vector<Bar> bars;
  /// What the paper reports for this cell, printed verbatim by the paper
  /// view (e.g. "1.06–1.19"); empty where the paper gives none. Never
  /// serialized.
  std::string paper;

  [[nodiscard]] std::string Key() const;
};

/// The registry, in measurement order (overhead rows after their inputs).
const std::vector<Row>& Rows();

/// A 0-alloc count row (every registry allocation row is one):
/// `count(repeats)` measures heap allocations per op (AllocsPerOp); the
/// row records 1 + allocs and bars any window above 1 in every view.
Row AllocRow(std::string name, std::map<std::string, std::string> params,
             std::function<StatusOr<std::vector<double>>(int repeats)> count);

struct SuiteRunOptions {
  /// Samples per wall-clock row; 0 = the suite's default (quick: 5,
  /// full: 10). Tests pass 1 to stay fast.
  int repeats{0};
  /// Optional progress narration (one line per row).
  std::ostream* progress{nullptr};
};

struct SuiteRun {
  BenchSuite suite;
  /// One verdict per bar enforced in this view, plus one failed verdict
  /// per row whose body could not measure.
  std::vector<BarVerdict> bars;

  [[nodiscard]] bool ok() const;
};

/// Measures `rows` in order into a suite named `suite`, enforcing the
/// bars whose views include `view`.
SuiteRun RunRows(const std::vector<Row>& rows, const std::string& suite,
                 View view, const SuiteRunOptions& options);

/// Names accepted by RunSuite, in documentation order.
std::vector<std::string> SuiteNames();

/// Runs the rows of view `name`; NotFound for unknown names.
StatusOr<SuiteRun> RunSuite(const std::string& name,
                            const SuiteRunOptions& options = {});

/// Appends the paper view's rows (perflab/paper.cc) to `rows`.
void AppendPaperRows(std::vector<Row>& rows);

/// One markdown table of the paper view, wrapped in the
/// `<!-- paper-view:begin <id> -->` / `<!-- paper-view:end -->` markers
/// EXPERIMENTS.md embeds it between.
struct PaperTable {
  std::string id;
  std::string block;
};

/// Renders every paper table, in registry order, from `suite`'s results
/// and each row's `paper` string.
std::vector<PaperTable> RenderPaperTables(const BenchSuite& suite);

}  // namespace dear::perflab
