// Run options, metric tables and result printing shared by the workloads.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
  std::string commit{"unknown"};
  std::string out_dir{".bench_build/traces"};
};

/// Metric values by name. Only names in the tables below are printed.
using Values = std::map<std::string, double>;

struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, reported by every workload on an untraced run:
/// throughput_per_s is samples/s on the training workloads and cells/s on
/// sim-tune; op_ms_p50 is the wall time of one training step (rank 0) or
/// one sim-tune cell.
const std::vector<MetricDef>& EndToEndMetrics();

/// Per-layer metrics, reported by every workload on a traced run. A layer
/// the workload never calls reports 0 (its span count is 0). op_ms_p90
/// sits here too: on a shared host it does not repeat within a tenth.
const std::vector<MetricDef>& PerLayerMetrics();

struct Result {
  std::int64_t attempted{0};
  std::int64_t failed{0};
  bool checks_ok{true};  // run-level checks (trace nesting, params, ...)
  Values values;
  /// Workload-specific names for the generic metrics, printed as
  /// human-readable lines only (e.g. samples_per_s for throughput_per_s).
  std::vector<std::pair<std::string, std::string>> aliases;
};

/// Records nproc, load average, build type, compiler and commit, and
/// flags oversubscription (`threads` runnable threads > cores).
void PrintEnvironment(const Options& options, int threads);

/// Prints every metric of the table the run mode selects as a
/// human-readable line, then the one-line JSON result last.
void PrintResult(const Options& options, const Result& result);

/// Peak resident set size of this process, MiB.
double PeakRssMb();

/// Exact linear-interpolated quantile (q in [0, 1]); 0 for no samples.
double Quantile(const std::vector<double>& values, double q);

/// Indices of the quickest twentieth (at least one) of `block_ms`, the
/// wall times of equal blocks of work. Contention on a shared host only
/// ever adds time, so the quiet blocks of many estimate the program's own
/// cost, where a median over all blocks moves with the neighbours' load.
std::vector<std::size_t> QuietBlocks(const std::vector<double>& block_ms);

}  // namespace perfbench
