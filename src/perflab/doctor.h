// The `dear.doctor/1` health-report schema — the structured output of
// `dearsim doctor`.
//
// A DoctorReport captures one calibration run end to end: the reference
// NetworkModel the measurements were compared against, the pooled (α, β)
// the offline calibration recovered, the per-shape fit and divergence
// table, the straggler ranking, and the pass/warn/fail verdict with its
// reasons. The JSON form is the feed-forward artifact: `dearsim simulate
// --network <report.json>` loads the fitted model back into the simulator,
// closing the measure → fit → re-simulate loop.
//
// Round-trip contract: Parse(ToJson(r)) reproduces the struct exactly and
// ToJson of the parsed struct is byte-identical (JsonNumber emits shortest
// round-trip decimals and the field order is fixed), so CI can diff report
// artifacts textually.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace dear::perflab {

inline constexpr const char* kDoctorSchemaVersion = "dear.doctor/1";

/// A Hockney (α, β) network description, with the nominal line rate kept
/// separate from the effective rate (mirrors comm::NetworkModel).
struct DoctorNetwork {
  std::string name;
  double alpha_s{0.0};
  double beta_s_per_byte{0.0};
  double bound_beta_s_per_byte{0.0};  // 0 = same as beta
};

/// One (collective shape, world) population: fit outcome + divergence.
struct DoctorShape {
  std::string shape;  // analysis::ShapeName spelling
  int world{0};
  std::uint64_t samples{0};
  bool ok{false};
  std::string why;  // empty when ok, else "insufficient data: ..."
  double alpha_s{0.0};          // valid when ok
  double beta_s_per_byte{0.0};  // valid when ok
  double r2{0.0};               // valid when ok
  double divergence{0.0};       // EWMA |ln(measured/predicted)|
  double mean_ratio{0.0};       // EWMA measured/predicted
  std::uint64_t anomalies{0};
};

struct DoctorStraggler {
  int rank{0};
  std::uint64_t anomalies{0};
};

struct DoctorReport {
  std::string backend;  // "sim" or "runtime"
  int world{0};
  DoctorNetwork reference;
  bool has_fit{false};
  DoctorNetwork fitted;  // valid when has_fit (name = reference name)
  std::uint64_t fit_samples{0};
  std::vector<DoctorShape> shapes;
  std::vector<DoctorStraggler> stragglers;
  /// Fraction of iteration time with exposed (un-overlapped) communication;
  /// negative when the run produced no training iterations.
  double exposed_comm_fraction{-1.0};
  std::string verdict;  // "pass", "warn", or "fail"
  std::vector<std::string> notes;

  [[nodiscard]] std::string ToJson() const;
  static StatusOr<DoctorReport> FromJson(const std::string& text);

  Status WriteFile(const std::string& path) const;
  static StatusOr<DoctorReport> ReadFile(const std::string& path);
};

}  // namespace dear::perflab
