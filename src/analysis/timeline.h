// Timeline analysis over simulated schedules: per-stream utilization,
// exposed (non-overlapped) time, critical-path extraction, and an ASCII
// Gantt rendering — the tooling a performance engineer points at a
// schedule to understand *why* it takes as long as it does.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "flightrec/journal.h"
#include "sim/engine.h"
#include "sim/task_graph.h"
#include "telemetry/metrics.h"

namespace dear::analysis {

/// Half-open busy interval on a stream.
struct Interval {
  SimTime begin{0};
  SimTime end{0};
  [[nodiscard]] SimTime length() const noexcept { return end - begin; }
  friend bool operator==(const Interval&, const Interval&) = default;
};

/// Merged, sorted busy intervals of one stream (zero-duration tasks are
/// skipped — they occupy no time).
std::vector<Interval> BusyIntervals(const sim::TaskGraph& graph,
                                    const sim::SimResult& result,
                                    std::int16_t stream);

/// Total time covered by `a` but not by `b` (both must be merged+sorted,
/// as produced by BusyIntervals). This is the "exposed communication"
/// computation of Fig. 8: a = comm busy, b = compute busy.
SimTime SubtractCover(const std::vector<Interval>& a,
                      const std::vector<Interval>& b);

struct StreamUtilization {
  std::int16_t stream{0};
  SimTime busy{0};
  double fraction_of_makespan{0.0};
};

struct TimelineAnalysis {
  SimTime makespan{0};
  std::vector<StreamUtilization> streams;
  /// Length of the longest dependency chain (a lower bound on makespan).
  SimTime critical_path{0};
  /// One witness chain realizing it, in execution order.
  std::vector<sim::TaskId> critical_tasks;
  /// makespan == critical_path means the schedule is dependency-bound;
  /// otherwise some resource (stream) serialization is adding time.
  [[nodiscard]] bool dependency_bound() const noexcept {
    return makespan == critical_path;
  }
};

/// Full analysis of a simulated schedule. The result's timings must come
/// from simulating exactly this graph.
TimelineAnalysis Analyze(const sim::TaskGraph& graph,
                         const sim::SimResult& result);

/// Compact ASCII Gantt chart: one row per stream, `width` time buckets; a
/// bucket shows the kind of the task occupying most of it (F=forward,
/// B=backward, A=all-reduce, R=reduce-scatter, G=all-gather, o=other,
/// '.'=idle). Intended for terminal inspection and golden tests.
std::string RenderAsciiGantt(const sim::TaskGraph& graph,
                             const sim::SimResult& result, int width = 80);

// ---- Cross-rank critical-path attribution --------------------------------
//
// Decomposes each measured iteration of a real (threaded) run into where
// its wall time went, per rank and per fusion group, from the records
// core::DistOptim journals through comm::probe::Group (flightrec):
//
//   kStepEnd:   consecutive ones bound an iteration window (the measured
//               iteration time being decomposed), keyed by step index;
//   kWaitBegin: the compute thread blocks on group G's in-flight op; the
//               wait ends at that op's kRsComplete / kAgComplete;
//   kRsLaunch / kAgLaunch: the op's launch — the rank's arrival time at
//               that collective.
//
// Every group record carries the op's sequence number, so one rank's op
// pairs with the same op on its peers without counting records — which
// keeps the pairing right when a ring has lost its oldest records.
//
// Within an iteration window:  compute = window - blocked (the thread was
// making local progress), and each blocked span splits into a *straggler*
// part — the prefix during which some peer had not yet launched the
// matched collective, i.e. time this rank waited only because of arrival
// skew — and an *exposed* part, the remainder, which is genuine
// non-overlapped communication (Eq. 9's exposed term, split RS vs AG).
// The four parts sum to the window by construction; the residual check
// catches bookkeeping bugs (overlapping waits, clipping).

/// One rank's journal, paired into spans: DistOptim's schedule records and
/// the comm runtime's collective brackets, plus its transport traffic.
struct ScheduleSpans {
  struct Window {
    std::uint32_t step{0};  // index of the Step() that closed the window
    Interval span;
  };
  struct Wait {
    Interval span;
    bool ag{false};  // waited on OP2 (all-gather); else OP1 / all-reduce
    int group{0};
    std::uint32_t seq{0};  // the op's sequence number
  };
  std::vector<Window> windows;
  std::vector<Wait> waits;  // closed waits only, in begin order
  /// (group, op seq) -> launch time.
  std::map<std::pair<int, std::uint32_t>, SimTime> launches;
  /// One top-level collective: a kCollectiveBegin/End pair.
  struct Collective {
    std::uint32_t kind{0};   // comm::CollectiveKind value (the record tag)
    std::uint32_t elems{0};  // the begin record's element count
    std::uint32_t dtype{0};  // the end record's wire comm::DType (0 = f32)
    Interval span;
    std::uint64_t sent_bytes{0};  // payload bytes of the sends inside it
  };
  std::vector<Collective> collectives;  // closed brackets, in end order
  /// Count and payload (wire) bytes of the kSend / kRecv records.
  struct Traffic {
    std::int64_t messages{0};
    std::int64_t bytes{0};
  };
  Traffic sent, received;
};
[[nodiscard]] ScheduleSpans PairScheduleRecords(
    const std::vector<flightrec::Record>& records);

/// Adds one rank's transport counters, read from its spans, to `reg`:
/// comm.messages_sent/received and comm.bytes_sent/received count its
/// send/recv records, and comm.wire_bytes.<f32|f16|bf16> sums the sends
/// inside each collective bracket under the bracket's wire dtype.
void ExportTransportMetrics(const ScheduleSpans& spans,
                            telemetry::MetricsRegistry& reg);

struct GroupAttribution {
  int group{0};
  double exposed_rs_ms{0.0};  // fused all-reduce waits count as RS
  double exposed_ag_ms{0.0};
  double straggler_ms{0.0};
};

struct RankAttribution {
  int rank{0};
  int iterations{0};
  double iter_ms{0.0};     // sum of measured iteration windows
  double compute_ms{0.0};  // window time not blocked on communication
  double exposed_rs_ms{0.0};
  double exposed_ag_ms{0.0};
  double straggler_ms{0.0};         // waiting suffered due to arrival skew
  double caused_straggler_ms{0.0};  // waiting *inflicted* on peers
  /// Per-fusion-group breakdown, ascending group id.
  std::vector<GroupAttribution> groups;
  /// |iter - (compute + rs + ag + straggler)| / iter; ~0 when bookkeeping
  /// is sound.
  double residual_fraction{0.0};
};

struct AttributionReport {
  int world{0};
  /// Iterations attributed: the windows every rank's journal still holds.
  int iterations{0};
  std::vector<RankAttribution> ranks;
  /// Ranks ordered by caused_straggler_ms descending — worst offender
  /// (the rank peers most often waited for) first.
  std::vector<int> straggler_ranking;
  double tolerance{0.01};
  /// Every rank's residual_fraction <= tolerance.
  bool consistent{true};
  double max_residual_fraction{0.0};
};

/// Builds the attribution report for ranks [0, world) from per-rank
/// journal snapshots (flightrec::Recorder::SnapshotAll(), reset at a
/// quiescent start so step indices are not reused). Returns an empty report
/// (0 iterations, consistent) when no window is held by every rank.
AttributionReport AttributeIterations(
    const std::vector<std::vector<flightrec::Record>>& per_rank, int world,
    double tolerance = 0.01);

/// Human-readable rendering: per-rank table, per-group totals, straggler
/// ranking, and the consistency verdict.
std::string RenderAttributionReport(const AttributionReport& report);

}  // namespace dear::analysis
