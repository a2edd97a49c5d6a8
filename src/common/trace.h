// Chrome-trace-format (about://tracing, Perfetto) event writer.
//
// Both the discrete-event simulator and the real runtime can emit their
// timelines here; the output is a JSON array of complete ("X") events with
// microsecond timestamps, preceded by metadata ("M") events naming each
// process/thread lane so Perfetto shows "rank 0 / comm" instead of bare
// pids. Events may also carry a flow ID: the serializer then emits the
// matching flow-begin/flow-end pair (ph "s"/"f" sharing the ID, plus a
// bind_id on the slice itself) so Perfetto draws an arrow from the
// flow_out slice to the flow_in slice — used by the flight recorder to
// draw Send→Recv edges between ranks. Not thread-safe: a recorder is
// filled and written by one exporter thread (the journal is the concurrent
// event pipeline; exporters replay it afterwards).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/sim_time.h"

namespace dear {

struct TraceEvent {
  std::string name;
  std::string category;
  std::int64_t pid{0};      // process lane (e.g. worker rank)
  std::int64_t tid{0};      // thread lane (e.g. compute=0 / comm=1 stream)
  SimTime start{0};         // ns
  SimTime duration{0};      // ns
  std::uint64_t flow_id{0}; // nonzero links flow_out -> flow_in slices
  bool flow_out{false};     // this slice starts flow `flow_id`
  bool flow_in{false};      // this slice finishes flow `flow_id`
};

class TraceRecorder {
 public:
  /// Records a complete event.
  void Record(TraceEvent event);

  /// Names a process lane (Perfetto "process_name" metadata); last writer
  /// wins.
  void SetProcessName(std::int64_t pid, std::string name);

  /// Names a thread lane within a process ("thread_name" metadata).
  void SetThreadName(std::int64_t pid, std::int64_t tid, std::string name);

  /// Serializes metadata + all recorded events as Chrome trace JSON.
  [[nodiscard]] std::string ToJson() const;

  /// Writes ToJson() to `path`; returns false on I/O failure.
  bool WriteFile(const std::string& path) const;

  [[nodiscard]] std::size_t size() const noexcept { return events_.size(); }

 private:
  std::vector<TraceEvent> events_;
  std::map<std::int64_t, std::string> process_names_;
  std::map<std::pair<std::int64_t, std::int64_t>, std::string> thread_names_;
};

}  // namespace dear
