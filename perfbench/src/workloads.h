// The benchmark's workloads and the standalone layer probes the traced
// training runs use.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "comm/types.h"
#include "report.h"
#include "trace.h"

namespace perfbench {

/// Runtime threads per training rank: one compute thread plus its
/// CommEngine thread.
inline constexpr int kThreadsPerRank = 2;
/// World size of the training workloads.
inline constexpr int kTrainWorld = 2;

/// dear-bw / dear-msgs: closed-loop DeAR training at world 2.
bool IsTrainingWorkload(const std::string& name);
Result RunTraining(const Options& options);

/// sim-tune: zoo model x world x network cells, each an 8-policy compare
/// plus a 10-trial Bayesian-optimization tune of DeAR's buffer size.
Result RunSimTune(const Options& options);

/// Outside-in measurements of the comm and fusion layers, replaying a
/// training workload's fusion plan (group sizes in elements) and wire
/// dtype on standalone objects. Each probe runs for about `seconds` and
/// records its spans on `rec`; results are written into `values`.
bool ProbeCollectives(const std::vector<std::size_t>& group_elems,
                      dear::comm::DType dtype, double seconds,
                      trace::Recorder& rec, Values& values);
bool ProbeHops(const std::vector<std::size_t>& group_elems,
               dear::comm::DType dtype, double seconds, trace::Recorder& rec,
               Values& values);
void ProbeKernels(const std::vector<std::size_t>& group_elems,
                  dear::comm::DType dtype, double seconds,
                  trace::Recorder& rec, Values& values);

/// Median duration (us) of the spans named `name` on `rec`.
double MedianSpanUs(const trace::Recorder& rec, const char* name);

/// Checks every recorder's span nesting (a defect fails the run), counts
/// the spans — all, and those of the runtime layers train/core/comm/
/// kernels — and writes the Chrome trace under options.out_dir.
void FinishTrace(const Options& options,
                 const std::vector<const trace::Recorder*>& recorders,
                 Result& result);

}  // namespace perfbench
