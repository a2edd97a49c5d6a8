// dearsim — command-line front end over the simulator, tuner, and model
// zoo. The logic lives here (library) so tests can drive it directly; the
// tools/dearsim binary is a thin main().
//
// Subcommands:
//   models                               list the model zoo
//   simulate [--model --gpus --network --scheduler --buffer-mb ...]
//                                        evaluate one configuration
//   tune     [--model --gpus --network --trials]
//                                        BO-tune the fusion buffer
//   sweep    [--model --network --scheduler --buffer-mb]
//                                        scaling table over cluster sizes
//   profile  [--model --world --iters --scheduler --buffer-kb --trace-out
//             --metrics-out --prometheus]
//                                        run the REAL threaded runtime,
//                                        print per-rank metrics read back
//                                        from the journal + exposed-comm
//                                        breakdown +
//                                        cross-rank critical-path
//                                        attribution, optionally dump a
//                                        Chrome trace
//   bench    [--suite --repeats --json-out]
//                                        run a view (quick|full) of the
//                                        perf-lab table, enforce its bars,
//                                        and write the structured
//                                        BENCH_<suite>.json that
//                                        tools/perf_gate.py compares
#pragma once

#include <ostream>
#include <string>

namespace dear::cli {

/// Runs the CLI; writes human-readable output to `out` and diagnostics to
/// `err`. Returns a process exit code (0 on success).
int RunCli(int argc, const char* const* argv, std::ostream& out,
           std::ostream& err);

/// The warning `dearsim profile` prints when its `world` ranks, a compute
/// and a communication thread each, outnumber `cores` (0 = unknown); empty
/// when they fit.
std::string OversubscriptionWarning(int world, unsigned cores);

}  // namespace dear::cli
