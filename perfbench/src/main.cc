// perfbench: the repository benchmark.
//
//   perfbench --workload <dear-bw|dear-msgs|sim-tune> --seed <n>
//             --seconds <s> --trace <0|1> [--commit <id>] [--out-dir <dir>]
//
// Prints environment and metric lines, then one JSON result line last.
// Exits 2 on bad arguments.
#include <cstdlib>
#include <iostream>
#include <string>

#include "workloads.h"

namespace {

int Usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <dear-bw|dear-msgs|sim-tune> "
               "--seed <n> --seconds <s> --trace <0|1> [--commit <id>] "
               "[--out-dir <dir>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Usage("bad --seed " + value);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds > 0) || options.seconds > 120)
        return Usage("--seconds must be in (0, 120]");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace must be 0 or 1");
      options.trace = value == "1";
    } else if (flag == "--commit") {
      options.commit = value;
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else {
      return Usage("unknown flag " + flag);
    }
  }
  const bool training = perfbench::IsTrainingWorkload(options.workload);
  if (!training && options.workload != "sim-tune")
    return Usage("unknown workload '" + options.workload + "'");

  perfbench::PrintEnvironment(
      options, training ? perfbench::kTrainWorld * perfbench::kThreadsPerRank
                        : 1);
  const auto result = training ? perfbench::RunTraining(options)
                               : perfbench::RunSimTune(options);
  perfbench::PrintResult(options, result);
  return 0;
}
