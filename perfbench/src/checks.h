// Correctness checks on the library's outputs. Pure functions over data,
// so the self-test can feed them deliberately broken inputs.
#pragma once

#include <string>
#include <vector>

#include "sched/runner.h"

namespace perfbench {

/// Final parameters of one rank: one vector per tensor.
using RankParams = std::vector<std::vector<float>>;

/// True when every rank's parameters are bitwise identical to rank 0's.
bool ParamsBitwiseEqual(const std::vector<RankParams>& ranks);

/// Loss tolerance: |got - want| <= abs + rel * |want|, applied to the
/// mean loss over the trailing `window` steps (1 = every step on its own).
struct LossTolerance {
  double abs{0.0};
  double rel{0.0};
  long window{1};
};

/// Counts the steps in [first, last) whose loss — the mean of the ranks'
/// local losses, which equals the global-batch loss for equal shards,
/// averaged over the trailing tol.window steps — misses the same average
/// of the single-worker reference losses by more than `tol`, or is not
/// finite.
long CountLossMismatches(const std::vector<std::vector<float>>& rank_losses,
                         const std::vector<float>& reference, long first,
                         long last, LossTolerance tol);

/// True when |got - want| is within `tol` and both are finite.
bool LossWithin(double got, double want, LossTolerance tol);

/// Checks one simulator result: a positive iteration time and a speedup no
/// larger than min(world, max_speedup) (Eq. 6 bound, 0.1% slack for the
/// integer-nanosecond clock). Returns "" when it holds, else the defect.
std::string CheckSimResult(const dear::sched::RunResult& result, int world,
                           double max_speedup);

}  // namespace perfbench
