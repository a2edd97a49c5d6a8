#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace perfbench {

bool ParamsBitwiseEqual(const std::vector<RankParams>& ranks) {
  for (std::size_t r = 1; r < ranks.size(); ++r) {
    if (ranks[r].size() != ranks[0].size()) return false;
    for (std::size_t t = 0; t < ranks[0].size(); ++t) {
      const auto& a = ranks[0][t];
      const auto& b = ranks[r][t];
      if (a.size() != b.size() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) != 0)
        return false;
    }
  }
  return true;
}

bool LossWithin(double got, double want, LossTolerance tol) {
  return std::isfinite(got) && std::isfinite(want) &&
         std::abs(got - want) <= tol.abs + tol.rel * std::abs(want);
}

long CountLossMismatches(const std::vector<std::vector<float>>& rank_losses,
                         const std::vector<float>& reference, long first,
                         long last, LossTolerance tol) {
  auto present = [&](long i) {
    bool ok = !rank_losses.empty() &&
              static_cast<std::size_t>(i) < reference.size();
    for (const auto& losses : rank_losses)
      ok = ok && static_cast<std::size_t>(i) < losses.size();
    return ok;
  };
  long bad = 0;
  for (long i = first; i < last; ++i) {
    if (!present(i)) {
      ++bad;
      continue;
    }
    double got = 0.0, want = 0.0;
    const long lo = std::max(0L, i - std::max(1L, tol.window) + 1);
    for (long j = lo; j <= i; ++j) {
      const auto idx = static_cast<std::size_t>(j);
      for (const auto& losses : rank_losses) got += losses[idx];
      want += reference[idx];
    }
    const auto n = static_cast<double>(i - lo + 1);
    if (!LossWithin(got / n / static_cast<double>(rank_losses.size()),
                    want / n, tol))
      ++bad;
  }
  return bad;
}

std::string CheckSimResult(const dear::sched::RunResult& result, int world,
                           double max_speedup) {
  if (result.iter_time <= 0) return "non-positive iteration time";
  const double s = result.speedup_vs_single_gpu;
  if (!std::isfinite(s) || s <= 0.0) return "speedup is not a positive number";
  const double bound = std::min(static_cast<double>(world), max_speedup);
  if (s > bound * 1.001)
    return "speedup " + std::to_string(s) + " exceeds min(world, S^max) = " +
           std::to_string(bound);
  return {};
}

}  // namespace perfbench
