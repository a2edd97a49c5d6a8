// Self-tests of the benchmark's own machinery: span self-time arithmetic,
// nesting checks, and the correctness checks' ability to catch a broken
// output. Exits 0 when every test passes.
#include <cmath>
#include <iostream>
#include <limits>
#include <string>

#include "checks.h"
#include "model/zoo.h"
#include "sched/runner.h"
#include "fusion/plan.h"
#include "trace.h"

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  std::cout << (ok ? "ok   " : "FAIL ") << what << "\n";
  if (!ok) ++failures;
}

using perfbench::trace::Recorder;

void SelfTimeOnSyntheticSpans() {
  Recorder rec;
  const int root = rec.Add("root", -1, 0, 100);
  rec.Add("a", root, 10, 30);
  const int b = rec.Add("b", root, 40, 70);
  rec.Add("b.child", b, 45, 50);
  const auto self = perfbench::trace::SelfTimes(rec.spans());
  Expect(self[0] == 50, "root self = 100 - (20 + 30)");
  Expect(self[1] == 20, "leaf self = its duration");
  Expect(self[2] == 25, "b self = 30 - 5");
  Expect(perfbench::trace::CheckNesting(rec.spans()).empty(),
         "well-nested synthetic tree passes the nesting check");
  const auto roots = perfbench::trace::Roots(rec.spans());
  Expect(roots[3] == root, "grandchild resolves to its root");
}

void OverlapAndEscapeAreDefects() {
  Recorder overlap;
  const int r = overlap.Add("root", -1, 0, 100);
  overlap.Add("c1", r, 10, 50);
  overlap.Add("c2", r, 40, 60);
  Expect(perfbench::trace::SelfTimes(overlap.spans())[0] == 50,
         "self time subtracts the union of overlapping children");
  Expect(!perfbench::trace::CheckNesting(overlap.spans()).empty(),
         "overlapping children break self + children = duration");

  Recorder escape;
  const int p = escape.Add("root", -1, 0, 100);
  escape.Add("late", p, 90, 120);
  Expect(!perfbench::trace::CheckNesting(escape.spans()).empty(),
         "a child ending after its parent is reported");
}

void LiveScopesNest() {
  Recorder rec;
  rec.set_enabled(true);
  {
    perfbench::trace::Scope outer(rec, "outer");
    for (int i = 0; i < 3; ++i) {
      perfbench::trace::Scope mid(rec, "mid");
      perfbench::trace::Scope inner(rec, "inner");
    }
  }
  rec.set_enabled(false);
  { perfbench::trace::Scope off(rec, "off"); }
  Expect(rec.spans().size() == 7, "disabled recorder records nothing");
  Expect(perfbench::trace::CheckNesting(rec.spans()).empty(),
         "every recorded child lies inside its parent");
  bool parents_ok = rec.spans()[0].parent == -1;
  for (std::size_t i = 1; i < rec.spans().size(); ++i)
    parents_ok = parents_ok && rec.spans()[i].parent >= 0;
  Expect(parents_ok, "scopes link children to the enclosing span");
}

void ParamCheckCatchesOnePerturbedRank() {
  const perfbench::RankParams base = {{1.0f, 2.0f, 3.0f}, {0.5f}};
  std::vector<perfbench::RankParams> ranks = {base, base};
  Expect(perfbench::ParamsBitwiseEqual(ranks), "identical ranks pass");
  ranks[1][0][2] = std::nextafter(3.0f, 4.0f);
  Expect(!perfbench::ParamsBitwiseEqual(ranks),
         "one-ulp change on one rank's parameter fails");
  ranks[1] = base;
  ranks[1][1][0] = -0.0f;
  ranks[0][1][0] = 0.0f;
  Expect(!perfbench::ParamsBitwiseEqual(ranks),
         "+0 vs -0 is not bitwise equal");
}

void LossCheckCountsMismatches() {
  const perfbench::LossTolerance tol{.abs = 2e-4, .rel = 0.0};
  const std::vector<float> ref = {1.0f, 0.5f, 0.25f};
  std::vector<std::vector<float>> ranks = {{1.0f, 0.6f, 0.25f},
                                           {1.0f, 0.4f, 0.25f}};
  Expect(perfbench::CountLossMismatches(ranks, ref, 0, 3, tol) == 0,
         "rank mean equals the global-batch reference");
  ranks[0][2] = 0.26f;
  Expect(perfbench::CountLossMismatches(ranks, ref, 0, 3, tol) == 1,
         "a step off by 5e-3 is counted");
  ranks[0][0] = std::numeric_limits<float>::quiet_NaN();
  Expect(perfbench::CountLossMismatches(ranks, ref, 0, 3, tol) == 2,
         "a NaN loss is counted");
  Expect(perfbench::CountLossMismatches(ranks, ref, 0, 4, tol) == 3,
         "a missing step is counted");

  // Windowed: per-step noise that averages out passes, a drift does not.
  const perfbench::LossTolerance windowed{.abs = 0.0, .rel = 0.01, .window = 2};
  const std::vector<float> flat = {1.0f, 1.0f, 1.0f, 1.0f};
  Expect(perfbench::CountLossMismatches({{1.1f, 0.9f, 1.1f, 0.9f}}, flat, 0,
                                        4, windowed) == 1,
         "alternating noise fails only the first, one-step window");
  Expect(perfbench::CountLossMismatches({{1.0f, 1.0f, 1.1f, 1.1f}}, flat, 0,
                                        4, windowed) == 2,
         "a sustained drift fails every window it covers");
}

void SimCheckCatchesOutOfBoundResult() {
  const auto m = dear::model::UniformTestModel(8, 1 << 16);
  dear::sched::ClusterSpec cluster;
  cluster.world_size = 16;
  dear::sched::PolicyConfig cfg;
  cfg.kind = dear::sched::PolicyKind::kDeAR;
  cfg.plan = dear::fusion::ByBufferBytes(m, 1 << 20);
  const auto real = dear::sched::EvaluatePolicy(m, cluster, cfg);
  auto eff = cluster;
  eff.network.bound_beta_s_per_byte = cluster.network.beta_s_per_byte;
  const double smax = dear::sched::MaxSpeedup(m, eff);
  Expect(perfbench::CheckSimResult(real, 16, smax).empty(),
         "a real DeAR result is within min(world, S^max)");
  auto over = real;
  over.speedup_vs_single_gpu = 16.5;
  Expect(!perfbench::CheckSimResult(over, 16, 1e9).empty(),
         "speedup above the world size fails");
  over.speedup_vs_single_gpu = smax * 1.01;
  Expect(!perfbench::CheckSimResult(over, 16, smax).empty(),
         "speedup above S^max fails");
  over = real;
  over.iter_time = 0;
  Expect(!perfbench::CheckSimResult(over, 16, smax).empty(),
         "zero iteration time fails");
}

}  // namespace

int main() {
  SelfTimeOnSyntheticSpans();
  OverlapAndEscapeAreDefects();
  LiveScopesNest();
  ParamCheckCatchesOnePerturbedRank();
  LossCheckCountsMismatches();
  SimCheckCatchesOutOfBoundResult();
  if (failures == 0)
    std::cout << "all self-tests passed\n";
  else
    std::cout << failures << " self-test(s) failed\n";
  return failures == 0 ? 0 : 1;
}
