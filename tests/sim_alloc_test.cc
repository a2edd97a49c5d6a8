// Heap allocations of the simulator and of the BO acquisition sweep,
// counted exactly by replacing global operator new: Simulate allocates per
// graph, never per task, and the sweep's per-point prediction allocates
// nothing.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <span>
#include <vector>

#include "sim/engine.h"
#include "tune/gp.h"
#include "tune/search.h"

namespace {

std::atomic<long> g_allocs{0};

long AllocCount() { return g_allocs.load(std::memory_order_relaxed); }

}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace dear {
namespace {

/// A dependency chain of `n` tasks alternating between a FIFO stream and a
/// priority stream.
sim::TaskGraph Chain(int n) {
  sim::TaskGraph g;
  g.Reserve(static_cast<std::size_t>(n), static_cast<std::size_t>(n - 1));
  for (int i = 0; i < n; ++i) {
    sim::Task t;
    t.stream = static_cast<std::int16_t>(i % 2);
    t.duration = 1 + i % 3;
    const sim::TaskId prev = i - 1;
    g.Add(t, i == 0 ? std::span<const sim::TaskId>{}
                    : std::span<const sim::TaskId>(&prev, 1));
  }
  return g;
}

/// Allocations made by one Simulate call (result included).
long SimulateAllocs(const sim::TaskGraph& g) {
  const std::vector<sim::StreamPolicy> policies = {
      sim::StreamPolicy::kFifoByReady, sim::StreamPolicy::kPriority};
  const long before = AllocCount();
  {
    const auto r = sim::Simulate(g, policies);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r->timings.size(), g.size());
  }
  return AllocCount() - before;
}

TEST(SimAllocTest, SimulateAllocationsDoNotGrowWithTasks) {
  const auto small = Chain(1000);
  const auto large = Chain(10000);
  const long small_allocs = SimulateAllocs(small);
  const long large_allocs = SimulateAllocs(large);
  EXPECT_EQ(small_allocs, large_allocs);
  EXPECT_LT(small_allocs, 20);  // a handful of per-graph arrays
}

TEST(SimAllocTest, PredictWithScratchAllocatesNothing) {
  tune::GaussianProcess gp;
  std::vector<double> xs, ys;
  for (int i = 0; i < 10; ++i) {
    xs.push_back(0.1 * i);
    ys.push_back(static_cast<double>((i * 7) % 5));
  }
  ASSERT_TRUE(gp.Fit(xs, ys).ok());

  std::vector<double> scratch;
  (void)gp.Predict(0.0, scratch);  // sizes the scratch buffer
  const long before = AllocCount();
  double sum = 0.0;
  for (int i = 0; i < 256; ++i) {
    const auto p = gp.Predict(i / 255.0, scratch);
    sum += p.mean + p.variance;
  }
  EXPECT_EQ(AllocCount() - before, 0);
  EXPECT_TRUE(sum == sum);  // keep the loop observable

  // The scratch overload is the same computation, bit for bit.
  for (double x : {-0.3, 0.05, 0.5, 0.77, 2.0}) {
    const auto a = gp.Predict(x);
    const auto b = gp.Predict(x, scratch);
    EXPECT_EQ(a.mean, b.mean);
    EXPECT_EQ(a.variance, b.variance);
  }
}

/// Allocations of one SuggestNext over a `grid`-point sweep, after five
/// observations.
long SuggestAllocs(int grid) {
  tune::BoOptions opts;
  opts.acquisition_grid = grid;
  tune::BayesianOptimizer bo(1.0, 100.0, opts);
  for (int i = 0; i < 5; ++i) {
    const double x = bo.SuggestNext();
    bo.Observe(x, 100.0 - (x - 30.0) * (x - 30.0) / 50.0);
  }
  (void)bo.SuggestNext();  // refits the GP for the observations so far
  const long before = AllocCount();
  (void)bo.SuggestNext();
  return AllocCount() - before;
}

TEST(SimAllocTest, SuggestionAllocationsDoNotGrowWithGrid) {
  EXPECT_EQ(SuggestAllocs(16), SuggestAllocs(1024));
}

}  // namespace
}  // namespace dear
