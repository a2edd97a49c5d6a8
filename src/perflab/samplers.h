// The measurement methods behind every perf-lab row (perflab/suites.h),
// one sampler per kind of measurement, and the two workloads most rows
// run them over.
//
//  * count    — an exact count per op over a warmed window (heap
//               allocations through the counting operator new, journal
//               records, hook loads, monitor samples).
//  * per-call — a tight loop of one hook alone, in ns/call.
//  * A/B      — interleaved (a, b) pairs, the first pair discarded; the
//               ratio of the two arms' 10th percentiles (best sustained
//               rate, the stable statistic for a same-machine ratio).
//  * timed    — repeats of one body, in ms, after one warm-up call.
//
// A hook's overhead on an op is always per-call ns x count per op / timed
// op (OverheadPct in perflab/suites.h); no sampler clamps a value.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "comm/async.h"
#include "comm/transport.h"
#include "comm/types.h"
#include "common/status.h"
#include "perflab/alloc_counter.h"
#include "perflab/bench_schema.h"

namespace dear::perflab {

/// Keeps `value` (and what it points at) observable, so a timed loop's
/// work cannot be optimized away.
template <typename T>
inline void Escape(const T& value) {
  asm volatile("" : : "r"(&value) : "memory");
}

/// Ops run before a count window opens (slab classes, channel rings,
/// journal lanes reach their steady state).
inline constexpr int kWarmOps = 8;

/// count: `repeats` windows of `ops` calls of `op`, after kWarmOps
/// warm-up calls; each sample is the growth of the cumulative `counter`
/// across its window, per op.
template <typename Counter, typename Op>
std::vector<double> CountPerOp(int repeats, int ops, Counter&& counter,
                               Op&& op) {
  for (int i = 0; i < kWarmOps; ++i) op();
  std::vector<double> per_op;
  per_op.reserve(static_cast<std::size_t>(repeats));
  for (int rep = 0; rep < repeats; ++rep) {
    const std::int64_t before = counter();
    for (int i = 0; i < ops; ++i) op();
    const std::int64_t after = counter();
    per_op.push_back(static_cast<double>(after - before) / ops);
  }
  return per_op;
}

/// count of the calling thread's heap allocations per op. Fails when the
/// counting operator new is not linked in (a count of 0 would mean
/// nothing).
template <typename Op>
StatusOr<std::vector<double>> AllocsPerOp(int repeats, int ops, Op&& op) {
  if (!AllocCounterLive()) {
    return Status::FailedPrecondition(
        "allocation counter not linked into this binary "
        "(link dear_alloc_counter)");
  }
  return CountPerOp(repeats, ops, ThreadAllocs, op);
}

/// per-call: ns per call of a tight loop of `call(i)`, one sample per
/// repeat, after calls/100 warm-up calls.
template <typename Call>
std::vector<double> PerCallNs(int repeats, int calls, Call&& call) {
  using Clock = std::chrono::steady_clock;
  for (int i = 0; i < calls / 100; ++i) call(i);
  std::vector<double> ns;
  ns.reserve(static_cast<std::size_t>(repeats));
  for (int rep = 0; rep < repeats; ++rep) {
    const auto t0 = Clock::now();
    for (int i = 0; i < calls; ++i) call(i);
    ns.push_back(
        std::chrono::duration<double, std::nano>(Clock::now() - t0).count() /
        calls);
  }
  return ns;
}

/// timed: ms per call of `body`, `repeats` samples after one warm-up.
template <typename Body>
std::vector<double> TimedMs(int repeats, Body&& body) {
  using Clock = std::chrono::steady_clock;
  body();
  std::vector<double> ms;
  ms.reserve(static_cast<std::size_t>(repeats));
  for (int rep = 0; rep < repeats; ++rep) {
    const auto t0 = Clock::now();
    body();
    ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
  }
  return ms;
}

/// A/B: `repeats` samples of p10(a) / p10(b) over `pairs` interleaved
/// (a, b) timings each, the first pair of every sample discarded.
/// `reset` runs untimed before each pair.
template <typename Reset, typename A, typename B>
std::vector<double> AbRatio(int repeats, int pairs, Reset&& reset, A&& a,
                            B&& b) {
  using Clock = std::chrono::steady_clock;
  const auto ms = [](Clock::time_point from, Clock::time_point to) {
    return std::chrono::duration<double, std::milli>(to - from).count();
  };
  std::vector<double> ratios;
  for (int rep = 0; rep < repeats; ++rep) {
    std::vector<double> a_ms;
    std::vector<double> b_ms;
    for (int i = 0; i <= pairs; ++i) {
      reset();
      const auto t0 = Clock::now();
      a();
      const auto t1 = Clock::now();
      b();
      const auto t2 = Clock::now();
      if (i == 0) continue;  // warm-up pair
      a_ms.push_back(ms(t0, t1));
      b_ms.push_back(ms(t1, t2));
    }
    ratios.push_back(SampleQuantile(a_ms, 0.1) / SampleQuantile(b_ms, 0.1));
  }
  return ratios;
}

/// How a ring hop folds a received chunk into the accumulator.
enum class Fold {
  kFused,   // production: the dtype-generic vectorized kernels
  kScalar,  // reference per-element fold (fp32 wire only)
};

/// One ring RS+AG worth of per-hop traffic over `world` positions, on rank
/// 0's self-channel of `hub`: world-1 reduce hops folded into `acc`, then
/// world-1 gather hops unpacked into it. Payloads travel in `dtype`.
/// Single-threaded, so a timing of it is the data path itself, not
/// scheduler noise.
void RsAgHops(comm::TransportHub& hub, int world, comm::DType dtype,
              Fold fold, std::span<float> acc, std::span<const float> wire);

/// `world` in-process CommEngines over one hub, each all-reducing its own
/// `elems`-float buffer.
class EngineRing {
 public:
  EngineRing(int world, std::size_t elems);
  ~EngineRing();
  EngineRing(const EngineRing&) = delete;
  EngineRing& operator=(const EngineRing&) = delete;

  /// Submits one all-reduce per rank and waits for all of them.
  void AllReduce();

 private:
  comm::TransportHub hub_;
  std::vector<std::vector<float>> buffers_;
  std::vector<std::unique_ptr<comm::CommEngine>> engines_;
};

}  // namespace dear::perflab
