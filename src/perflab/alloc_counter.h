// Per-thread heap-allocation counter behind the perf-lab count rows
// (perflab/rows.h) and the allocation tests.
//
// alloc_counter.cc replaces global operator new so every allocation bumps
// the calling thread's count. It is its own CMake target
// (dear_alloc_counter), linked into dearsim and the tests that count, and
// never into dear_perflab: binaries that link only the library (perfbench
// among them) keep the system allocator, and there the count stays 0.
// AllocCounterLive() tells the two apart, so a binary built without the
// counter cannot pass a 0-alloc bar by reading 0.
//
// Per-thread, not atomic: every counted window is single-threaded, and
// threaded programs that link the counter pay no contended read-modify-
// write per allocation.
#pragma once

#include <cstdint>
#include <new>

namespace dear::perflab {

namespace internal {
inline thread_local std::int64_t t_allocs = 0;
}  // namespace internal

/// Allocations the calling thread has made through the counting
/// operator new (always 0 in a binary that does not link it).
inline std::int64_t ThreadAllocs() noexcept { return internal::t_allocs; }

/// True when the counting operator new is linked in: one probe
/// allocation must register on this thread's count.
inline bool AllocCounterLive() {
  const std::int64_t before = ThreadAllocs();
  void* probe = ::operator new(1);
  asm volatile("" : : "r"(probe) : "memory");  // keep the allocation
  ::operator delete(probe);
  return ThreadAllocs() != before;
}

}  // namespace dear::perflab
