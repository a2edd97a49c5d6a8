// The one counting global operator new in the repository (see
// alloc_counter.h). Deallocation stays the system's; only news are
// counted, which is what the 0-alloc bars are about.
#include <cstdlib>
#include <new>

#include "perflab/alloc_counter.h"

namespace {

void* CountedAlloc(std::size_t size) {
  ++dear::perflab::internal::t_allocs;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
