// The one counting global operator new in the repository (see
// alloc_counter.h). Deallocation stays the system's; only news are
// counted (calls and bytes), which is what the 0-alloc bars are about.
#include <cstdlib>
#include <new>

#include "perflab/alloc_counter.h"

namespace {

void* CountedMalloc(std::size_t size) noexcept {
  ++dear::perflab::internal::t_allocs;
  dear::perflab::internal::t_alloc_bytes += static_cast<std::int64_t>(size);
  return std::malloc(size);
}

void* CountedAlloc(std::size_t size) {
  if (void* p = CountedMalloc(size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
// The nothrow forms (std::stable_sort's temporary buffer) are replaced too,
// so every new in a counting binary is counted and pairs with the free
// below: left to a sanitizer's allocator, they would not.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedMalloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedMalloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
