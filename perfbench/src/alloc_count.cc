// Counting replacement of the global allocation functions. Live bytes use
// malloc_usable_size so operator delete can subtract what it frees without a
// size header.

#include "perfbench/src/alloc_count.h"

#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<uint64_t> g_allocs{0};
std::atomic<uint64_t> g_bytes{0};
std::atomic<int64_t> g_live{0};

void* CountedAlloc(std::size_t size) noexcept {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p != nullptr) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    g_bytes.fetch_add(size, std::memory_order_relaxed);
    g_live.fetch_add(static_cast<int64_t>(malloc_usable_size(p)), std::memory_order_relaxed);
  }
  return p;
}

void CountedFree(void* p) noexcept {
  if (p != nullptr) {
    g_live.fetch_sub(static_cast<int64_t>(malloc_usable_size(p)), std::memory_order_relaxed);
    std::free(p);
  }
}

}  // namespace

// GCC flags the opaque replaced operator new against inlined STL deletes in
// this TU (a known counting-allocator false positive).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  void* p = CountedAlloc(size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* operator new[](std::size_t size) { return operator new(size); }

void* operator new(std::size_t size, const std::nothrow_t&) noexcept { return CountedAlloc(size); }

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}

void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete[](void* p) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { CountedFree(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { CountedFree(p); }

namespace perfbench {

AllocCounts ReadAllocCounts() {
  return AllocCounts{g_allocs.load(std::memory_order_relaxed),
                     g_bytes.load(std::memory_order_relaxed),
                     g_live.load(std::memory_order_relaxed)};
}

}  // namespace perfbench
