// Recycling block cache for allocate_shared.
//
// std::allocate_shared<T> performs one heap allocation per object (the
// combined object + control block). For a small object that really is
// shared — the fan-out counter several continuations decrement
// (src/workload/fanout_counter.h) — that allocation dominates its cost.
// RecyclingBlockCache keeps freed combined blocks on a free list and hands
// them back to the next allocation of the same size, so steady-state traffic
// touches the allocator zero times. Under AddressSanitizer a cached block is
// poisoned until it is handed out again.
//
// The cache is intentionally dumb: it caches blocks of exactly one size (the
// first size it ever sees — for a cache dedicated to one T, that is always
// sizeof(combined block of T)). Other sizes pass through to operator
// new/delete. Single-threaded, like everything else in the simulator. The
// cache must outlive every block allocated from it, because the final
// release returns the block to the cache.

#ifndef SRC_COMMON_RECYCLING_POOL_H_
#define SRC_COMMON_RECYCLING_POOL_H_

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

#include "src/common/asan.h"

namespace actop {

class RecyclingBlockCache {
 public:
  // `max_cached` bounds the free list so a one-off burst does not pin its
  // high-water mark of memory forever.
  explicit RecyclingBlockCache(size_t max_cached = 8192) : max_cached_(max_cached) {}

  RecyclingBlockCache(const RecyclingBlockCache&) = delete;
  RecyclingBlockCache& operator=(const RecyclingBlockCache&) = delete;

  ~RecyclingBlockCache() {
    for (void* block : free_) {
      ASAN_UNPOISON_MEMORY_REGION(block, block_bytes_);
      ::operator delete(block);
    }
  }

  void* Allocate(size_t bytes) {
    if (block_bytes_ == 0) block_bytes_ = bytes;
    if (bytes == block_bytes_ && !free_.empty()) {
      void* block = free_.back();
      free_.pop_back();
      ASAN_UNPOISON_MEMORY_REGION(block, block_bytes_);
      recycled_++;
      return block;
    }
    fresh_++;
    return ::operator new(bytes);
  }

  void Release(void* block, size_t bytes) {
    if (bytes == block_bytes_ && free_.size() < max_cached_) {
      ASAN_POISON_MEMORY_REGION(block, block_bytes_);
      free_.push_back(block);
      return;
    }
    ::operator delete(block);
  }

  // Introspection for tests and the engine benchmark.
  uint64_t fresh_allocations() const { return fresh_; }
  uint64_t recycled_allocations() const { return recycled_; }
  size_t cached_blocks() const { return free_.size(); }

 private:
  std::vector<void*> free_;
  size_t block_bytes_ = 0;
  size_t max_cached_;
  uint64_t fresh_ = 0;
  uint64_t recycled_ = 0;
};

}  // namespace actop

#endif  // SRC_COMMON_RECYCLING_POOL_H_
