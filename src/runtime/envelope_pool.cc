#include "src/runtime/envelope_pool.h"

#include <vector>

#include "src/common/asan.h"

namespace actop {

namespace {

struct EnvelopePool {
  // Bounds the free list so a one-off burst does not pin its high-water
  // mark of envelopes (and their retained vector capacity) forever.
  static constexpr size_t kMaxCached = 8192;

  std::vector<Envelope*> free;
  uint64_t fresh = 0;
  uint64_t recycled = 0;

  ~EnvelopePool() {
    for (Envelope* env : free) {
      ASAN_UNPOISON_MEMORY_REGION(env, sizeof(Envelope));
      delete env;
    }
  }
};

EnvelopePool& Pool() {
  thread_local EnvelopePool pool;
  return pool;
}

}  // namespace

// Routes through Pool() at release time, so an envelope released on another
// shard's thread (a cross-shard message) parks in the *releasing* thread's
// pool — no lock, no race, and each pool stays bounded by kMaxCached.
void EnvelopeRecycler::operator()(Envelope* env) const noexcept {
  EnvelopePool& pool = Pool();
  if (pool.free.size() < EnvelopePool::kMaxCached) {
    env->ResetForReuse();
    ASAN_POISON_MEMORY_REGION(env, sizeof(Envelope));
    pool.free.push_back(env);
  } else {
    delete env;
  }
}

EnvelopePtr MakeEnvelope() {
  EnvelopePool& pool = Pool();
  Envelope* env;
  if (!pool.free.empty()) {
    env = pool.free.back();
    pool.free.pop_back();
    ASAN_UNPOISON_MEMORY_REGION(env, sizeof(Envelope));
    pool.recycled++;
  } else {
    env = new Envelope();
    pool.fresh++;
  }
  return EnvelopePtr(env);
}

EnvelopePoolStats GetEnvelopePoolStats() {
  const EnvelopePool& pool = Pool();
  return EnvelopePoolStats{pool.fresh, pool.recycled, pool.free.size()};
}

}  // namespace actop
