// Shared stream scripts + digests for the sampling/placement golden tests.
//
// SpaceSavingStreamDigest is templated over the sketch type so the same
// scripted op stream can be driven through the rewritten Stream-Summary
// SpaceSaving, the retained seed reference (space_saving_reference.h), or —
// when the goldens were generated — the original seed implementation itself.
// The digest folds in the full observable state after *every* operation
// (size, total, and the sorted (key, count, error) entry set), so any
// divergence in an eviction victim, an error bound, or a decay/clear shows up
// in the final hash. Entries are sorted by key before hashing, so the digest
// is independent of the container's iteration order.

#ifndef TESTS_CORE_STREAM_GOLDEN_UTIL_H_
#define TESTS_CORE_STREAM_GOLDEN_UTIL_H_

#include <algorithm>
#include <cstdint>

#include "src/common/rng.h"
#include "src/core/streaming_partitioner.h"
#include "tests/core/partition_golden_util.h"

namespace actop {

// Scripted stream: mildly skewed observes (occasionally weighted) with rare
// Clear, and — when `with_decay` — interleaved Decay. When `with_zero`, some
// observes carry a zero increment (drawn from bits of the same random word,
// so the stream is otherwise unchanged). Capacity and key space vary per seed
// so both the under-capacity and steady-state-eviction regimes are exercised.
//
// The two modes exist because the seed implementation's *post-Decay* bucket
// order (which breaks eviction-victim ties among equal-count keys) was an
// artifact of std::unordered_map iteration order. Decay-free streams are
// digest-compared against goldens from the true seed implementation;
// decay-heavy streams are compared against SpaceSavingReference, whose Decay
// rebuild order is canonicalized (see space_saving_reference.h).
template <typename Sketch>
uint64_t SpaceSavingStreamDigest(uint64_t seed, bool with_decay, bool with_zero = false) {
  Rng rng(seed);
  const size_t capacity = 2 + rng.NextBounded(48);
  const uint64_t key_space = 4 + rng.NextBounded(400);
  const int ops = 1500 + static_cast<int>(rng.NextBounded(1500));
  Sketch ss(capacity);
  GoldenDigest d;
  for (int i = 0; i < ops; i++) {
    const uint64_t r = rng.NextU64();
    if (with_decay && r % 97 == 0) {
      ss.Decay();
    } else if (r % 331 == 1) {
      ss.Clear();
    } else {
      const uint64_t raw = rng.NextBounded(key_space);
      const uint64_t key = raw * raw / key_space;  // skew toward small keys
      uint64_t inc = (r >> 8) % 4 == 0 ? 1 + rng.NextBounded(8) : 1;
      if (with_zero && (r >> 16) % 5 == 0) {
        inc = 0;
      }
      ss.Observe(key, inc);
    }
    d.U64(ss.size());
    d.U64(ss.total_observed());
    auto entries = ss.Entries();
    std::sort(entries.begin(), entries.end(),
              [](const auto& a, const auto& b) { return a.key < b.key; });
    for (const auto& e : entries) {
      d.U64(e.key);
      d.U64(e.count);
      d.U64(e.error);
    }
  }
  return d.h;
}

// Feeds a random incremental graph through StreamingPartitioner and digests
// every placement decision in order. Covers all three heuristics, the
// capacity-fallback path (expected_vertices deliberately under-estimated on
// some seeds), and idempotent re-placement.
inline uint64_t StreamingPlacementDigest(StreamingHeuristic heuristic, uint64_t seed) {
  Rng rng(seed);
  const int servers = static_cast<int>(rng.NextInt(2, 10));
  const int n = 200 + static_cast<int>(rng.NextBounded(300));
  const bool underestimate = rng.NextBool(0.3);
  StreamingPartitionerConfig cfg;
  cfg.heuristic = heuristic;
  cfg.seed = seed ^ 0x5bd1e995;
  StreamingPartitioner sp(servers, underestimate ? n / 4 : n, 3 * n, cfg);
  GoldenDigest d;
  for (int v = 1; v <= n; v++) {
    VertexAdjacency adj;
    const int degree = static_cast<int>(rng.NextBounded(5));
    for (int e = 0; e < degree && v > 1; e++) {
      const auto u = static_cast<VertexId>(rng.NextInt(1, v - 1));
      adj[u] += NextDyadic(&rng, 0.125, 4.0);
    }
    d.I64(sp.Place(static_cast<VertexId>(v), adj));
    if (v % 7 == 0) {
      // Re-placing an existing vertex must return its prior assignment.
      d.I64(sp.Place(static_cast<VertexId>(rng.NextInt(1, v)), adj));
    }
  }
  d.I64(sp.MaxImbalance());
  return d.h;
}

}  // namespace actop

#endif  // TESTS_CORE_STREAM_GOLDEN_UTIL_H_
