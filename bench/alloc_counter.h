// Process-wide allocation counters for the benches and footprint tests.
//
// A binary that links the actop_alloc_counter object library gets its global
// operator new/delete replaced by malloc/free wrappers that count every
// allocation and the bytes it requested (alloc_counter.cc). The counters are
// cumulative; binaries report steady-state figures by resetting them after
// setup/warmup or by differencing two readings. Only binaries built for
// measurement link it, one hook per process.

#ifndef BENCH_ALLOC_COUNTER_H_
#define BENCH_ALLOC_COUNTER_H_

#include <cstdint>

namespace actop {

// Allocations, and bytes requested, since process start or the last reset.
uint64_t AllocCount();
uint64_t AllocBytes();
void ResetAllocCounters();

}  // namespace actop

#endif  // BENCH_ALLOC_COUNTER_H_
