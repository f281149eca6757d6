// Process-wide heap counters kept by the benchmark binary's replacement of
// the global operator new/delete (alloc_count.cc). The program under test is
// unchanged; every allocation it makes inside this binary is counted.

#ifndef PERFBENCH_SRC_ALLOC_COUNT_H_
#define PERFBENCH_SRC_ALLOC_COUNT_H_

#include <cstdint>

namespace perfbench {

struct AllocCounts {
  uint64_t allocs = 0;      // operator new calls since process start
  uint64_t bytes = 0;       // bytes requested by those calls
  int64_t live_bytes = 0;   // usable bytes currently allocated and not freed
};

AllocCounts ReadAllocCounts();

}  // namespace perfbench

#endif  // PERFBENCH_SRC_ALLOC_COUNT_H_
