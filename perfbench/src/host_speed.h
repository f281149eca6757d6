// Host-speed probe for shared machines.
//
// A shared host's speed drifts by tens of percent over minutes (co-tenants,
// frequency scaling), far more than the changes the benchmark has to
// resolve. The probe times a fixed kernel, written here and never changed
// with the program: random read-modify-writes over a 4 MiB table plus
// binary-heap updates, the memory-latency and branch mix an event simulator
// spends its time on. It runs between RunUntil steps, outside the timed
// spans. Host metrics are scaled by Factor() = reference time / measured
// time, which reports them in ns of a host on which the kernel runs at the
// reference speed.

#ifndef PERFBENCH_SRC_HOST_SPEED_H_
#define PERFBENCH_SRC_HOST_SPEED_H_

#include <cstdint>
#include <cstdlib>
#include <memory>

namespace perfbench {

class HostSpeed {
 public:
  HostSpeed();

  // Runs the kernel once, adds its wall time to the tally and returns this
  // sample's factor (reference time / measured time).
  double Sample();

  // Reference kernel time / mean measured kernel time (1.0 before any
  // sample). Above 1 means the host ran faster than the reference.
  double Factor() const;

 private:
  struct FreeDeleter {
    void operator()(uint64_t* p) const { std::free(p); }
  };
  // The table and the heap, from malloc rather than operator new: the
  // benchmark's allocation counters must see only the program's allocations.
  std::unique_ptr<uint64_t[], FreeDeleter> memory_;
  uint64_t* table_;
  uint64_t* heap_;
  uint64_t state_ = 88172645463325252ULL;
  uint64_t sink_ = 0;
  int64_t samples_ = 0;
  int64_t total_ns_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_HOST_SPEED_H_
