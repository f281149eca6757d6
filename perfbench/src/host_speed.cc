#include "perfbench/src/host_speed.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <new>

namespace perfbench {
namespace {

constexpr size_t kTableSlots = size_t{1} << 19;  // 4 MiB of uint64_t
constexpr size_t kHeapSlots = 4096;
constexpr int kIterations = 20000;
// Kernel speed of the reference host: a 4-core x86-64 KVM guest (Xeon,
// GCC 12 -O3) in a quiet period.
constexpr double kReferenceNsPerIteration = 125.0;

}  // namespace

HostSpeed::HostSpeed()
    : memory_(static_cast<uint64_t*>(std::malloc((kTableSlots + kHeapSlots) * sizeof(uint64_t)))),
      table_(memory_.get()),
      heap_(memory_.get() + kTableSlots) {
  if (memory_ == nullptr) {
    throw std::bad_alloc();
  }
  std::fill(table_, table_ + kTableSlots, 1);
  std::fill(heap_, heap_ + kHeapSlots, 0);
}

double HostSpeed::Sample() {
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kIterations; i++) {
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    table_[state_ % kTableSlots] += state_;
    std::pop_heap(heap_, heap_ + kHeapSlots, std::greater<uint64_t>());
    heap_[kHeapSlots - 1] = heap_[0] + (state_ & 1023) + table_[(state_ >> 24) % kTableSlots] % 7;
    std::push_heap(heap_, heap_ + kHeapSlots, std::greater<uint64_t>());
  }
  sink_ += heap_[0];
  const int64_t ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
  total_ns_ += ns;
  samples_++;
  return kReferenceNsPerIteration * kIterations / static_cast<double>(ns);
}

double HostSpeed::Factor() const {
  if (samples_ == 0) {
    return 1.0;
  }
  const double measured =
      static_cast<double>(total_ns_) / static_cast<double>(samples_ * kIterations);
  return kReferenceNsPerIteration / measured;
}

}  // namespace perfbench
