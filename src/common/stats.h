// Small online statistics helpers shared by the runtime and the optimizers.

#ifndef SRC_COMMON_STATS_H_
#define SRC_COMMON_STATS_H_

#include <cstdint>

namespace actop {

// Welford online mean / variance accumulator.
class OnlineStats {
 public:
  void Add(double x) {
    count_++;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
  }

  void Reset() {
    count_ = 0;
    mean_ = 0.0;
    m2_ = 0.0;
  }

  uint64_t count() const { return count_; }
  double mean() const { return mean_; }
  double variance() const { return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_ - 1); }

 private:
  uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

// Exponentially weighted moving average, used to smooth per-window rate
// estimates before feeding them to the thread-allocation optimizer.
class Ewma {
 public:
  explicit Ewma(double alpha) : alpha_(alpha) {}

  void Add(double x) {
    if (!initialized_) {
      value_ = x;
      initialized_ = true;
    } else {
      value_ = alpha_ * x + (1.0 - alpha_) * value_;
    }
  }

  bool initialized() const { return initialized_; }
  double value() const { return value_; }
  void Reset() { initialized_ = false; }

 private:
  double alpha_;
  double value_ = 0.0;
  bool initialized_ = false;
};

}  // namespace actop

#endif  // SRC_COMMON_STATS_H_
