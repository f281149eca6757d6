// Simulated-time representation.
//
// All simulated time in the library is an integer count of nanoseconds since
// the start of the simulation. Using a fixed-point integer keeps the event
// queue total-ordering exact and the simulation bit-for-bit reproducible.

#ifndef SRC_COMMON_SIM_TIME_H_
#define SRC_COMMON_SIM_TIME_H_

#include <cstdint>
#include <limits>

namespace actop {

// Nanoseconds since simulation start.
using SimTime = int64_t;
// A span of simulated time, also in nanoseconds.
using SimDuration = int64_t;

inline constexpr SimTime kSimTimeMax = std::numeric_limits<SimTime>::max();

constexpr SimDuration Nanos(int64_t n) { return n; }
constexpr SimDuration Micros(int64_t us) { return us * 1'000; }
constexpr SimDuration Millis(int64_t ms) { return ms * 1'000'000; }
constexpr SimDuration Seconds(int64_t s) { return s * 1'000'000'000; }
constexpr SimDuration Minutes(int64_t m) { return m * 60'000'000'000; }

// Fractional constructors, rounding to the nearest nanosecond. Useful when a
// duration is derived from a rate or a random draw.
constexpr SimDuration MicrosF(double us) { return static_cast<SimDuration>(us * 1e3 + 0.5); }
constexpr SimDuration MillisF(double ms) { return static_cast<SimDuration>(ms * 1e6 + 0.5); }
constexpr SimDuration SecondsF(double s) { return static_cast<SimDuration>(s * 1e9 + 0.5); }

constexpr double ToMillis(SimDuration d) { return static_cast<double>(d) / 1e6; }
constexpr double ToSeconds(SimDuration d) { return static_cast<double>(d) / 1e9; }

}  // namespace actop

#endif  // SRC_COMMON_SIM_TIME_H_
