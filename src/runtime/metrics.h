// Cluster-wide measurement collection for the benchmark harnesses.

#ifndef SRC_RUNTIME_METRICS_H_
#define SRC_RUNTIME_METRICS_H_

#include <cstdint>

#include "src/common/histogram.h"
#include "src/common/sim_time.h"

namespace actop {

// Aggregated cluster metrics. Servers and clients push into this; benches
// snapshot and reset between measurement phases.
class ClusterMetrics {
 public:
  // Actor-to-actor call round-trip latency, recorded at the calling server.
  // (Message counting happens separately via CountAppMessage, once per leg.)
  // O(1) and allocation-free: histogram buckets are preallocated and the
  // window mean is a running sum, so this sits on the per-message hot path
  // without a map lookup or heap traffic.
  void RecordActorCall(SimDuration latency, bool remote) {
    actor_call_latency_.Record(latency);
    if (remote) {
      remote_actor_call_latency_.Record(latency);
    }
  }

  // Counts one actor-to-actor application message (call or response leg).
  void CountAppMessage(bool remote) { (remote ? window_remote_msgs_ : window_local_msgs_)++; }

  void CountMigration() { window_migrations_++; }

  const Histogram& actor_call_latency() const { return actor_call_latency_; }
  const Histogram& remote_actor_call_latency() const { return remote_actor_call_latency_; }

  // Per-window counters (reset by TakeWindow).
  struct Window {
    uint64_t remote_msgs = 0;
    uint64_t local_msgs = 0;
    uint64_t migrations = 0;

    double remote_fraction() const {
      const uint64_t total = remote_msgs + local_msgs;
      return total == 0 ? 0.0 : static_cast<double>(remote_msgs) / static_cast<double>(total);
    }
  };

  Window TakeWindow() {
    Window w{window_remote_msgs_, window_local_msgs_, window_migrations_};
    window_remote_msgs_ = 0;
    window_local_msgs_ = 0;
    window_migrations_ = 0;
    return w;
  }

  void ResetLatencies() {
    actor_call_latency_.Reset();
    remote_actor_call_latency_.Reset();
  }

 private:
  Histogram actor_call_latency_;
  Histogram remote_actor_call_latency_;
  uint64_t window_remote_msgs_ = 0;
  uint64_t window_local_msgs_ = 0;
  uint64_t window_migrations_ = 0;
};

}  // namespace actop

#endif  // SRC_RUNTIME_METRICS_H_
