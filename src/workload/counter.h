// Counter micro-benchmark (§3, Figures 4 and 5).
//
// "A simple counter application where in response to a client request an
// actor increments a counter." One actor per counter; clients hit uniformly
// random counters. The Figure 4/5 benches run it on a single server, so
// every counter lives on server 0.

#ifndef SRC_WORKLOAD_COUNTER_H_
#define SRC_WORKLOAD_COUNTER_H_

#include <cstdint>

#include "src/common/ids.h"
#include "src/runtime/client.h"
#include "src/runtime/cluster.h"

namespace actop {

inline constexpr ActorType kCounterActorType = 1;

struct CounterWorkloadConfig {
  int num_actors = 8000;          // paper: 8K actors
  double request_rate = 15000.0;  // paper: 15K req/s
  uint64_t seed = 17;
};

class CounterWorkload {
 public:
  CounterWorkload(Cluster* cluster, CounterWorkloadConfig config);

  // Begins client traffic.
  void Start();
  void Stop();

  ClientPool& clients() { return clients_; }

  // Sum of all counters (test oracle: must equal completed requests).
  uint64_t TotalCount() const;

 private:
  Cluster* cluster_;
  CounterWorkloadConfig config_;
  ClientPool clients_;
};

}  // namespace actop

#endif  // SRC_WORKLOAD_COUNTER_H_
