// Heartbeat benchmark (§6.2).
//
// "A simple monitoring service which maintains the status periodically
// updated by the client. This workload is similar in its call pattern to
// many popular services built with Orleans, like running statistics,
// aggregates or standing queries."
//
// Clients send status updates to monitor actors.

#ifndef SRC_WORKLOAD_HEARTBEAT_H_
#define SRC_WORKLOAD_HEARTBEAT_H_

#include "src/common/ids.h"
#include "src/runtime/client.h"
#include "src/runtime/cluster.h"

namespace actop {

inline constexpr ActorType kMonitorActorType = 2;

struct HeartbeatWorkloadConfig {
  int num_monitors = 4000;
  double request_rate = 10000.0;
  uint32_t request_bytes = 200;
  SimDuration handler_compute = Micros(25);
  SimDuration client_timeout = Seconds(10);
  // When true, Start() registers actors but never starts the pool's own
  // Poisson chain: arrivals come exclusively through ClientPool::Inject from
  // an external open-loop driver (src/load/).
  bool external_clients = false;
  uint64_t seed = 23;
};

class HeartbeatWorkload {
 public:
  HeartbeatWorkload(Cluster* cluster, HeartbeatWorkloadConfig config);

  void Start();
  void Stop();

  ClientPool& clients() { return clients_; }

 private:
  Cluster* cluster_;
  HeartbeatWorkloadConfig config_;
  ClientPool clients_;
};

}  // namespace actop

#endif  // SRC_WORKLOAD_HEARTBEAT_H_
