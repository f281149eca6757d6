// A client frontend with full reply accounting, for chaos tests.
//
// Unlike DirectClient, every issued call is tracked until it reaches exactly
// one terminal outcome — success or client-side timeout — even when the
// response path is destroyed by a crash or a dropped message. The counters
// make invariant (b) falsifiable: a lost reply shows up as a timeout, a
// duplicated or fabricated reply as `duplicate_responses` /
// `unknown_responses`, and a response that raced a timeout (legal: the
// timeout was the harness's impatience, not the system's fault) as
// `late_responses`.

#ifndef SRC_TESTING_CHAOS_CLIENT_H_
#define SRC_TESTING_CHAOS_CLIENT_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/ids.h"
#include "src/common/ring_buffer.h"
#include "src/common/rng.h"
#include "src/common/sim_time.h"
#include "src/runtime/cluster.h"
#include "src/runtime/envelope_pool.h"

namespace actop {

struct ChaosClientConfig {
  uint64_t seed = 7;
  uint32_t request_bytes = 128;
  // A call with no response after this long counts as timed out (must exceed
  // the worst-case recovery chain: directory retry + server call timeout).
  SimDuration timeout = Seconds(6);
};

class ChaosClient {
 public:
  // The client's node and sweep timer live on the cluster's driver shard.
  ChaosClient(Cluster* cluster, ChaosClientConfig config);

  // Issues one call through a random gateway server.
  void Call(ActorId target, MethodId method, uint64_t app_data = 0);

  NodeId node() const { return node_; }

  uint64_t issued() const { return outcomes_.size(); }
  uint64_t succeeded() const { return succeeded_; }
  uint64_t timed_out() const { return timed_out_; }
  uint64_t late_responses() const { return late_responses_; }
  // Both must stay zero: more than one reply per call, or a reply for a call
  // that was never issued.
  uint64_t duplicate_responses() const { return duplicate_responses_; }
  uint64_t unknown_responses() const { return unknown_responses_; }

  size_t outstanding() const { return issued() - succeeded_ - timed_out_; }
  // True once every issued call has reached a terminal outcome.
  bool Settled() const { return outstanding() == 0; }

 private:
  void OnDeliver(EnvelopePtr env);
  void SweepTimeouts();

  Simulation* sim_;
  Cluster* cluster_;
  ChaosClientConfig config_;
  Rng rng_;
  NodeId node_ = kNoNode;

  enum Outcome : uint8_t { kPending, kSucceeded, kTimedOut };
  // One outcome per issued call: seqs are dense from 1, so call `seq` is
  // outcomes_[seq - 1].
  std::vector<Outcome> outcomes_;
  // (deadline, seq) per issued call. The timeout is constant, so issue order
  // is deadline order and the sweep pops expired calls off the front.
  RingBuffer<std::pair<SimTime, uint64_t>> timeout_queue_;

  uint64_t succeeded_ = 0;
  uint64_t timed_out_ = 0;
  uint64_t late_responses_ = 0;
  uint64_t duplicate_responses_ = 0;
  uint64_t unknown_responses_ = 0;
};

}  // namespace actop

#endif  // SRC_TESTING_CHAOS_CLIENT_H_
