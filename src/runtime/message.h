// Wire messages exchanged between servers and clients.
//
// Mirrors the Orleans message taxonomy the paper relies on: application
// calls/responses (which pay serialization in the SEDA sender/receiver
// stages) and small runtime control messages (directory operations, cache
// maintenance, and the pairwise partitioning protocol of §4.2).

#ifndef SRC_RUNTIME_MESSAGE_H_
#define SRC_RUNTIME_MESSAGE_H_

#include <cstdint>
#include <variant>
#include <vector>

#include "src/common/ids.h"
#include "src/core/pairwise_partition.h"

namespace actop {

// Application-defined method selector.
using MethodId = uint32_t;

// Uniquely identifies an outstanding call cluster-wide: issuing node + local
// sequence number.
struct CallId {
  NodeId node = kNoNode;
  uint64_t seq = 0;

  bool operator==(const CallId&) const = default;
};

// ---- Control payloads (runtime-internal, small messages) ----

// Ask the directory shard for an actor's owner; register `suggested_owner`
// if the actor has no activation.
struct DirLookupRequest {
  ActorId actor = kNoActor;
  ServerId suggested_owner = kNoServer;
};

struct DirLookupResponse {
  ActorId actor = kNoActor;
  ServerId owner = kNoServer;
  uint64_t token = 0;  // registration token backing this answer
};

// Remove the directory entry (deactivation / migration), but only if it
// still points at `owner` under the same registration `token` — a stale
// unregister must not evict a newer registration.
struct DirUnregister {
  ActorId actor = kNoActor;
  ServerId owner = kNoServer;
  uint64_t token = 0;
};

// Prime the receiver's location cache (opportunistic migration, §4.3).
struct CacheUpdate {
  ActorId actor = kNoActor;
  ServerId owner = kNoServer;
};

// Pairwise partitioning protocol (§4.2, Alg. 1).
struct PartitionExchangeRequest {
  int64_t from_num_vertices = 0;
  std::vector<Candidate> candidates;
  uint64_t exchange_id = 0;
};

struct PartitionExchangeResponse {
  bool rejected = false;
  std::vector<VertexId> accepted;  // vertices the receiver (q) took from p
  uint64_t exchange_id = 0;
};

using ControlPayload =
    std::variant<DirLookupRequest, DirLookupResponse, DirUnregister, CacheUpdate,
                 PartitionExchangeRequest, PartitionExchangeResponse>;

// ---- Envelope ----

enum class MessageKind : uint8_t {
  kCall,      // application call (client->actor or actor->actor)
  kResponse,  // application response
  kControl,   // runtime control
};

struct Envelope {
  MessageKind kind = MessageKind::kCall;

  // kCall / kResponse:
  CallId call_id;
  ActorId target = kNoActor;        // callee (kCall) — routing key
  ActorId source_actor = kNoActor;  // caller actor (kNoActor for clients)
  MethodId method = 0;
  uint32_t payload_bytes = 0;
  uint64_t app_data = 0;  // small application argument (e.g. a game id)
  int hops = 0;  // forwarding count (stale caches); bounded by the runtime

  // The node the response must return to (issuing client or server).
  NodeId reply_to = kNoNode;

  // kControl:
  ControlPayload control;

  // --- Non-wire bookkeeping (set by the receiving runtime, not "sent") ---
  // Whether this envelope crossed the network (LPC deliveries skip
  // serialization but pay a deep-copy cost at the callee).
  bool via_network = false;

  // Returns every field to its default-constructed value while preserving
  // heap capacity inside the control payload. Called by the envelope pool
  // when an envelope is recycled (see src/runtime/envelope_pool.h): a reused
  // envelope must be indistinguishable from a fresh one to its next user —
  // kind, hops, via_network and the control variant's *values*
  // are all reset — but the partition-exchange vectors keep their capacity
  // so steady-state exchange traffic stops reallocating them. The variant's
  // active alternative is the one place reuse is visible (an exchange
  // payload stays an exchange alternative, emptied); no reader consults
  // `control` without first matching `kind`/get_if, so the retained
  // alternative is unobservable in practice and the state-leak test pins
  // that.
  void ResetForReuse() {
    kind = MessageKind::kCall;
    call_id = CallId{};
    target = kNoActor;
    source_actor = kNoActor;
    method = 0;
    payload_bytes = 0;
    app_data = 0;
    hops = 0;
    reply_to = kNoNode;
    via_network = false;
    if (auto* req = std::get_if<PartitionExchangeRequest>(&control)) {
      req->from_num_vertices = 0;
      req->candidates.clear();  // keeps capacity
      req->exchange_id = 0;
    } else if (auto* resp = std::get_if<PartitionExchangeResponse>(&control)) {
      resp->rejected = false;
      resp->accepted.clear();  // keeps capacity
      resp->exchange_id = 0;
    } else {
      control = ControlPayload{};  // POD alternatives: reset to the default
    }
  }
};

}  // namespace actop

#endif  // SRC_RUNTIME_MESSAGE_H_
