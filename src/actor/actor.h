// Application-facing actor programming model.
//
// Applications subclass Actor and register a factory per ActorType with the
// Cluster. The runtime activates actors on demand (virtual actors, as in
// Orleans), delivers one call at a time per activation, and may migrate
// activations between servers transparently.
//
// Because this runtime simulates time rather than executing real work,
// handlers declare their compute cost through the per-type CostModel (or
// add to it per call via CallContext::AddCompute) instead of
// actually burning CPU.

#ifndef SRC_ACTOR_ACTOR_H_
#define SRC_ACTOR_ACTOR_H_

#include <cstdint>
#include <functional>
#include <memory>

#include "src/common/ids.h"
#include "src/common/inline_function.h"
#include "src/common/sim_time.h"
#include "src/runtime/message.h"

namespace actop {

// Response delivered to a call's continuation.
struct Response {
  ActorId from = kNoActor;
  uint32_t payload_bytes = 0;
  bool failed = false;  // target unreachable (e.g. dropped during overload)
};

// Continuation invoked when a call's response (or failure) arrives. Six
// machine words of inline storage covers every steady-state capture shape in
// the workloads — [CallContext*, shared_ptr counter, this] is 32 bytes —
// without the per-call heap allocation std::function pays for captures past
// 16 bytes. Move-only; pass nullptr for fire-and-forget calls.
using ResponseFn = InlineFunction<void(const Response&), 48>;

// Handle for one in-flight call being processed by an actor. Created by the
// runtime for each delivered call; the actor must eventually Reply() exactly
// once (possibly after sub-calls complete). If the actor's server crashes
// before the Reply, the context stays valid but inert: its calls and its
// Reply send nothing (a second Reply is still a checked failure).
class CallContext {
 public:
  virtual ~CallContext() = default;

  virtual ActorId self() const = 0;
  virtual MethodId method() const = 0;
  virtual uint32_t payload_bytes() const = 0;
  virtual uint64_t app_data() const = 0;  // small scalar argument
  virtual ActorId caller() const = 0;     // kNoActor when called by a client
  virtual SimTime now() const = 0;

  // Issues an asynchronous call to another actor. The continuation runs as a
  // new turn on this actor's server when the response arrives.
  virtual void Call(ActorId target, MethodId method, uint32_t payload_bytes,
                    ResponseFn on_response) = 0;
  virtual void CallWithData(ActorId target, MethodId method, uint64_t app_data,
                            uint32_t payload_bytes, ResponseFn on_response) = 0;

  // One-way call: no response expected, no continuation.
  virtual void CallOneWay(ActorId target, MethodId method, uint32_t payload_bytes) = 0;

  // Completes this call with a response of the given size. Must be called
  // exactly once over the lifetime of the context (possibly from a sub-call
  // continuation).
  virtual void Reply(uint32_t payload_bytes) = 0;

  // Adds data-dependent compute time to the current turn (charged to the
  // worker stage in addition to the CostModel's per-method cost). The extra
  // time extends the turn — the actor stays busy and queued calls wait — but
  // a Reply() already issued in this turn is not delayed by it.
  virtual void AddCompute(SimDuration extra) = 0;
};

// Base class for application actors.
class Actor {
 public:
  virtual ~Actor() = default;

  // Handles one incoming call. `ctx` remains valid until Reply() is invoked;
  // the runtime owns it.
  virtual void OnCall(CallContext& ctx) = 0;
};

using ActorFactory = std::function<std::unique_ptr<Actor>(ActorId)>;

// Declared processing costs for an actor type. The runtime charges
// `handler_compute` (plus any AddCompute) to the worker stage per turn.
struct CostModel {
  SimDuration handler_compute = Micros(30);
};

struct ActorTypeInfo {
  ActorFactory factory;
  CostModel costs;
};

}  // namespace actop

#endif  // SRC_ACTOR_ACTOR_H_
