// Application-facing actor programming model.
//
// Applications subclass Actor and register a factory per ActorType with the
// Cluster. The runtime activates actors on demand (virtual actors, as in
// Orleans), delivers one call at a time per activation, and may migrate
// activations between servers transparently.
//
// An actor sees one concrete CallContext per delivered call and issues
// every sub-call through CallContext::Call; clients use the same argument
// shape on DirectClient::Call. Because this runtime simulates time rather
// than executing real work, each type declares its handler compute when it
// is registered (and a handler adds to it per call via
// CallContext::AddCompute) instead of actually burning CPU.

#ifndef SRC_ACTOR_ACTOR_H_
#define SRC_ACTOR_ACTOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>

#include "src/common/ids.h"
#include "src/common/inline_function.h"
#include "src/common/sim_time.h"
#include "src/runtime/envelope_pool.h"

namespace actop {

class Server;

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

// Handle for one in-flight call being processed by an actor. The runtime
// creates one for each delivered call; it holds the call's envelope. The
// actor must eventually Reply() exactly once (possibly after sub-calls
// complete). If the actor's server crashes before the Reply, the context
// stays valid but inert: its calls and its Reply send nothing (a second
// Reply is still a checked failure).
class CallContext {
 public:
  ActorId self() const { return call_->target; }
  MethodId method() const { return call_->method; }
  uint32_t payload_bytes() const { return call_->payload_bytes; }
  uint64_t app_data() const { return call_->app_data; }  // small scalar argument
  ActorId caller() const { return call_->source_actor; }  // kNoActor when called by a client
  SimTime now() const;

  // Issues an asynchronous call to another actor, carrying `app_data` as its
  // scalar argument. The continuation runs as a new turn on this actor's
  // server when the response arrives; without one the call is one-way and
  // no response is sent.
  void Call(ActorId target, MethodId method, uint32_t payload_bytes,
            ResponseFn on_response = nullptr, uint64_t app_data = 0);

  // Completes this call with a response of the given size. Must be called
  // exactly once over the lifetime of the context (possibly from a sub-call
  // continuation).
  void Reply(uint32_t payload_bytes);

  // Adds data-dependent compute time to the current turn (charged to the
  // worker stage in addition to the type's handler_compute). The extra time
  // extends the turn — the actor stays busy and queued calls wait — but a
  // Reply() already issued in this turn is not delayed by it.
  void AddCompute(SimDuration extra);

 private:
  friend class Server;

  CallContext(Server* server, EnvelopePtr call, uint64_t epoch)
      : server_(server), call_(std::move(call)), epoch_(epoch) {}

  // True once the server has crashed since the turn began.
  bool stale() const;

  Server* server_;
  EnvelopePtr call_;
  uint64_t epoch_;  // the server's crash epoch when the turn began
  bool replied_ = false;
  bool retained_ = false;
  SimDuration extra_compute_ = 0;
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

// A registered actor type. The runtime charges `handler_compute` (plus any
// AddCompute) to the worker stage per turn.
struct ActorTypeInfo {
  ActorFactory factory;
  SimDuration handler_compute = 0;
};

}  // namespace actop

#endif  // SRC_ACTOR_ACTOR_H_
