// Pooled, single-owner envelopes.
//
// Every message in the system is one Envelope with exactly one owner at a
// time: an EnvelopePtr, a move-only unique_ptr that is handed from the
// sender through the network, the stage events, mailboxes and parked-call
// lists to whichever handler consumes it. No message is ever shared (fan-out
// sends one envelope per target), so the compiler enforces the ownership
// protocol: a hidden second owner would be a copy, and EnvelopePtr has none.
//
// MakeEnvelope() recycles the Envelope object itself on a retained-object
// free list. When its owner drops it, the envelope is ResetForReuse() —
// scalars back to defaults, control-payload vectors cleared but keeping
// their capacity — and parked for the next MakeEnvelope(). Recycling the
// *object* rather than raw memory is what makes reuse capacity-preserving:
// a destroy-and-reconstruct scheme would free the
// PartitionExchangeRequest/Response vectors on every round trip.
//
// The pool is a function-local thread_local: with one engine shard that is
// the one main-thread pool; with several, each shard worker owns a private
// pool, and an envelope released on a different thread than it was
// created on (a cross-shard message) parks in the releasing thread's pool.
// Pools outlive every simulation object and free their envelopes at thread
// exit. Under AddressSanitizer a parked envelope is poisoned, so any use of
// an envelope after its owner released it is reported.

#ifndef SRC_RUNTIME_ENVELOPE_POOL_H_
#define SRC_RUNTIME_ENVELOPE_POOL_H_

#include <cstddef>
#include <cstdint>
#include <memory>

#include "src/runtime/message.h"

namespace actop {

// EnvelopePtr's deleter: resets the envelope and parks it in the releasing
// thread's pool (or deletes it once the pool is full).
struct EnvelopeRecycler {
  void operator()(Envelope* env) const noexcept;
};

using EnvelopePtr = std::unique_ptr<Envelope, EnvelopeRecycler>;

// Returns a pooled envelope with every field at its default-constructed
// value (fresh construction or ResetForReuse — indistinguishable except for
// retained vector capacity inside the control payload).
EnvelopePtr MakeEnvelope();

// Introspection for tests: lifetime counts of the calling thread's pool.
struct EnvelopePoolStats {
  uint64_t fresh = 0;     // envelopes constructed with operator new
  uint64_t recycled = 0;  // envelopes handed back out from the free list
  size_t cached = 0;      // envelopes currently parked on the free list
};
EnvelopePoolStats GetEnvelopePoolStats();

}  // namespace actop

#endif  // SRC_RUNTIME_ENVELOPE_POOL_H_
