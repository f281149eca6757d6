// Distributed placement directory (one shard per server).
//
// As in Orleans, each actor has a "home" server chosen by hashing its id; the
// home's directory shard is the authority on where the actor is activated.
// Registration is first-writer-wins: concurrent activation races resolve to
// a single owner. The shard itself is plain data + logic; the Server wires
// it to control messages.
//
// Every registration carries a shard-local monotone token. Unregisters quote
// the token of the registration they intend to remove, so an unregister
// delayed in the network cannot erase a newer registration that happens to
// name the same owner (deactivate -> re-activate at the same server -> stale
// unregister arrives). Token 0 is a wildcard that matches any registration
// by the right owner (legacy callers and crash-path eviction).
//
// Layout: registrations live in a SlabMap (src/common/slab_map.h) — dense
// slots recycled through a free list, indexed by a FlatHashMap. At Halo
// scale (10M actors over 1000 shards) this replaces one heap node + bucket
// pointer chase per actor with ~25 flat bytes per entry. Consumers that
// need to walk the shard (chaos directory churn, invariant sweeps) use
// ForEach, which visits slots in slot-index order — a pure function of the
// shard's registration/unregistration history, so walks stay deterministic
// without depending on hash-table layout.

#ifndef SRC_ACTOR_DIRECTORY_H_
#define SRC_ACTOR_DIRECTORY_H_

#include <cstddef>
#include <cstdint>

#include "src/common/ids.h"
#include "src/common/rng.h"
#include "src/common/slab_map.h"

namespace actop {

// Home shard for an actor id given the cluster size.
constexpr ServerId DirectoryHomeOf(ActorId actor, int num_servers) {
  return static_cast<ServerId>(SplitMix64(actor) % static_cast<uint64_t>(num_servers));
}

// A registration: which server owns the activation, fenced by the token the
// shard minted when the entry was created.
struct DirEntry {
  ServerId owner = kNoServer;
  uint64_t token = 0;
};

class DirectoryShard {
 public:
  // Returns the current registration; if the actor is unregistered,
  // registers `suggested_owner` under a fresh token and returns that
  // (first-writer-wins semantics).
  DirEntry LookupOrRegister(ActorId actor, ServerId suggested_owner);

  // Returns the current owner, or kNoServer.
  ServerId Lookup(ActorId actor) const;

  // Removes the entry if it still points at `owner` AND carries `token`
  // (a stale unregister from a previous registration must not evict a newer
  // one). token == 0 matches any token of the right owner.
  void Unregister(ActorId actor, ServerId owner, uint64_t token = 0);

  // Removes every entry owned by `server` (membership change / crash).
  // Returns how many entries were evicted.
  int EvictServer(ServerId server);

  size_t size() const { return entries_.size(); }

  // Visits every registration as fn(ActorId, const DirEntry&) in slot-index
  // order. Deterministic: the order is a function of the shard's
  // registration history, never of hash layout — the chaos harness's
  // directory-churn fault deactivates actors in this walk order, so it must
  // replay identically for a fixed seed.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    entries_.ForEach(fn);
  }

 private:
  SlabMap<ActorId, DirEntry> entries_;
  uint64_t next_token_ = 1;
};

}  // namespace actop

#endif  // SRC_ACTOR_DIRECTORY_H_
