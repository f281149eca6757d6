#include "src/actor/directory.h"

#include "src/common/check.h"

namespace actop {

DirEntry DirectoryShard::LookupOrRegister(ActorId actor, ServerId suggested_owner) {
  ACTOP_CHECK(suggested_owner != kNoServer);
  if (const DirEntry* entry = entries_.Find(actor)) {
    return *entry;
  }
  DirEntry& entry = entries_.Insert(actor);
  entry = DirEntry{suggested_owner, next_token_++};
  return entry;
}

ServerId DirectoryShard::Lookup(ActorId actor) const {
  const DirEntry* entry = entries_.Find(actor);
  return entry == nullptr ? kNoServer : entry->owner;
}

void DirectoryShard::Unregister(ActorId actor, ServerId owner, uint64_t token) {
  const DirEntry* entry = entries_.Find(actor);
  if (entry != nullptr && entry->owner == owner && (token == 0 || entry->token == token)) {
    entries_.Erase(actor);
  }
}

int DirectoryShard::EvictServer(ServerId server) {
  return static_cast<int>(
      entries_.EraseIf([server](ActorId, const DirEntry& entry) { return entry.owner == server; }));
}

}  // namespace actop
