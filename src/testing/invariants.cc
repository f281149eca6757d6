#include "src/testing/invariants.h"

#include <algorithm>
#include <limits>
#include <sstream>
#include <utility>

#include "src/actor/directory.h"
#include "src/common/check.h"
#include "src/runtime/cluster.h"

namespace actop {

int64_t ActivationSpread(Cluster& cluster) {
  int64_t lo = std::numeric_limits<int64_t>::max();
  int64_t hi = 0;
  for (int s = 0; s < cluster.num_servers(); s++) {
    const int64_t n = cluster.server(s).num_activations();
    lo = std::min(lo, n);
    hi = std::max(hi, n);
  }
  return cluster.num_servers() == 0 ? 0 : hi - lo;
}

InvariantChecker::InvariantChecker(Cluster* cluster) : cluster_(cluster) {
  ACTOP_CHECK(cluster != nullptr);
}

std::vector<std::string> InvariantChecker::CheckInstant() {
  checks_run_++;
  std::vector<std::string> violations;
  const int n = cluster_->num_servers();

  // (a) at most one live activation per actor, reported in ascending actor
  // order (servers ascending within an actor).
  std::vector<std::pair<ActorId, ServerId>> hosts;
  for (int s = 0; s < n; s++) {
    for (ActorId actor : cluster_->server(s).ActiveActors()) {
      hosts.emplace_back(actor, static_cast<ServerId>(s));
    }
  }
  std::sort(hosts.begin(), hosts.end());
  for (size_t i = 0, j = 0; i < hosts.size(); i = j) {
    while (j < hosts.size() && hosts[j].first == hosts[i].first) {
      j++;
    }
    if (j - i > 1) {
      std::ostringstream os;
      os << "duplicate activation: actor " << hosts[i].first << " live on servers";
      for (size_t k = i; k < j; k++) {
        os << ' ' << hosts[k].second;
      }
      violations.push_back(os.str());
    }
  }

  for (int s = 0; s < n; s++) {
    Server& server = cluster_->server(s);
    // (c) directory structure: entries live in the actor's home shard and
    // point into the live server set.
    server.directory_shard().ForEach([&](ActorId actor, const DirEntry& entry) {
      if (entry.owner < 0 || entry.owner >= static_cast<ServerId>(n)) {
        std::ostringstream os;
        os << "directory entry out of range: actor " << actor << " -> server " << entry.owner
           << " (shard " << s << ")";
        violations.push_back(os.str());
      }
      if (DirectoryHomeOf(actor, n) != static_cast<ServerId>(s)) {
        std::ostringstream os;
        os << "directory entry on wrong shard: actor " << actor << " found on shard " << s
           << ", home is " << DirectoryHomeOf(actor, n);
        violations.push_back(os.str());
      }
    });
    // (c) caches: a stale entry is only *detectably* stale if it points at a
    // reachable server (the miss there re-consults the directory).
    server.location_cache().ForEach([&](ActorId actor, ServerId loc) {
      if (loc < 0 || loc >= static_cast<ServerId>(n)) {
        std::ostringstream os;
        os << "location-cache entry out of range: actor " << actor << " -> server " << loc
           << " (cache of server " << s << ")";
        violations.push_back(os.str());
      }
    });
  }
  return violations;
}

std::vector<std::string> InvariantChecker::CheckQuiescent() {
  std::vector<std::string> violations = CheckInstant();
  const int n = cluster_->num_servers();
  // With no unregister/migration control messages in flight, every live
  // activation must be registered at its host: a lost registration would let
  // the next remote call activate the actor a second time elsewhere.
  for (int s = 0; s < n; s++) {
    for (ActorId actor : cluster_->server(s).ActiveActors()) {
      const ServerId home = DirectoryHomeOf(actor, n);
      const ServerId owner = cluster_->server(home).directory_shard().Lookup(actor);
      if (owner != static_cast<ServerId>(s)) {
        std::ostringstream os;
        os << "directory incoherence: actor " << actor << " active on server " << s
           << " but home shard " << home << " has "
           << (owner == kNoServer ? std::string("no entry") : "owner " + std::to_string(owner));
        violations.push_back(os.str());
      }
    }
  }
  return violations;
}

std::vector<std::string> InvariantChecker::CheckBalance(int64_t delta, int64_t slack) {
  checks_run_++;
  std::vector<std::string> violations;
  const int64_t spread = ActivationSpread(*cluster_);
  if (spread > delta + slack) {
    std::ostringstream os;
    os << "balance violated: activation spread " << spread << " > delta " << delta << " + slack "
       << slack;
    violations.push_back(os.str());
  }
  return violations;
}

}  // namespace actop
