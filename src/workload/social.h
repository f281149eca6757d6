// Social-network workload — the paper's first motivating domain (§1).
//
// Users are actors holding a timeline; following is a directed graph with a
// skewed (Zipf-like) in-degree so a few "celebrity" users have large
// audiences. A post fans out one-way to every follower's timeline actor
// (write fan-out, the TAO/SPAR-style pattern the related-work section
// contrasts with); reads hit the user's own timeline.
//
// The communication graph is star-shaped around high-degree users and
// changes as users follow/unfollow — heavier-tailed than Halo's uniform
// 9-actor cliques, which stresses the partitioner's balance constraint
// (celebrities cannot be co-located with *all* their followers).

#ifndef SRC_WORKLOAD_SOCIAL_H_
#define SRC_WORKLOAD_SOCIAL_H_

#include <atomic>
#include <memory>
#include <vector>

#include "src/common/ids.h"
#include "src/common/rng.h"
#include "src/runtime/client.h"
#include "src/runtime/cluster.h"

namespace actop {

inline constexpr ActorType kSocialUserActorType = 7;

// User methods.
inline constexpr MethodId kPost = 0;          // client entry: publish a post
inline constexpr MethodId kDeliver = 1;       // author -> follower timeline
inline constexpr MethodId kReadTimeline = 2;  // client entry: read
inline constexpr MethodId kFollow = 3;        // driver -> user (app_data = author key)
inline constexpr MethodId kUnfollow = 4;      // driver -> user (app_data = author key)

struct SocialWorkloadConfig {
  int num_users = 2000;
  // Each user follows `mean_following` others; targets are drawn with a
  // skewed preference so in-degree is heavy-tailed.
  int mean_following = 10;
  double zipf_skew = 0.8;        // 0 = uniform, ~1 = strongly skewed
  // Real social graphs are community-structured: users are spread over
  // `communities` groups and follow within their group with probability
  // `community_bias` (the remainder goes to the global Zipf draw). Without
  // this the graph is an expander and no partition can help.
  int communities = 30;
  double community_bias = 0.8;
  double post_rate = 200.0;      // posts per second, cluster-wide
  double read_rate = 800.0;      // timeline reads per second
  int follows_per_period = 10;   // follow/unfollow churn every 2 s
  SimDuration client_timeout = Seconds(10);
  // When true, Start() builds the follower graph but leaves arrival
  // generation to an external open-loop driver via ClientPool::Inject.
  bool external_clients = false;
  uint64_t seed = 77;
};

// Actor-side counters. Atomic (relaxed): under the sharded engine these are
// bumped concurrently from whichever shards host the user actors; the totals
// are only read after the run drains, so relaxed is sufficient.
struct SocialState {
  std::atomic<uint64_t> posts{0};
  std::atomic<uint64_t> deliveries{0};  // timeline writes at followers
  std::atomic<uint64_t> reads{0};
};

class SocialWorkload {
 public:
  SocialWorkload(Cluster* cluster, SocialWorkloadConfig config);

  // Builds the follower graph (via Follow calls) and starts traffic.
  void Start();
  void Stop();

  ClientPool& clients() { return clients_; }
  const SocialState& state() const { return *state_; }

  // In-degree of a user (number of followers), from the driver's bookkeeping.
  int FollowerCount(uint64_t user_key) const;

  // Follower keys of a user, from the driver's mirror (viral-cascade
  // triggers in src/load/ repost through the most-followed users' audiences).
  const std::vector<uint64_t>& FollowersOfUser(uint64_t user_key) const;

  static ActorId UserActor(uint64_t user_key) {
    return MakeActorId(kSocialUserActorType, user_key);
  }

 private:
  uint64_t SampleUser(Rng& rng) const;  // Zipf-skewed global pick
  uint64_t SampleAuthorFor(uint64_t user, Rng& rng) const;  // community-biased
  void Churn();
  bool PickTarget(Rng& rng, ActorId* target, MethodId* method);

  Cluster* cluster_;
  SocialWorkloadConfig config_;
  Rng rng_;
  std::shared_ptr<SocialState> state_;
  ClientPool clients_;
  DirectClient driver_;
  // follower lists mirrored by the driver (authoritative copy lives in the
  // actors; this mirror drives churn decisions only).
  std::vector<std::vector<uint64_t>> followers_of_;
  bool running_ = false;
};

}  // namespace actop

#endif  // SRC_WORKLOAD_SOCIAL_H_
