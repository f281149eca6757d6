// Chat service workload.
//
// The paper's motivating example (§1): every user and chat room is an actor.
// Users post messages to their room; the room fans the message out to all
// members. Rooms churn as users move between them, changing the
// communication graph — the scenario the partitioner is designed for.

#ifndef SRC_WORKLOAD_CHAT_H_
#define SRC_WORKLOAD_CHAT_H_

#include <atomic>
#include <memory>
#include <vector>

#include "src/common/ids.h"
#include "src/common/rng.h"
#include "src/runtime/client.h"
#include "src/runtime/cluster.h"

namespace actop {

inline constexpr ActorType kChatUserActorType = 5;
inline constexpr ActorType kChatRoomActorType = 6;

// User methods.
inline constexpr MethodId kPostMessage = 0;  // client entry: user posts to room
inline constexpr MethodId kNotify = 1;       // room -> user fan-out
inline constexpr MethodId kJoinRoom = 2;     // driver -> user (app_data = room key)
// Room methods.
inline constexpr MethodId kBroadcast = 0;    // user -> room
inline constexpr MethodId kAddMember = 1;    // user -> room (app_data = user id)
inline constexpr MethodId kRemoveMember = 2; // user -> room (app_data = user id)

struct ChatWorkloadConfig {
  int num_users = 2000;
  int num_rooms = 100;
  double message_rate = 500.0;       // posts per second, cluster-wide
  SimDuration rehome_period = Seconds(2);  // how often some user switches room
  int rehomes_per_period = 5;
  SimDuration client_timeout = Seconds(10);
  // When true, Start() builds the rooms but leaves arrival generation to an
  // external open-loop driver via ClientPool::Inject (src/load/).
  bool external_clients = false;
  uint64_t seed = 41;
};

// Actor-side counters. Atomic (relaxed): under the sharded engine these are
// bumped concurrently from whichever shards host the user/room actors; the
// totals are only read after the run drains, so relaxed is sufficient.
struct ChatState {
  std::atomic<uint64_t> messages_posted{0};
  std::atomic<uint64_t> notifications{0};
};

class ChatWorkload {
 public:
  ChatWorkload(Cluster* cluster, ChatWorkloadConfig config);

  // Assigns users to rooms and starts posting + churn.
  void Start();
  void Stop();

  ClientPool& clients() { return clients_; }
  const ChatState& state() const { return *state_; }

 private:
  void RehomeSomeUsers();
  bool PickTarget(Rng& rng, ActorId* target, MethodId* method);

  Cluster* cluster_;
  ChatWorkloadConfig config_;
  Rng rng_;
  std::shared_ptr<ChatState> state_;
  ClientPool clients_;
  DirectClient driver_;
  std::vector<uint64_t> user_room_;  // user index -> room key
  bool running_ = false;
};

}  // namespace actop

#endif  // SRC_WORKLOAD_CHAT_H_
