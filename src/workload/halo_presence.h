// Halo Presence workload (§3 and §6.1).
//
// Presence service for a multi-player game: games and players are actors.
// Per client status request about a player p in game g:
//     client -> p.GetStatus -> g.GetGameStatus -> broadcast Update to the
//     game's 8 players -> 8 replies -> g replies -> p replies -> client,
// i.e. 18 actor-to-actor messages per request, matching the paper.
//
// Session dynamics (§6.1, durations time-scaled by `time_scale`):
//   * idle players sit in a matchmaking pool; 8 random players start a game;
//   * game duration uniform in [20, 30] minutes;
//   * a player plays 3–5 games, then leaves and is replaced by a fresh
//     arrival (keeping the concurrent-player population at the target);
//   * the resulting communication-graph churn is ~1% of edges per scaled
//     minute, the paper's figure.
//
// Matchmaking runs on a driver node (DirectClient) issuing StartGame /
// EndGame calls; the game actor then calls SetGame on each member, so all
// membership changes flow through real messages and are visible to the
// edge monitor.

#ifndef SRC_WORKLOAD_HALO_PRESENCE_H_
#define SRC_WORKLOAD_HALO_PRESENCE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "src/common/flat_hash_map.h"
#include "src/common/ids.h"
#include "src/common/rng.h"
#include "src/common/slab.h"
#include "src/runtime/client.h"
#include "src/runtime/cluster.h"

namespace actop {

inline constexpr ActorType kPlayerActorType = 3;
inline constexpr ActorType kGameActorType = 4;

// Player methods.
inline constexpr MethodId kGetStatus = 0;   // client entry point
inline constexpr MethodId kSetGame = 1;     // game -> player (app_data = game id or 0)
inline constexpr MethodId kUpdate = 2;      // game -> player broadcast
// Game methods.
inline constexpr MethodId kGameStatus = 0;  // player -> game
inline constexpr MethodId kStartGame = 1;   // driver -> game
inline constexpr MethodId kEndGame = 2;     // driver -> game

struct HaloWorkloadConfig {
  int target_players = 10000;   // paper: 100K (scaled default: 10K)
  // Paper durations are 20-30 min games; time_scale compresses them (0.04 ->
  // 48-72 s) while preserving the ratio of graph churn to the partitioner's
  // scaled exchange period (paper: ~25 exchange periods per game).
  double time_scale = 0.04;
  // Idle pool target (paper: 1000 of 100K = 1%).
  int idle_pool_target = 100;

  double request_rate = 3000.0;  // client status requests per second
  uint32_t request_bytes = 256;
  uint32_t status_bytes = 400;   // game status payloads
  uint32_t update_bytes = 300;   // broadcast payloads

  SimDuration client_timeout = Seconds(10);
  // When true, matchmaking runs normally but the status-request pool is
  // never self-started: arrivals come through ClientPool::Inject from an
  // external open-loop driver (src/load/).
  bool external_clients = false;
  uint64_t seed = 31;
};

// Shared state between the driver and the actors (matchmaking table).
//
// Under the sharded engine the driver (shard 0) inserts rosters while game
// actors on other shards read and erase them, so the roster table is only
// reachable through the mutex-guarded helpers; the counters are relaxed
// atomics (bumped from actor turns on any shard, read only after a drain).
// Serial runs take the same code path — the mutex is uncontended.
struct HaloState {
  // Installs the roster for `key` (driver, before StartGame). Game keys are
  // monotone and never reused.
  void PutRoster(uint64_t key, const std::vector<ActorId>& members);
  // Copies the roster for `key` into `out`; the entry must exist.
  void ReadRoster(uint64_t key, std::vector<ActorId>* out) const;
  // Copies the roster for `key` into `out` and erases the entry.
  void TakeRoster(uint64_t key, std::vector<ActorId>* out);

  std::atomic<uint64_t> broadcasts{0};  // completed game broadcasts (test oracle)
  std::atomic<uint64_t> updates{0};     // player Update turns executed

 private:
  // Rosters live in a Slab of recycled slots — each slot keeps its member
  // vector's buffer across the games it hosts, so the continuous game churn
  // allocates nothing at steady state — indexed by an open-addressing map.
  // The table is never iterated; at Halo scale it holds ~players/8 entries.
  mutable std::mutex mu_;
  Slab<std::vector<ActorId>> rosters_;
  FlatHashMap<uint64_t, uint32_t> roster_index_;
};

class HaloWorkload {
 public:
  HaloWorkload(Cluster* cluster, HaloWorkloadConfig config);
  ~HaloWorkload();

  // Populates the initial player base and begins matchmaking + client load.
  void Start();
  void Stop();

  ClientPool& clients() { return clients_; }
  const HaloState& state() const { return *state_; }

  int64_t concurrent_players() const { return static_cast<int64_t>(players_.size()); }
  int64_t active_games() const { return active_games_; }
  uint64_t games_started() const { return games_started_; }
  uint64_t players_departed() const { return players_departed_; }

 private:
  static constexpr uint32_t kNoSlot = 0xFFFFFFFFu;

  // One flat record per live player: remaining games plus the player's slot
  // in in_game_players_ (kNoSlot while idle) — replaces the two node maps
  // (player info + in-game index) this table used to span, halving both the
  // per-player footprint and the lookups per membership change.
  struct PlayerRec {
    int32_t games_left = 0;
    uint32_t slot = kNoSlot;
  };

  void AddNewPlayer();
  void TryFormGames();
  void StartGame(const std::vector<ActorId>& members);
  void FinishGame(uint64_t game_key);
  SimDuration ScaledUniform(SimDuration lo, SimDuration hi);
  bool PickTarget(Rng& rng, ActorId* target, MethodId* method);

  Cluster* cluster_;
  HaloWorkloadConfig config_;
  Rng rng_;
  std::shared_ptr<HaloState> state_;
  ClientPool clients_;
  DirectClient driver_;

  FlatHashMap<ActorId, PlayerRec> players_;  // all live players
  std::vector<ActorId> idle_pool_;
  std::vector<ActorId> in_game_players_;  // sampled by the client target fn
  // Scratch rosters reused across games: TryFormGames assembles the next
  // game's members here, FinishGame copies the ending game's roster out of
  // state_->rosters here (the roster entry itself is erased later, by the
  // game actor's EndGame turn).
  std::vector<ActorId> members_scratch_;
  std::vector<ActorId> finish_scratch_;
  bool started_clients_ = false;
  bool first_generation_ = true;
  uint64_t next_player_key_ = 1;
  uint64_t next_game_key_ = 1;
  int64_t active_games_ = 0;
  uint64_t games_started_ = 0;
  uint64_t players_departed_ = 0;
  bool running_ = false;
};

}  // namespace actop

#endif  // SRC_WORKLOAD_HALO_PRESENCE_H_
