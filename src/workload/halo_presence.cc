#include "src/workload/halo_presence.h"

#include <algorithm>
#include <utility>

#include "src/actor/actor.h"
#include "src/common/check.h"
#include "src/workload/fanout_counter.h"

namespace actop {

namespace {

// The §6.1 session model: 8-player games lasting 20-30 minutes (before
// time_scale), 3-5 games per player.
constexpr int kPlayersPerGame = 8;
constexpr SimDuration kGameDurationMin = Minutes(20);
constexpr SimDuration kGameDurationMax = Minutes(30);
constexpr int kMinGamesPerPlayer = 3;
constexpr int kMaxGamesPerPlayer = 5;
constexpr SimDuration kPlayerCompute = Micros(30);
constexpr SimDuration kGameCompute = Micros(40);

// A player: knows its current game; answers status queries by asking the
// game, and answers the game's broadcast updates directly.
class PlayerActor : public Actor {
 public:
  PlayerActor(ActorId id, std::shared_ptr<HaloState> state, const HaloWorkloadConfig* config)
      : id_(id), state_(std::move(state)), config_(config) {}

  void OnCall(CallContext& ctx) override {
    switch (ctx.method()) {
      case kGetStatus: {
        if (current_game_ == kNoActor) {
          ctx.Reply(64);  // idle player: no game to consult
          return;
        }
        // Capture the context by raw call through the runtime-held pointer;
        // the runtime keeps the context alive until Reply.
        CallContext* call = &ctx;
        ctx.Call(current_game_, kGameStatus, config_->request_bytes,
                 [call, this](const Response& response) {
                   call->Reply(response.failed ? 16 : config_->status_bytes);
                 });
        return;
      }
      case kSetGame: {
        const uint64_t game_key = ctx.app_data();
        current_game_ =
            game_key == 0 ? kNoActor : MakeActorId(kGameActorType, game_key);
        ctx.Reply(16);
        return;
      }
      case kUpdate: {
        state_->updates.fetch_add(1, std::memory_order_relaxed);
        ctx.Reply(32);
        return;
      }
      default:
        ctx.Reply(16);
    }
  }

  ActorId current_game() const { return current_game_; }

 private:
  ActorId id_;
  std::shared_ptr<HaloState> state_;
  const HaloWorkloadConfig* config_;
  ActorId current_game_ = kNoActor;
};

// A game: holds the member roster; fans status requests out to all members
// and replies after every member responded (the 1 + 8 + 8 + 1 pattern).
class GameActor : public Actor {
 public:
  GameActor(ActorId id, std::shared_ptr<HaloState> state, const HaloWorkloadConfig* config)
      : id_(id), state_(std::move(state)), config_(config) {}

  void OnCall(CallContext& ctx) override {
    switch (ctx.method()) {
      case kGameStatus: {
        if (members_.empty()) {
          ctx.Reply(config_->status_bytes);
          return;
        }
        auto remaining = MakeFanoutCounter(static_cast<int>(members_.size()));
        CallContext* call = &ctx;
        for (const ActorId member : members_) {
          ctx.Call(member, kUpdate, config_->update_bytes,
                   [call, remaining, this](const Response&) {
                     if (--*remaining == 0) {
                       state_->broadcasts.fetch_add(1, std::memory_order_relaxed);
                       call->Reply(config_->status_bytes);
                     }
                   });
        }
        return;
      }
      case kStartGame: {
        const uint64_t game_key = ActorKeyOf(ctx.self());
        state_->ReadRoster(game_key, &members_);
        auto remaining = MakeFanoutCounter(static_cast<int>(members_.size()));
        CallContext* call = &ctx;
        for (const ActorId member : members_) {
          ctx.Call(
              member, kSetGame, 64,
              [call, remaining](const Response&) {
                if (--*remaining == 0) {
                  call->Reply(16);
                }
              },
              game_key);
        }
        return;
      }
      case kEndGame: {
        if (members_.empty()) {
          ctx.Reply(16);
          return;
        }
        auto remaining = MakeFanoutCounter(static_cast<int>(members_.size()));
        members_.clear();
        const uint64_t game_key = ActorKeyOf(ctx.self());
        state_->TakeRoster(game_key, &roster_scratch_);
        CallContext* call = &ctx;
        for (const ActorId member : roster_scratch_) {
          ctx.Call(member, kSetGame, 64, [call, remaining](const Response&) {
            if (--*remaining == 0) {
              call->Reply(16);
            }
          });
        }
        return;
      }
      default:
        ctx.Reply(16);
    }
  }

 private:
  ActorId id_;
  std::shared_ptr<HaloState> state_;
  const HaloWorkloadConfig* config_;
  std::vector<ActorId> members_;
  // EndGame fan-out target list, reused across games hosted by this actor.
  std::vector<ActorId> roster_scratch_;
};

}  // namespace

void HaloState::PutRoster(uint64_t key, const std::vector<ActorId>& members) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint32_t slot = rosters_.Alloc();
  rosters_[slot].assign(members.begin(), members.end());
  roster_index_.Insert(key, slot);
}

void HaloState::ReadRoster(uint64_t key, std::vector<ActorId>* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  const uint32_t* slot = roster_index_.Find(key);
  ACTOP_CHECK(slot != nullptr);
  const std::vector<ActorId>& roster = rosters_[*slot];
  out->assign(roster.begin(), roster.end());
}

void HaloState::TakeRoster(uint64_t key, std::vector<ActorId>* out) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint32_t* found = roster_index_.Find(key);
  ACTOP_CHECK(found != nullptr);
  const uint32_t slot = *found;
  // Swap instead of move: the caller's old buffer stays with the slot, so
  // both sides of the take recycle their storage.
  std::swap(*out, rosters_[slot]);
  rosters_[slot].clear();
  rosters_.Free(slot);
  roster_index_.Erase(key);
}

HaloWorkload::HaloWorkload(Cluster* cluster, HaloWorkloadConfig config)
    : cluster_(cluster),
      config_(config),
      rng_(config.seed),
      state_(std::make_shared<HaloState>()),
      clients_(cluster,
               ClientConfig{.request_rate = config.request_rate,
                            .request_bytes = config.request_bytes,
                            .timeout = config.client_timeout,
                            .seed = config.seed ^ 0x1234},
               [this](Rng& rng, ActorId* target, MethodId* method) {
                 return PickTarget(rng, target, method);
               }),
      driver_(cluster, config.seed ^ 0x5678) {
  ACTOP_CHECK(cluster != nullptr);
  cluster_->RegisterActorType(
      kPlayerActorType,
      [this](ActorId id) { return std::make_unique<PlayerActor>(id, state_, &config_); },
      kPlayerCompute);
  cluster_->RegisterActorType(
      kGameActorType,
      [this](ActorId id) { return std::make_unique<GameActor>(id, state_, &config_); },
      kGameCompute);
}

HaloWorkload::~HaloWorkload() = default;

bool HaloWorkload::PickTarget(Rng& rng, ActorId* target, MethodId* method) {
  if (in_game_players_.empty()) {
    return false;
  }
  *target = in_game_players_[rng.NextBounded(in_game_players_.size())];
  *method = kGetStatus;
  return true;
}

SimDuration HaloWorkload::ScaledUniform(SimDuration lo, SimDuration hi) {
  const SimDuration raw = rng_.NextUniformDuration(lo, hi);
  return static_cast<SimDuration>(static_cast<double>(raw) * config_.time_scale);
}

void HaloWorkload::AddNewPlayer() {
  const ActorId player = MakeActorId(kPlayerActorType, next_player_key_++);
  PlayerRec rec;
  rec.games_left =
      static_cast<int32_t>(rng_.NextInt(kMinGamesPerPlayer, kMaxGamesPerPlayer));
  players_.Insert(player, rec);
  idle_pool_.push_back(player);
}

void HaloWorkload::Start() {
  ACTOP_CHECK(!running_);
  running_ = true;
  // Size the player tables up front: at Halo scale (10M players) letting the
  // map grow by doubling would briefly hold two copies of a multi-hundred-MB
  // table and copy every record log(n) times during the fill below.
  players_.Reserve(static_cast<size_t>(config_.target_players));
  idle_pool_.reserve(static_cast<size_t>(config_.target_players));
  in_game_players_.reserve(static_cast<size_t>(config_.target_players));
  for (int i = 0; i < config_.target_players; i++) {
    AddNewPlayer();
  }
  TryFormGames();
  first_generation_ = false;
}

void HaloWorkload::Stop() {
  running_ = false;
  clients_.Stop();
}

void HaloWorkload::TryFormGames() {
  if (!running_) {
    return;
  }
  // Keep roughly idle_pool_target players waiting; everyone else plays.
  while (static_cast<int>(idle_pool_.size()) >=
         std::max(kPlayersPerGame, config_.idle_pool_target)) {
    members_scratch_.clear();
    members_scratch_.reserve(static_cast<size_t>(kPlayersPerGame));
    for (int i = 0; i < kPlayersPerGame; i++) {
      const size_t pick = idle_pool_.size() == 1
                              ? 0
                              : static_cast<size_t>(rng_.NextBounded(idle_pool_.size()));
      members_scratch_.push_back(idle_pool_[pick]);
      idle_pool_[pick] = idle_pool_.back();
      idle_pool_.pop_back();
    }
    StartGame(members_scratch_);
  }
  // Start the client load once the first games exist.
  if (!in_game_players_.empty() && !started_clients_ && !config_.external_clients) {
    started_clients_ = true;
    clients_.Start();
  }
}

void HaloWorkload::StartGame(const std::vector<ActorId>& members) {
  const uint64_t game_key = next_game_key_++;
  const ActorId game = MakeActorId(kGameActorType, game_key);
  state_->PutRoster(game_key, members);
  for (const ActorId member : members) {
    PlayerRec* rec = players_.Find(member);
    ACTOP_CHECK(rec != nullptr);
    rec->slot = static_cast<uint32_t>(in_game_players_.size());
    in_game_players_.push_back(member);
  }
  active_games_++;
  games_started_++;
  driver_.Call(game, kStartGame, 256, nullptr, game_key);
  SimDuration duration = ScaledUniform(kGameDurationMin, kGameDurationMax);
  if (first_generation_) {
    // The initial population joins a system already in operation: treat the
    // first generation of games as being at a uniformly random point of
    // their lifetime, so game endings are desynchronized from the start.
    duration = rng_.NextUniformDuration(Seconds(1), std::max<SimDuration>(duration, Seconds(2)));
  }
  // The timer re-reads the roster from state_->rosters at game end instead
  // of owning a copy: the entry is immutable between here and the EndGame
  // turn that erases it, and a [this, game_key] capture stays inline in the
  // event engine.
  cluster_->sim().ScheduleAfter(duration, [this, game_key] { FinishGame(game_key); });
}

void HaloWorkload::FinishGame(uint64_t game_key) {
  if (!running_) {
    return;
  }
  // Copy the roster into reused scratch before issuing EndGame: the game
  // actor's EndGame turn (asynchronous, after this frame) erases the entry.
  state_->ReadRoster(game_key, &finish_scratch_);
  const ActorId game = MakeActorId(kGameActorType, game_key);
  driver_.Call(game, kEndGame, 128, nullptr, game_key);
  active_games_--;
  for (const ActorId member : finish_scratch_) {
    PlayerRec* rec = players_.Find(member);
    ACTOP_CHECK(rec != nullptr);
    // Remove from the in-game sampling vector (swap-remove via the record's
    // slot; when member IS the last element the final store below wins).
    if (rec->slot != kNoSlot) {
      const uint32_t idx = rec->slot;
      const ActorId moved = in_game_players_.back();
      in_game_players_[idx] = moved;
      in_game_players_.pop_back();
      players_.Find(moved)->slot = idx;
      rec->slot = kNoSlot;
    }
    rec->games_left--;
    if (rec->games_left <= 0) {
      // Departure + replacement arrival keeps the population at target.
      // (AddNewPlayer inserts, which may rehash — rec is dead past here.)
      players_.Erase(member);
      players_departed_++;
      AddNewPlayer();
    } else {
      idle_pool_.push_back(member);
    }
  }
  TryFormGames();
}

}  // namespace actop
