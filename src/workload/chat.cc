#include "src/workload/chat.h"

#include <utility>

#include "src/actor/actor.h"
#include "src/common/check.h"
#include "src/workload/fanout_counter.h"

namespace actop {

namespace {

constexpr uint32_t kMessageBytes = 512;
constexpr SimDuration kUserCompute = Micros(25);
constexpr SimDuration kRoomCompute = Micros(35);

class ChatUserActor : public Actor {
 public:
  explicit ChatUserActor(std::shared_ptr<ChatState> state) : state_(std::move(state)) {}

  void OnCall(CallContext& ctx) override {
    switch (ctx.method()) {
      case kPostMessage: {
        if (room_ == kNoActor) {
          ctx.Reply(16);
          return;
        }
        CallContext* call = &ctx;
        ctx.Call(room_, kBroadcast, kMessageBytes, [call, this](const Response&) {
          state_->messages_posted.fetch_add(1, std::memory_order_relaxed);
          call->Reply(32);
        });
        return;
      }
      case kNotify: {
        state_->notifications.fetch_add(1, std::memory_order_relaxed);
        ctx.Reply(16);
        return;
      }
      case kJoinRoom: {
        const uint64_t room_key = ctx.app_data();
        const ActorId new_room =
            room_key == 0 ? kNoActor : MakeActorId(kChatRoomActorType, room_key);
        const ActorId old_room = room_;
        room_ = new_room;
        const uint64_t my_key = ActorKeyOf(ctx.self());
        auto remaining = MakeFanoutCounter((old_room != kNoActor ? 1 : 0) +
                                           (new_room != kNoActor ? 1 : 0));
        if (*remaining == 0) {
          ctx.Reply(16);
          return;
        }
        CallContext* call = &ctx;
        auto step = [call, remaining](const Response&) {
          if (--*remaining == 0) {
            call->Reply(16);
          }
        };
        if (old_room != kNoActor) {
          ctx.Call(old_room, kRemoveMember, 64, step, my_key);
        }
        if (new_room != kNoActor) {
          ctx.Call(new_room, kAddMember, 64, step, my_key);
        }
        return;
      }
      default:
        ctx.Reply(16);
    }
  }

 private:
  std::shared_ptr<ChatState> state_;
  ActorId room_ = kNoActor;
};

class ChatRoomActor : public Actor {
 public:
  explicit ChatRoomActor(std::shared_ptr<ChatState> state) : state_(std::move(state)) {}

  void OnCall(CallContext& ctx) override {
    switch (ctx.method()) {
      case kBroadcast: {
        if (members_.empty()) {
          ctx.Reply(16);
          return;
        }
        // Fan the message out one-way: chat delivery does not block the
        // poster on every member ack.
        for (const ActorId member : members_) {
          if (member != ctx.caller()) {
            ctx.Call(member, kNotify, kMessageBytes);
          }
        }
        ctx.AddCompute(static_cast<SimDuration>(members_.size()) * Micros(2));
        ctx.Reply(32);
        return;
      }
      case kAddMember: {
        members_.push_back(MakeActorId(kChatUserActorType, ctx.app_data()));
        ctx.Reply(16);
        return;
      }
      case kRemoveMember: {
        const ActorId user = MakeActorId(kChatUserActorType, ctx.app_data());
        for (size_t i = 0; i < members_.size(); i++) {
          if (members_[i] == user) {
            members_[i] = members_.back();
            members_.pop_back();
            break;
          }
        }
        ctx.Reply(16);
        return;
      }
      default:
        ctx.Reply(16);
    }
  }

 private:
  std::shared_ptr<ChatState> state_;
  std::vector<ActorId> members_;
};

}  // namespace

ChatWorkload::ChatWorkload(Cluster* cluster, ChatWorkloadConfig config)
    : cluster_(cluster),
      config_(config),
      rng_(config.seed),
      state_(std::make_shared<ChatState>()),
      clients_(cluster,
               ClientConfig{.request_rate = config.message_rate,
                            .request_bytes = kMessageBytes,
                            .timeout = config.client_timeout,
                            .seed = config.seed ^ 0xabc},
               [this](Rng& rng, ActorId* target, MethodId* method) {
                 return PickTarget(rng, target, method);
               }),
      driver_(cluster, config.seed ^ 0xdef) {
  ACTOP_CHECK(cluster != nullptr);
  ACTOP_CHECK(config_.num_rooms >= 1);

  cluster_->RegisterActorType(
      kChatUserActorType,
      [this](ActorId) { return std::make_unique<ChatUserActor>(state_); }, kUserCompute);
  cluster_->RegisterActorType(
      kChatRoomActorType,
      [this](ActorId) { return std::make_unique<ChatRoomActor>(state_); }, kRoomCompute);
}

bool ChatWorkload::PickTarget(Rng& rng, ActorId* target, MethodId* method) {
  *target = MakeActorId(kChatUserActorType,
                        rng.NextBounded(static_cast<uint64_t>(config_.num_users)) + 1);
  *method = kPostMessage;
  return true;
}

void ChatWorkload::Start() {
  ACTOP_CHECK(!running_);
  running_ = true;
  user_room_.assign(static_cast<size_t>(config_.num_users) + 1, 0);
  for (int u = 1; u <= config_.num_users; u++) {
    const uint64_t room =
        rng_.NextBounded(static_cast<uint64_t>(config_.num_rooms)) + 1;
    user_room_[static_cast<size_t>(u)] = room;
    driver_.Call(MakeActorId(kChatUserActorType, static_cast<uint64_t>(u)), kJoinRoom, 64,
                 nullptr, room);
  }
  if (!config_.external_clients) {
    clients_.Start();
  }
  cluster_->sim().SchedulePeriodic(config_.rehome_period, [this] { RehomeSomeUsers(); });
}

void ChatWorkload::Stop() {
  running_ = false;
  clients_.Stop();
}

void ChatWorkload::RehomeSomeUsers() {
  if (!running_) {
    return;
  }
  for (int i = 0; i < config_.rehomes_per_period; i++) {
    const uint64_t user = rng_.NextBounded(static_cast<uint64_t>(config_.num_users)) + 1;
    const uint64_t room = rng_.NextBounded(static_cast<uint64_t>(config_.num_rooms)) + 1;
    user_room_[user] = room;
    driver_.Call(MakeActorId(kChatUserActorType, user), kJoinRoom, 64, nullptr, room);
  }
}

}  // namespace actop
