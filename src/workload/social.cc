#include "src/workload/social.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/actor/actor.h"
#include "src/common/check.h"

namespace actop {

namespace {

constexpr SimDuration kChurnPeriod = Seconds(2);
constexpr uint32_t kPostBytes = 512;
constexpr SimDuration kHandlerCompute = Micros(25);

class SocialUserActor : public Actor {
 public:
  explicit SocialUserActor(std::shared_ptr<SocialState> state) : state_(std::move(state)) {}

  void OnCall(CallContext& ctx) override {
    switch (ctx.method()) {
      case kPost: {
        state_->posts.fetch_add(1, std::memory_order_relaxed);
        // Write fan-out: one-way deliveries to every follower's timeline.
        for (const ActorId follower : followers_) {
          ctx.Call(follower, kDeliver, kPostBytes);
        }
        ctx.AddCompute(static_cast<SimDuration>(followers_.size()) * Micros(2));
        ctx.Reply(32);
        return;
      }
      case kDeliver: {
        state_->deliveries.fetch_add(1, std::memory_order_relaxed);
        timeline_length_++;
        ctx.Reply(16);
        return;
      }
      case kReadTimeline: {
        state_->reads.fetch_add(1, std::memory_order_relaxed);
        // Response size grows with (capped) timeline length.
        ctx.Reply(128 + 16 * static_cast<uint32_t>(std::min<int64_t>(timeline_length_, 50)));
        return;
      }
      case kFollow: {
        // app_data names the author; the *author* tracks its followers, so
        // this message is sent to the author with the follower in app_data.
        followers_.push_back(MakeActorId(kSocialUserActorType, ctx.app_data()));
        ctx.Reply(16);
        return;
      }
      case kUnfollow: {
        const ActorId follower = MakeActorId(kSocialUserActorType, ctx.app_data());
        for (size_t i = 0; i < followers_.size(); i++) {
          if (followers_[i] == follower) {
            followers_[i] = followers_.back();
            followers_.pop_back();
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
  std::shared_ptr<SocialState> state_;
  std::vector<ActorId> followers_;
  int64_t timeline_length_ = 0;
};

}  // namespace

SocialWorkload::SocialWorkload(Cluster* cluster, SocialWorkloadConfig config)
    : cluster_(cluster),
      config_(config),
      rng_(config.seed),
      state_(std::make_shared<SocialState>()),
      clients_(cluster,
               ClientConfig{.request_rate = config.post_rate + config.read_rate,
                            .request_bytes = kPostBytes,
                            .timeout = config.client_timeout,
                            .seed = config.seed ^ 0x321},
               [this](Rng& rng, ActorId* target, MethodId* method) {
                 return PickTarget(rng, target, method);
               }),
      driver_(cluster, config.seed ^ 0x654) {
  ACTOP_CHECK(cluster != nullptr);
  ACTOP_CHECK(config_.num_users >= 2);
  cluster_->RegisterActorType(
      kSocialUserActorType,
      [this](ActorId) { return std::make_unique<SocialUserActor>(state_); }, kHandlerCompute);
  followers_of_.resize(static_cast<size_t>(config_.num_users) + 1);
}

uint64_t SocialWorkload::SampleAuthorFor(uint64_t user, Rng& rng) const {
  if (config_.communities > 1 && rng.NextDouble() < config_.community_bias) {
    // Within-community pick: communities are contiguous key ranges.
    const uint64_t size =
        (static_cast<uint64_t>(config_.num_users) + config_.communities - 1) /
        static_cast<uint64_t>(config_.communities);
    const uint64_t base = ((user - 1) / size) * size + 1;
    const uint64_t span =
        std::min<uint64_t>(size, static_cast<uint64_t>(config_.num_users) - base + 1);
    return base + rng.NextBounded(span);
  }
  return SampleUser(rng);
}

uint64_t SocialWorkload::SampleUser(Rng& rng) const {
  // Approximate Zipf via inverse-power transform of a uniform draw: user 1
  // is the most popular. skew 0 degenerates to uniform.
  const double u = rng.NextDouble();
  const double n = static_cast<double>(config_.num_users);
  if (config_.zipf_skew <= 0.0) {
    return static_cast<uint64_t>(u * n) + 1;
  }
  const double exponent = 1.0 / (1.0 - std::min(config_.zipf_skew, 0.99));
  const double rank = std::pow(u, exponent) * n;
  return static_cast<uint64_t>(std::clamp(rank, 0.0, n - 1.0)) + 1;
}

bool SocialWorkload::PickTarget(Rng& rng, ActorId* target, MethodId* method) {
  const bool is_post =
      rng.NextDouble() < config_.post_rate / (config_.post_rate + config_.read_rate);
  if (is_post) {
    // Anyone posts (uniform author), the fan-out hits the followers.
    *target = MakeActorId(kSocialUserActorType,
                          rng.NextBounded(static_cast<uint64_t>(config_.num_users)) + 1);
    *method = kPost;
  } else {
    *target = MakeActorId(kSocialUserActorType,
                          rng.NextBounded(static_cast<uint64_t>(config_.num_users)) + 1);
    *method = kReadTimeline;
  }
  return true;
}

void SocialWorkload::Start() {
  ACTOP_CHECK(!running_);
  running_ = true;
  // Build the follower graph: each user follows `mean_following` authors
  // drawn with Zipf preference. The author actor records the follower.
  for (uint64_t user = 1; user <= static_cast<uint64_t>(config_.num_users); user++) {
    for (int i = 0; i < config_.mean_following; i++) {
      const uint64_t author = SampleAuthorFor(user, rng_);
      if (author == user) {
        continue;
      }
      followers_of_[author].push_back(user);
      driver_.Call(MakeActorId(kSocialUserActorType, author), kFollow, 64, nullptr, user);
    }
  }
  if (!config_.external_clients) {
    clients_.Start();
  }
  cluster_->sim().SchedulePeriodic(kChurnPeriod, [this] { Churn(); });
}

void SocialWorkload::Stop() {
  running_ = false;
  clients_.Stop();
}

void SocialWorkload::Churn() {
  if (!running_) {
    return;
  }
  for (int i = 0; i < config_.follows_per_period; i++) {
    const uint64_t user = rng_.NextBounded(static_cast<uint64_t>(config_.num_users)) + 1;
    // Unfollow someone old (if any), follow someone new.
    for (uint64_t author = 1; author <= static_cast<uint64_t>(config_.num_users); author++) {
      auto& flw = followers_of_[author];
      auto it = std::find(flw.begin(), flw.end(), user);
      if (it != flw.end()) {
        *it = flw.back();
        flw.pop_back();
        driver_.Call(MakeActorId(kSocialUserActorType, author), kUnfollow, 64, nullptr, user);
        break;
      }
    }
    const uint64_t author = SampleAuthorFor(user, rng_);
    if (author == user) {
      continue;
    }
    followers_of_[author].push_back(user);
    driver_.Call(MakeActorId(kSocialUserActorType, author), kFollow, 64, nullptr, user);
  }
}

int SocialWorkload::FollowerCount(uint64_t user_key) const {
  return static_cast<int>(followers_of_[user_key].size());
}

const std::vector<uint64_t>& SocialWorkload::FollowersOfUser(uint64_t user_key) const {
  return followers_of_[user_key];
}

}  // namespace actop
