#include "src/testing/chaos.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "src/common/check.h"

namespace actop {

namespace {

constexpr SimDuration kTick = Millis(50);         // fault tick and rail sweep period
constexpr SimDuration kMaxExtraDelay = Millis(20);  // per delayed message
constexpr size_t kMaxRecordedViolations = 16;
constexpr size_t kMaxRecordedSchedule = 512;

}  // namespace

ChaosController::ChaosController(ShardedEngine* engine, Cluster* cluster, ChaosConfig config)
    : sim_(&engine->sim()),
      engine_(engine),
      cluster_(cluster),
      config_(config),
      tick_rng_(SplitMix64(config.seed)),
      message_rng_(SplitMix64(config.seed ^ 0x6368616f732d6d73ULL)),  // "chaos-ms"
      checker_(cluster) {
  ACTOP_CHECK(config_.faults_start <= config_.faults_end);
  if (engine_->parallel()) {
    // One counter-based stream per shard, all keyed by the same legacy
    // message-stream constant: decisions depend only on each shard's own
    // message order, never on another shard's draw count.
    message_lanes_.reserve(static_cast<size_t>(engine_->shards()));
    for (int s = 0; s < engine_->shards(); s++) {
      message_lanes_.emplace_back(config.seed ^ 0x6368616f732d6d73ULL,
                                  static_cast<uint64_t>(s));
    }
  }
}

ChaosController::~ChaosController() {
  if (started_) {
    Stop();
  }
}

void ChaosController::Start() {
  ACTOP_CHECK(!started_);
  started_ = true;
  cluster_->network().set_fault_injector(
      [this](NodeId from, NodeId to, uint32_t bytes, int src_shard, SimTime now) {
        return OnMessage(from, to, bytes, src_shard, now);
      });
  // Faults ride the rail: every rail task sees all shards advanced to its
  // cut time, so cluster-global mutations (crash, churn, migrate) are
  // race-free by construction.
  const SimTime first = std::max(sim_->now(), config_.faults_start);
  if (config_.duplication_bug_actor != kNoActor) {
    engine_->ScheduleRailAt(first, [this] { InjectDuplicationBug(); });
  }
  tick_rail_ = engine_->ScheduleRailAt(first, [this] { Tick(); });
  if (config_.check_every_events == 0) {
    return;
  }
  if (!parallel()) {
    sim_->set_after_event_hook([this] {
      if (++events_seen_ % config_.check_every_events == 0) {
        RecordViolations(checker_.CheckInstant());
      }
    });
    return;
  }
  check_rail_ = engine_->ScheduleRailAt(sim_->now() + kTick, [this] { RailCheck(); });
}

void ChaosController::Stop() {
  ACTOP_CHECK(started_);
  started_ = false;
  cluster_->network().set_fault_injector(nullptr);
  engine_->CancelRail(tick_rail_);
  engine_->CancelRail(check_rail_);
  if (!parallel()) {
    sim_->set_after_event_hook(nullptr);
  }
}

void ChaosController::RailCheck() {
  if (!started_) {
    return;
  }
  RecordViolations(checker_.CheckInstant());
  check_rail_ = engine_->ScheduleRailAt(sim_->now() + kTick, [this] { RailCheck(); });
}

void ChaosController::Tick() {
  if (!started_ || sim_->now() >= config_.faults_end) {
    return;
  }
  const int n = cluster_->num_servers();

  if (config_.crash_prob > 0.0 && tick_rng_.NextBool(config_.crash_prob)) {
    const auto victim = static_cast<ServerId>(tick_rng_.NextBounded(static_cast<uint64_t>(n)));
    cluster_->CrashServer(victim);
    crashes_++;
    Record("crash server " + std::to_string(victim));
  }

  if (config_.directory_churn_prob > 0.0 && tick_rng_.NextBool(config_.directory_churn_prob)) {
    const auto shard = static_cast<ServerId>(tick_rng_.NextBounded(static_cast<uint64_t>(n)));
    const int churned = cluster_->ChurnDirectoryShard(shard);
    shard_churns_++;
    Record("churn directory shard " + std::to_string(shard) + " (" + std::to_string(churned) +
           " actors)");
  }

  for (int i = 0; i < config_.forced_migrations_per_tick && n > 1; i++) {
    const auto src = static_cast<ServerId>(tick_rng_.NextBounded(static_cast<uint64_t>(n)));
    // Sort: unordered_map iteration order must not leak into the schedule.
    std::vector<ActorId> actors = cluster_->server(src).ActiveActors();
    std::sort(actors.begin(), actors.end());
    if (actors.empty()) {
      continue;
    }
    const ActorId actor = actors[tick_rng_.NextBounded(actors.size())];
    auto dest = static_cast<ServerId>(tick_rng_.NextBounded(static_cast<uint64_t>(n - 1)));
    if (dest >= src) {
      dest++;
    }
    if (cluster_->server(src).MigrateActor(actor, dest)) {
      forced_migrations_++;
      Record("migrate actor " + std::to_string(actor) + ": " + std::to_string(src) + " -> " +
             std::to_string(dest));
    }
  }

  tick_rail_ = engine_->ScheduleRailAt(sim_->now() + kTick, [this] { Tick(); });
}

void ChaosController::InjectDuplicationBug() {
  const int n = cluster_->num_servers();
  if (!started_ || n < 2) {
    return;
  }
  const auto first = static_cast<ServerId>(tick_rng_.NextBounded(static_cast<uint64_t>(n)));
  auto second = static_cast<ServerId>(tick_rng_.NextBounded(static_cast<uint64_t>(n - 1)));
  if (second >= first) {
    second++;
  }
  cluster_->server(first).ForceActivateForTest(config_.duplication_bug_actor);
  cluster_->server(second).ForceActivateForTest(config_.duplication_bug_actor);
  Record("BUG DEMO: force-activated actor " + std::to_string(config_.duplication_bug_actor) +
         " on servers " + std::to_string(first) + " and " + std::to_string(second));
}

void ChaosController::Record(std::string what) {
  if (schedule_.size() < kMaxRecordedSchedule) {
    schedule_.push_back(ChaosEvent{sim_->now(), std::move(what)});
  }
}

void ChaosController::RecordViolations(const std::vector<std::string>& found) {
  total_violations_ += found.size();
  for (const std::string& v : found) {
    if (violations_.size() >= kMaxRecordedViolations) {
      break;
    }
    violations_.push_back("[t=" + std::to_string(sim_->now() / Millis(1)) + "ms] " + v);
  }
}

FaultDecision ChaosController::OnMessage(NodeId from, NodeId to, uint32_t bytes, int src_shard,
                                         SimTime now) {
  (void)bytes;
  FaultDecision decision;
  if (now < config_.faults_start || now >= config_.faults_end) {
    return decision;
  }
  if (!config_.fault_client_links && (cluster_->ServerOfNode(from) == kNoServer ||
                                      cluster_->ServerOfNode(to) == kNoServer)) {
    return decision;
  }
  if (parallel()) {
    MessageLane& lane = message_lanes_[static_cast<size_t>(src_shard)];
    if (config_.drop_prob > 0.0 && lane.rng.NextBool(config_.drop_prob)) {
      decision.drop = true;
      lane.dropped++;
      return decision;
    }
    if (config_.delay_prob > 0.0 && lane.rng.NextBool(config_.delay_prob)) {
      decision.extra_delay = lane.rng.NextUniformDuration(0, kMaxExtraDelay);
      lane.delayed++;
    }
    return decision;
  }
  if (config_.drop_prob > 0.0 && message_rng_.NextBool(config_.drop_prob)) {
    decision.drop = true;
    dropped_messages_++;
    return decision;
  }
  if (config_.delay_prob > 0.0 && message_rng_.NextBool(config_.delay_prob)) {
    decision.extra_delay = message_rng_.NextUniformDuration(0, kMaxExtraDelay);
    delayed_messages_++;
  }
  return decision;
}

uint64_t ChaosController::dropped_messages() const {
  uint64_t total = dropped_messages_;
  for (const MessageLane& lane : message_lanes_) {
    total += lane.dropped;
  }
  return total;
}

uint64_t ChaosController::delayed_messages() const {
  uint64_t total = delayed_messages_;
  for (const MessageLane& lane : message_lanes_) {
    total += lane.delayed;
  }
  return total;
}

std::string ChaosController::FailureReport(size_t schedule_prefix) const {
  std::ostringstream os;
  os << "chaos seed " << config_.seed << ": " << total_violations_ << " invariant violation(s)";
  if (total_violations_ > 0) {
    os << " (showing " << violations_.size() << ")";
  }
  os << "\n";
  for (const std::string& v : violations_) {
    os << "  " << v << "\n";
  }
  os << "fault schedule prefix (" << std::min(schedule_prefix, schedule_.size()) << " of "
     << schedule_.size() << " recorded):\n";
  for (size_t i = 0; i < schedule_.size() && i < schedule_prefix; i++) {
    os << "  [t=" << schedule_[i].at / Millis(1) << "ms] " << schedule_[i].what << "\n";
  }
  os << "reproduce: rerun this scenario with seed=" << config_.seed
     << " (the schedule replays byte-for-byte)\n";
  return os.str();
}

}  // namespace actop
