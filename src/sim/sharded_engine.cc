#include "src/sim/sharded_engine.h"

#include <algorithm>

namespace actop {

namespace {

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

constexpr int kSpinsBeforeYield = 64;

}  // namespace

ShardedEngine::TreeBarrier::TreeBarrier(int n)
    : n_(n), nodes_(std::make_unique<Node[]>(static_cast<size_t>(n))) {
  for (int i = 1; i < n; i++) {
    nodes_[static_cast<size_t>((i - 1) / kFanout)].num_children++;
  }
}

void ShardedEngine::TreeBarrier::Wait(int id) {
  Node& me = nodes_[static_cast<size_t>(id)];
  const uint32_t next = me.sense ^ 1u;
  // Collect the subtree: children release into our counter, we acquire, so
  // their pre-barrier writes are visible before we propagate upward.
  int spins = 0;
  while (me.arrivals.load(std::memory_order_acquire) != me.num_children) {
    if (++spins < kSpinsBeforeYield) {
      CpuRelax();
    } else {
      std::this_thread::yield();
    }
  }
  // Safe to reset before signaling the parent: a child's next-phase arrival
  // is ordered after the root's sense flip, which is ordered after this
  // store (reset -> our fetch_add -> ... -> root's release of sense_).
  me.arrivals.store(0, std::memory_order_relaxed);
  if (id == 0) {
    sense_.store(next, std::memory_order_release);
  } else {
    nodes_[static_cast<size_t>((id - 1) / kFanout)].arrivals.fetch_add(
        1, std::memory_order_acq_rel);
    spins = 0;
    while (sense_.load(std::memory_order_acquire) != next) {
      if (++spins < kSpinsBeforeYield) {
        CpuRelax();
      } else {
        std::this_thread::yield();
      }
    }
  }
  me.sense = next;
}

ShardedEngine::ShardedEngine(ShardedEngineConfig config)
    : config_(config), barrier_(config.shards) {
  ACTOP_CHECK(config_.shards >= 1);
  ACTOP_CHECK(config_.lookahead > 0);
  sims_.reserve(static_cast<size_t>(config_.shards));
  for (int i = 0; i < config_.shards; i++) {
    sims_.push_back(std::make_unique<Simulation>());
  }
  rail_ = sims_[0].get();
  if (parallel()) {
    coordinator_ = std::make_unique<Simulation>();
    rail_ = coordinator_.get();
  }
  workers_.reserve(static_cast<size_t>(config_.shards - 1));
  for (int i = 1; i < config_.shards; i++) {
    workers_.emplace_back([this, i] { WorkerMain(i); });
  }
}

ShardedEngine::~ShardedEngine() {
  if (!workers_.empty()) {
    shutdown_.store(true, std::memory_order_release);
    epoch_.fetch_add(1, std::memory_order_release);
    for (std::thread& w : workers_) {
      w.join();
    }
  }
}

uint64_t ShardedEngine::events_executed() const {
  uint64_t total = 0;
  for (const auto& s : sims_) {
    total += s->events_executed();
  }
  return total;
}

void ShardedEngine::WorkerMain(int shard) {
  uint64_t seen = 0;
  for (;;) {
    uint64_t e;
    int spins = 0;
    while ((e = epoch_.load(std::memory_order_acquire)) == seen) {
      if (++spins < kSpinsBeforeYield) {
        CpuRelax();
      } else {
        std::this_thread::yield();
      }
    }
    seen = e;
    if (shutdown_.load(std::memory_order_acquire)) {
      return;
    }
    sims_[static_cast<size_t>(shard)]->RunWindow(window_end_);
    barrier_.Wait(shard);
    if (exchange_hook_) {
      exchange_hook_(shard);
    }
    barrier_.Wait(shard);
  }
}

void ShardedEngine::RunWindow(SimTime end) {
  in_window_ = true;
  window_end_ = end;
  epoch_.fetch_add(1, std::memory_order_release);
  sims_[0]->RunWindow(end);
  barrier_.Wait(0);
  if (exchange_hook_) {
    exchange_hook_(0);
  }
  barrier_.Wait(0);
  // Workers are back to spinning on the epoch and no longer touch shard
  // state; the coordinator may now read every heap and run the barrier hook.
  in_window_ = false;
}

void ShardedEngine::AdvanceAll(SimTime t) {
  for (auto& s : sims_) {
    s->AdvanceClockTo(t);
  }
}

uint64_t ShardedEngine::RunUntil(SimTime deadline) {
  ACTOP_CHECK(deadline >= now());
  const uint64_t before = events_executed();
  if (!parallel()) {
    // Serial fast path: defer entirely to the single shard — dispatch order,
    // clock movement, and hook timing are exactly the single-engine ones.
    // Rail tasks are shard-0 events here, so they run in the same pass.
    in_window_ = true;
    sims_[0]->RunUntil(deadline);
    in_window_ = false;
    return events_executed() - before;
  }
  for (;;) {
    SimTime t = kSimTimeMax;
    for (const auto& s : sims_) {
      t = std::min(t, s->next_event_time());
    }
    const SimTime r = rail_->next_event_time();
    if (r <= t) {
      // Rail cut: every event < r has run on every shard; events at exactly
      // r run after the rail tasks. r == t (or r <= engine now) is the
      // empty-window case — handling it here keeps windows below non-empty.
      if (r > deadline) {
        break;
      }
      AdvanceAll(r);
      rail_->RunUntil(r);
      continue;
    }
    if (t > deadline) {
      break;
    }
    // The earliest event bounds the window start; lookahead bounds its
    // width. deadline + 1 (not deadline): RunUntil is inclusive of events
    // at the deadline itself, and RunWindow's bound is exclusive.
    const SimTime end = std::min({t + config_.lookahead, r, deadline + 1});
    RunWindow(end);
    if (barrier_hook_) {
      barrier_hook_();
    }
  }
  AdvanceAll(deadline);
  rail_->AdvanceClockTo(deadline);
  return events_executed() - before;
}

}  // namespace actop
