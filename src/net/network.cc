#include "src/net/network.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"

namespace actop {

Network::Network(ShardedEngine* engine, NetworkConfig config)
    : engine_(engine), config_(config) {
  ACTOP_CHECK(engine != nullptr);
  ACTOP_CHECK(config.one_way_latency >= 0);
  ACTOP_CHECK(config.ns_per_byte >= 0.0);
  // The conservative-window guarantee: cross-shard arrivals land at least
  // one latency out, so they can never be due inside the current window.
  // One shard has no cross-shard arrivals and no windows to protect.
  ACTOP_CHECK(!engine->parallel() || config.one_way_latency >= engine->lookahead());
  const int shards = engine->shards();
  lanes_.resize(static_cast<size_t>(shards));
  for (int i = 0; i < shards; i++) {
    Lane& lane = lanes_[static_cast<size_t>(i)];
    lane.sim = &engine->shard(i);
    lane.net = this;
    lane.shard = i;
    lane.cursor = lane.sim->AddTimer(
        [](void* ctx) {
          const Lane* l = static_cast<const Lane*>(ctx);
          l->net->CursorDeliver(l->shard);
        },
        &lane);
  }
  outboxes_.resize(static_cast<size_t>(shards) * static_cast<size_t>(shards));
  pending_ = std::make_unique<PendingInbox[]>(static_cast<size_t>(shards));
  pending_src_.resize(static_cast<size_t>(shards) * static_cast<size_t>(shards));
  engine_->set_exchange_hook([this](int dst) { DrainInbound(dst); });
}

Network::~Network() {
  engine_->set_exchange_hook(nullptr);
  for (Lane& lane : lanes_) {
    lane.sim->RemoveTimer(lane.cursor);
  }
}

NodeId Network::AddNode(DeliverFn deliver, int shard) {
  ACTOP_CHECK(deliver != nullptr);
  ACTOP_CHECK(shard >= 0 && shard < shards());
  nodes_.push_back(std::move(deliver));
  node_shard_.push_back(shard);
  return static_cast<NodeId>(nodes_.size() - 1);
}

uint32_t Network::AcquireSlot(Lane& lane, NodeId from, NodeId to, uint32_t bytes,
                              EnvelopePtr msg) {
  const uint32_t slot = lane.in_flight.Alloc();
  InFlight& f = lane.in_flight[slot];
  f.msg = std::move(msg);
  f.from = from;
  f.to = to;
  f.bytes = bytes;
  return slot;
}

void Network::Send(NodeId from, NodeId to, uint32_t bytes, EnvelopePtr msg) {
  ACTOP_CHECK(from >= 0 && from < static_cast<NodeId>(nodes_.size()));
  ACTOP_CHECK(to >= 0 && to < static_cast<NodeId>(nodes_.size()));
  const int src_shard = node_shard_[static_cast<size_t>(from)];
  Lane& lane = lanes_[static_cast<size_t>(src_shard)];
  lane.total_messages++;
  lane.total_bytes += bytes;
  SimDuration fault_delay = 0;
  if (fault_injector_) {
    const FaultDecision fault =
        fault_injector_(from, to, bytes, src_shard, lane.sim->now());
    if (fault.drop) {
      lane.dropped_messages++;
      return;  // `msg` goes back to the envelope pool
    }
    if (fault.extra_delay > 0) {
      lane.delayed_messages++;
      fault_delay = fault.extra_delay;
    }
  }
  const auto wire = static_cast<SimDuration>(config_.ns_per_byte * static_cast<double>(bytes));
  const SimDuration delay = config_.one_way_latency + wire + fault_delay;
  const int dst_shard = node_shard_[static_cast<size_t>(to)];
  if (dst_shard == src_shard || !engine_->in_window()) {
    // Same-shard fast path: park the envelope in the lane slab; the event
    // capture is [this, shard, slot], which stays inline in the engine
    // ([this, from, to, bytes, msg] would overflow the inline buffer).
    // Outside a window (setup code, rail tasks) every shard is parked at
    // the sender's clock, so a cross-shard message takes this path on its
    // destination's lane too. Parked in an outbox instead, it would merge
    // only at the barrier after the next window, which may already have run
    // past its arrival.
    Lane& dst_lane = lanes_[static_cast<size_t>(dst_shard)];
    const uint32_t slot = AcquireSlot(dst_lane, from, to, bytes, std::move(msg));
    dst_lane.sim->ScheduleAt(lane.sim->now() + delay,
                             [this, dst_shard, slot] { Deliver(dst_shard, slot); });
    return;
  }
  // Cross-shard: arrival time delay >= one_way_latency >= lookahead past the
  // sender's clock, hence at or beyond the current window's end — the
  // destination merges it at the barrier, before its next window opens.
  std::vector<OutMsg>& box =
      outboxes_[static_cast<size_t>(src_shard) * static_cast<size_t>(shards()) +
                static_cast<size_t>(dst_shard)];
  if (box.empty()) {
    // First message this window for (src, dst): register src on dst's
    // worklist. The reservation is a distinct slot per source (only the
    // counter is shared), and the window barrier orders it before the drain.
    const uint32_t i =
        pending_[static_cast<size_t>(dst_shard)].count.fetch_add(1, std::memory_order_relaxed);
    pending_src_[static_cast<size_t>(dst_shard) * static_cast<size_t>(shards()) +
                 static_cast<size_t>(i)] = src_shard;
  }
  box.push_back(OutMsg{lane.sim->now() + delay, lane.next_out_seq++, from, to, bytes,
                       std::move(msg)});
}

void Network::Deliver(int shard, uint32_t slot) {
  Lane& lane = lanes_[static_cast<size_t>(shard)];
  // Copy the fields out and recycle the slot before invoking the handler:
  // the handler may Send, which can grow in_flight or reuse this slot.
  InFlight& f = lane.in_flight[slot];
  EnvelopePtr msg = std::move(f.msg);
  const NodeId from = f.from;
  const NodeId to = f.to;
  const uint32_t bytes = f.bytes;
  lane.in_flight.Free(slot);
  nodes_[static_cast<size_t>(to)](from, bytes, std::move(msg));
}

void Network::DrainInbound(int dst) {
  Lane& lane = lanes_[static_cast<size_t>(dst)];
  const int k = shards();
  // Worklist instead of an O(K) sweep: only sources that pushed a first
  // message this window appear. The relaxed load is safe — the window
  // barrier orders every registration and outbox write before this drain.
  PendingInbox& pending = pending_[static_cast<size_t>(dst)];
  const uint32_t n = pending.count.load(std::memory_order_relaxed);
  if (n == 0) {
    return;
  }
  pending.count.store(0, std::memory_order_relaxed);
  int32_t* srcs = &pending_src_[static_cast<size_t>(dst) * static_cast<size_t>(k)];
  // Registration order is racy (whichever source sent first); sorting
  // ascending restores the deterministic gather order.
  std::sort(srcs, srcs + n);
  std::vector<OutMsg>& scratch = lane.inbound_scratch;
  scratch.clear();
  for (uint32_t i = 0; i < n; i++) {
    std::vector<OutMsg>& box =
        outboxes_[static_cast<size_t>(srcs[i]) * static_cast<size_t>(k) + static_cast<size_t>(dst)];
    for (OutMsg& m : box) {
      scratch.push_back(std::move(m));
    }
    box.clear();
  }
  // Deterministic merge order: (when, src_shard, seq). The gather above
  // appended sources in ascending src order with ascending seq within each,
  // so a stable sort by `when` alone realizes exactly that order without
  // materializing src ids per message.
  std::stable_sort(scratch.begin(), scratch.end(),
                   [](const OutMsg& a, const OutMsg& b) { return a.when < b.when; });
  // Merge the batch into the staged run. Compacting the consumed prefix
  // first keeps the merge over live messages only. inplace_merge is stable
  // with first-range-first ties, so earlier drains sort ahead of later ones
  // at equal timestamps — the same order per-message scheduling produced.
  if (lane.staged_head > 0) {
    lane.staged.erase(lane.staged.begin(),
                      lane.staged.begin() + static_cast<ptrdiff_t>(lane.staged_head));
    lane.staged_head = 0;
  }
  const auto mid = static_cast<ptrdiff_t>(lane.staged.size());
  for (OutMsg& m : scratch) {
    lane.staged.push_back(std::move(m));
  }
  scratch.clear();
  std::inplace_merge(lane.staged.begin(), lane.staged.begin() + mid, lane.staged.end(),
                     [](const OutMsg& a, const OutMsg& b) { return a.when < b.when; });
  // Pin the cursor at the head: one armed timer per lane covers the whole
  // staged run.
  const SimTime head = lane.staged.front().when;
  if (!lane.sim->timer_armed(lane.cursor) || head < lane.cursor_when) {
    lane.cursor_when = head;
    lane.sim->ArmTimer(lane.cursor, head);
  }
}

void Network::CursorDeliver(int dst) {
  Lane& lane = lanes_[static_cast<size_t>(dst)];
  const SimTime now = lane.sim->now();
  // Deliver every staged message due at this instant back to back: one
  // timer firing per distinct arrival time instead of one event per message.
  // Handlers may Send (touching outboxes and the in-flight slab) but never
  // mutate the staged run — drains only happen at window barriers.
  while (lane.staged_head < lane.staged.size() && lane.staged[lane.staged_head].when == now) {
    OutMsg& m = lane.staged[lane.staged_head++];
    EnvelopePtr msg = std::move(m.msg);
    const NodeId from = m.from;
    const NodeId to = m.to;
    const uint32_t bytes = m.bytes;
    nodes_[static_cast<size_t>(to)](from, bytes, std::move(msg));
  }
  if (lane.staged_head < lane.staged.size()) {
    lane.cursor_when = lane.staged[lane.staged_head].when;
    lane.sim->ArmTimer(lane.cursor, lane.cursor_when);
  } else {
    lane.staged.clear();
    lane.staged_head = 0;
  }
}

}  // namespace actop
