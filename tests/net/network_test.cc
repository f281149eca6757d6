#include "src/net/network.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "src/common/sim_time.h"
#include "src/runtime/envelope_pool.h"
#include "src/sim/sharded_engine.h"
#include "src/sim/simulation.h"

namespace actop {
namespace {

TEST(NetworkTest, DeliversWithLatency) {
  Simulation sim;
  Network net(&sim, NetworkConfig{.one_way_latency = Micros(250), .ns_per_byte = 0.0});
  SimTime delivered_at = -1;
  NodeId got_from = kNoNode;
  net.AddNode([&](NodeId from, uint32_t bytes, EnvelopePtr msg) {
    (void)bytes;
    (void)msg;
    got_from = from;
    delivered_at = sim.now();
  });
  const NodeId sender = net.AddNode([](NodeId, uint32_t, EnvelopePtr) {});
  net.Send(sender, 0, 100, MakeEnvelope());
  sim.Run();
  EXPECT_EQ(delivered_at, Micros(250));
  EXPECT_EQ(got_from, sender);
}

TEST(NetworkTest, BandwidthTermScalesWithBytes) {
  Simulation sim;
  Network net(&sim, NetworkConfig{.one_way_latency = 0, .ns_per_byte = 8.0});
  SimTime delivered_at = -1;
  net.AddNode([&](NodeId, uint32_t, EnvelopePtr) { delivered_at = sim.now(); });
  const NodeId sender = net.AddNode([](NodeId, uint32_t, EnvelopePtr) {});
  net.Send(sender, 0, 1000, MakeEnvelope());
  sim.Run();
  EXPECT_EQ(delivered_at, Nanos(8000));
}

TEST(NetworkTest, PayloadPassedThrough) {
  Simulation sim;
  Network net(&sim, NetworkConfig{});
  EnvelopePtr payload = MakeEnvelope();
  payload->app_data = 42;
  const Envelope* sent = payload.get();
  uint64_t received = 0;
  const Envelope* got = nullptr;
  net.AddNode([&](NodeId, uint32_t, EnvelopePtr msg) {
    received = msg->app_data;
    got = msg.get();
  });
  net.Send(0, 0, 10, std::move(payload));
  sim.Run();
  EXPECT_EQ(received, 42u);
  EXPECT_EQ(got, sent);  // the same envelope, moved end to end
}

TEST(NetworkTest, CountsMessagesAndBytes) {
  Simulation sim;
  Network net(&sim, NetworkConfig{});
  net.AddNode([](NodeId, uint32_t, EnvelopePtr) {});
  net.Send(0, 0, 100, MakeEnvelope());
  net.Send(0, 0, 200, MakeEnvelope());
  EXPECT_EQ(net.total_messages(), 2u);
  EXPECT_EQ(net.total_bytes(), 300u);
}

TEST(NetworkTest, InterleavedDeliveryOrder) {
  Simulation sim;
  Network net(&sim, NetworkConfig{.one_way_latency = Micros(100), .ns_per_byte = 8.0});
  std::vector<int> order;
  net.AddNode([&](NodeId, uint32_t bytes, EnvelopePtr) {
    order.push_back(static_cast<int>(bytes));
  });
  // A big message sent first arrives after a small one sent at the same time.
  net.Send(0, 0, 100000, MakeEnvelope());  // +800 µs wire
  net.Send(0, 0, 10, MakeEnvelope());
  sim.Run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 10);
  EXPECT_EQ(order[1], 100000);
}

TEST(NetworkTest, DroppedMessageReturnsItsEnvelopeToThePool) {
  Simulation sim;
  Network net(&sim, NetworkConfig{});
  int delivered = 0;
  net.AddNode([&](NodeId, uint32_t, EnvelopePtr) { delivered++; });
  net.set_fault_injector([](NodeId, NodeId, uint32_t, int, SimTime) {
    return FaultDecision{.drop = true};
  });
  EnvelopePtr env = MakeEnvelope();
  const EnvelopePoolStats before = GetEnvelopePoolStats();
  net.Send(0, 0, 10, std::move(env));
  EXPECT_EQ(GetEnvelopePoolStats().cached, before.cached + 1);
  sim.Run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(net.dropped_messages(), 1u);
}

TEST(NetworkTest, DestroyingTheNetworkReleasesMessagesInFlight) {
  Simulation sim;
  std::optional<Network> net(std::in_place, &sim, NetworkConfig{});
  net->AddNode([](NodeId, uint32_t, EnvelopePtr) { FAIL() << "delivered after destruction"; });
  EnvelopePtr a = MakeEnvelope();
  EnvelopePtr b = MakeEnvelope();
  const EnvelopePoolStats before = GetEnvelopePoolStats();
  net->Send(0, 0, 10, std::move(a));
  net->Send(0, 0, 20, std::move(b));
  EXPECT_EQ(GetEnvelopePoolStats().cached, before.cached);  // both on the wire
  net.reset();
  EXPECT_EQ(GetEnvelopePoolStats().cached, before.cached + 2);
  // The delivery events stay queued in the engine; they are discarded, not run.
}

// A cross-shard message sent outside a window (setup code, rail tasks) must
// land at send time + latency + wire even when the destination shard has an
// event due soon after that, inside the first window that runs next.
class CrossShardOutsideWindowTest : public ::testing::Test {
 protected:
  static constexpr SimDuration kLatency = Micros(250);
  static constexpr uint32_t kBytes = 100;  // 800 ns of wire at 8 ns/byte

  CrossShardOutsideWindowTest()
      : engine_(ShardedEngineConfig{.shards = 2, .lookahead = kLatency}),
        net_(&engine_, NetworkConfig{.one_way_latency = kLatency, .ns_per_byte = 8.0}) {
    sender_ = net_.AddNode([](NodeId, uint32_t, EnvelopePtr) {}, 0);
    receiver_ = net_.AddNode(
        [this](NodeId, uint32_t, EnvelopePtr) { Record("message"); }, 1);
  }

  // Sends from the shard-0 node to the shard-1 node and puts an event on
  // shard 1 between the message's arrival and arrival + lookahead. Returns
  // the arrival time.
  SimTime SendBeforeLocalEvent() {
    const SimTime arrival = engine_.shard(0).now() + kLatency + Nanos(800);
    engine_.shard(1).ScheduleAt(arrival + kLatency / 2, [this] { Record("event"); });
    net_.Send(sender_, receiver_, kBytes, MakeEnvelope());
    return arrival;
  }

  void Record(const char* what) {
    order_.push_back(what);
    times_.push_back(engine_.shard(1).now());
  }

  ShardedEngine engine_;
  Network net_;
  NodeId sender_ = kNoNode;
  NodeId receiver_ = kNoNode;
  std::vector<std::string> order_;
  std::vector<SimTime> times_;
};

TEST_F(CrossShardOutsideWindowTest, SentBeforeTheFirstRunUntil) {
  const SimTime arrival = SendBeforeLocalEvent();
  engine_.RunUntil(Millis(5));
  ASSERT_EQ(order_, (std::vector<std::string>{"message", "event"}));
  EXPECT_EQ(times_[0], arrival);
}

TEST_F(CrossShardOutsideWindowTest, SentFromARailTask) {
  SimTime arrival = -1;
  engine_.ScheduleRailAt(Millis(1), [&] { arrival = SendBeforeLocalEvent(); });
  engine_.RunUntil(Millis(5));
  ASSERT_EQ(order_, (std::vector<std::string>{"message", "event"}));
  EXPECT_EQ(arrival, Millis(1) + kLatency + Nanos(800));
  EXPECT_EQ(times_[0], arrival);
}

}  // namespace
}  // namespace actop
