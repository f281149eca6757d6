#include "src/net/network.h"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "src/common/sim_time.h"
#include "src/runtime/envelope_pool.h"
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

}  // namespace
}  // namespace actop
