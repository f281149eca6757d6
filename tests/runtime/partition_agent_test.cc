// Integration tests of the full ActOp partitioning loop: edge sampling ->
// pairwise exchanges over control messages -> opportunistic migration.

#include "src/runtime/partition_agent.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "src/common/sim_time.h"
#include "src/core/csr_graph.h"
#include "src/runtime/client.h"
#include "src/runtime/cluster.h"
#include "src/sim/simulation.h"
#include "src/workload/chat.h"
#include "tests/runtime/partition_agent_test_peer.h"
#include "tests/runtime/test_actors.h"

namespace actop {
namespace {

ClusterConfig PartitionedCluster(int servers, uint64_t seed) {
  ClusterConfig cfg;
  cfg.num_servers = servers;
  cfg.seed = seed;
  cfg.enable_partitioning = true;
  cfg.partition.exchange_period = Seconds(2);
  cfg.partition.exchange_min_gap = Seconds(2);
  cfg.partition.pairwise.candidate_set_size = 64;
  cfg.partition.pairwise.balance_delta = 64;
  return cfg;
}

TEST(PartitionAgentTest, EdgeSamplingBuildsView) {
  Simulation sim;
  Cluster cluster(&sim, PartitionedCluster(2, 3));
  RegisterTestActors(&cluster);
  cluster.StartOptimizers();
  DirectClient client(&sim, &cluster, 5);

  // Create traffic between relay 1 and echo 1 repeatedly.
  const ActorId relay = MakeActorId(kRelayType, 1);
  const ActorId echo = MakeActorId(kEchoType, 1);
  for (int i = 0; i < 30; i++) {
    client.Call(relay, 0, echo, 100, nullptr);
  }
  sim.RunUntil(Seconds(1));

  ServerId relay_host = kNoServer;
  for (int s = 0; s < cluster.num_servers(); s++) {
    if (cluster.server(s).IsActive(relay)) {
      relay_host = static_cast<ServerId>(s);
    }
  }
  ASSERT_NE(relay_host, kNoServer);
  PartitionAgent* agent = cluster.partition_agent(relay_host);
  PartitionAgentTestPeer::Refresh(agent);
  const CsrGraph& graph = PartitionAgentTestPeer::PlanGraph(*agent);
  const int32_t relay_idx = graph.IndexOf(relay);
  const int32_t echo_idx = graph.IndexOf(echo);
  ASSERT_NE(relay_idx, CsrGraph::kNoIndex);
  ASSERT_NE(echo_idx, CsrGraph::kNoIndex);
  double weight = 0.0;
  for (size_t e = graph.EdgeBegin(relay_idx); e < graph.EdgeEnd(relay_idx); e++) {
    if (graph.EdgeNeighbor(e) == echo_idx) {
      weight = graph.EdgeWeight(e);
    }
  }
  EXPECT_GT(weight, 10.0);
}

TEST(PartitionAgentTest, HeavyPairsGetColocated) {
  Simulation sim;
  Cluster cluster(&sim, PartitionedCluster(4, 7));
  RegisterTestActors(&cluster);
  cluster.StartOptimizers();
  DirectClient client(&sim, &cluster, 5);

  // 40 relay->echo pairs, each pair chatting continuously.
  const int kPairs = 40;
  sim.SchedulePeriodic(Millis(50), [&client] {
    for (uint64_t k = 1; k <= kPairs; k++) {
      client.Call(MakeActorId(kRelayType, k), 0, MakeActorId(kEchoType, k), 100, nullptr);
    }
  });
  sim.RunUntil(Seconds(40));

  // After several exchange rounds, most pairs should share a server.
  int colocated = 0;
  for (uint64_t k = 1; k <= kPairs; k++) {
    const ActorId relay = MakeActorId(kRelayType, k);
    const ActorId echo = MakeActorId(kEchoType, k);
    for (int s = 0; s < cluster.num_servers(); s++) {
      if (cluster.server(s).IsActive(relay) && cluster.server(s).IsActive(echo)) {
        colocated++;
        break;
      }
    }
  }
  // Random placement gives ~25% co-location; the partitioner should push
  // this far up.
  EXPECT_GE(colocated, kPairs * 3 / 5) << "only " << colocated << " of " << kPairs;
  EXPECT_GT(cluster.total_migrations(), 0u);
}

TEST(PartitionAgentTest, BalanceMaintainedDuringOptimization) {
  Simulation sim;
  ClusterConfig cfg = PartitionedCluster(4, 9);
  cfg.partition.pairwise.balance_delta = 16;
  Cluster cluster(&sim, cfg);
  RegisterTestActors(&cluster);
  cluster.StartOptimizers();
  DirectClient client(&sim, &cluster, 5);

  const int kPairs = 60;
  sim.SchedulePeriodic(Millis(50), [&client] {
    for (uint64_t k = 1; k <= kPairs; k++) {
      client.Call(MakeActorId(kRelayType, k), 0, MakeActorId(kEchoType, k), 100, nullptr);
    }
  });
  sim.RunUntil(Seconds(30));

  int64_t min_size = INT64_MAX;
  int64_t max_size = 0;
  for (int s = 0; s < cluster.num_servers(); s++) {
    min_size = std::min(min_size, cluster.server(s).num_activations());
    max_size = std::max(max_size, cluster.server(s).num_activations());
  }
  EXPECT_LE(max_size - min_size, 16 + 2);  // small slack for in-flight moves
}

TEST(PartitionAgentTest, RateLimitingRejectsBackToBackExchanges) {
  Simulation sim;
  ClusterConfig cfg = PartitionedCluster(2, 11);
  cfg.partition.exchange_period = Seconds(1);
  cfg.partition.exchange_min_gap = Seconds(30);  // long gap: most requests rejected
  // A tiny candidate set keeps positive-score candidates around for many
  // rounds, so requests keep arriving inside the min-gap window.
  cfg.partition.pairwise.candidate_set_size = 2;
  Cluster cluster(&sim, cfg);
  RegisterTestActors(&cluster);
  cluster.StartOptimizers();
  DirectClient client(&sim, &cluster, 5);

  sim.SchedulePeriodic(Millis(50), [&client] {
    for (uint64_t k = 1; k <= 200; k++) {
      client.Call(MakeActorId(kRelayType, k), 0, MakeActorId(kEchoType, k), 100, nullptr);
    }
  });
  sim.RunUntil(Seconds(30));

  uint64_t rejected = 0;
  for (int s = 0; s < cluster.num_servers(); s++) {
    rejected += cluster.partition_agent(s)->exchanges_rejected();
  }
  EXPECT_GT(rejected, 0u);
}

TEST(PartitionAgentTest, ObservationBufferStaysBoundedAfterStop) {
  // Stop() cancels the round and decay timers, the only periodic readers of
  // the sketch, while servers keep reporting edges: the buffer must still
  // drain itself when it fills.
  Simulation sim;
  Cluster cluster(&sim, PartitionedCluster(2, 3));
  RegisterTestActors(&cluster);
  cluster.StartOptimizers();
  DirectClient client(&sim, &cluster, 5);
  sim.SchedulePeriodic(Millis(10), [&client] {
    for (uint64_t k = 1; k <= 20; k++) {
      client.Call(MakeActorId(kRelayType, k), 0, MakeActorId(kEchoType, k), 100, nullptr);
    }
  });
  sim.RunUntil(Seconds(3));
  for (int s = 0; s < cluster.num_servers(); s++) {
    cluster.partition_agent(s)->Stop();
  }
  uint64_t sent_at_stop = 0;
  for (int s = 0; s < cluster.num_servers(); s++) {
    sent_at_stop += cluster.server(s).local_app_messages() + cluster.server(s).remote_app_messages();
  }
  size_t most_pending = 0;
  sim.SchedulePeriodic(Millis(1), [&cluster, &most_pending] {
    for (int s = 0; s < cluster.num_servers(); s++) {
      most_pending = std::max(most_pending, cluster.partition_agent(s)->pending_observations());
    }
  });
  sim.RunUntil(Seconds(13));
  uint64_t sent = 0;
  for (int s = 0; s < cluster.num_servers(); s++) {
    sent += cluster.server(s).local_app_messages() + cluster.server(s).remote_app_messages();
  }
  // Enough traffic after Stop() to fill the buffer many times over.
  EXPECT_GT(sent - sent_at_stop, 20 * PartitionAgent::kObserveBatch);
  EXPECT_GT(most_pending, 0u);
  EXPECT_LE(most_pending, PartitionAgent::kObserveBatch);
}

TEST(PartitionAgentTest, ChatWorkloadRemoteFractionDrops) {
  // End-to-end: with partitioning on, the chat service's remote message
  // fraction falls well below the random-placement level.
  auto remote_fraction = [](bool partitioning) {
    Simulation sim;
    ClusterConfig cfg;
    cfg.num_servers = 4;
    cfg.seed = 13;
    cfg.enable_partitioning = partitioning;
    cfg.partition.exchange_period = Seconds(2);
    cfg.partition.exchange_min_gap = Seconds(2);
    Cluster cluster(&sim, cfg);
    ChatWorkloadConfig wcfg;
    wcfg.num_users = 400;
    wcfg.num_rooms = 20;
    wcfg.message_rate = 300.0;
    ChatWorkload chat(&cluster, wcfg);
    chat.Start();
    cluster.StartOptimizers();
    sim.RunUntil(Seconds(30));
    // Measure the steady state only.
    cluster.metrics().TakeWindow();
    sim.RunUntil(Seconds(45));
    return cluster.metrics().TakeWindow().remote_fraction();
  };
  const double base = remote_fraction(false);
  const double opt = remote_fraction(true);
  EXPECT_GT(base, 0.5);
  EXPECT_LT(opt, base * 0.7);
}

}  // namespace
}  // namespace actop
