// Differential proof for the PartitionAgent's planner: planning through the
// flat CSR arena must make byte-identical decisions to the ordered
// LocalGraphView algorithm (BuildPeerPlansOrdered / DecideExchangeOrdered),
// the one PartitionTestbed runs.
//
// Plan level: fig10a-shaped clustered graphs (the Halo game/player clique
// structure) — for each server's LocalGraphView the arena path
// (CsrFromLocalView + planning-only RepartitionArena +
// ExportPeerPlans) must emit exactly what BuildPeerPlansOrdered emits: the
// same peers in the same order with the same total scores, candidates,
// sizes, edges and location hints. Views with unknown neighbor locations
// exercise the stand-in-server mapping. All edge weights are integers (the
// agent's weights are Space-Saving sample counts), so sums are exact in
// double regardless of summation order and scores compare with ==.
//
// End to end: the agent must land every actor on the same server with the
// same migration count as it did when it sampled per message, fully
// re-sorted its samples every refresh and could still plan over a
// LocalGraphView (pinned placement digests).
//
// Refresh level: the agent's incrementally maintained plan graph must equal,
// after every refresh, the graph frozen from scratch out of the sketch's
// entries, on a sketch small enough to evict and decaying fast.

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "oracles/local_graph_planner.h"
#include "oracles/partition_testbed.h"
#include "src/common/rng.h"
#include "src/common/sim_time.h"
#include "src/core/csr_graph.h"
#include "src/core/repartition_arena.h"
#include "src/runtime/client.h"
#include "src/runtime/cluster.h"
#include "src/runtime/partition_agent.h"
#include "src/runtime/server.h"
#include "src/sim/simulation.h"
#include "tests/runtime/partition_agent_test_peer.h"
#include "tests/runtime/test_actors.h"

namespace actop {

namespace {

// Mirrors PartitionAgent::RunRound's planning exactly.
std::vector<PeerPlan> ArenaPlansFor(const LocalGraphView& view, const PairwiseConfig& config,
                                    int cluster_servers) {
  const CsrGraph csr = CsrFromLocalView(view);
  const auto unknown = static_cast<ServerId>(cluster_servers);
  std::vector<ServerId> assignment(static_cast<size_t>(csr.num_vertices()));
  for (int32_t i = 0; i < csr.num_vertices(); i++) {
    const ServerId loc = view.LocationOf(csr.IdOf(i));
    assignment[static_cast<size_t>(i)] = loc == kNoServer ? unknown : loc;
  }
  RepartitionArena arena(&csr, cluster_servers + 1, config, std::move(assignment));
  std::vector<PeerPlan> plans;
  arena.ExportPeerPlans(view.self, &plans, unknown);
  return plans;
}

// Mirrors PartitionTestbed::SampledMembers: sampled locals ascending by id.
std::vector<VertexId> AscendingKeys(const LocalGraphView& view) {
  std::vector<VertexId> order;
  order.reserve(view.adjacency.size());
  for (const auto& [v, adj] : view.adjacency) {
    order.push_back(v);
  }
  std::sort(order.begin(), order.end());
  return order;
}

void ExpectPlansEqual(const std::vector<PeerPlan>& ref, const std::vector<PeerPlan>& arena,
                      uint64_t seed, ServerId p) {
  ASSERT_EQ(ref.size(), arena.size()) << "seed " << seed << " server " << p;
  for (size_t i = 0; i < ref.size(); i++) {
    ASSERT_EQ(ref[i].peer, arena[i].peer) << "seed " << seed << " server " << p << " plan " << i;
    ASSERT_EQ(ref[i].total_score, arena[i].total_score)
        << "seed " << seed << " server " << p << " plan " << i;
    ASSERT_EQ(ref[i].candidates.size(), arena[i].candidates.size())
        << "seed " << seed << " server " << p << " plan " << i;
    for (size_t j = 0; j < ref[i].candidates.size(); j++) {
      const Candidate& rc = ref[i].candidates[j];
      const Candidate& ac = arena[i].candidates[j];
      ASSERT_EQ(rc.vertex, ac.vertex) << "seed " << seed << " server " << p;
      ASSERT_EQ(rc.score, ac.score) << "seed " << seed << " vertex " << rc.vertex;
      ASSERT_EQ(rc.size, ac.size) << "seed " << seed << " vertex " << rc.vertex;
      ASSERT_EQ(rc.edges.size(), ac.edges.size()) << "seed " << seed << " vertex " << rc.vertex;
      auto ra = rc.edges.begin();
      auto aa = ac.edges.begin();
      for (; ra != rc.edges.end(); ++ra, ++aa) {
        ASSERT_EQ(ra->first, aa->first) << "seed " << seed << " vertex " << rc.vertex;
        ASSERT_EQ(ra->second.weight, aa->second.weight)
            << "seed " << seed << " vertex " << rc.vertex << " edge " << ra->first;
        ASSERT_EQ(ra->second.location_hint, aa->second.location_hint)
            << "seed " << seed << " vertex " << rc.vertex << " edge " << ra->first;
      }
    }
  }
}

TEST(ArenaPlannerTest, PlansMatchReferenceOnFig10aViews) {
  for (uint64_t seed = 1; seed <= 10; seed++) {
    Rng rng(seed);
    // fig10a shape: game/player cliques with cross-game chatter, integer
    // weights like the agent's sampled edge counts.
    WeightedGraph g = MakeClusteredGraph(12, 8, 4.0, 60, 1.0, &rng);
    const int servers = 6;
    PairwiseConfig config;
    config.candidate_set_size = 16;
    config.balance_delta = 16;
    if (seed % 3 == 0) {
      config.migration_cost_weight = 0.25;
    }
    if (seed % 4 == 0) {
      config.max_candidate_total_size = 6.0;
    }
    PartitionTestbed testbed(&g, servers, config, seed * 77 + 1);
    for (ServerId p = 0; p < servers; p++) {
      const LocalGraphView view = testbed.BuildView(p);
      const std::vector<PeerPlan> ref =
          BuildPeerPlansOrdered(view, config, testbed.SampledMembers(p));
      const std::vector<PeerPlan> arena = ArenaPlansFor(view, config, servers);
      ExpectPlansEqual(ref, arena, seed, p);
    }
  }
}

TEST(ArenaPlannerTest, UnknownNeighborLocationsMatchReference) {
  // Hand-built views where some remote endpoints have no known location
  // (absent from view.location): the reference planner skips those edges;
  // the arena maps them to the stand-in server and strips it on export.
  for (uint64_t seed = 50; seed <= 60; seed++) {
    Rng rng(seed);
    const int servers = 4;
    LocalGraphView view;
    view.self = 0;
    view.num_local_vertices = 20;
    for (VertexId v = 1; v <= 20; v++) {
      const int degree = static_cast<int>(rng.NextInt(1, 6));
      for (int e = 0; e < degree; e++) {
        const auto u = static_cast<VertexId>(rng.NextInt(1, 60));
        if (u == v) {
          continue;
        }
        view.adjacency[v][u] += static_cast<double>(rng.NextInt(1, 12));
      }
    }
    for (VertexId u = 21; u <= 40; u++) {
      view.location[u] = static_cast<ServerId>(1 + u % (servers - 1));
    }
    // Vertices 41..60 referenced by edges stay unknown on purpose.
    PairwiseConfig config;
    config.candidate_set_size = 8;
    config.balance_delta = 8;
    const std::vector<PeerPlan> ref = BuildPeerPlansOrdered(view, config, AscendingKeys(view));
    const std::vector<PeerPlan> arena = ArenaPlansFor(view, config, servers);
    ExpectPlansEqual(ref, arena, seed, view.self);
  }
}

// Mirrors PartitionAgent::OnExchangeRequest: the responder's view frozen
// into a CSR, DecideOffer against the offered candidates.
void ExpectDecisionsEqual(const LocalGraphView& view, const ExchangeRequest& request,
                          const PairwiseConfig& config, int cluster_servers, uint64_t seed) {
  const ExchangeDecision ref =
      DecideExchangeOrdered(view, request, config, AscendingKeys(view));

  const CsrGraph csr = CsrFromLocalView(view);
  const auto unknown = static_cast<ServerId>(cluster_servers);
  std::vector<ServerId> assignment(static_cast<size_t>(csr.num_vertices()));
  for (int32_t i = 0; i < csr.num_vertices(); i++) {
    const ServerId loc = view.LocationOf(csr.IdOf(i));
    assignment[static_cast<size_t>(i)] = loc == kNoServer ? unknown : loc;
  }
  RepartitionArena arena(&csr, cluster_servers + 1, config, std::move(assignment));
  std::vector<VertexId> accepted;
  std::vector<VertexId> counter;
  const double size_p = request.from_total_size >= 0.0
                            ? request.from_total_size
                            : static_cast<double>(request.from_num_vertices);
  arena.DecideOffer(view.self, request.from, request.candidates, size_p, view.TotalSize(),
                    unknown, &accepted, &counter);

  ASSERT_EQ(ref.accepted, accepted) << "seed " << seed << " responder " << view.self;
  ASSERT_EQ(ref.counter_offer.size(), counter.size())
      << "seed " << seed << " responder " << view.self;
  for (size_t i = 0; i < counter.size(); i++) {
    ASSERT_EQ(ref.counter_offer[i].vertex, counter[i])
        << "seed " << seed << " responder " << view.self;
  }
}

TEST(ArenaPlannerTest, ExchangeDecisionsMatchReferenceOnFig10aViews) {
  // Every ordered (initiator, responder) pair: the initiator's reference
  // plan toward the responder becomes the offer, and the responder's arena
  // decision must match the reference decision exactly — accepted set,
  // counter-offer set, both in order.
  for (uint64_t seed = 20; seed <= 26; seed++) {
    Rng rng(seed);
    WeightedGraph g = MakeClusteredGraph(12, 8, 4.0, 60, 1.0, &rng);
    const int servers = 6;
    PairwiseConfig config;
    config.candidate_set_size = 16;
    config.balance_delta = 16;
    PartitionTestbed testbed(&g, servers, config, seed * 77 + 1);
    for (ServerId p = 0; p < servers; p++) {
      const LocalGraphView p_view = testbed.BuildView(p);
      const std::vector<PeerPlan> plans =
          BuildPeerPlansOrdered(p_view, config, testbed.SampledMembers(p));
      for (const PeerPlan& plan : plans) {
        ExchangeRequest request;
        request.from = p;
        request.from_num_vertices = static_cast<int64_t>(p_view.num_local_vertices);
        request.candidates = plan.candidates;
        const LocalGraphView q_view = testbed.BuildView(plan.peer);
        ExpectDecisionsEqual(q_view, request, config, servers, seed);
      }
    }
  }
}

TEST(ArenaPlannerTest, ExchangeDecisionsWithUnknownLocationsAndForeignVertices) {
  // Offered candidates reference vertices the responder has never sampled
  // (absent from its view entirely) and vertices with unknown locations —
  // both must resolve through the offer's location hints, exactly like the
  // reference score_s fallback.
  for (uint64_t seed = 70; seed <= 78; seed++) {
    Rng rng(seed);
    const int servers = 4;
    LocalGraphView view;
    view.self = 2;
    view.num_local_vertices = 20;
    for (VertexId v = 1; v <= 20; v++) {
      const int degree = static_cast<int>(rng.NextInt(1, 6));
      for (int e = 0; e < degree; e++) {
        const auto u = static_cast<VertexId>(rng.NextInt(1, 60));
        if (u == v) {
          continue;
        }
        view.adjacency[v][u] += static_cast<double>(rng.NextInt(1, 12));
      }
    }
    // Locations only for *referenced* remote endpoints in 21..40 — the agent
    // never knows a location for a vertex absent from its sampled edges, and
    // the frozen plan graph relies on that invariant. Referenced
    // vertices in 41..60 stay unknown on purpose.
    for (const auto& [v, adj] : view.adjacency) {
      for (const auto& [u, w] : adj) {
        if (u >= 21 && u <= 40) {
          view.location[u] = static_cast<ServerId>(u % servers);
        }
      }
    }
    ExchangeRequest request;
    request.from = 0;
    request.from_num_vertices = 22;
    const int offered = static_cast<int>(rng.NextInt(1, 8));
    for (int i = 0; i < offered; i++) {
      Candidate c;
      c.vertex = static_cast<VertexId>(61 + i * 3 + rng.NextInt(0, 2));  // foreign to q
      c.score = static_cast<double>(rng.NextInt(1, 10));
      c.size = 1.0;
      VertexId u = 0;
      const int edges = static_cast<int>(rng.NextInt(1, 6));
      for (int e = 0; e < edges; e++) {
        u += static_cast<VertexId>(rng.NextInt(1, 15));  // strictly ascending keys
        const auto hint = static_cast<ServerId>(rng.NextInt(0, servers - 1));
        c.edges.append_ascending(u, CandidateEdge{static_cast<double>(rng.NextInt(1, 12)),
                                                  rng.NextInt(0, 3) == 0 ? kNoServer : hint});
      }
      request.candidates.push_back(std::move(c));
    }
    PairwiseConfig config;
    config.candidate_set_size = 8;
    config.balance_delta = 8;
    ExpectDecisionsEqual(view, request, config, servers, seed);
  }
}

uint64_t PlacementDigest(size_t edge_sample_capacity = 8192,
                         SimDuration edge_decay_period = Seconds(30)) {
  Simulation sim;
  ClusterConfig cfg;
  cfg.num_servers = 4;
  cfg.seed = 7;
  cfg.enable_partitioning = true;
  cfg.partition.exchange_period = Seconds(2);
  cfg.partition.exchange_min_gap = Seconds(2);
  cfg.partition.pairwise.candidate_set_size = 64;
  cfg.partition.pairwise.balance_delta = 64;
  cfg.partition.edge_sample_capacity = edge_sample_capacity;
  cfg.partition.edge_decay_period = edge_decay_period;
  Cluster cluster(&sim, cfg);
  RegisterTestActors(&cluster);
  cluster.StartOptimizers();
  DirectClient client(&sim, &cluster, 5);
  sim.SchedulePeriodic(Millis(50), [&client] {
    for (uint64_t k = 1; k <= 40; k++) {
      client.Call(MakeActorId(kRelayType, k), 0, MakeActorId(kEchoType, k), 100, nullptr);
    }
  });
  sim.RunUntil(Seconds(20));

  uint64_t h = 1469598103934665603ULL;  // FNV-1a offset basis
  auto mix = [&h](uint64_t x) {
    h ^= x;
    h *= 1099511628211ULL;  // FNV prime
  };
  for (uint64_t k = 1; k <= 40; k++) {
    for (const ActorId actor : {MakeActorId(kRelayType, k), MakeActorId(kEchoType, k)}) {
      ServerId host = kNoServer;
      for (int s = 0; s < cluster.num_servers(); s++) {
        if (cluster.server(s).IsActive(actor)) {
          host = static_cast<ServerId>(s);
          break;
        }
      }
      mix(actor);
      mix(static_cast<uint64_t>(static_cast<int64_t>(host)));
    }
  }
  mix(cluster.total_migrations());
  return h;
}

TEST(ArenaPlannerTest, PlacementDigestsPinned) {
  // Recorded when the agent applied every observation to its sketch as the
  // message was sent and re-sorted all samples on every refresh, and matched
  // by the LocalGraphView planner the agent then also carried. Capacity 8
  // evicts on almost every observation; the 2 s decay period adds decay.
  constexpr uint64_t kDefault = 0x43124ea7050de23aULL;
  constexpr uint64_t kEvicting = 0xb382f3e08031acbeULL;
  constexpr uint64_t kEvictingDecaying = 0xc959967121a17892ULL;
  EXPECT_EQ(PlacementDigest(), kDefault);
  EXPECT_EQ(PlacementDigest(8), kEvicting);
  EXPECT_EQ(PlacementDigest(8, Seconds(2)), kEvictingDecaying);
}

TEST(ArenaPlannerTest, IncrementalPlanGraphMatchesFromScratch) {
  Simulation sim;
  ClusterConfig cfg;
  cfg.num_servers = 4;
  cfg.seed = 5;
  cfg.enable_partitioning = true;
  cfg.partition.exchange_period = Seconds(1);
  cfg.partition.exchange_min_gap = Seconds(1);
  cfg.partition.edge_sample_capacity = 24;
  cfg.partition.edge_decay_period = Millis(700);
  Cluster cluster(&sim, cfg);
  RegisterTestActors(&cluster);
  cluster.StartOptimizers();
  DirectClient client(&sim, &cluster, 5);
  Rng rng(17);
  sim.SchedulePeriodic(Millis(20), [&client, &rng] {
    // Skewed pairs, so a few edges stay heavy while the tail churns
    // through the sketch.
    for (int i = 0; i < 12; i++) {
      const uint64_t raw = rng.NextBounded(200);
      const uint64_t k = 1 + raw * raw / 200;
      client.Call(MakeActorId(kRelayType, k), 0, MakeActorId(kEchoType, k), 100, nullptr);
    }
  });

  int checks = 0;
  bool saw_full = false;
  bool saw_decay = false;
  std::vector<uint64_t> last_total(static_cast<size_t>(cfg.num_servers), 0);
  sim.SchedulePeriodic(Millis(37), [&] {
    for (int s = 0; s < cluster.num_servers(); s++) {
      PartitionAgent* agent = cluster.partition_agent(s);
      const PartitionAgentTestPeer::Expected want =
          PartitionAgentTestPeer::FromScratch(agent, cluster.num_servers());
      PartitionAgentTestPeer::Refresh(agent);
      const CsrGraph& got = PartitionAgentTestPeer::PlanGraph(*agent);
      ASSERT_EQ(static_cast<size_t>(got.num_vertices()), want.ids.size()) << "server " << s;
      for (int32_t i = 0; i < got.num_vertices(); i++) {
        const auto row = static_cast<size_t>(i);
        ASSERT_EQ(got.IdOf(i), want.ids[row]) << "server " << s;
        ASSERT_EQ(got.DegreeOf(i), want.rows[row].size()) << "server " << s << " vertex " << i;
        for (size_t e = got.EdgeBegin(i), k = 0; e < got.EdgeEnd(i); e++, k++) {
          ASSERT_EQ(got.IdOf(got.EdgeNeighbor(e)), want.rows[row][k].first) << "server " << s;
          ASSERT_EQ(got.EdgeWeight(e), want.rows[row][k].second) << "server " << s;
        }
      }
      ASSERT_EQ(PartitionAgentTestPeer::PlanAssignment(*agent), want.assignment)
          << "server " << s;
      saw_full |= PartitionAgentTestPeer::SketchSize(*agent) == cfg.partition.edge_sample_capacity;
      // Decay halves the observed total; nothing else lowers it.
      const uint64_t total = PartitionAgentTestPeer::SketchTotal(*agent);
      saw_decay |= total < last_total[static_cast<size_t>(s)];
      last_total[static_cast<size_t>(s)] = total;
      checks++;
    }
  });
  sim.RunUntil(Seconds(15));
  EXPECT_GT(checks, 1000);
  EXPECT_TRUE(saw_full);  // the sketch evicted
  EXPECT_TRUE(saw_decay);
  EXPECT_GT(cluster.total_migrations(), 0u);
}

}  // namespace
}  // namespace actop
