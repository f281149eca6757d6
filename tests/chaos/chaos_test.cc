// Deterministic chaos harness: seed-driven fault schedules + cluster-wide
// invariant checks.
//
// Each seed fully determines one chaos run — traffic, fault schedule, and
// event interleaving — so a failing seed replays byte-for-byte. Seeds are
// split across four scenario shapes (seed % 4):
//
//   0  migration storm   forced migrations + directory churn, lossless
//                        network; strict accounting (every reply arrives,
//                        every call handled exactly once).
//   1  full chaos        crashes, drops, delays (reordering), churn, forced
//                        migrations; conservation accounting (every call
//                        terminates exactly once, no duplicated/fabricated
//                        replies).
//   2  partition racing  partition agents on a fast exchange period racing
//                        forced migrations and delayed control messages;
//                        strict accounting through a relay -> echo call graph.
//   3  partition balance delayed exchange messages (stale views); the
//                        partitioner must respect the balance constraint
//                        delta throughout.
//
// All scenarios run the instant invariants (single activation, directory /
// cache structure) every few hundred events, and the quiescent coherence
// check (every activation registered at its host) after the system drains.
//
// Run a long soak with: chaos_test --chaos_seeds=N (sweeps N extra seeds).

#include <gtest/gtest.h>

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "src/common/sim_time.h"
#include "src/runtime/cluster.h"
#include "src/sim/sharded_engine.h"
#include "src/sim/simulation.h"
#include "src/testing/chaos.h"
#include "src/testing/chaos_client.h"
#include "src/testing/invariants.h"
#include "tests/runtime/test_actors.h"

namespace actop {
namespace {

// Extra seeds requested on the command line (--chaos_seeds=N).
int g_soak_seeds = 0;

constexpr int kServers = 6;
constexpr uint64_t kEchoActors = 96;
constexpr uint64_t kRelayActors = 48;
constexpr SimTime kFaultsStart = Seconds(1);
constexpr SimTime kFaultsEnd = Seconds(7);
constexpr SimTime kTrafficEnd = Seconds(8);
// Long enough for client timeouts (6s), server call timeouts (3s), and
// parked-call re-resolution to drain after the last fault.
constexpr SimTime kDrainEnd = Seconds(30);

struct ChaosRunResult {
  uint64_t seed = 0;
  int scenario = 0;
  std::string report;
  uint64_t instant_violations = 0;
  std::vector<std::string> quiescent;
  std::vector<std::string> balance;  // scenario 3 only
  uint64_t issued = 0;
  uint64_t succeeded = 0;
  uint64_t timed_out = 0;
  uint64_t duplicates = 0;
  uint64_t unknown = 0;
  bool settled = false;
  uint64_t echo_calls = 0;
  int relay_failed_subcalls = 0;
  uint64_t faults_injected = 0;
  uint64_t checks_run = 0;
};

uint64_t SumEchoCalls(Cluster& cluster) {
  uint64_t total = 0;
  for (uint64_t k = 1; k <= kEchoActors; k++) {
    const ActorId id = MakeActorId(kEchoType, k);
    if (cluster.HasActorState(id)) {
      total += static_cast<uint64_t>(static_cast<EchoActor*>(cluster.GetOrCreateActor(id))->calls());
    }
  }
  return total;
}

int SumRelayFailedSubcalls(Cluster& cluster) {
  int total = 0;
  for (uint64_t k = 1; k <= kRelayActors; k++) {
    const ActorId id = MakeActorId(kRelayType, k);
    if (cluster.HasActorState(id)) {
      total += static_cast<RelayActor*>(cluster.GetOrCreateActor(id))->failed_subcalls();
    }
  }
  return total;
}

// Builds and runs one full chaos scenario for `seed`. See the file comment
// for the scenario shapes. `shards` is the engine's shard count: 1 is the
// serial engine, and > 1 runs the cluster partitioned across shards under
// conservative time-window synchronization.
ChaosRunResult RunChaosScenario(uint64_t seed, int shards = 1) {
  const int scenario = static_cast<int>(seed % 4);
  const bool partitioning = scenario == 2 || scenario == 3;

  ClusterConfig cfg{.num_servers = kServers, .seed = SplitMix64(seed)};
  cfg.server.call_timeout = Seconds(3);
  if (partitioning) {
    cfg.enable_partitioning = true;
    cfg.partition.exchange_period = Millis(500);
    cfg.partition.exchange_min_gap = Millis(500);
    cfg.partition.pairwise.candidate_set_size = 16;
    cfg.partition.pairwise.balance_delta = 16;
  }

  ShardedEngine engine(
      ShardedEngineConfig{.shards = shards, .lookahead = cfg.network.one_way_latency});
  Cluster cluster(&engine, cfg);
  Simulation& sim = engine.sim();
  RegisterTestActors(&cluster);

  ChaosConfig chaos_cfg;
  chaos_cfg.seed = seed;
  chaos_cfg.faults_start = kFaultsStart;
  chaos_cfg.faults_end = kFaultsEnd;
  chaos_cfg.check_every_events = 512;
  switch (scenario) {
    case 0:  // migration storm
      chaos_cfg.forced_migrations_per_tick = 3;
      chaos_cfg.directory_churn_prob = 0.2;
      break;
    case 1:  // full chaos
      chaos_cfg.crash_prob = 0.03;
      chaos_cfg.drop_prob = 0.02;
      chaos_cfg.delay_prob = 0.10;
      chaos_cfg.directory_churn_prob = 0.1;
      chaos_cfg.forced_migrations_per_tick = 2;
      chaos_cfg.fault_client_links = true;
      break;
    case 2:  // partition racing
      chaos_cfg.forced_migrations_per_tick = 2;
      chaos_cfg.delay_prob = 0.15;
      break;
    case 3:  // partition balance
      chaos_cfg.delay_prob = 0.15;
      break;
  }
  ChaosController chaos(&engine, &cluster, chaos_cfg);

  ChaosClientConfig client_cfg;
  client_cfg.seed = SplitMix64(seed ^ 0xc11e47ULL);
  ChaosClient client(&cluster, client_cfg);

  // Traffic: one call every 2 ms until kTrafficEnd. Scenarios without
  // partitioning call echo actors directly; partitioned scenarios call
  // relays that fan one sub-call out to a correlated echo actor (the
  // actor-to-actor edges the partitioner optimizes).
  Rng traffic_rng(SplitMix64(seed ^ 0x7247ULL));
  sim.SchedulePeriodic(Millis(2), [&] {
    if (sim.now() > kTrafficEnd) {
      return;
    }
    if (partitioning) {
      const uint64_t r = traffic_rng.NextBounded(kRelayActors) + 1;
      // Each relay talks to a fixed pair of echo actors: repeated edges give
      // the Space-Saving sampler something to find.
      const uint64_t e = r * 2 - traffic_rng.NextBounded(2);
      client.Call(MakeActorId(kRelayType, r), 0, MakeActorId(kEchoType, e));
    } else {
      client.Call(MakeActorId(kEchoType, traffic_rng.NextBounded(kEchoActors) + 1), 1);
    }
  });

  ChaosRunResult result;
  result.seed = seed;
  result.scenario = scenario;

  // Scenario 3: sample the balance invariant during the run. The window is
  // anchored at the spread the run starts from — the partitioner may not
  // get every server inside [target - delta/2, target + delta/2], but it
  // must never push the cluster further out. Slack covers mid-migration
  // activations (deactivated at the source, not yet re-activated).
  int64_t initial_spread = 0;
  if (scenario == 3) {
    auto snapshot_spread = [&] { initial_spread = ActivationSpread(cluster); };
    auto balance_check = [&] {
      const int64_t delta = cfg.partition.pairwise.balance_delta;
      const int64_t slack = std::max<int64_t>(initial_spread, 2 * delta);
      for (std::string& v : chaos.checker().CheckBalance(delta, slack)) {
        result.balance.push_back(std::move(v));
      }
    };
    // Balance checks read every server's activation count — a cross-shard
    // cut, so in parallel mode they run on the rail at the cadence of the
    // one-shard periodic. One shard keeps the periodic: its ticks run until
    // the drain ends, and the pinned one-shard digests count them as events.
    engine.ScheduleRailAt(kFaultsStart, snapshot_spread);
    if (engine.parallel()) {
      for (SimTime at = Millis(100); at <= kTrafficEnd; at += Millis(100)) {
        engine.ScheduleRailAt(at, balance_check);
      }
    } else {
      sim.SchedulePeriodic(Millis(100), [&, balance_check] {
        if (sim.now() > kTrafficEnd) {
          return;
        }
        balance_check();
      });
    }
  }

  chaos.Start();
  cluster.StartOptimizers();
  engine.RunUntil(kTrafficEnd);
  // Quiescent checks need migrations to stop: halt the exchange protocol
  // before draining.
  for (int s = 0; s < kServers; s++) {
    if (cluster.partition_agent(s) != nullptr) {
      cluster.partition_agent(s)->Stop();
    }
  }
  engine.RunUntil(kDrainEnd);

  result.instant_violations = chaos.total_violations();
  result.checks_run = chaos.checker().checks_run();
  result.quiescent = chaos.checker().CheckQuiescent();
  result.report = chaos.FailureReport();
  result.faults_injected = chaos.crashes() + chaos.shard_churns() + chaos.forced_migrations() +
                           chaos.dropped_messages() + chaos.delayed_messages();
  chaos.Stop();

  result.issued = client.issued();
  result.succeeded = client.succeeded();
  result.timed_out = client.timed_out();
  result.duplicates = client.duplicate_responses();
  result.unknown = client.unknown_responses();
  result.settled = client.Settled();
  result.echo_calls = SumEchoCalls(cluster);
  result.relay_failed_subcalls = SumRelayFailedSubcalls(cluster);
  return result;
}

// Asserts the invariants appropriate for the result's scenario. On any
// failure the gtest message carries the full reproduction report.
void ExpectInvariantsHold(const ChaosRunResult& r) {
  SCOPED_TRACE(r.report);
  EXPECT_GT(r.issued, 1000u);
  EXPECT_GT(r.faults_injected, 0u) << "scenario injected no faults";
  EXPECT_GT(r.checks_run, 50u);

  // Invariants (a) + (c) structural, every few hundred events.
  EXPECT_EQ(r.instant_violations, 0u);
  // Invariant (c) at quiescence: every activation registered at its host.
  EXPECT_TRUE(r.quiescent.empty()) << r.quiescent.front();

  // Invariant (b): every call reached exactly one terminal outcome, and no
  // reply was duplicated or fabricated.
  EXPECT_TRUE(r.settled);
  EXPECT_EQ(r.issued, r.succeeded + r.timed_out);
  EXPECT_EQ(r.duplicates, 0u);
  EXPECT_EQ(r.unknown, 0u);

  switch (r.scenario) {
    case 0:  // lossless network: nothing may time out, every call handled once
      EXPECT_EQ(r.succeeded, r.issued);
      EXPECT_EQ(r.echo_calls, r.issued);
      break;
    case 1:  // lossy: timeouts allowed, conservation already checked above
      break;
    case 2:  // lossless + relays: one echo sub-call per client call
      EXPECT_EQ(r.succeeded, r.issued);
      EXPECT_EQ(r.echo_calls, r.issued);
      EXPECT_EQ(r.relay_failed_subcalls, 0);
      break;
    case 3:  // invariant (d)
      EXPECT_TRUE(r.balance.empty()) << r.balance.front();
      break;
  }
}

class ChaosSeedTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChaosSeedTest, InvariantsHoldUnderFaults) {
  ExpectInvariantsHold(RunChaosScenario(GetParam()));
}

// ~100 seeds, 25 per scenario shape, inside the tier-1 budget (ctest runs
// each seed as its own test, so the sweep parallelizes).
INSTANTIATE_TEST_SUITE_P(Sweep, ChaosSeedTest, ::testing::Range<uint64_t>(1, 101));

// A failing seed must reproduce byte-for-byte: same seed, same counters,
// same fault schedule, same report text.
TEST(ChaosDeterminismTest, SameSeedSameRun) {
  for (uint64_t seed : {5ull, 42ull}) {
    const ChaosRunResult a = RunChaosScenario(seed);
    const ChaosRunResult b = RunChaosScenario(seed);
    EXPECT_EQ(a.report, b.report) << "seed " << seed;
    EXPECT_EQ(a.issued, b.issued);
    EXPECT_EQ(a.succeeded, b.succeeded);
    EXPECT_EQ(a.timed_out, b.timed_out);
    EXPECT_EQ(a.echo_calls, b.echo_calls);
  }
}

// FNV-1a over a run's report text and every one of its counters: a run
// whose behaviour moves by one byte gets a different digest.
uint64_t RunDigest(const ChaosRunResult& r) {
  std::string text = r.report;
  for (const uint64_t v :
       {r.issued, r.succeeded, r.timed_out, r.duplicates, r.unknown, uint64_t{r.settled},
        r.echo_calls, static_cast<uint64_t>(r.relay_failed_subcalls), r.faults_injected,
        r.checks_run, r.instant_violations}) {
    text += std::to_string(v) + " ";
  }
  for (const std::string& q : r.quiescent) {
    text += q + "\n";
  }
  for (const std::string& b : r.balance) {
    text += b + "\n";
  }
  uint64_t h = 1469598103934665603ULL;  // FNV-1a offset basis
  for (const unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ULL;  // FNV prime
  }
  return h;
}

// The one-shard (serial) engine is pinned to digests recorded before the
// cluster had a single construction path: same fault schedule, same report
// text, same client counters, byte for byte. A change that moves any of
// them must re-pin these on purpose.
TEST(ChaosDeterminismTest, OneShardRunsMatchPinnedDigests) {
  // One seed per scenario shape (seed % 4).
  const std::vector<std::pair<uint64_t, uint64_t>> pinned = {
      {4, 0xf531c1496c70caaaULL},
      {5, 0x411bae39d851b641ULL},
      {42, 0xb4dff0a66dbfac97ULL},
      {7, 0x6e8f492501fd6a41ULL},
  };
  for (const auto& [seed, digest] : pinned) {
    const ChaosRunResult r = RunChaosScenario(seed);
    EXPECT_EQ(RunDigest(r), digest) << "seed " << seed << "\n" << r.report;
  }
}

// The four-shard engine, pinned the same way: chaos ticks, invariant sweeps
// and balance checks run on the coordinator rail here, so a change to the
// rail that moves one byte of a parallel run fails this test.
TEST(ChaosDeterminismTest, FourShardRunsMatchPinnedDigests) {
  const std::vector<std::pair<uint64_t, uint64_t>> pinned = {
      {4, 0xf99fb400e206e8c3ULL},
      {5, 0x95e79bc41750b68bULL},
      {42, 0x0065d0c69da10630ULL},
      {7, 0xc1a233e70b1a0328ULL},
  };
  for (const auto& [seed, digest] : pinned) {
    const ChaosRunResult r = RunChaosScenario(seed, /*shards=*/4);
    EXPECT_EQ(RunDigest(r), digest) << "seed " << seed << "\n" << r.report;
  }
}

// Parallel mode is deterministic for a fixed shard count: same seed, same
// shard count => same counters and same fault schedule.
TEST(ChaosDeterminismTest, ParallelSameSeedSameRun) {
  for (uint64_t seed : {5ull, 6ull}) {
    const ChaosRunResult a = RunChaosScenario(seed, /*shards=*/4);
    const ChaosRunResult b = RunChaosScenario(seed, /*shards=*/4);
    EXPECT_EQ(a.report, b.report) << "seed " << seed;
    EXPECT_EQ(a.issued, b.issued);
    EXPECT_EQ(a.succeeded, b.succeeded);
    EXPECT_EQ(a.timed_out, b.timed_out);
    EXPECT_EQ(a.echo_calls, b.echo_calls);
    EXPECT_EQ(a.faults_injected, b.faults_injected);
  }
}

// The 100-seed sweep again, with the cluster partitioned across 4 shards and
// the invariant checkers live on the coordinator rail: the conservative-
// window parallel core must hold every invariant under the same fault
// schedules the serial engine survives.
class ChaosParallelSeedTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChaosParallelSeedTest, InvariantsHoldUnderFaultsAtFourShards) {
  ExpectInvariantsHold(RunChaosScenario(GetParam(), /*shards=*/4));
}

INSTANTIATE_TEST_SUITE_P(ParallelSweep, ChaosParallelSeedTest, ::testing::Range<uint64_t>(1, 101));

// Guarded bug-injection demo: force a duplicate activation mid-run and prove
// the harness (1) catches it and (2) prints the seed needed to replay it.
TEST(ChaosBugDemoTest, InjectedDuplicateActivationIsCaught) {
  constexpr uint64_t kSeed = 77;
  ShardedEngine engine{{}};
  Simulation& sim = engine.sim();
  ClusterConfig cfg{.num_servers = kServers, .seed = SplitMix64(kSeed)};
  Cluster cluster(&engine, cfg);
  RegisterTestActors(&cluster);

  ChaosConfig chaos_cfg;
  chaos_cfg.seed = kSeed;
  chaos_cfg.faults_start = Millis(500);
  chaos_cfg.faults_end = Seconds(2);
  chaos_cfg.check_every_events = 64;
  chaos_cfg.duplication_bug_actor = MakeActorId(kEchoType, 7);
  ChaosController chaos(&engine, &cluster, chaos_cfg);

  ChaosClient client(&cluster, ChaosClientConfig{.seed = 3});
  Rng rng(9);
  sim.SchedulePeriodic(Millis(5), [&] {
    if (sim.now() > Seconds(2)) {
      return;
    }
    client.Call(MakeActorId(kEchoType, rng.NextBounded(kEchoActors) + 1), 1);
  });

  chaos.Start();
  sim.RunUntil(Seconds(3));

  EXPECT_GT(chaos.total_violations(), 0u);
  ASSERT_FALSE(chaos.violations().empty());
  EXPECT_NE(chaos.violations().front().find("duplicate activation"), std::string::npos)
      << chaos.violations().front();
  // The report names the seed and the injected fault so the run can be
  // replayed exactly.
  const std::string report = chaos.FailureReport();
  EXPECT_NE(report.find("seed 77"), std::string::npos) << report;
  EXPECT_NE(report.find("BUG DEMO"), std::string::npos) << report;
  std::fprintf(stderr, "%s", report.c_str());
  chaos.Stop();
}

TEST(ChaosClientTest, CountsDuplicateLateAndUnknownResponses) {
  ShardedEngine engine{{}};
  Simulation& sim = engine.sim();
  Cluster cluster(&engine, ClusterConfig{.num_servers = 2, .seed = 5});
  RegisterTestActors(&cluster);
  ChaosClient client(&cluster, ChaosClientConfig{.seed = 1, .timeout = Seconds(1)});

  client.Call(MakeActorId(kEchoType, 1), 1);  // seq 1: answered
  sim.RunUntil(Seconds(1));
  ASSERT_EQ(client.succeeded(), 1u);

  // seq 2: every message is dropped, so the call times out.
  cluster.network().set_fault_injector(
      [](NodeId, NodeId, uint32_t, int, SimTime) { return FaultDecision{.drop = true}; });
  client.Call(MakeActorId(kEchoType, 2), 1);
  sim.RunUntil(Seconds(3));
  cluster.network().set_fault_injector(nullptr);
  ASSERT_EQ(client.timed_out(), 1u);
  ASSERT_TRUE(client.Settled());

  // Fabricated responses from server 0: a second answer to seq 1, an answer
  // to the timed-out seq 2, and answers to never-issued seqs 0 and 3.
  for (const uint64_t seq : {1, 2, 0, 3}) {
    EnvelopePtr env = MakeEnvelope();
    env->kind = MessageKind::kResponse;
    env->call_id = CallId{client.node(), seq};
    cluster.network().Send(cluster.NodeOfServer(0), client.node(), 64, std::move(env));
  }
  sim.RunUntil(Seconds(4));
  EXPECT_EQ(client.duplicate_responses(), 1u);
  EXPECT_EQ(client.late_responses(), 1u);
  EXPECT_EQ(client.unknown_responses(), 2u);
  EXPECT_EQ(client.succeeded(), 1u);
  EXPECT_EQ(client.timed_out(), 1u);
  EXPECT_EQ(client.issued(), 2u);
}

TEST(InvariantCheckerTest, DuplicateActivationsReportInActorOrder) {
  // A report must not depend on hash layout: duplicates are listed in
  // ascending actor order, servers ascending within an actor.
  ShardedEngine engine{{}};
  Cluster cluster(&engine, ClusterConfig{.num_servers = 3, .seed = 1});
  RegisterTestActors(&cluster);
  const std::vector<uint64_t> keys = {40, 7, 93, 12, 65};
  for (const int s : {2, 0}) {
    for (const uint64_t k : keys) {
      cluster.server(s).ForceActivateForTest(MakeActorId(kEchoType, k));
    }
  }
  std::vector<std::string> expected;
  for (const uint64_t k : {7, 12, 40, 65, 93}) {
    expected.push_back("duplicate activation: actor " +
                       std::to_string(MakeActorId(kEchoType, k)) + " live on servers 0 2");
  }
  InvariantChecker checker(&cluster);
  EXPECT_EQ(checker.CheckInstant(), expected);
}

// Soak entry point: chaos_test --chaos_seeds=N sweeps N extra seeds beyond
// the checked-in range. N=0 (the default) makes this a no-op.
TEST(ChaosSoakTest, ExtraSeeds) {
  if (g_soak_seeds <= 0) {
    GTEST_SKIP() << "pass --chaos_seeds=N for a soak run";
  }
  for (int i = 0; i < g_soak_seeds; i++) {
    const uint64_t seed = 1000 + static_cast<uint64_t>(i);
    SCOPED_TRACE("soak seed " + std::to_string(seed));
    ExpectInvariantsHold(RunChaosScenario(seed));
    if ((i + 1) % 25 == 0) {
      std::fprintf(stderr, "soak: %d/%d seeds clean\n", i + 1, g_soak_seeds);
    }
  }
}

}  // namespace
}  // namespace actop

int main(int argc, char** argv) {
  // Strip our flag before gtest parses the rest.
  for (int i = 1; i < argc; i++) {
    if (std::strncmp(argv[i], "--chaos_seeds=", 14) == 0) {
      // Whole value, decimal, >= 0: a typo must not silently skip the soak.
      const char* value = argv[i] + 14;
      const char* end = value + std::strlen(value);
      int seeds = 0;
      const auto [ptr, ec] = std::from_chars(value, end, seeds);
      if (ec != std::errc() || ptr != end || seeds < 0) {
        std::fprintf(stderr, "bad value for --chaos_seeds: '%s'\n", value);
        return 2;
      }
      actop::g_soak_seeds = seeds;
      for (int j = i; j + 1 < argc; j++) {
        argv[j] = argv[j + 1];
      }
      argc--;
      i--;
    }
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
