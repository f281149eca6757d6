#include "src/load/scenarios.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/load/keyspace.h"
#include "src/load/open_loop.h"
#include "src/load/rate_schedule.h"
#include "src/runtime/client.h"
#include "src/runtime/cluster.h"
#include "src/sim/sharded_engine.h"
#include "src/sim/simulation.h"
#include "src/testing/chaos.h"
#include "src/testing/invariants.h"
#include "src/workload/chat.h"
#include "src/workload/halo_presence.h"
#include "src/workload/heartbeat.h"
#include "src/workload/social.h"

namespace actop {

namespace {

// --- scale helpers -------------------------------------------------------
// One knob scales population and offered rate together while the cluster
// stays fixed: smoke runs keep every code path and stay utilization-light.

int ScaleCount(int full, double scale, int floor_count) {
  return std::max(floor_count, static_cast<int>(static_cast<double>(full) * scale + 0.5));
}

double ScaleRate(double full, double scale, double floor_rate) {
  return std::max(floor_rate, full * scale);
}

// Full-scale runs use publication-length phases; smoke runs (tier-1 ctest)
// compress them to seconds of simulated time.
SimDuration Phase(double scale, int64_t full_s, int64_t smoke_s) {
  return Seconds(scale >= 0.5 ? full_s : smoke_s);
}

constexpr SimDuration kClientTimeout = Seconds(5);
// Drain must outlive the client timeout plus the 1 s timeout sweep so every
// measure-window request resolves to completed or timed out.
constexpr SimDuration kDrain = kClientTimeout + Seconds(2);

// --- common open-loop harness --------------------------------------------

struct DriveSpec {
  const char* name = "";
  uint64_t simulated_users = 0;
  SimDuration warmup = 0;
  SimDuration measure = 0;
  SimDuration drain = kDrain;
  SimDuration invariant_period = Seconds(2);
  // Quiescent coherence needs a drained cluster; scenarios whose optimizers
  // keep migrating actors after traffic stops (halo_launch) skip it.
  bool quiescent_check = true;
  // > 0: also check the partitioner balance constraint each tick.
  int64_t balance_delta = 0;
  int64_t balance_slack = 0;
  SloSpec slo;
  // Invoked when the measure window closes, before the drain: scenarios stop
  // workload churn here so the cluster can actually quiesce.
  std::function<void()> on_measure_end;
};

ScenarioReport Drive(ShardedEngine* engine, Cluster* cluster, ClientPool* pool,
                     const RateSchedule* schedule, const DriveSpec& spec,
                     const ScenarioOptions& opt) {
  Simulation* sim = &engine->sim();
  ScenarioReport report;
  report.scenario = spec.name;
  report.seed = opt.seed;
  report.scale = opt.scale;
  report.simulated_users = spec.simulated_users;
  report.num_servers = cluster->num_servers();
  report.warmup_s = ToSeconds(spec.warmup);
  report.measure_s = ToSeconds(spec.measure);
  report.drain_s = ToSeconds(spec.drain);
  report.peak_rate_per_s = schedule->PeakRate();
  report.chaos = opt.chaos;
  report.slo = spec.slo;
  if (opt.chaos) {
    // Under fault injection the latency/goodput SLOs are off the table by
    // design (crashed servers lose requests); the run still reports them and
    // still gates on invariant violations.
    report.slo = SloSpec{};
  }

  OpenLoopDriver driver(sim, pool, schedule, opt.seed ^ 0x9e3779b97f4a7c15ULL);
  driver.Start();

  std::unique_ptr<ChaosController> chaos;
  if (opt.chaos) {
    ChaosConfig cc;
    cc.seed = opt.seed ^ 0x6a09e667f3bcc909ULL;
    cc.faults_start = spec.warmup;
    cc.faults_end = spec.warmup + spec.measure;
    cc.crash_prob = 0.02;
    cc.directory_churn_prob = 0.05;
    cc.forced_migrations_per_tick = 1;
    cc.drop_prob = 0.01;
    cc.delay_prob = 0.05;
    cc.fault_client_links = false;
    cc.check_every_events = 1024;
    chaos = std::make_unique<ChaosController>(engine, cluster, cc);
    chaos->Start();
  }

  InvariantChecker checker(cluster);
  uint64_t violations = 0;
  auto run_checks = [&] {
    violations += checker.CheckInstant().size();
    if (spec.balance_delta > 0) {
      violations += checker.CheckBalance(spec.balance_delta, spec.balance_slack).size();
    }
  };

  // Invariant sweeps and metric snapshots run between engine windows: after
  // RunUntil returns, every shard has advanced to the cut time and the
  // workers are parked at the barrier, so cross-shard reads are race-free.
  auto run_phase_with_checks = [&](SimTime until) {
    while (engine->now() + spec.invariant_period < until) {
      engine->RunUntil(engine->now() + spec.invariant_period);
      run_checks();
    }
    engine->RunUntil(until);
    run_checks();
  };

  // Warm-up: populate the actor fleet, let queues and (if enabled) the
  // optimizers settle, exactly like the closed-loop harness discards its
  // convergence phase.
  run_phase_with_checks(spec.warmup);

  // Measure window: reset everything measurable at the boundary (PR-5
  // measure-window discipline — the alloc snapshot hooks in here too).
  pool->ResetStats();
  cluster->ResetMetricsLatencies();
  auto sum_rejections = [&] {
    uint64_t total = 0;
    for (int s = 0; s < cluster->num_servers(); s++) {
      for (int i = 0; i < Server::kNumStages; i++) {
        total += cluster->server(s).stage(i).total_rejections();
      }
    }
    return total;
  };
  const uint64_t rejections0 = sum_rejections();
  const uint64_t arrivals0 = driver.arrivals();
  const uint64_t bursts0 = driver.burst_arrivals();
  const uint64_t events0 = engine->events_executed();
  const uint64_t allocs0 = opt.alloc_counter ? opt.alloc_counter() : 0;

  run_phase_with_checks(spec.warmup + spec.measure);

  const uint64_t allocs1 = opt.alloc_counter ? opt.alloc_counter() : 0;
  const uint64_t events1 = engine->events_executed();
  report.issued = pool->issued();
  report.arrivals = driver.arrivals() - arrivals0;
  report.burst_arrivals = driver.burst_arrivals() - bursts0;
  report.stage_rejections = sum_rejections() - rejections0;

  // Drain: no further arrivals; every outstanding request completes or hits
  // the client timeout, so the rates below partition `issued` exactly.
  driver.Stop();
  if (chaos) {
    chaos->Stop();
  }
  if (spec.on_measure_end) {
    spec.on_measure_end();
  }
  engine->RunUntil(spec.warmup + spec.measure + spec.drain);

  report.completed = pool->completed();
  report.timeouts = pool->timeouts();
  const double measure_s = ToSeconds(spec.measure);
  report.offered_per_s = static_cast<double>(report.issued) / measure_s;
  report.goodput_per_s = static_cast<double>(report.completed) / measure_s;
  if (report.issued > 0) {
    report.timeout_rate =
        static_cast<double>(report.timeouts) / static_cast<double>(report.issued);
    report.shed_rate =
        static_cast<double>(report.stage_rejections) / static_cast<double>(report.issued);
  }
  const Histogram& lat = pool->latency();
  report.p50_ms = ToMillis(lat.p50());
  report.p99_ms = ToMillis(lat.p99());
  report.p999_ms = ToMillis(lat.p999());
  report.mean_ms = lat.mean() / 1e6;
  report.max_ms = ToMillis(lat.max());

  if (spec.quiescent_check) {
    violations += checker.CheckQuiescent().size();
  } else {
    run_checks();
  }
  report.invariant_checks = checker.checks_run();
  report.invariant_violations = violations;
  if (chaos) {
    report.invariant_violations += chaos->total_violations();
    report.chaos_crashes = chaos->crashes();
    report.chaos_directory_churns = chaos->shard_churns();
    report.chaos_dropped_messages = chaos->dropped_messages();
  }

  if (opt.alloc_counter) {
    report.allocs_measured = true;
    report.measure_events = events1 - events0;
    report.measure_allocs = allocs1 - allocs0;
    report.allocs_per_event =
        report.measure_events == 0
            ? 0.0
            : static_cast<double>(report.measure_allocs) /
                  static_cast<double>(report.measure_events);
  }

  EvaluateSlo(&report);
  return report;
}

ClusterConfig BaseCluster(int servers, uint64_t seed) {
  ClusterConfig cfg;
  cfg.num_servers = servers;
  cfg.seed = seed;
  return cfg;
}

// Engine for a scenario: shards = the requested thread count (clamped to the
// server count — each shard must own at least one server), lookahead = the
// network's one-way latency, the conservative-window bound.
ShardedEngineConfig EngineConfigFor(const ScenarioOptions& opt, const ClusterConfig& cfg) {
  ShardedEngineConfig ec;
  ec.shards = std::max(1, std::min(opt.threads, cfg.num_servers));
  ec.lookahead = cfg.network.one_way_latency;
  return ec;
}

// --- diurnal_chat ---------------------------------------------------------
// Chat service under a compressed day/night curve: two 40-second "days" with
// a 65% swing around the base posting rate, room churn running throughout.

ScenarioReport RunDiurnalChat(const ScenarioOptions& opt) {
  const int users = ScaleCount(50000, opt.scale, 500);
  const double rate = ScaleRate(1200.0, opt.scale, 20.0);

  const ClusterConfig cfg = BaseCluster(8, opt.seed);
  ShardedEngine engine(EngineConfigFor(opt, cfg));
  Cluster cluster(&engine, cfg);

  ChatWorkloadConfig wl;
  wl.num_users = users;
  wl.num_rooms = std::max(10, users / 10);
  wl.message_rate = rate;  // unused (external clients); kept for reference
  wl.rehomes_per_period = std::max(1, users / 2000);
  wl.client_timeout = kClientTimeout;
  wl.external_clients = true;
  wl.seed = opt.seed ^ 0x1111;
  ChatWorkload chat(&cluster, wl);
  chat.Start();

  const SimDuration warmup = Phase(opt.scale, 10, 4);
  const SimDuration measure = Phase(opt.scale, 80, 12);
  RateSchedule schedule(rate);
  schedule.AddDiurnal(Seconds(40), 0.65, -M_PI / 2);

  DriveSpec spec;
  spec.name = "diurnal_chat";
  spec.simulated_users = static_cast<uint64_t>(users);
  spec.warmup = warmup;
  spec.measure = measure;
  spec.slo.p99_ms = 120.0;
  spec.slo.max_timeout_rate = 0.01;
  spec.slo.min_goodput_fraction = 0.98;
  spec.on_measure_end = [&chat] { chat.Stop(); };
  return Drive(&engine, &cluster, &chat.clients(), &schedule, spec, opt);
}

// --- flash_crowd ----------------------------------------------------------
// Launch day against a million-user presence-status fleet: every user's
// session is a monitor actor, polled at a steady base rate until the crowd
// arrives — a 6x step for ten seconds that pushes the cluster through
// saturation. Open-loop arrivals keep coming while queues grow, which is
// precisely what a closed-loop driver cannot model; the SLO gates tail
// latency and the timeout rate across the whole window, recovery included.

ScenarioReport RunFlashCrowd(const ScenarioOptions& opt) {
  const int users = ScaleCount(1000000, opt.scale, 2000);
  const double rate = ScaleRate(15000.0, opt.scale, 100.0);

  const ClusterConfig cfg = BaseCluster(8, opt.seed);
  ShardedEngine engine(EngineConfigFor(opt, cfg));
  Cluster cluster(&engine, cfg);

  HeartbeatWorkloadConfig wl;
  wl.num_monitors = users;
  wl.request_rate = rate;  // unused (external clients)
  wl.request_bytes = 240;
  wl.handler_compute = Micros(150);
  wl.client_timeout = kClientTimeout;
  wl.external_clients = true;
  wl.seed = opt.seed ^ 0x2222;
  HeartbeatWorkload fleet(&cluster, wl);
  fleet.Start();

  const SimDuration warmup = Phase(opt.scale, 10, 3);
  const SimDuration measure = Phase(opt.scale, 50, 12);
  RateSchedule schedule(rate);
  // The crowd: a 3.5x step one third into the measure window, held 10 s
  // (smoke: 3 s), decaying spike tail as stragglers keep retrying. At full
  // scale the step (52.5K req/s) exceeds the measured cluster capacity
  // (~46K req/s with this payload/handler mix), so a real backlog builds for
  // the whole hold and drains over the following seconds — the
  // overload-and-recover transient the SLO bounds below assert, which a
  // closed-loop driver (arrivals gated on completions) cannot produce.
  const SimTime crowd_start = warmup + measure / 3;
  const SimDuration crowd_hold = Phase(opt.scale, 10, 3);
  schedule.AddStep(crowd_start, crowd_start + crowd_hold, 3.5);
  schedule.AddSpike(crowd_start + crowd_hold, 1.5, Seconds(3));

  DriveSpec spec;
  spec.name = "flash_crowd";
  spec.simulated_users = static_cast<uint64_t>(users);
  spec.warmup = warmup;
  spec.measure = measure;
  spec.slo.p50_ms = 50.0;
  spec.slo.p999_ms = 4500.0;
  spec.slo.max_timeout_rate = 0.08;
  spec.slo.min_goodput_fraction = 0.90;
  spec.on_measure_end = [&fleet] { fleet.Stop(); };
  return Drive(&engine, &cluster, &fleet.clients(), &schedule, spec, opt);
}

// --- hot_key --------------------------------------------------------------
// Zipf(1.1) hot-key skew over a 200K-monitor fleet: the head keys absorb
// double-digit percentages of all traffic, so a handful of actors (and the
// servers hosting them) queue while the cluster as a whole idles. The SLO
// bounds the tail the hot keys produce — a per-key-skew property invisible
// to aggregate closed-loop throughput numbers.

ScenarioReport RunHotKey(const ScenarioOptions& opt) {
  const int users = ScaleCount(200000, opt.scale, 2000);
  const double rate = ScaleRate(24000.0, opt.scale, 200.0);

  const ClusterConfig cfg = BaseCluster(8, opt.seed);
  ShardedEngine engine(EngineConfigFor(opt, cfg));
  Cluster cluster(&engine, cfg);

  HeartbeatWorkloadConfig wl;
  wl.num_monitors = users;
  wl.request_rate = rate;  // unused: the Zipf pool below issues all traffic
  wl.request_bytes = 200;
  wl.handler_compute = Micros(300);
  wl.client_timeout = kClientTimeout;
  wl.external_clients = true;
  wl.seed = opt.seed ^ 0x3333;
  HeartbeatWorkload fleet(&cluster, wl);
  fleet.Start();

  // Zipf-skewed targeting replaces the workload's uniform pool: key 1 is the
  // hottest monitor, with P(k) ~ k^-1.1.
  ZipfSampler zipf(static_cast<uint64_t>(users), 1.1);
  ClientPool hot_pool(
      &cluster,
      ClientConfig{.request_rate = rate,
                   .request_bytes = wl.request_bytes,
                   .timeout = kClientTimeout,
                   .seed = opt.seed ^ 0x4444},
      [zipf](Rng& rng, ActorId* target, MethodId* method) {
        *target = MakeActorId(kMonitorActorType, zipf.Sample(rng));
        *method = 0;
        return true;
      });

  const SimDuration warmup = Phase(opt.scale, 8, 3);
  const SimDuration measure = Phase(opt.scale, 40, 12);
  RateSchedule schedule(rate);

  DriveSpec spec;
  spec.name = "hot_key";
  spec.simulated_users = static_cast<uint64_t>(users);
  spec.warmup = warmup;
  spec.measure = measure;
  spec.slo.p50_ms = 20.0;
  // The median stays milliseconds while the Zipf head drives the extreme
  // tail to seconds (full scale: p999 ~3.0 s at ~94% hot-actor utilization)
  // — the skew signature this scenario exists to bound.
  spec.slo.p999_ms = 3500.0;
  spec.slo.max_timeout_rate = 0.01;
  spec.slo.min_goodput_fraction = 0.98;
  spec.on_measure_end = [&fleet] { fleet.Stop(); };
  return Drive(&engine, &cluster, &hot_pool, &schedule, spec, opt);
}

// --- viral_social ---------------------------------------------------------
// Power-law social fan-out with viral cascades: background posts/reads at a
// steady rate; every 15 s a top-followed celebrity posts, a Pareto-sized
// wave of their followers reposts to their own audiences (second-hop
// fan-out through real actor messages), and a read storm (3x spike, 4 s
// decay) rides each trigger.

ScenarioReport RunViralSocial(const ScenarioOptions& opt) {
  const int users = ScaleCount(20000, opt.scale, 1000);
  const double rate = ScaleRate(5000.0, opt.scale, 100.0);

  const ClusterConfig cfg = BaseCluster(8, opt.seed);
  ShardedEngine engine(EngineConfigFor(opt, cfg));
  Cluster cluster(&engine, cfg);
  Simulation& sim = engine.sim();

  SocialWorkloadConfig wl;
  wl.num_users = users;
  wl.mean_following = 12;
  wl.zipf_skew = 0.9;
  // The post/read mix of the external arrivals still comes from the
  // workload's TargetFn, which splits by these two rates.
  wl.post_rate = rate * 0.2;
  wl.read_rate = rate * 0.8;
  wl.client_timeout = kClientTimeout;
  wl.external_clients = true;
  wl.seed = opt.seed ^ 0x5555;
  SocialWorkload social(&cluster, wl);
  social.Start();

  const SimDuration warmup = Phase(opt.scale, 8, 3);
  const SimDuration measure = Phase(opt.scale, 45, 12);
  RateSchedule schedule(rate);

  // Celebrities: the three highest in-degree users from the driver mirror.
  std::vector<uint64_t> celebs;
  {
    std::vector<std::pair<int, uint64_t>> by_degree;
    for (uint64_t u = 1; u <= static_cast<uint64_t>(users); u++) {
      by_degree.emplace_back(social.FollowerCount(u), u);
    }
    std::sort(by_degree.rbegin(), by_degree.rend());
    for (size_t i = 0; i < 3 && i < by_degree.size(); i++) {
      celebs.push_back(by_degree[i].second);
    }
  }

  auto cascade_rng = std::make_shared<Rng>(opt.seed ^ 0x6666);
  BoundedParetoSampler width(4, static_cast<uint64_t>(std::max(8, users / 50)), 1.25);
  const int num_triggers = static_cast<int>(measure / Seconds(15)) + 1;
  for (int i = 0; i < num_triggers; i++) {
    const SimTime at = warmup + Seconds(5) + Seconds(15) * i;
    if (at >= warmup + measure - Seconds(5)) {
      break;  // leave room for the wave to resolve inside the window
    }
    schedule.AddSpike(at, 3.0, Seconds(4));
    const uint64_t celeb = celebs[static_cast<size_t>(i) % celebs.size()];
    sim.ScheduleAt(at, [&social, &cluster, celeb, cascade_rng, width] {
      ClientPool& pool = social.clients();
      pool.InjectTo(SocialWorkload::UserActor(celeb), kPost);
      const std::vector<uint64_t>& audience = social.FollowersOfUser(celeb);
      if (audience.empty()) {
        return;
      }
      // Repost wave: Pareto-many followers (with replacement) repost over
      // the next ~second; their posts fan out to their own followers.
      const uint64_t reposts = width.Sample(*cascade_rng);
      for (uint64_t r = 0; r < reposts; r++) {
        const uint64_t who = audience[cascade_rng->NextBounded(audience.size())];
        const SimDuration delay =
            Millis(150) + cascade_rng->NextUniformDuration(0, Millis(850));
        cluster.sim().ScheduleAfter(delay, [&social, who] {
          social.clients().InjectTo(SocialWorkload::UserActor(who), kPost);
        });
      }
    });
  }

  DriveSpec spec;
  spec.name = "viral_social";
  spec.simulated_users = static_cast<uint64_t>(users);
  spec.warmup = warmup;
  spec.measure = measure;
  spec.slo.p99_ms = 200.0;
  spec.slo.max_timeout_rate = 0.02;
  spec.slo.min_goodput_fraction = 0.95;
  spec.on_measure_end = [&social] { social.Stop(); };
  return Drive(&engine, &cluster, &social.clients(), &schedule, spec, opt);
}

// --- reconnect_storm ------------------------------------------------------
// IoT fleet with synchronized reconnect storms: steady telemetry from 200K
// devices, and every 12 s a mass-disconnect sweep (every directory shard
// churns its idle registrations, as after a network partition) immediately
// followed by a synchronized burst of reconnect pushes at one instant.

ScenarioReport RunReconnectStorm(const ScenarioOptions& opt) {
  const int devices = ScaleCount(200000, opt.scale, 2000);
  const double rate = ScaleRate(8000.0, opt.scale, 100.0);
  const auto burst = static_cast<uint64_t>(ScaleCount(15000, opt.scale, 200));

  const ClusterConfig cfg = BaseCluster(8, opt.seed);
  ShardedEngine engine(EngineConfigFor(opt, cfg));
  Cluster cluster(&engine, cfg);

  HeartbeatWorkloadConfig wl;
  wl.num_monitors = devices;
  wl.request_rate = rate;  // unused (external clients)
  wl.request_bytes = 160;
  wl.handler_compute = Micros(100);
  wl.client_timeout = kClientTimeout;
  wl.external_clients = true;
  wl.seed = opt.seed ^ 0x7777;
  HeartbeatWorkload fleet(&cluster, wl);
  fleet.Start();

  const SimDuration warmup = Phase(opt.scale, 8, 3);
  const SimDuration measure = Phase(opt.scale, 40, 12);
  RateSchedule schedule(rate);
  const int num_storms = opt.scale >= 0.5 ? 3 : 2;
  for (int i = 0; i < num_storms; i++) {
    const SimTime at = warmup + measure / 5 + (measure * 3 / 10) * i;
    // The disconnect sweep mutates every server, so it rides the rail. It
    // is scheduled before Drive() starts the driver, so at the storm instant
    // the churn runs first (one shard dispatches same-instant events in
    // scheduling order; more run the rail before same-instant shard events),
    // then the burst arrives — reconnects hit a directory that just dropped
    // their registrations.
    engine.ScheduleRailAt(at, [&cluster] {
      for (int s = 0; s < cluster.num_servers(); s++) {
        cluster.ChurnDirectoryShard(static_cast<ServerId>(s));
      }
    });
    schedule.AddBurst(at, burst);
  }

  DriveSpec spec;
  spec.name = "reconnect_storm";
  spec.simulated_users = static_cast<uint64_t>(devices);
  spec.warmup = warmup;
  spec.measure = measure;
  spec.slo.p999_ms = 3000.0;
  spec.slo.max_timeout_rate = 0.01;
  spec.slo.min_goodput_fraction = 0.95;
  spec.on_measure_end = [&fleet] { fleet.Stop(); };
  return Drive(&engine, &cluster, &fleet.clients(), &schedule, spec, opt);
}

// --- halo_launch ----------------------------------------------------------
// Halo presence with both ActOp optimizers on (the paper's full system),
// under a launch-day surge: status requests step to 3x for fifteen seconds
// while matchmaking keeps churning the communication graph. The balance
// invariant (partitioner constraint d) is checked every tick.

ScenarioReport RunHaloLaunch(const ScenarioOptions& opt) {
  const int players = ScaleCount(20000, opt.scale, 800);
  const double rate = ScaleRate(3000.0, opt.scale, 50.0);

  ClusterConfig cfg = BaseCluster(8, opt.seed);
  cfg.enable_partitioning = true;
  // Scaled exchange cadence, as in bench/halo_common.cc.
  cfg.partition.exchange_period = Seconds(1);
  cfg.partition.exchange_min_gap = Seconds(1);
  cfg.partition.max_peers_per_round = 4;
  cfg.partition.pairwise.candidate_set_size = 256;
  cfg.partition.pairwise.balance_delta = 200;
  cfg.partition.edge_sample_capacity = 16384;
  cfg.partition.edge_decay_period = Seconds(10);
  cfg.enable_thread_optimization = true;
  cfg.thread_controller.period = Seconds(1);
  cfg.thread_controller.eta = 100e-6;
  ShardedEngine engine(EngineConfigFor(opt, cfg));
  Cluster cluster(&engine, cfg);

  HaloWorkloadConfig wl;
  wl.target_players = players;
  wl.idle_pool_target = std::max(8, players / 100);
  wl.request_rate = rate;  // unused (external clients)
  wl.request_bytes = 800;
  wl.status_bytes = 1600;
  wl.update_bytes = 1200;
  wl.client_timeout = kClientTimeout;
  wl.external_clients = true;
  wl.seed = opt.seed ^ 0x8888;
  HaloWorkload halo(&cluster, wl);
  halo.Start();
  cluster.StartOptimizers();

  const SimDuration warmup = Phase(opt.scale, 12, 6);
  const SimDuration measure = Phase(opt.scale, 40, 12);
  RateSchedule schedule(rate);
  const SimTime surge_start = warmup + measure / 4;
  schedule.AddStep(surge_start, surge_start + Phase(opt.scale, 15, 4), 3.0);

  DriveSpec spec;
  spec.name = "halo_launch";
  spec.simulated_users = static_cast<uint64_t>(players);
  spec.warmup = warmup;
  spec.measure = measure;
  // Migrations keep flowing after traffic stops, so quiescent-only
  // coherence cannot be asserted; instant checks still run to the end.
  spec.quiescent_check = false;
  spec.balance_delta = cfg.partition.pairwise.balance_delta;
  // Transient drift: in-flight activations plus stale exchange views (the
  // chaos harness uses the same allowance structure).
  spec.balance_slack = cfg.partition.pairwise.balance_delta * 2;
  // Full scale: the 3x surge (9K req/s of 18-message fan-out requests)
  // saturates transiently — p99 ~660 ms against this bound, p50 <10 ms.
  spec.slo.p99_ms = 900.0;
  spec.slo.max_timeout_rate = 0.02;
  spec.slo.min_goodput_fraction = 0.95;
  spec.on_measure_end = [&halo] { halo.Stop(); };
  return Drive(&engine, &cluster, &halo.clients(), &schedule, spec, opt);
}

// --- halo_hyperscale ------------------------------------------------------
// The roadmap's 100x-the-paper scale point as an open-loop SLO scenario:
// 1000 servers hosting a 10M-player Halo presence fleet under a steady
// status-request load. Unlike halo_launch this is not an overload story —
// the offered rate is modest per server — it is a data-plane scale story:
// the flat directory slabs, activation tables and player records have to
// hold 10M live actors while the invariant sweeps (which walk every
// directory entry) stay affordable. Partitioning stays off (the migration
// plane has its own benches and would dominate a K=1000 run); the thread
// optimizer runs on every server as in the full system.

ScenarioReport RunHaloHyperscale(const ScenarioOptions& opt) {
  const int servers = ScaleCount(1000, opt.scale, 4);
  const int players = ScaleCount(10000000, opt.scale, 2000);
  const double rate = ScaleRate(20000.0, opt.scale, 50.0);

  ClusterConfig cfg = BaseCluster(servers, opt.seed);
  cfg.enable_thread_optimization = true;
  cfg.thread_controller.period = Seconds(1);
  cfg.thread_controller.eta = 100e-6;
  ShardedEngine engine(EngineConfigFor(opt, cfg));
  Cluster cluster(&engine, cfg);

  HaloWorkloadConfig wl;
  wl.target_players = players;
  wl.idle_pool_target = std::max(8, players / 100);
  wl.request_rate = rate;  // unused (external clients)
  wl.request_bytes = 800;
  wl.status_bytes = 1600;
  wl.update_bytes = 1200;
  wl.client_timeout = kClientTimeout;
  wl.external_clients = true;
  wl.seed = opt.seed ^ 0x9999;
  HaloWorkload halo(&cluster, wl);
  halo.Start();
  cluster.StartOptimizers();

  // Short phases: the population, not the window length, is the point. The
  // warm-up covers the initial game-formation wave (first-generation game
  // endings desynchronize from t=1s).
  const SimDuration warmup = Phase(opt.scale, 6, 3);
  const SimDuration measure = Phase(opt.scale, 12, 10);
  RateSchedule schedule(rate);

  DriveSpec spec;
  spec.name = "halo_hyperscale";
  spec.simulated_users = static_cast<uint64_t>(players);
  spec.warmup = warmup;
  spec.measure = measure;
  // Each instant sweep walks every directory entry — 10M at full scale — so
  // check at a coarser period than the default 2 s.
  spec.invariant_period = Seconds(4);
  spec.slo.p99_ms = 150.0;
  spec.slo.max_timeout_rate = 0.01;
  spec.slo.min_goodput_fraction = 0.98;
  spec.on_measure_end = [&halo] { halo.Stop(); };
  return Drive(&engine, &cluster, &halo.clients(), &schedule, spec, opt);
}

}  // namespace

const std::vector<ScenarioDef>& ScenarioRegistry() {
  static const std::vector<ScenarioDef> kScenarios = {
      {"diurnal_chat", "chat service under a compressed day/night rate curve", RunDiurnalChat},
      {"flash_crowd", "1M-user presence fleet, launch-day step overload", RunFlashCrowd},
      {"hot_key", "Zipf(1.1) hot-key skew over a 200K-monitor fleet", RunHotKey},
      {"viral_social", "power-law fan-out with viral repost cascades", RunViralSocial},
      {"reconnect_storm", "IoT fleet with synchronized reconnect storms", RunReconnectStorm},
      {"halo_launch", "Halo presence (ActOp on) under a launch surge", RunHaloLaunch},
      {"halo_hyperscale", "1000-server / 10M-player Halo fleet at steady load",
       RunHaloHyperscale},
  };
  return kScenarios;
}

const ScenarioDef* FindScenario(const std::string& name) {
  for (const ScenarioDef& def : ScenarioRegistry()) {
    if (name == def.name) {
      return &def;
    }
  }
  return nullptr;
}

}  // namespace actop
