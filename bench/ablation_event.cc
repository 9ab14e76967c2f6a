// Ablation: event-driven rebalancing (sampler-triggered balancer wakeups).
//
// Three scenarios, three claims:
//
//  S1 (200 hosts): the ablation_scale topology — twelve long hogs on brick,
//     two machines down, ten partitioned away — balanced once by the indexed
//     polling balancer and once by the event-driven balancer. Both converge to
//     the identical final placement, but after convergence the poller keeps
//     burning a round every poll_interval (a poll with nothing to do) while
//     the event-driven balancer runs ZERO rounds and sends ZERO survey
//     messages in the steady-state window: the imbalance predicate is
//     maintained incrementally from sampler snapshots and migrate deltas, so
//     a balanced cluster costs nothing to watch.
//
//  S2 (flag off): with event_driven off, two runs of today's polling balancer
//     (sampler armed, index on) must replay bit-identically — decisions,
//     virtual clock, and every measured value. The flag's default changes
//     nothing.
//
//  S3 (liveness): a balanced-busy cluster never crosses the threshold, so the
//     only wakeups are max_idle heartbeats — the safety net that bounds how
//     long a dropped observation could go unnoticed. The heartbeat rounds are
//     pure predicate re-checks: past the one-time index build they send no
//     survey messages at all.
//
// --check runs all three and fails (exit 1) if any claim above does not hold —
// the regression gate wired into ctest as event_check.

#include "bench/bench_util.h"
#include "src/apps/load_balancer.h"
#include "src/apps/placement.h"

namespace pmig::bench {
namespace {

constexpr int kHosts = 200;
constexpr int kPartitioned = 10;  // host190..host199: cut off, never heal
constexpr int kJobs = 12;
constexpr const char* kHogIterations = "200000000";  // outlives the whole run

struct EventOutcome {
  apps::LoadBalancerStats stats;
  int64_t steady_rounds = 0;   // balancer rounds after the convergence window
  int64_t steady_surveys = 0;  // survey messages after the convergence window
  int64_t total_surveys = 0;
  std::vector<int> placement;  // alive VM procs per host, in network order
  int lost = 0;
  Measurement m;
};

// S1: the 200-host cluster, polling-indexed vs event-driven. Both run under a
// 60s virtual budget; the first 30s is the convergence window, the rest is
// steady state (the cluster is balanced well before the split).
EventOutcome RunScale(bool event_driven) {
  TestbedOptions options;
  options.num_hosts = kHosts;
  options.daemons = true;
  options.metrics = true;
  options.sample_period = sim::Millis(500);  // the wakeup source
  options.faults.enabled = true;  // partitions only; no random rates
  sim::PartitionFault cut;
  for (int i = kHosts - kPartitioned; i < kHosts; ++i) {
    cut.group_a.push_back("host" + std::to_string(i));
  }
  cut.begin = 0;
  cut.heal = -1;
  options.faults.partitions.push_back(cut);
  Testbed world(options);
  world.host("host180").set_down(true);
  world.host("host181").set_down(true);

  for (int i = 0; i < kJobs; ++i) {
    world.StartVm("brick", "/bin/hog", {"hog", kHogIterations});
  }
  world.cluster().RunFor(sim::Seconds(2));

  net::Network* net = &world.cluster().network();
  auto stats = std::make_shared<apps::LoadBalancerStats>();
  const sim::Nanos cpu0 = world.cluster().TotalCpu();
  const sim::Nanos t0 = world.cluster().clock().now();
  const int64_t bytes0 = TotalBytesMoved(world);
  const int64_t msgs0 =
      world.cluster().AggregateMetrics().Counter("placement.survey_msgs");
  kernel::SpawnOptions opts;  // root
  const int32_t balancer = world.host("brick").SpawnNative(
      "balancer",
      [net, event_driven, stats](kernel::SyscallApi& api) {
        apps::LoadBalancerOptions lb;
        lb.poll_interval = sim::Seconds(2);
        lb.min_age = sim::Seconds(1);
        lb.max_rounds = 100;
        lb.policy = apps::PlacementPolicy::kFaultAware;
        lb.migrate = core::MigrateOptions::Robust();
        lb.use_index = true;
        lb.index_ttl = sim::Seconds(600);  // > run length: deltas carry the view
        lb.batch_per_round = 4;
        lb.event_driven = event_driven;
        lb.max_idle = sim::Seconds(120);  // > budget: heartbeats never fire
        lb.run_for = sim::Seconds(60);
        *stats = apps::RunLoadBalancer(api, *net, lb);
        return 0;
      },
      opts);

  // Convergence window, then snapshot the counters for the steady-state delta.
  world.cluster().RunFor(sim::Seconds(30));
  const int64_t rounds_mid =
      world.cluster().AggregateMetrics().Counter("balancer.rounds");
  const int64_t msgs_mid =
      world.cluster().AggregateMetrics().Counter("placement.survey_msgs");
  world.RunUntilExited("brick", balancer, sim::Seconds(600));

  EventOutcome out;
  out.m = Measurement{sim::ToMillis(world.cluster().TotalCpu() - cpu0),
                      sim::ToMillis(world.cluster().clock().now() - t0),
                      TotalBytesMoved(world) - bytes0};
  const auto metrics = world.cluster().AggregateMetrics();
  out.steady_rounds = metrics.Counter("balancer.rounds") - rounds_mid;
  out.steady_surveys = metrics.Counter("placement.survey_msgs") - msgs_mid;
  out.total_surveys = metrics.Counter("placement.survey_msgs") - msgs0;
  out.stats = *stats;
  world.cluster().RunFor(sim::Seconds(2));
  int alive = 0;
  for (const auto& host : world.cluster().hosts()) {
    int n = 0;
    for (kernel::Proc* p : host->ListProcs()) {
      if (p->kind == kernel::ProcKind::kVm && p->Alive()) ++n;
    }
    out.placement.push_back(n);
    alive += n;
  }
  out.lost = kJobs - alive;
  return out;
}

struct FlagOffOutcome {
  std::string decisions;
  sim::Nanos clock = 0;
  Measurement m;
};

// S2: today's polling balancer with the flag off (sampler armed, index on).
FlagOffOutcome RunFlagOff() {
  TestbedOptions options;
  options.num_hosts = 3;
  options.daemons = true;
  options.metrics = true;
  options.decision_log = true;  // the decision sequence below reads it back
  options.sample_period = sim::Millis(500);
  Testbed world(options);
  for (int i = 0; i < 5; ++i) {
    world.StartVm("brick", "/bin/hog", {"hog", "4000000"});
  }
  world.cluster().RunFor(sim::Seconds(3));

  net::Network* net = &world.cluster().network();
  const sim::Nanos cpu0 = world.cluster().TotalCpu();
  const sim::Nanos t0 = world.cluster().clock().now();
  const int64_t bytes0 = TotalBytesMoved(world);
  kernel::SpawnOptions opts;  // root
  const int32_t balancer = world.host("brick").SpawnNative(
      "balancer",
      [net](kernel::SyscallApi& api) {
        apps::LoadBalancerOptions lb;
        lb.poll_interval = sim::Seconds(2);
        lb.min_age = sim::Seconds(1);
        lb.max_rounds = 12;
        lb.use_index = true;  // event_driven deliberately left at its default
        apps::RunLoadBalancer(api, *net, lb);
        return 0;
      },
      opts);
  world.RunUntilExited("brick", balancer, sim::Seconds(600));

  FlagOffOutcome out;
  out.decisions = world.cluster().context().decision_log.OutcomeSequence();
  out.m = Measurement{sim::ToMillis(world.cluster().TotalCpu() - cpu0),
                      sim::ToMillis(world.cluster().clock().now() - t0),
                      TotalBytesMoved(world) - bytes0};
  out.clock = world.cluster().clock().now();
  return out;
}

struct HeartbeatOutcome {
  apps::LoadBalancerStats stats;
  int64_t total_surveys = 0;
  Measurement m;
};

// S3: balanced-busy — one hog per non-coordinator host, spread never reaches
// the threshold, so the event balancer's only wakeups are max_idle heartbeats.
HeartbeatOutcome RunHeartbeat() {
  TestbedOptions options;
  options.num_hosts = 4;
  options.daemons = true;
  options.metrics = true;
  options.sample_period = sim::Millis(500);
  Testbed world(options);
  for (const char* host : {"schooner", "brador", "classic"}) {
    world.StartVm(host, "/bin/hog", {"hog", "400000000"});
  }
  world.cluster().RunFor(sim::Seconds(2));

  net::Network* net = &world.cluster().network();
  auto stats = std::make_shared<apps::LoadBalancerStats>();
  const sim::Nanos cpu0 = world.cluster().TotalCpu();
  const sim::Nanos t0 = world.cluster().clock().now();
  const int64_t msgs0 =
      world.cluster().AggregateMetrics().Counter("placement.survey_msgs");
  kernel::SpawnOptions opts;  // root
  const int32_t balancer = world.host("brick").SpawnNative(
      "balancer",
      [net, stats](kernel::SyscallApi& api) {
        apps::LoadBalancerOptions lb;
        lb.poll_interval = sim::Seconds(2);
        lb.min_age = sim::Seconds(1);
        lb.max_rounds = 100;
        lb.use_index = true;
        lb.index_ttl = sim::Seconds(600);
        lb.event_driven = true;
        lb.max_idle = sim::Seconds(5);
        lb.run_for = sim::Seconds(20);
        *stats = apps::RunLoadBalancer(api, *net, lb);
        return 0;
      },
      opts);
  world.RunUntilExited("brick", balancer, sim::Seconds(600));

  HeartbeatOutcome out;
  out.m = Measurement{sim::ToMillis(world.cluster().TotalCpu() - cpu0),
                      sim::ToMillis(world.cluster().clock().now() - t0), 0};
  out.total_surveys =
      world.cluster().AggregateMetrics().Counter("placement.survey_msgs") - msgs0;
  out.stats = *stats;
  return out;
}

}  // namespace
}  // namespace pmig::bench

int main(int argc, char** argv) {
  using namespace pmig::bench;
  const bool check = ParseBenchFlags(argc, argv, kCheckFlag).check;

  std::printf("\n=== Ablation: event-driven vs polling on %d hosts (S1) ===\n",
              kHosts);
  std::printf("%-10s %7s %7s %12s %13s %6s %6s %8s\n", "balancer", "rounds",
              "idle", "steady-rnds", "steady-msgs", "moved", "lost", "real(s)");
  const EventOutcome polling = RunScale(false);
  const EventOutcome event = RunScale(true);
  for (const auto* o : {&polling, &event}) {
    std::printf("%-10s %7d %7d %12lld %13lld %6d %6d %8.1f\n",
                o == &event ? "event" : "polling", o->stats.rounds,
                o->stats.idle_rounds, static_cast<long long>(o->steady_rounds),
                static_cast<long long>(o->steady_surveys), o->stats.migrations,
                o->lost, o->m.real_ms / 1000.0);
  }
  std::printf("event wakeups: %d   heartbeats: %d   placement match: %s\n",
              event.stats.event_wakeups, event.stats.heartbeats,
              event.placement == polling.placement ? "yes" : "NO");

  std::printf("\n=== Flag off: polling balancer replays bit-identically (S2) ===\n");
  const FlagOffOutcome off_a = RunFlagOff();
  const FlagOffOutcome off_b = RunFlagOff();
  std::printf("decisions: %s\n", off_a.decisions.c_str());
  std::printf("replay match: %s   timeline match: %s\n",
              off_b.decisions == off_a.decisions ? "yes" : "NO",
              off_b.clock == off_a.clock ? "yes" : "NO");

  std::printf("\n=== Heartbeats on a balanced-busy cluster (S3) ===\n");
  const HeartbeatOutcome hb = RunHeartbeat();
  std::printf("rounds: %d   heartbeats: %d   event wakeups: %d   surveys: %lld\n",
              hb.stats.rounds, hb.stats.heartbeats, hb.stats.event_wakeups,
              static_cast<long long>(hb.total_surveys));

  std::vector<Row> rows;
  rows.push_back({"scale200/polling", polling.m, "a round every poll_interval"});
  rows.push_back({"scale200/event", event.m, "zero steady-state rounds"});
  rows.push_back({"flagoff3/polling", off_a.m, "bit-identical with flag off"});
  rows.push_back({"balanced4/heartbeat", hb.m, "max_idle safety net only"});
  WriteBenchJson("ablation_event", rows);

  if (check) {
    bool ok = true;
    const auto fail = [&ok](const char* msg, long long a, long long b) {
      std::printf("check: FAIL %s (%lld vs %lld)\n", msg, a, b);
      ok = false;
    };
    // The headline: a balanced cluster costs the event balancer nothing.
    if (event.steady_rounds != 0) {
      fail("event balancer polled in steady state", event.steady_rounds, 0);
    }
    if (event.steady_surveys != 0) {
      fail("event balancer surveyed in steady state", event.steady_surveys, 0);
    }
    if (polling.steady_rounds <= 0) {
      fail("polling balancer should keep polling (scenario broken?)",
           polling.steady_rounds, 0);
    }
    if (event.stats.rounds >= polling.stats.rounds) {
      fail("event balancer did not run fewer rounds", event.stats.rounds,
           polling.stats.rounds);
    }
    if (event.placement != polling.placement) {
      std::printf("check: FAIL final placements differ\n");
      ok = false;
    }
    if (polling.lost != 0) fail("polling run lost processes", polling.lost, 0);
    if (event.lost != 0) fail("event run lost processes", event.lost, 0);
    if (event.stats.migrations <= 0 ||
        event.stats.migrations != polling.stats.migrations) {
      fail("migration counts diverge", event.stats.migrations,
           polling.stats.migrations);
    }
    if (event.stats.attempts_to_down != 0 ||
        event.stats.attempts_to_unreachable != 0) {
      fail("event run aimed at a down or partitioned host",
           event.stats.attempts_to_down, event.stats.attempts_to_unreachable);
    }
    if (off_b.decisions != off_a.decisions || off_a.decisions.empty() ||
        off_b.clock != off_a.clock || !SameMeasurement(off_a.m, off_b.m)) {
      std::printf("check: FAIL flag-off polling run does not replay bit-identically\n");
      ok = false;
    }
    if (hb.stats.heartbeats < 3) {
      fail("balanced-busy run saw too few heartbeats", hb.stats.heartbeats, 3);
    }
    // One opening round, then a round per heartbeat — except the last
    // heartbeat, which lands on the run_for deadline and exits instead.
    if (hb.stats.rounds != hb.stats.heartbeats) {
      fail("heartbeat run had rounds not driven by the heartbeat",
           hb.stats.rounds, hb.stats.heartbeats);
    }
    if (hb.stats.event_wakeups != 0) {
      fail("balanced-busy run saw a threshold wakeup", hb.stats.event_wakeups, 0);
    }
    if (hb.total_surveys != 4) {
      fail("heartbeat rounds surveyed past the index build", hb.total_surveys, 4);
    }
    std::printf("check: %s\n", ok ? "ok" : "REGRESSION");
    return ok ? 0 : 1;
  }
  return 0;
}
