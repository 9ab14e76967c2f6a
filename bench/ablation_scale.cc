// Ablation: placement at cluster scale (the cluster index).
//
// Two scenarios, two claims:
//
//  S1 (200 hosts): twelve long hogs land on brick in a 200-host cluster with
//     two machines down and ten partitioned away from the coordinator. The
//     classic balancer re-surveys every host every round — O(hosts) messages
//     per decision — and aims doomed legs at the partitioned machines until
//     their fault scores exclude them. The indexed balancer builds its view
//     once, keeps it current from migrate deltas, and filters unreachable
//     candidates before any leg: >= 10x fewer survey messages, a per-round
//     message cost independent of cluster size, zero processes lost, and zero
//     attempts at down or partitioned hosts.
//
//  S2 (equivalence): on the paper's own scale (3 hosts) an indexed balancer
//     with ttl 0 must make exactly the full scan's decisions on exactly the
//     full scan's virtual timeline — and the full-scan run itself must replay
//     bit-identically, pinning that the index machinery changes nothing when
//     it is off.
//
// --check runs both scenarios and fails (exit 1) if any invariant above does
// not hold — the regression gate wired into ctest as scale_check.

#include "bench/bench_util.h"
#include "src/apps/load_balancer.h"
#include "src/apps/placement.h"

namespace pmig::bench {
namespace {

constexpr int kHosts = 200;
constexpr int kDown = 2;        // host180, host181: crashed before the run
constexpr int kPartitioned = 10;  // host190..host199: cut off, never heal
constexpr int kJobs = 12;
constexpr const char* kHogIterations = "200000000";  // outlives the whole run

struct ScaleOutcome {
  apps::LoadBalancerStats stats;
  int64_t survey_msgs = 0;
  int live_hosts = 0;  // hosts a survey round would actually touch
  int lost = 0;
  Measurement m;
};

// S1: the 200-host cluster under one balancer, classic or indexed.
ScaleOutcome RunScale(bool use_index) {
  TestbedOptions options;
  options.num_hosts = kHosts;
  options.daemons = true;
  options.metrics = true;
  options.faults.enabled = true;  // partitions only; no random rates
  sim::PartitionFault cut;
  for (int i = kHosts - kPartitioned; i < kHosts; ++i) {
    cut.group_a.push_back("host" + std::to_string(i));
  }
  cut.begin = 0;
  cut.heal = -1;  // never heals: the unreachable set is stable all run
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
      [net, use_index, stats](kernel::SyscallApi& api) {
        apps::LoadBalancerOptions lb;
        lb.poll_interval = sim::Seconds(2);
        lb.min_age = sim::Seconds(1);
        lb.max_rounds = 20;
        lb.policy = apps::PlacementPolicy::kFaultAware;
        lb.migrate = core::MigrateOptions::Robust();
        lb.use_index = use_index;
        lb.index_ttl = sim::Seconds(600);  // > run length: deltas carry the view
        lb.batch_per_round = use_index ? 4 : 1;
        *stats = apps::RunLoadBalancer(api, *net, lb);
        return 0;
      },
      opts);
  world.RunUntilExited("brick", balancer, sim::Seconds(600));

  ScaleOutcome out;
  out.m = Measurement{sim::ToMillis(world.cluster().TotalCpu() - cpu0),
                      sim::ToMillis(world.cluster().clock().now() - t0),
                      TotalBytesMoved(world) - bytes0};
  out.survey_msgs =
      world.cluster().AggregateMetrics().Counter("placement.survey_msgs") - msgs0;
  out.stats = *stats;
  world.cluster().RunFor(sim::Seconds(2));
  int alive = 0;
  for (const auto& host : world.cluster().hosts()) {
    if (!host->down()) ++out.live_hosts;
    for (kernel::Proc* p : host->ListProcs()) {
      if (p->kind == kernel::ProcKind::kVm && p->Alive()) ++alive;
    }
  }
  out.lost = kJobs - alive;
  return out;
}

struct EquivOutcome {
  std::string decisions;
  sim::Nanos clock = 0;
  Measurement m;
};

// S2: the paper-scale balancer, classic or indexed-with-zero-ttl.
EquivOutcome RunEquivalence(bool use_index) {
  TestbedOptions options;
  options.num_hosts = 3;
  options.daemons = true;
  options.metrics = true;
  options.decision_log = true;  // the decision sequence below reads it back
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
      [net, use_index](kernel::SyscallApi& api) {
        apps::LoadBalancerOptions lb;
        lb.poll_interval = sim::Seconds(2);
        lb.min_age = sim::Seconds(1);
        lb.max_rounds = 12;
        lb.use_index = use_index;
        lb.index_ttl = 0;  // trust nothing: every round re-surveys
        apps::RunLoadBalancer(api, *net, lb);
        return 0;
      },
      opts);
  world.RunUntilExited("brick", balancer, sim::Seconds(600));

  EquivOutcome out;
  out.decisions = world.cluster().context().decision_log.OutcomeSequence();
  out.m = Measurement{sim::ToMillis(world.cluster().TotalCpu() - cpu0),
                      sim::ToMillis(world.cluster().clock().now() - t0),
                      TotalBytesMoved(world) - bytes0};
  out.clock = world.cluster().clock().now();
  return out;
}

}  // namespace
}  // namespace pmig::bench

int main(int argc, char** argv) {
  using namespace pmig::bench;
  const bool check = ParseBenchFlags(argc, argv, kCheckFlag).check;

  std::printf("\n=== Ablation: balancing a %d-host cluster (S1) ===\n", kHosts);
  std::printf("%-10s %10s %9s %6s %8s %8s %9s %6s %8s\n", "balancer", "surveys",
              "msgs/rnd", "moved", "to-down", "unreach", "refreshes", "lost",
              "real(s)");
  const ScaleOutcome fullscan = RunScale(false);
  const ScaleOutcome indexed = RunScale(true);
  for (const auto* o : {&fullscan, &indexed}) {
    const bool is_indexed = o == &indexed;
    std::printf("%-10s %10lld %9.1f %6d %8d %8d %9d %6d %8.1f\n",
                is_indexed ? "indexed" : "full-scan",
                static_cast<long long>(o->survey_msgs),
                o->stats.rounds > 0
                    ? static_cast<double>(o->survey_msgs) / o->stats.rounds
                    : 0.0,
                o->stats.migrations, o->stats.attempts_to_down,
                o->stats.attempts_to_unreachable, o->stats.index_refreshes, o->lost,
                o->m.real_ms / 1000.0);
  }
  const double ratio =
      indexed.survey_msgs > 0
          ? static_cast<double>(fullscan.survey_msgs) / indexed.survey_msgs
          : 0.0;
  std::printf("survey-message reduction: %.1fx (%lld -> %lld)\n", ratio,
              static_cast<long long>(fullscan.survey_msgs),
              static_cast<long long>(indexed.survey_msgs));

  std::printf("\n=== Ablation: indexed == full scan at paper scale (S2) ===\n");
  const EquivOutcome scan_a = RunEquivalence(false);
  const EquivOutcome scan_b = RunEquivalence(false);  // replay: index-off stability
  const EquivOutcome index_run = RunEquivalence(true);
  std::printf("full-scan decisions:  %s\n", scan_a.decisions.c_str());
  std::printf("indexed decisions:    %s\n", index_run.decisions.c_str());
  std::printf("decision match: %s   replay match: %s   timeline match: %s\n",
              index_run.decisions == scan_a.decisions ? "yes" : "NO",
              scan_b.decisions == scan_a.decisions ? "yes" : "NO",
              index_run.clock == scan_a.clock ? "yes" : "NO");

  std::vector<Row> rows;
  rows.push_back({"scale200/full-scan", fullscan.m, "O(hosts) msgs per round"});
  rows.push_back({"scale200/indexed", indexed.m, ">=10x fewer survey msgs"});
  rows.push_back({"equiv3/full-scan", scan_a.m, "baseline decisions"});
  rows.push_back({"equiv3/indexed-ttl0", index_run.m, "decision-identical"});
  WriteBenchJson("ablation_scale", rows);

  if (check) {
    bool ok = true;
    const auto fail = [&ok](const char* msg, long long a, long long b) {
      std::printf("check: FAIL %s (%lld vs %lld)\n", msg, a, b);
      ok = false;
    };
    if (fullscan.survey_msgs < 10 * indexed.survey_msgs) {
      fail("indexed balancer saved < 10x survey messages", fullscan.survey_msgs,
           indexed.survey_msgs);
    }
    // Sub-linear per-decision cost: past the one-time index build (one survey
    // per live host), a round costs O(1) messages regardless of cluster size.
    const int64_t steady = indexed.survey_msgs - indexed.live_hosts;
    if (steady > static_cast<int64_t>(indexed.stats.rounds) * 8) {
      fail("indexed steady-state messages not O(1) per round", steady,
           indexed.stats.rounds);
    }
    if (fullscan.lost != 0) fail("full-scan run lost processes", fullscan.lost, 0);
    if (indexed.lost != 0) fail("indexed run lost processes", indexed.lost, 0);
    if (indexed.stats.migrations <= 0) {
      fail("indexed run moved nothing", indexed.stats.migrations, 0);
    }
    if (indexed.stats.attempts_to_down != 0) {
      fail("indexed run aimed at a down host", indexed.stats.attempts_to_down, 0);
    }
    if (indexed.stats.attempts_to_unreachable != 0) {
      fail("indexed run aimed across the partition",
           indexed.stats.attempts_to_unreachable, 0);
    }
    if (index_run.decisions != scan_a.decisions || index_run.decisions.empty()) {
      std::printf("check: FAIL indexed decisions differ from full scan\n");
      ok = false;
    }
    if (index_run.clock != scan_a.clock) {
      fail("indexed virtual timeline differs", index_run.clock, scan_a.clock);
    }
    if (scan_b.decisions != scan_a.decisions ||
        !SameMeasurement(scan_a.m, scan_b.m) || scan_b.clock != scan_a.clock) {
      std::printf("check: FAIL full-scan run does not replay bit-identically\n");
      ok = false;
    }
    std::printf("check: %s\n", ok ? "ok" : "REGRESSION");
    return ok ? 0 : 1;
  }
  return 0;
}
