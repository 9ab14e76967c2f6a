// Ablation: placement policies under failure (the crash-blind-placement fix).
//
// Two scenarios, two claims:
//
//  S1 (flaky host): a cluster where one machine crashes and recovers on a
//     schedule while the load balancer sheds jobs toward it. Every policy must
//     end with zero lost processes and zero migration attempts into a host that
//     is down (the bug this PR fixes). The fault-aware policies additionally
//     learn from the failed migrations and route around the flapping host while
//     its fault score decays, cutting failed/fallback migrations vs kLoadOnly.
//
//  S2 (warm segment cache): a big dirty-tracked job whose text and data base
//     already sit in one host's /var/segcache. kLoadOnly ties on load and picks
//     the first host in network order (cold); kCostAware reads the cache and
//     picks the warm host, measurably cutting the bytes a --cached migration
//     puts on the wire and disk.
//
// --check runs both scenarios and fails (exit 1) if any invariant above does
// not hold — the regression gate wired into ctest.

#include "bench/bench_util.h"
#include "src/apps/load_balancer.h"
#include "src/apps/placement.h"

namespace pmig::bench {
namespace {

using apps::PlacementPolicy;

// ~50 KB text + ~50 KB data: big enough that one migration spends whole virtual
// seconds in dump + wire + restore, so a scheduled crash can bite mid-flight.
std::string BigHogSource() {
  return core::WithPadding(core::CpuHogProgramSource(), /*extra_text_instructions=*/6000,
                           /*extra_data_bytes=*/50000);
}

constexpr int kJobs = 6;
constexpr const char* kHogIterations = "50000000";  // outlives the whole scenario

struct FlakyOutcome {
  apps::LoadBalancerStats stats;
  int lost = 0;        // jobs started minus jobs alive anywhere at the end
  int64_t retries = 0; // migrate.retries across the cluster
  Measurement m;
};

// S1: six long hogs land on brick; schooner flaps down/up on a fixed schedule
// while the balancer (transactional migrations) sheds load.
FlakyOutcome RunFlakyHost(PlacementPolicy policy) {
  TestbedOptions options;
  options.num_hosts = 3;  // brick, schooner, brador
  options.daemons = true;
  options.metrics = true;
  options.faults.enabled = true;  // scheduled crashes only; no random rates
  options.faults.crashes.push_back({"schooner", sim::Seconds(5), sim::Seconds(15)});
  options.faults.crashes.push_back({"schooner", sim::Seconds(25), sim::Seconds(35)});
  options.faults.crashes.push_back({"schooner", sim::Seconds(45), sim::Seconds(55)});
  Testbed world(options);
  const std::string padded = BigHogSource();
  for (const auto& host : world.cluster().hosts()) {
    core::InstallProgram(*host, "/bin/bighog", padded);
  }
  for (int i = 0; i < kJobs; ++i) {
    world.StartVm("brick", "/bin/bighog", {"bighog", kHogIterations});
  }

  net::Network* net = &world.cluster().network();
  auto stats = std::make_shared<apps::LoadBalancerStats>();
  const sim::Nanos cpu0 = world.cluster().TotalCpu();
  const sim::Nanos t0 = world.cluster().clock().now();
  const int64_t bytes0 = TotalBytesMoved(world);
  kernel::SpawnOptions opts;  // root
  const int32_t balancer = world.host("brick").SpawnNative(
      "balancer",
      [net, policy, stats](kernel::SyscallApi& api) {
        apps::LoadBalancerOptions lb;
        lb.poll_interval = sim::Seconds(2);
        lb.min_age = sim::Seconds(1);
        lb.use_daemon = true;
        lb.max_rounds = 15;
        lb.policy = policy;
        lb.migrate = core::MigrateOptions::Robust();
        *stats = apps::RunLoadBalancer(api, *net, lb);
        return 0;
      },
      opts);
  world.RunUntilExited("brick", balancer, sim::Seconds(600));

  FlakyOutcome out;
  out.m = Measurement{sim::ToMillis(world.cluster().TotalCpu() - cpu0),
                      sim::ToMillis(world.cluster().clock().now() - t0),
                      TotalBytesMoved(world) - bytes0};
  // Let the last crash window pass so frozen processes thaw, then take roll
  // call: every job must be alive on some host.
  world.cluster().RunUntil(
      [&world] { return !world.host("schooner").down(); }, sim::Seconds(120));
  world.cluster().RunFor(sim::Seconds(2));
  int alive = 0;
  for (const auto& host : world.cluster().hosts()) {
    for (kernel::Proc* p : host->ListProcs()) {
      if (p->kind == kernel::ProcKind::kVm && p->Alive()) ++alive;
    }
  }
  out.lost = kJobs - alive;
  out.stats = *stats;
  out.retries = world.cluster().AggregateMetrics().Counter("migrate.retries");
  return out;
}

// S2: warm brador's segment cache with a --cached round trip of a big
// dirty-tracked job, then migrate it off brick to wherever `policy` points.
// Returns the measured migration (with the bytes it moved) and the chosen target.
struct WarmOutcome {
  Measurement m;
  std::string target;
};

WarmOutcome WarmCacheMigration(PlacementPolicy policy) {
  TestbedOptions options;
  options.num_hosts = 3;
  options.daemons = true;
  options.dirty_tracking = true;
  options.metrics = true;
  Testbed world(options);
  const std::string padded =
      core::WithPadding(core::CounterProgramSource(), /*extra_text_instructions=*/12500,
                        /*extra_data_bytes=*/100000);
  for (const auto& host : world.cluster().hosts()) {
    core::InstallProgram(*host, "/bin/bigjob", padded);
  }
  const int32_t pid = world.StartVm("brick", "/bin/bigjob");
  world.RunUntilBlocked("brick", pid);
  world.console("brick")->Type("x\n");
  world.RunUntilBlocked("brick", pid);

  // Migration renames processes, so find the job as the host's only live VM proc.
  auto vm_on = [&world](const std::string& host_name) {
    for (kernel::Proc* p : world.host(host_name).ListProcs()) {
      if (p->kind == kernel::ProcKind::kVm && p->Alive()) return p->pid;
    }
    return int32_t{-1};
  };
  auto migrate = [&world](int32_t p, const std::string& from, const std::string& to) {
    const int32_t mig = world.StartTool(
        from, "migrate",
        {"-p", std::to_string(p), "-f", from, "-t", to, "--daemon", "--cached"},
        kUserUid, world.console(from));
    world.RunUntilExited(from, mig, sim::Seconds(600));
  };
  // Warm-up round trip: brick -> brador -> brick seeds both segment caches with
  // the job's text and data-base digests. schooner stays cold.
  migrate(pid, "brick", "brador");
  migrate(vm_on("brador"), "brador", "brick");
  const int32_t home = vm_on("brick");

  const apps::PlacementEngine engine(&world.cluster().network(), policy);
  apps::PlacementQuery query;
  query.from_host = "brick";
  query.pid = home;
  const std::string target = engine.PickTarget(query);

  const sim::Nanos cpu0 = world.cluster().TotalCpu();
  const sim::Nanos t0 = world.cluster().clock().now();
  const int64_t bytes0 = TotalBytesMoved(world);
  migrate(home, "brick", target);
  return {Measurement{sim::ToMillis(world.cluster().TotalCpu() - cpu0),
                      sim::ToMillis(world.cluster().clock().now() - t0),
                      TotalBytesMoved(world) - bytes0},
          target};
}

}  // namespace
}  // namespace pmig::bench

int main(int argc, char** argv) {
  using namespace pmig::bench;
  namespace apps = pmig::apps;
  using apps::PlacementPolicy;
  const bool check = ParseBenchFlags(argc, argv, kCheckFlag).check;

  constexpr PlacementPolicy kPolicies[] = {
      PlacementPolicy::kLoadOnly, PlacementPolicy::kCostAware,
      PlacementPolicy::kFaultAware, PlacementPolicy::kCombined};

  std::printf("\n=== Ablation: placement under a flapping host (S1) ===\n");
  std::printf("%-12s %6s %8s %9s %8s %8s %6s %8s\n", "policy", "moved", "failed",
              "fallback", "to-down", "retries", "lost", "real(s)");
  FlakyOutcome flaky[4];
  std::vector<Row> rows;
  for (int i = 0; i < 4; ++i) {
    flaky[i] = RunFlakyHost(kPolicies[i]);
    const FlakyOutcome& f = flaky[i];
    std::printf("%-12s %6d %8d %9d %8d %8lld %6d %8.1f\n",
                std::string(apps::PlacementPolicyName(kPolicies[i])).c_str(),
                f.stats.migrations, f.stats.failed_migrations, f.stats.fallback_restarts,
                f.stats.attempts_to_down, static_cast<long long>(f.retries), f.lost,
                f.m.real_ms / 1000.0);
    rows.push_back({"flaky/" + std::string(apps::PlacementPolicyName(kPolicies[i])),
                    f.m, "lost=0, to-down=0"});
  }

  std::printf("\n=== Ablation: warm-cache placement (S2) ===\n");
  const WarmOutcome load = WarmCacheMigration(PlacementPolicy::kLoadOnly);
  const WarmOutcome cost = WarmCacheMigration(PlacementPolicy::kCostAware);
  const Measurement& warm_load = load.m;
  const Measurement& warm_cost = cost.m;
  std::printf("%-12s -> %-9s %12lld bytes %10.1f ms\n", "load-only", load.target.c_str(),
              static_cast<long long>(warm_load.bytes_moved), warm_load.real_ms);
  std::printf("%-12s -> %-9s %12lld bytes %10.1f ms\n", "cost-aware", cost.target.c_str(),
              static_cast<long long>(warm_cost.bytes_moved), warm_cost.real_ms);
  rows.push_back({"warm/load-only->" + load.target, warm_load, "cold target"});
  rows.push_back({"warm/cost-aware->" + cost.target, warm_cost, "warm target"});
  WriteBenchJson("ablation_placement", rows);

  const auto failures = [](const FlakyOutcome& f) {
    return f.stats.failed_migrations + f.stats.fallback_restarts;
  };
  std::printf("\nfault-aware failures: %d vs load-only %d;  warm-cache bytes: %lld vs %lld\n",
              failures(flaky[2]), failures(flaky[0]),
              static_cast<long long>(warm_cost.bytes_moved),
              static_cast<long long>(warm_load.bytes_moved));

  if (check) {
    bool ok = true;
    for (int i = 0; i < 4; ++i) {
      if (flaky[i].lost != 0) {
        std::printf("check: FAIL %s lost %d process(es)\n",
                    std::string(apps::PlacementPolicyName(kPolicies[i])).c_str(),
                    flaky[i].lost);
        ok = false;
      }
      if (flaky[i].stats.attempts_to_down != 0) {
        std::printf("check: FAIL %s attempted %d migration(s) into a down host\n",
                    std::string(apps::PlacementPolicyName(kPolicies[i])).c_str(),
                    flaky[i].stats.attempts_to_down);
        ok = false;
      }
    }
    // The fault-aware policies must not fail more often than crash-blind load
    // balancing on the same schedule (they exist to fail less).
    if (failures(flaky[2]) > failures(flaky[0]) || failures(flaky[3]) > failures(flaky[0])) {
      std::printf("check: FAIL fault-aware policies failed more than load-only\n");
      ok = false;
    }
    if (warm_cost.bytes_moved >= warm_load.bytes_moved) {
      std::printf("check: FAIL cost-aware moved %lld bytes >= load-only %lld\n",
                  static_cast<long long>(warm_cost.bytes_moved),
                  static_cast<long long>(warm_load.bytes_moved));
      ok = false;
    }
    std::printf("check: %s\n", ok ? "ok" : "REGRESSION");
    return ok ? 0 : 1;
  }
  return 0;
}
