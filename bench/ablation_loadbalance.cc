// Ablation E: load balancing via migration (the Section 8 application).
//
// N CPU-bound jobs land on one machine of an M-machine cluster. We compare batch
// makespan without migration, with rsh-based migration, and with daemon-based
// migration — quantifying both the benefit of balancing and the paper's remark
// that "the migrate application may be too slow in terms of real time response"
// when built on rsh.

#include "bench/bench_util.h"
#include "src/apps/load_balancer.h"

namespace pmig::bench {
namespace {

constexpr const char* kJobIterations = "2000000";  // ~8 virtual seconds each

enum class Mode { kNone, kRsh, kDaemon };

struct BatchRun {
  sim::Nanos makespan = 0;
  int migrations = 0;
};

BatchRun RunBatch(int jobs, int hosts, Mode mode) {
  TestbedOptions options;
  options.num_hosts = hosts;
  options.daemons = true;
  Testbed world(options);
  const std::string origin = "brick";
  for (int i = 0; i < jobs; ++i) {
    world.StartVm(origin, "/bin/hog", {"hog", kJobIterations});
  }
  const sim::Nanos t0 = world.cluster().clock().now();
  auto stats = std::make_shared<apps::LoadBalancerStats>();
  if (mode != Mode::kNone) {
    net::Network* net = &world.cluster().network();
    kernel::SpawnOptions opts;  // root
    world.host(origin).SpawnNative(
        "balancer",
        [net, mode, stats](kernel::SyscallApi& api) {
          apps::LoadBalancerOptions lb;
          lb.poll_interval = sim::Seconds(2);
          lb.min_age = sim::Seconds(1);
          lb.use_daemon = mode == Mode::kDaemon;
          lb.max_rounds = 200;
          *stats = apps::RunLoadBalancer(api, *net, lb);
          return 0;
        },
        opts);
  }
  // Run until every hog is done.
  world.cluster().RunUntil(
      [&world] {
        for (const auto& host : world.cluster().hosts()) {
          for (kernel::Proc* p : host->ListProcs()) {
            if (p->kind == kernel::ProcKind::kVm && p->Alive()) return false;
          }
        }
        return true;
      },
      sim::Seconds(3000));
  const sim::Nanos makespan = world.cluster().clock().now() - t0;
  world.cluster().RunUntilIdle(sim::Seconds(600));  // let the balancer exit
  return {makespan, stats->migrations};
}

}  // namespace
}  // namespace pmig::bench

int main(int argc, char** argv) {
  using namespace pmig::bench;
  namespace sim = pmig::sim;
  ParseBenchFlags(argc, argv);
  std::printf("\n=== Ablation E: load balancing by migration (Section 8) ===\n");
  std::printf("%6s %6s %10s | %13s %11s %9s\n", "jobs", "hosts", "balancer",
              "makespan (s)", "migrations", "speedup");
  std::vector<Row> rows;
  for (const int hosts : {2, 3}) {
    const int jobs = 2 * hosts;
    const BatchRun none = RunBatch(jobs, hosts, Mode::kNone);
    const BatchRun rsh = RunBatch(jobs, hosts, Mode::kRsh);
    const BatchRun daemon = RunBatch(jobs, hosts, Mode::kDaemon);
    std::printf("%6d %6d %10s | %13.1f %11d %9s\n", jobs, hosts, "none",
                sim::ToSeconds(none.makespan), none.migrations, "1.00x");
    std::printf("%6d %6d %10s | %13.1f %11d %8.2fx\n", jobs, hosts, "rsh",
                sim::ToSeconds(rsh.makespan), rsh.migrations,
                static_cast<double>(none.makespan) / static_cast<double>(rsh.makespan));
    std::printf("%6d %6d %10s | %13.1f %11d %8.2fx\n", jobs, hosts, "daemon",
                sim::ToSeconds(daemon.makespan), daemon.migrations,
                static_cast<double>(none.makespan) / static_cast<double>(daemon.makespan));
    const std::string point = "jobs=" + std::to_string(jobs) + "/hosts=" + std::to_string(hosts);
    const auto row = [&point](const char* balancer, const BatchRun& run) {
      return Row{point + balancer, Measurement{0, sim::ToMillis(run.makespan)}, ""};
    };
    rows.insert(rows.end(), {row("/none", none), row("/rsh", rsh), row("/daemon", daemon)});
  }
  std::printf("\n(the daemon balancer approaches the ideal hosts-fold speedup; rsh's\n"
              " per-migration connection cost eats into it — the paper's point that a\n"
              " 'more efficient [application] would have to be written' for this use)\n");
  WriteBenchJson("ablation_loadbalance", rows);
  return 0;
}
