// Load balancing with process migration (Section 8, second application).
//
// Six CPU-bound jobs pile up on brick in a three-machine cluster. The balancer
// surveys per-machine load and migrates the oldest eligible job from the busiest
// machine to the idlest one, through the migration daemons (rsh would be "too
// slow in terms of real time response" — the paper's words).
//
// Build & run:  ./build/examples/load_balancer

#include <cstdio>

#include "src/apps/load_balancer.h"
#include "src/cluster/testbed.h"

using namespace pmig;
using testbed::Testbed;
using testbed::TestbedOptions;

namespace {

void PrintLoads(Testbed& world, const char* when) {
  std::printf("%-18s", when);
  for (const auto& [host, load] : apps::SurveyLoad(world.cluster().network())) {
    std::printf("  %s=%d", host.c_str(), load);
  }
  std::printf("\n");
}

}  // namespace

int main() {
  TestbedOptions options;
  options.num_hosts = 3;
  options.daemons = true;  // migration daemons on every machine
  Testbed world(options);

  std::printf("== Load balancing by process migration ==\n\n");
  for (int i = 0; i < 6; ++i) {
    world.StartVm("brick", "/bin/hog", {"hog", "3000000"});
  }
  world.cluster().RunFor(sim::Seconds(3));
  PrintLoads(world, "before balancing:");

  auto stats = std::make_shared<apps::LoadBalancerStats>();
  net::Network* net = &world.cluster().network();
  kernel::SpawnOptions opts;  // root
  world.host("brick").SpawnNative(
      "balancer",
      [net, stats](kernel::SyscallApi& api) {
        apps::LoadBalancerOptions lb;
        lb.poll_interval = sim::Seconds(2);
        lb.min_age = sim::Seconds(1);
        lb.use_daemon = true;
        lb.max_rounds = 100;
        *stats = apps::RunLoadBalancer(api, *net, lb);
        return 0;
      },
      opts);

  // Watch the loads while the balancer works.
  for (int tick = 0; tick < 5; ++tick) {
    world.cluster().RunFor(sim::Seconds(4));
    PrintLoads(world, ("t+" + std::to_string((tick + 1) * 4) + "s:").c_str());
  }

  world.cluster().RunUntilIdle(sim::Seconds(600));
  std::printf("\nall jobs finished at t=%.1fs after %d migration(s) in %d round(s)\n",
              sim::ToSeconds(world.cluster().clock().now()), stats->migrations,
              stats->rounds);
  std::printf("(compare bench/ablation_loadbalance for makespan vs an unbalanced run)\n");
  return 0;
}
