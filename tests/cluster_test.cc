// Cluster-level behaviour: boot, the /n namespace, time driving, determinism.

#include "src/cluster/cluster.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "src/apps/load_balancer.h"
#include "tests/test_util.h"

namespace pmig {
namespace {

using test::kUserUid;
using test::World;
using test::WorldOptions;

TEST(Cluster, BootsRequestedHosts) {
  WorldOptions options;
  options.num_hosts = 3;
  World world(options);
  EXPECT_EQ(world.cluster().hosts().size(), 3u);
  EXPECT_EQ(world.host("brick").hostname(), "brick");
  EXPECT_EQ(world.host("schooner").hostname(), "schooner");
  EXPECT_EQ(world.host("brador").hostname(), "brador");
}

TEST(Cluster, EveryHostSeesEveryRootUnderSlashN) {
  WorldOptions options;
  options.num_hosts = 3;
  World world(options);
  world.host("brador").vfs().SetupCreateFile("/etc/motd", "welcome to brador");
  for (const char* viewer : {"brick", "schooner", "brador"}) {
    EXPECT_EQ(world.FileContents(viewer, "/n/brador/etc/motd"), "welcome to brador")
        << viewer;
  }
}

TEST(Cluster, WritesThroughNfsAreVisibleEverywhere) {
  World world;
  world.host("brick").vfs().SetupCreateFile("/n/schooner/tmp/shared", "from brick");
  EXPECT_EQ(world.FileContents("schooner", "/tmp/shared"), "from brick");
}

TEST(Cluster, BootCreatesStandardDirectories) {
  World world;
  for (const char* path : {"/dev", "/usr/tmp", "/tmp", "/etc", "/bin", "/u", "/n"}) {
    EXPECT_TRUE(world.FileExists("brick", path)) << path;
  }
  EXPECT_TRUE(world.FileExists("brick", "/dev/null"));
  EXPECT_TRUE(world.FileExists("brick", "/dev/console"));
}

TEST(Cluster, RunForAdvancesVirtualTime) {
  World world;
  const sim::Nanos t0 = world.cluster().clock().now();
  world.cluster().RunFor(sim::Seconds(5));
  EXPECT_GE(world.cluster().clock().now() - t0, sim::Seconds(5));
}

TEST(Cluster, RunUntilIdleWithNoWorkIsImmediate) {
  World world;
  EXPECT_TRUE(world.cluster().RunUntilIdle(sim::Seconds(1)));
}

TEST(Cluster, RunUntilIdleWaitsForSleepers) {
  World world;
  kernel::SpawnOptions opts;
  opts.creds = {kUserUid, 10, kUserUid, 10};
  const int32_t pid = world.host("brick").SpawnNative(
      "sleeper",
      [](kernel::SyscallApi& api) {
        api.Sleep(sim::Seconds(30));
        return 0;
      },
      opts);
  EXPECT_TRUE(world.cluster().RunUntilIdle(sim::Seconds(120)));
  kernel::Proc* sl = world.host("brick").FindAnyProc(pid);
  ASSERT_NE(sl, nullptr);
  EXPECT_FALSE(sl->Alive());
  // The idle skip must not have run the clock to the limit.
  EXPECT_LT(world.cluster().clock().now(), sim::Seconds(60));
}

TEST(Cluster, BlockedForeverDaemonCountsAsIdle) {
  WorldOptions options;
  options.daemons = true;
  World world(options);
  EXPECT_TRUE(world.cluster().RunUntilIdle(sim::Seconds(10)));
}

TEST(Cluster, DeterministicAcrossRuns) {
  auto run_once = [] {
    World world;
    const int32_t pid = world.StartVm("brick", "/bin/counter");
    world.RunUntilBlocked("brick", pid);
    world.console("brick")->Type("abc\n");
    world.RunUntilBlocked("brick", pid);
    kernel::Proc* p = world.host("brick").FindProc(pid);
    return std::make_tuple(world.cluster().clock().now(), world.cluster().TotalCpu(),
                           p->utime, p->stime,
                           world.console("brick")->PlainOutput());
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Cluster, TotalCpuIsMonotonic) {
  World world;
  const int32_t pid = world.StartVm("brick", "/bin/hog", {"hog", "50000"});
  (void)pid;
  const sim::Nanos c0 = world.cluster().TotalCpu();
  world.cluster().RunFor(sim::Millis(200));
  const sim::Nanos c1 = world.cluster().TotalCpu();
  world.cluster().RunFor(sim::Millis(200));
  const sim::Nanos c2 = world.cluster().TotalCpu();
  EXPECT_GT(c1, c0);
  EXPECT_GE(c2, c1);
}

TEST(Cluster, FlightRecorderRecordsMigrationEvents) {
  WorldOptions options;
  options.flight_recorder = true;
  World world(options);
  const int32_t pid = world.StartVm("brick", "/bin/counter");
  ASSERT_TRUE(world.RunUntilBlocked("brick", pid));
  ASSERT_TRUE(world.host("brick").PostSignal(pid, vm::abi::kSigDump, nullptr).ok());
  ASSERT_TRUE(world.RunUntilExited("brick", pid));
  const auto count = [&world](std::string_view needle) {
    int n = 0;
    for (const sim::FlightEvent& e : world.cluster().context().flight_recorder.ring("brick")) {
      if (e.what.find(needle) != std::string::npos) ++n;
    }
    return n;
  };
  EXPECT_GT(count("SIGDUMP"), 0);
  EXPECT_GT(count("dump file"), 0);
}

TEST(Cluster, HostsRunInParallelOnOneTimeline) {
  World world;
  const int32_t a = world.StartVm("brick", "/bin/hog", {"hog", "100000"});
  const int32_t b = world.StartVm("schooner", "/bin/hog", {"hog", "100000"});
  // Two machines crunch simultaneously: both finish in roughly the single-job
  // time, not twice it. 100k iterations ~ 2 instr each ~ 0.4s of CPU.
  ASSERT_TRUE(world.RunUntilExited("brick", a, sim::Seconds(2)));
  ASSERT_TRUE(world.RunUntilExited("schooner", b, sim::Seconds(2)));
  EXPECT_LT(world.cluster().clock().now(), sim::Seconds(1));
}

TEST(Cluster, PerHostKernelStats) {
  World world;
  const int32_t pid = world.StartVm("brick", "/bin/counter");
  ASSERT_TRUE(world.RunUntilBlocked("brick", pid));
  EXPECT_GT(world.host("brick").stats().syscalls, 0);
  EXPECT_GT(world.host("brick").stats().procs_spawned, 0);
}

// Destroying a cluster with a native task still mid-flight unwinds that task,
// and the unwinding runs its destructors: an indexed balancer's ClusterIndex
// deregisters from the network and the fault history. The cluster must unwind
// every host's tasks while the network and context are still alive (this used
// to be a heap-use-after-free on the network under ASan).
TEST(Cluster, TeardownWithBalancerMidRoundIsSafe) {
  WorldOptions options;
  options.num_hosts = 3;
  options.daemons = true;
  options.sample_period = sim::Millis(500);  // the event-driven balancer's wake source
  auto world = std::make_unique<World>(options);
  for (int i = 0; i < 3; ++i) {
    ASSERT_GT(world->StartVm("brick", "/bin/hog", {"hog", "400000000"}), 0);
  }
  net::Network* net = &world->cluster().network();
  const int32_t balancer = world->host("brick").SpawnNative(
      "balancer",
      [net](kernel::SyscallApi& api) {
        apps::LoadBalancerOptions lb;
        lb.min_age = sim::Seconds(1);
        lb.max_rounds = 100000;  // never finishes on its own
        lb.use_index = true;
        lb.event_driven = true;
        apps::RunLoadBalancer(api, *net, lb);
        return 0;
      },
      kernel::SpawnOptions{});
  world->cluster().RunFor(sim::Seconds(10));
  const kernel::Proc* p = world->host("brick").FindAnyProc(balancer);
  ASSERT_NE(p, nullptr);
  EXPECT_TRUE(p->Alive());  // still inside RunLoadBalancer at teardown
  world.reset();
}

}  // namespace
}  // namespace pmig
