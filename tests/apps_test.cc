// The Section 8 applications: checkpointing, load balancing, night shift.

#include <gtest/gtest.h>

#include "src/apps/checkpoint.h"
#include "src/apps/load_balancer.h"
#include "src/apps/night_shift.h"
#include "src/sim/bytes.h"
#include "tests/test_util.h"

namespace pmig {
namespace {

using kernel::SyscallApi;
using test::kUserUid;
using test::World;
using test::WorldOptions;

// Runs `fn` as root (system software) on `host`; returns its exit code.
int RunSystem(World& world, std::string_view host, kernel::NativeTask::Entry fn) {
  kernel::SpawnOptions opts;  // root, with a terminal for tty reopens
  opts.tty = world.console(host);
  opts.cwd = "/";
  const int32_t pid = world.host(host).SpawnNative("system", std::move(fn), opts);
  world.RunUntilExited(host, pid, sim::Seconds(1200));
  return world.ExitInfoOf(host, pid).exit_code;
}

// --- Checkpointing ---

TEST(Checkpoint, TakeRestartsProcessUnderNewPid) {
  World world;
  world.host("brick").vfs().SetupMkdirAll("/ckpt");
  const int32_t pid = world.StartVm("brick", "/bin/counter");
  ASSERT_TRUE(world.RunUntilBlocked("brick", pid));
  world.console("brick")->Type("one\n");
  ASSERT_TRUE(world.RunUntilBlocked("brick", pid));

  auto new_pid = std::make_shared<int32_t>(0);
  const int code = RunSystem(world, "brick", [pid, new_pid](SyscallApi& api) {
    const Result<apps::CheckpointResult> r = apps::TakeCheckpoint(api, pid, "/ckpt", 0);
    if (!r.ok()) return 1;
    *new_pid = r->new_pid;
    return 0;
  });
  ASSERT_EQ(code, 0);
  ASSERT_GT(*new_pid, 0);
  EXPECT_NE(*new_pid, pid);

  // Checkpoint artifacts exist.
  for (const char* name : {"0.meta", "0.aout", "0.files", "0.stack", "0.open3"}) {
    EXPECT_TRUE(world.FileExists("brick", std::string("/ckpt/") + name)) << name;
  }
  // The staging dump files were tidied away.
  EXPECT_FALSE(world.FileExists("brick", "/usr/tmp/a.out" + std::to_string(pid)));

  // The process continues where it was.
  ASSERT_TRUE(world.RunUntilBlocked("brick", *new_pid));
  world.console("brick")->Type("two\n");
  ASSERT_TRUE(world.cluster().RunUntil([&] {
    return world.console("brick")->PlainOutput().find("r=3 s=3 k=3") != std::string::npos;
  }));
}

TEST(Checkpoint, RestoreRollsBackProcessAndFiles) {
  World world;
  world.host("brick").vfs().SetupMkdirAll("/ckpt");
  const int32_t pid = world.StartVm("brick", "/bin/counter");
  ASSERT_TRUE(world.RunUntilBlocked("brick", pid));
  world.console("brick")->Type("before\n");
  ASSERT_TRUE(world.RunUntilBlocked("brick", pid));

  // Checkpoint at counters == 2, output file == "before\n".
  auto pid_after_ckpt = std::make_shared<int32_t>(0);
  ASSERT_EQ(RunSystem(world, "brick",
                      [pid, pid_after_ckpt](SyscallApi& api) {
                        const auto r = apps::TakeCheckpoint(api, pid, "/ckpt", 0);
                        if (!r.ok()) return 1;
                        *pid_after_ckpt = r->new_pid;
                        return 0;
                      }),
            0);

  // Let the program advance past the checkpoint, modifying its output file.
  ASSERT_TRUE(world.RunUntilBlocked("brick", *pid_after_ckpt));
  world.console("brick")->Type("after\n");
  ASSERT_TRUE(world.RunUntilBlocked("brick", *pid_after_ckpt));
  EXPECT_EQ(world.FileContents("brick", "/u/user/counter.out"), "before\nafter\n");
  // Kill it ("system crash").
  ASSERT_TRUE(world.host("brick").PostSignal(*pid_after_ckpt, vm::abi::kSigKill, nullptr).ok());
  ASSERT_TRUE(world.RunUntilExited("brick", *pid_after_ckpt));

  // Restore checkpoint 0: the open-file copy must roll counter.out back.
  auto restored_pid = std::make_shared<int32_t>(0);
  ASSERT_EQ(RunSystem(world, "brick",
                      [restored_pid](SyscallApi& api) {
                        const Result<int32_t> r = apps::RestoreCheckpoint(api, "/ckpt", 0);
                        if (!r.ok()) return 1;
                        *restored_pid = *r;
                        return 0;
                      }),
            0);
  EXPECT_EQ(world.FileContents("brick", "/u/user/counter.out"), "before\n");

  // And the program resumes from the checkpointed state: next input makes 3.
  ASSERT_TRUE(world.RunUntilBlocked("brick", *restored_pid));
  world.console("brick")->ClearOutput();  // "r=3" already appeared pre-rollback
  world.console("brick")->Type("resumed\n");
  ASSERT_TRUE(world.cluster().RunUntil([&] {
    return world.console("brick")->PlainOutput().find("r=3 s=3 k=3") != std::string::npos;
  }));
  EXPECT_EQ(world.FileContents("brick", "/u/user/counter.out"), "before\nresumed\n");
}

TEST(Checkpoint, RestoreRefusesA0777Manifest) {
  // Only the 0776 manifest is read. The same checkpoint with its manifest in
  // the 0777 layout (magic, pid, one saved byte per slot) fails with ENOEXEC.
  World world;
  world.host("brick").vfs().SetupMkdirAll("/ckpt");
  const int32_t pid = world.StartVm("brick", "/bin/counter");
  ASSERT_TRUE(world.RunUntilBlocked("brick", pid));
  auto new_pid = std::make_shared<int32_t>(0);
  ASSERT_EQ(RunSystem(world, "brick",
                      [pid, new_pid](SyscallApi& api) {
                        const auto r = apps::TakeCheckpoint(api, pid, "/ckpt", 0);
                        if (!r.ok()) return 1;
                        *new_pid = r->new_pid;
                        return 0;
                      }),
            0);
  ASSERT_TRUE(world.host("brick").PostSignal(*new_pid, vm::abi::kSigKill, nullptr).ok());
  ASSERT_TRUE(world.RunUntilExited("brick", *new_pid));

  const std::string manifest = world.FileContents("brick", "/ckpt/0.meta");
  sim::ByteReader current(manifest);
  ASSERT_EQ(current.U32(), 0776u);
  sim::ByteWriter old;
  old.U32(0777);
  old.I32(current.I32());
  for (int i = 0; i < kernel::kNoFile; ++i) {
    old.U8(current.U8() != 0 ? 1 : 0);
    current.U64();  // hash
    current.I32();  // source
  }
  ASSERT_TRUE(current.ok());
  world.host("brick").vfs().SetupCreateFile("/ckpt/0.meta", old.Take(), 0, 0600);

  auto error = std::make_shared<Errno>(Errno::kOk);
  EXPECT_EQ(RunSystem(world, "brick",
                      [error](SyscallApi& api) {
                        const Result<int32_t> r = apps::RestoreCheckpoint(api, "/ckpt", 0);
                        if (r.ok()) return 0;
                        *error = r.error();
                        return 1;
                      }),
            1);
  EXPECT_EQ(*error, Errno::kNoExec);
}

TEST(Checkpoint, DaemonTakesPeriodicSnapshots) {
  World world;
  world.host("brick").vfs().SetupMkdirAll("/ckpt");
  const int32_t pid = world.StartVm("brick", "/bin/counter");
  ASSERT_TRUE(world.RunUntilBlocked("brick", pid));

  const int taken = RunSystem(world, "brick", [pid](SyscallApi& api) {
    apps::CheckpointdOptions options;
    options.pid = pid;
    options.dir = "/ckpt";
    options.interval = sim::Seconds(5);
    options.count = 3;
    return apps::CheckpointDaemon(api, options);
  });
  EXPECT_EQ(taken, 3);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(world.FileExists("brick", "/ckpt/" + std::to_string(i) + ".aout")) << i;
  }
}

TEST(Checkpoint, FailsForMissingProcess) {
  World world;
  world.host("brick").vfs().SetupMkdirAll("/ckpt");
  const int code = RunSystem(world, "brick", [](SyscallApi& api) {
    return apps::TakeCheckpoint(api, 987654, "/ckpt", 0).ok() ? 0 : 1;
  });
  EXPECT_EQ(code, 1);
}

// --- Load balancing ---

TEST(LoadBalancer, SurveysRunnableVmProcs) {
  World world;
  world.StartVm("brick", "/bin/hog", {"hog", "4000000"});
  world.StartVm("brick", "/bin/hog", {"hog", "4000000"});
  world.cluster().RunFor(sim::Millis(50));
  auto loads = apps::SurveyLoad(world.cluster().network());
  ASSERT_EQ(loads.size(), 2u);
  EXPECT_EQ(loads[0], (std::pair<std::string, int>{"brick", 2}));
  EXPECT_EQ(loads[1], (std::pair<std::string, int>{"schooner", 0}));
}

TEST(LoadBalancer, MovesJobsFromBusyToIdle) {
  WorldOptions options;
  options.num_hosts = 2;
  options.daemons = true;
  World world(options);
  // Four CPU hogs all on brick; schooner idle.
  for (int i = 0; i < 4; ++i) {
    world.StartVm("brick", "/bin/hog", {"hog", "4000000"});
  }
  world.cluster().RunFor(sim::Seconds(6));  // let them age past min_age

  apps::LoadBalancerStats stats;
  net::Network* net = &world.cluster().network();
  RunSystem(world, "brick", [net, &stats](SyscallApi& api) {
    apps::LoadBalancerOptions lb;
    lb.poll_interval = sim::Seconds(2);
    lb.min_age = sim::Seconds(2);
    lb.max_rounds = 6;
    stats = apps::RunLoadBalancer(api, *net, lb);
    return 0;
  });
  EXPECT_GE(stats.migrations, 1);
  // The cluster ended up balanced: 2 + 2 (migrated jobs keep running).
  auto loads = apps::SurveyLoad(*net);
  int brick_load = loads[0].second, schooner_load = loads[1].second;
  EXPECT_LE(std::abs(brick_load - schooner_load), 1);
  EXPECT_EQ(brick_load + schooner_load, 4);
}

TEST(LoadBalancer, ImprovesMakespanForUnbalancedLoad) {
  // The headline claim of the application: distributing CPU hogs finishes the
  // batch sooner than leaving them stacked on one machine.
  auto run = [](bool balance) {
    WorldOptions options;
    options.daemons = true;
    World world(options);
    std::vector<int32_t> pids;
    for (int i = 0; i < 4; ++i) {
      pids.push_back(world.StartVm("brick", "/bin/hog", {"hog", "2000000"}));
    }
    if (balance) {
      net::Network* net = &world.cluster().network();
      kernel::SpawnOptions opts;
      world.host("brick").SpawnNative("balancer",
                                      [net](SyscallApi& api) {
                                        apps::LoadBalancerOptions lb;
                                        lb.poll_interval = sim::Seconds(2);
                                        lb.min_age = sim::Seconds(1);
                                        lb.max_rounds = 50;
                                        apps::RunLoadBalancer(api, *net, lb);
                                        return 0;
                                      },
                                      opts);
    }
    world.cluster().RunUntil(
        [&] {
          for (const int32_t pid : pids) {
            // Jobs may have moved; survey both hosts by uid instead.
            (void)pid;
          }
          for (const auto& host : world.cluster().hosts()) {
            for (kernel::Proc* p : host->ListProcs()) {
              if (p->kind == kernel::ProcKind::kVm && p->creds.uid == kUserUid &&
                  p->Alive()) {
                return false;
              }
            }
          }
          return true;
        },
        sim::Seconds(600));
    return world.cluster().clock().now();
  };
  const sim::Nanos stacked = run(false);
  const sim::Nanos balanced = run(true);
  EXPECT_LT(balanced, stacked);
  EXPECT_LT(balanced, stacked * 3 / 4);  // clearly better, not marginally
}

// --- Night shift ---

TEST(NightShift, SpreadsAtDuskGathersAtDawn) {
  WorldOptions options;
  options.num_hosts = 3;
  options.daemons = true;
  World world(options);
  // Six batch jobs (uid 999) submitted on brick.
  kernel::Kernel& brick = world.host("brick");
  for (int i = 0; i < 6; ++i) {
    kernel::SpawnOptions opts;
    opts.creds = {999, 99, 999, 99};
    opts.tty = nullptr;
    opts.cwd = "/tmp";
    const Result<int32_t> pid = brick.SpawnVm("/bin/hog", {"hog", "40000000"}, opts);
    ASSERT_TRUE(pid.ok());
  }

  apps::NightShiftStats stats;
  net::Network* net = &world.cluster().network();
  RunSystem(world, "brick", [net, &stats](SyscallApi& api) {
    apps::NightShiftOptions night;
    night.day_host = "brick";
    night.night_length = sim::Seconds(30);
    night.nights = 1;
    stats = apps::RunNightShift(api, *net, night);
    return 0;
  });
  EXPECT_EQ(stats.nights_run, 1);
  EXPECT_EQ(stats.spread_migrations, 4);   // 6 jobs, fair share 2 stay home
  EXPECT_EQ(stats.gather_migrations, 4);   // all come home at dawn
  // After dawn every surviving batch job is back on brick.
  EXPECT_EQ(apps::BatchJobsOn(world.host("schooner"), 999).size(), 0u);
  EXPECT_EQ(apps::BatchJobsOn(world.host("brador"), 999).size(), 0u);
  EXPECT_EQ(apps::BatchJobsOn(brick, 999).size(), 6u);
}

}  // namespace
}  // namespace pmig
