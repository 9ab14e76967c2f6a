// Failure injection: crashed machines, corrupted dump files, and the evacuation
// application (the paper's introductory "machine about to go down" scenario).

#include <gtest/gtest.h>

#include "src/apps/evacuate.h"
#include "src/apps/night_shift.h"
#include "src/core/dump_format.h"
#include "src/core/tools.h"
#include "src/net/migration_daemon.h"
#include "src/net/rsh.h"
#include "tests/test_util.h"

namespace pmig {
namespace {

using core::DumpPaths;
using kernel::SyscallApi;
using test::kUserUid;
using test::World;

TEST(HostFailure, DownedHostRunsNothing) {
  World world;
  const int32_t pid = world.StartVm("brick", "/bin/hog", {"hog", "100000"});
  world.cluster().RunFor(sim::Millis(50));
  kernel::Proc* p = world.host("brick").FindProc(pid);
  ASSERT_NE(p, nullptr);
  const sim::Nanos cpu_before = p->utime;
  world.cluster().SetHostDown("brick", true);
  world.cluster().RunFor(sim::Seconds(2));
  EXPECT_EQ(p->utime, cpu_before);  // frozen
  world.cluster().SetHostDown("brick", false);
  ASSERT_TRUE(world.RunUntilExited("brick", pid, sim::Seconds(30)));  // resumes
}

TEST(HostFailure, NfsToDownedHostFailsFast) {
  World world;
  world.host("schooner").vfs().SetupCreateFile("/tmp/remote.txt", "bytes");
  world.cluster().SetHostDown("schooner", true);
  kernel::SpawnOptions opts;
  opts.creds = {kUserUid, 10, kUserUid, 10};
  auto err = std::make_shared<Errno>(Errno::kOk);
  const int32_t pid = world.host("brick").SpawnNative(
      "nfs",
      [err](SyscallApi& api) {
        *err = api.Open("/n/schooner/tmp/remote.txt", vm::abi::kORdOnly).error();
        return 0;
      },
      opts);
  world.RunUntilExited("brick", pid);
  EXPECT_EQ(*err, Errno::kHostUnreach);
}

TEST(HostFailure, RshAndDaemonToDownedHostUnreachable) {
  test::WorldOptions options;
  options.daemons = true;
  World world(options);
  world.cluster().SetHostDown("schooner", true);
  net::Network* net = &world.cluster().network();
  auto errs = std::make_shared<std::pair<Errno, Errno>>();
  kernel::SpawnOptions opts;
  opts.creds = {kUserUid, 10, kUserUid, 10};
  const int32_t pid = world.host("brick").SpawnNative(
      "probe",
      [errs, net](SyscallApi& api) {
        errs->first = net::Rsh(api, *net, "schooner", "ps", {}).error();
        errs->second = net::DaemonExec(api, *net, "schooner", "ps", {}).error();
        return 0;
      },
      opts);
  world.RunUntilExited("brick", pid, sim::Seconds(120));
  EXPECT_EQ(errs->first, Errno::kHostUnreach);
  EXPECT_EQ(errs->second, Errno::kHostUnreach);
}

TEST(HostFailure, DumpStrandedOnCrashedHostCannotRestart) {
  // The dump files live on the dying machine: if it goes down before they are
  // copied, restart elsewhere fails — the motivation for the checkpoint
  // application's "move them to a directory managed by the application".
  World world;
  const int32_t pid = world.StartVm("brick", "/bin/counter");
  ASSERT_TRUE(world.RunUntilBlocked("brick", pid));
  const int32_t dp = world.StartTool("brick", "dumpproc", {"-p", std::to_string(pid)});
  ASSERT_TRUE(world.RunUntilExited("brick", dp));
  ASSERT_EQ(world.ExitInfoOf("brick", dp).exit_code, 0);

  world.cluster().SetHostDown("brick", true);
  const int32_t rs = world.StartTool("schooner", "restart",
                                     {"-p", std::to_string(pid), "-h", "brick"},
                                     kUserUid, world.console("schooner"));
  ASSERT_TRUE(world.RunUntilExited("schooner", rs, sim::Seconds(120)));
  EXPECT_NE(world.ExitInfoOf("schooner", rs).exit_code, 0);
}

TEST(HostFailure, EvacuateThenCrashPreservesWork) {
  // The paper's opening scenario, end to end: brick is about to go down; evacuate
  // it, crash it, and the work continues on schooner.
  World world;
  const int32_t counter = world.StartVm("brick", "/bin/counter");
  ASSERT_TRUE(world.RunUntilBlocked("brick", counter));
  world.console("brick")->Type("pre-crash\n");
  ASSERT_TRUE(world.RunUntilBlocked("brick", counter));
  const int32_t hog = world.StartVm("brick", "/bin/hog", {"hog", "40000000"});
  ASSERT_GT(hog, 0);
  world.cluster().RunFor(sim::Millis(100));

  auto report = std::make_shared<apps::EvacuationReport>();
  net::Network* net = &world.cluster().network();
  kernel::SpawnOptions opts;  // root; runs on schooner (the safe machine)
  opts.tty = world.console("schooner");
  const int32_t ev = world.host("schooner").SpawnNative(
      "evacuate",
      [report, net](SyscallApi& api) {
        *report = apps::EvacuateHost(api, *net, "brick", "schooner",
                                     /*use_daemon=*/false);
        return 0;
      },
      opts);
  ASSERT_TRUE(world.RunUntilExited("schooner", ev, sim::Seconds(600)));
  EXPECT_EQ(report->moved.size(), 2u);
  EXPECT_TRUE(report->unmovable.empty());
  EXPECT_TRUE(report->failed.empty());

  // Lights out on brick.
  world.cluster().SetHostDown("brick", true);

  // Both processes now live on schooner. NOTE the subtlety: the counter's output
  // file lives on brick's (now dead) disk — writes to it vanish while brick is
  // down; the process itself keeps running. (The checkpoint application exists
  // for exactly this gap.)
  EXPECT_EQ(apps::BatchJobsOn(world.host("brick"), kUserUid).size(), 0u);
  int vm_on_schooner = 0;
  for (kernel::Proc* p : world.host("schooner").ListProcs()) {
    if (p->kind == kernel::ProcKind::kVm && p->Alive()) ++vm_on_schooner;
  }
  EXPECT_EQ(vm_on_schooner, 2);

  const int32_t moved = world.FindPidByCommand("schooner", "migrated");
  ASSERT_GT(moved, 0);
}

TEST(HostFailure, EvacuationReportsUnmovableProcesses) {
  World world;
  const int32_t socketer = world.StartVm("brick", "/bin/socketer");
  ASSERT_TRUE(world.RunUntilBlocked("brick", socketer));
  auto report = std::make_shared<apps::EvacuationReport>();
  net::Network* net = &world.cluster().network();
  kernel::SpawnOptions opts;  // root
  const int32_t ev = world.host("brick").SpawnNative(
      "evacuate",
      [report, net](SyscallApi& api) {
        *report = apps::EvacuateHost(api, *net, "brick", "schooner",
                                     /*use_daemon=*/false);
        return 0;
      },
      opts);
  ASSERT_TRUE(world.RunUntilExited("brick", ev, sim::Seconds(300)));
  ASSERT_EQ(report->unmovable.size(), 1u);
  EXPECT_EQ(report->unmovable[0], socketer);
  // It was left untouched, still running on brick.
  kernel::Proc* p = world.host("brick").FindProc(socketer);
  ASSERT_NE(p, nullptr);
  EXPECT_TRUE(p->Alive());
}

TEST(DumpCorruption, FlippedBitFailsRestartCleanly) {
  World world;
  const int32_t pid = world.StartVm("brick", "/bin/counter");
  ASSERT_TRUE(world.RunUntilBlocked("brick", pid));
  const int32_t dp = world.StartTool("brick", "dumpproc", {"-p", std::to_string(pid)});
  ASSERT_TRUE(world.RunUntilExited("brick", dp));

  // Flip a byte in the stack file's magic region.
  const DumpPaths paths = DumpPaths::For(pid);
  kernel::Kernel& k = world.host("brick");
  auto r = k.vfs().Resolve(k.vfs().RootState(), paths.stack, vfs::Follow::kAll, nullptr);
  ASSERT_TRUE(r.ok());
  r->inode->MutableContents()[0] ^= 0x40;

  const int32_t rs = world.StartTool("brick", "restart", {"-p", std::to_string(pid)},
                                     kUserUid, world.console("brick"));
  ASSERT_TRUE(world.RunUntilExited("brick", rs, sim::Seconds(120)));
  EXPECT_NE(world.ExitInfoOf("brick", rs).exit_code, 0);
  EXPECT_NE(world.tty("brick", "ttyp0")->PlainOutput().find(""), std::string::npos);
}

// A stack file is trusted only as far as its checks go: with its saved pc
// patched to the top of the address space it still parses, and the restarted
// process then faults at its first fetch, dies by SIGSEGV like any wild jump,
// and leaves the rest of the host running.
TEST(DumpCorruption, PatchedPcKillsOnlyTheRestartedProcess) {
  World world;
  const int32_t pid = world.StartVm("brick", "/bin/counter");
  ASSERT_TRUE(world.RunUntilBlocked("brick", pid));
  const int32_t dp = world.StartTool("brick", "dumpproc", {"-p", std::to_string(pid)});
  ASSERT_TRUE(world.RunUntilExited("brick", dp));

  const DumpPaths paths = DumpPaths::For(pid);
  kernel::Kernel& k = world.host("brick");
  auto r = k.vfs().Resolve(k.vfs().RootState(), paths.stack, vfs::Follow::kAll, nullptr);
  ASSERT_TRUE(r.ok());
  Result<core::StackFile> stack = core::StackFile::Parse(r->inode->contents());
  ASSERT_TRUE(stack.ok());
  stack->cpu.pc = 0xFFFFFFF8;
  r->inode->SetContents(sim::Blob(stack->Serialize()));

  const int32_t rs = world.StartTool("brick", "restart", {"-p", std::to_string(pid)},
                                     kUserUid, world.console("brick"));
  ASSERT_TRUE(world.RunUntilExited("brick", rs, sim::Seconds(120)));
  EXPECT_EQ(world.ExitInfoOf("brick", rs).killed_by_signal, vm::abi::kSigSegv);

  const int32_t hog = world.StartVm("brick", "/bin/hog", {"hog", "1000"});
  ASSERT_TRUE(world.RunUntilExited("brick", hog, sim::Seconds(30)));
  EXPECT_EQ(world.ExitInfoOf("brick", hog).exit_code, 0);
}

namespace {

// Spawns a native process on `host` that runs migrate with the given options
// and publishes the return code; the caller drives the cluster to completion.
std::pair<int32_t, std::shared_ptr<int>> SpawnMigrate(World& world, const std::string& host,
                                                      int32_t pid, const std::string& from,
                                                      const std::string& to, bool use_daemon,
                                                      const core::MigrateOptions& mopts) {
  auto rc = std::make_shared<int>(-1);
  net::Network* net = &world.cluster().network();
  kernel::SpawnOptions opts;
  opts.creds = {kUserUid, 10, kUserUid, 10};
  const int32_t mig = world.host(host).SpawnNative(
      "migrate",
      [rc, net, pid, from, to, use_daemon, mopts](SyscallApi& api) {
        *rc = core::Migrate(api, *net, pid, from, to, use_daemon, mopts);
        return *rc;
      },
      opts);
  return {mig, rc};
}

bool NoDumpFilesLeft(World& world, const std::string& host, int32_t pid) {
  const DumpPaths paths = DumpPaths::For(pid);
  return !world.FileExists(host, paths.aout) && !world.FileExists(host, paths.files) &&
         !world.FileExists(host, paths.stack) && !world.FileExists(host, paths.ready) &&
         !world.FileExists(host, paths.claim);
}

}  // namespace

TEST(MigrateTransaction, TransientNetFaultRetriesAndSucceeds) {
  test::WorldOptions options;
  options.metrics = true;
  options.faults.enabled = true;
  options.faults.net_fail_first = 1;  // the first rsh request is lost on the wire
  World world(options);
  const int32_t pid = world.StartVm("brick", "/bin/counter");
  ASSERT_TRUE(world.RunUntilBlocked("brick", pid));

  auto [mig, rc] = SpawnMigrate(world, "brick", pid, "brick", "schooner",
                                /*use_daemon=*/false, core::MigrateOptions::Robust());
  ASSERT_TRUE(world.RunUntilExited("brick", mig, sim::Seconds(300)));
  EXPECT_EQ(*rc, core::kToolOk);
  EXPECT_GT(world.FindPidByCommand("schooner", "migrated"), 0);
  EXPECT_GE(world.host("brick").metrics().Counter("migrate.retries"), 1);
  EXPECT_GE(world.host("brick").metrics().Counter("fault.injected.net_send"), 1);
  EXPECT_TRUE(NoDumpFilesLeft(world, "brick", pid));
}

TEST(MigrateTransaction, TargetDownBetweenDumpAndRestartFallsBackToSource) {
  test::WorldOptions options;
  options.metrics = true;
  World world(options);
  const int32_t pid = world.StartVm("brick", "/bin/counter");
  ASSERT_TRUE(world.RunUntilBlocked("brick", pid));

  // The target is dead by the time the restart leg runs; every remote attempt
  // fails, and the transaction restarts the (already dumped) process at home.
  world.cluster().SetHostDown("schooner", true);
  auto [mig, rc] = SpawnMigrate(world, "brick", pid, "brick", "schooner",
                                /*use_daemon=*/false, core::MigrateOptions::Robust());
  ASSERT_TRUE(world.RunUntilExited("brick", mig, sim::Seconds(300)));
  EXPECT_EQ(*rc, core::kMigrateFellBack);
  EXPECT_GT(world.FindPidByCommand("brick", "migrated"), 0);
  EXPECT_EQ(world.host("brick").metrics().Counter("migrate.fallback_restarts"), 1);
  EXPECT_TRUE(NoDumpFilesLeft(world, "brick", pid));
}

TEST(MigrateTransaction, CorruptedFilesFileIsRejectedAndSweptUp) {
  World world;
  const int32_t pid = world.StartVm("brick", "/bin/counter");
  ASSERT_TRUE(world.RunUntilBlocked("brick", pid));
  const int32_t dp =
      world.StartTool("brick", "dumpproc", {"-p", std::to_string(pid), "--tx"});
  ASSERT_TRUE(world.RunUntilExited("brick", dp));
  ASSERT_EQ(world.ExitInfoOf("brick", dp).exit_code, 0);

  // Corrupt the rewritten filesXXXXX magic on disk.
  const DumpPaths paths = DumpPaths::For(pid);
  kernel::Kernel& k = world.host("brick");
  auto r = k.vfs().Resolve(k.vfs().RootState(), paths.files, vfs::Follow::kAll, nullptr);
  ASSERT_TRUE(r.ok());
  r->inode->MutableContents()[0] ^= 0x40;

  // The dump leg resumes idempotently (readyXXXXX exists); restart rejects the
  // corrupt file everywhere, including the fallback — the dump set is
  // unconsumable, so migrate sweeps it up rather than leaving a trap.
  auto [mig, rc] = SpawnMigrate(world, "brick", pid, "brick", "schooner",
                                /*use_daemon=*/false, core::MigrateOptions::Robust());
  ASSERT_TRUE(world.RunUntilExited("brick", mig, sim::Seconds(300)));
  EXPECT_EQ(*rc, core::kToolFail);
  EXPECT_TRUE(NoDumpFilesLeft(world, "brick", pid));
}

TEST(MigrateTransaction, HalfWrittenDumpNeverSurvivesDumpproc) {
  // A dump whose filesXXXXX cannot be parsed back is swept up by dumpproc
  // itself, not left half-written for a later restart to trip over.
  World world;
  const int32_t pid = world.StartVm("brick", "/bin/counter");
  ASSERT_TRUE(world.RunUntilBlocked("brick", pid));
  // Produce the raw dump with a plain SIGDUMP (no dumpproc yet).
  kernel::SpawnOptions opts;
  opts.creds = {kUserUid, 10, kUserUid, 10};
  const int32_t killer = world.host("brick").SpawnNative(
      "killer",
      [pid](SyscallApi& api) { return api.Kill(pid, vm::abi::kSigDump).ok() ? 0 : 1; },
      opts);
  ASSERT_TRUE(world.RunUntilExited("brick", killer));
  const DumpPaths paths = DumpPaths::For(pid);
  ASSERT_TRUE(world.cluster().RunUntil(
      [&] { return world.FileExists("brick", paths.files); }, sim::Seconds(30)));

  // Mangle filesXXXXX before dumpproc gets to it.
  kernel::Kernel& k = world.host("brick");
  auto r = k.vfs().Resolve(k.vfs().RootState(), paths.files, vfs::Follow::kAll, nullptr);
  ASSERT_TRUE(r.ok());
  r->inode->MutableContents()[0] ^= 0x40;

  const int32_t dp =
      world.StartTool("brick", "dumpproc", {"-p", std::to_string(pid), "--tx"});
  ASSERT_TRUE(world.RunUntilExited("brick", dp, sim::Seconds(60)));
  EXPECT_NE(world.ExitInfoOf("brick", dp).exit_code, 0);
  EXPECT_TRUE(NoDumpFilesLeft(world, "brick", pid));
}

TEST(FaultInjection, DumpCorruptionAbortsDumpAndProcessSurvives) {
  test::WorldOptions options;
  options.metrics = true;
  options.faults.enabled = true;
  options.faults.dump_corruption_rate = 1.0;
  World world(options);
  const int32_t pid = world.StartVm("brick", "/bin/counter");
  ASSERT_TRUE(world.RunUntilBlocked("brick", pid));

  const int32_t dp = world.StartTool("brick", "dumpproc", {"-p", std::to_string(pid)});
  ASSERT_TRUE(world.RunUntilExited("brick", dp, sim::Seconds(60)));
  EXPECT_NE(world.ExitInfoOf("brick", dp).exit_code, 0);

  // The kernel noticed the dump would not parse back, unlinked the partial
  // files, and resumed the process — a dump that cannot land intact must never
  // kill its subject.
  kernel::Proc* p = world.host("brick").FindProc(pid);
  ASSERT_NE(p, nullptr);
  EXPECT_TRUE(p->Alive());
  EXPECT_GE(world.host("brick").metrics().Counter("migration.dump_aborts"), 1);
  EXPECT_GE(world.host("brick").metrics().Counter("fault.injected.dump_corrupt"), 1);
  EXPECT_TRUE(NoDumpFilesLeft(world, "brick", pid));
}

TEST(FaultInjection, DiskFullWindowAbortsDumpAndSurfacesEnospc) {
  test::WorldOptions options;
  options.metrics = true;
  options.faults.enabled = true;
  options.faults.disk_full.push_back({"brick", 0, sim::Seconds(600)});
  World world(options);
  const int32_t pid = world.StartVm("brick", "/bin/counter");
  ASSERT_TRUE(world.RunUntilBlocked("brick", pid));

  // An ordinary write path sees a plain ENOSPC.
  auto err = std::make_shared<Errno>(Errno::kOk);
  kernel::SpawnOptions opts;
  opts.creds = {kUserUid, 10, kUserUid, 10};
  const int32_t writer = world.host("brick").SpawnNative(
      "writer",
      [err](SyscallApi& api) {
        *err = api.Creat("/usr/tmp/full.txt").error();
        return 0;
      },
      opts);
  ASSERT_TRUE(world.RunUntilExited("brick", writer));
  EXPECT_EQ(*err, Errno::kNoSpc);

  // The kernel-side dump writer hits the same wall and aborts cleanly.
  const int32_t dp = world.StartTool("brick", "dumpproc", {"-p", std::to_string(pid)});
  ASSERT_TRUE(world.RunUntilExited("brick", dp, sim::Seconds(60)));
  EXPECT_NE(world.ExitInfoOf("brick", dp).exit_code, 0);
  kernel::Proc* p = world.host("brick").FindProc(pid);
  ASSERT_NE(p, nullptr);
  EXPECT_TRUE(p->Alive());
  EXPECT_GE(world.host("brick").metrics().Counter("fault.injected.disk_full"), 1);
  EXPECT_TRUE(NoDumpFilesLeft(world, "brick", pid));
}

TEST(RemoteExecTimeout, WedgedRemoteCommandTimesOutInsteadOfHangingForever) {
  test::WorldOptions options;
  options.daemons = true;
  World world(options);
  world.cluster().RegisterProgram(
      "hang", [](SyscallApi& api, const std::vector<std::string>&) {
        api.Sleep(sim::Seconds(3600));
        return 0;
      });
  net::Network* net = &world.cluster().network();
  auto errs = std::make_shared<std::pair<Errno, Errno>>();
  kernel::SpawnOptions opts;
  opts.creds = {kUserUid, 10, kUserUid, 10};
  const int32_t probe = world.host("brick").SpawnNative(
      "probe",
      [errs, net](SyscallApi& api) {
        net::RemoteExecOptions short_wait;
        short_wait.timeout = sim::Seconds(5);
        errs->first = net::Rsh(api, *net, "schooner", "hang", {}, short_wait).error();
        errs->second = net::DaemonExec(api, *net, "schooner", "hang", {}, short_wait).error();
        return 0;
      },
      opts);
  ASSERT_TRUE(world.RunUntilExited("brick", probe, sim::Seconds(120)));
  EXPECT_EQ(errs->first, Errno::kTimedOut);
  EXPECT_EQ(errs->second, Errno::kTimedOut);
}

TEST(RemoteExecTimeout, HostPoweringOffAfterRequestQueuedUnblocksCaller) {
  // The satellite bug: the remote host accepts the request, then powers off.
  // The caller used to block until the simulation's run limit; now the wait
  // ends with EHOSTUNREACH as soon as the host is seen down.
  test::WorldOptions options;
  options.daemons = true;
  World world(options);
  world.cluster().RegisterProgram(
      "hang", [](SyscallApi& api, const std::vector<std::string>&) {
        api.Sleep(sim::Seconds(3600));
        return 0;
      });
  net::Network* net = &world.cluster().network();
  auto err = std::make_shared<Errno>(Errno::kOk);
  kernel::SpawnOptions opts;
  opts.creds = {kUserUid, 10, kUserUid, 10};
  const int32_t probe = world.host("brick").SpawnNative(
      "probe",
      [err, net](SyscallApi& api) {
        *err = net::DaemonExec(api, *net, "schooner", "hang", {}).error();
        return 0;
      },
      opts);
  world.cluster().RunFor(sim::Seconds(2));  // request accepted, hang running
  world.cluster().SetHostDown("schooner", true);
  ASSERT_TRUE(world.RunUntilExited("brick", probe, sim::Seconds(120)));
  EXPECT_EQ(*err, Errno::kHostUnreach);
}

TEST(MigrateErrors, ComplaintNamesTheUnderlyingErrno) {
  World world;
  const int32_t pid = world.StartVm("brick", "/bin/counter");
  ASSERT_TRUE(world.RunUntilBlocked("brick", pid));
  world.cluster().SetHostDown("schooner", true);
  const int32_t mig = world.StartTool(
      "brick", "migrate", {"-p", std::to_string(pid), "-t", "schooner"});
  ASSERT_TRUE(world.RunUntilExited("brick", mig, sim::Seconds(300)));
  EXPECT_NE(world.ExitInfoOf("brick", mig).exit_code, 0);
  EXPECT_NE(world.tty("brick", "ttyp0")->PlainOutput().find("EHOSTUNREACH"),
            std::string::npos);
}

TEST(DumpCorruption, TruncatedAoutFailsRestartCleanly) {
  World world;
  const int32_t pid = world.StartVm("brick", "/bin/counter");
  ASSERT_TRUE(world.RunUntilBlocked("brick", pid));
  const int32_t dp = world.StartTool("brick", "dumpproc", {"-p", std::to_string(pid)});
  ASSERT_TRUE(world.RunUntilExited("brick", dp));

  const DumpPaths paths = DumpPaths::For(pid);
  kernel::Kernel& k = world.host("brick");
  auto r = k.vfs().Resolve(k.vfs().RootState(), paths.aout, vfs::Follow::kAll, nullptr);
  ASSERT_TRUE(r.ok());
  r->inode->MutableContents().resize(10);  // header survives partially; body gone

  const int32_t rs = world.StartTool("brick", "restart", {"-p", std::to_string(pid)},
                                     kUserUid, world.console("brick"));
  ASSERT_TRUE(world.RunUntilExited("brick", rs, sim::Seconds(120)));
  EXPECT_NE(world.ExitInfoOf("brick", rs).exit_code, 0);
}

}  // namespace
}  // namespace pmig
