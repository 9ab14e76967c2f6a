// Failure injection: crashed machines, corrupted dump files, and the evacuation
// application (the paper's introductory "machine about to go down" scenario).

#include <gtest/gtest.h>

#include <functional>

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

// --- Every exit of the migrate transaction ------------------------------------
//
// Each case below drives `migrate --robust` brick -> target out through one of
// its exits and pins what that exit leaves behind: the exit code, which files
// of the dump set remain on brick, the migrate.* counters, and the reason of
// the post-mortem the exit records. Where no fault schedule reaches an exit,
// the case plants the state directly (a dump set made by hand, a claim file, a
// disk-full window opened at a probed instant, a contending claimer).

namespace {

// The files of `pid`'s dump set present on `host`'s /usr/tmp, in
// RemoveDumpSet's order, space-separated.
std::string DumpSetOnDisk(World& world, const std::string& host, int32_t pid) {
  const DumpPaths paths = DumpPaths::For(pid);
  std::string out;
  for (const auto& [name, path] :
       {std::pair<const char*, const std::string*>{"a.out", &paths.aout},
        {"files", &paths.files},
        {"stack", &paths.stack},
        {"ready", &paths.ready},
        {"claim", &paths.claim}}) {
    if (!world.FileExists(host, *path)) continue;
    if (!out.empty()) out += " ";
    out += name;
  }
  return out;
}

// Every migrate.* counter on `host`, "name=value;" in name order.
std::string MigrateCounters(World& world, const std::string& host) {
  std::string out;
  for (const auto& [name, value] : world.host(host).metrics().counters()) {
    if (name.rfind("migrate.", 0) == 0) out += name + "=" + std::to_string(value) + ";";
  }
  return out;
}

// The reason of the last post-mortem recorded on `host`, "" if there is none.
std::string LastPostmortem(World& world, const std::string& host) {
  std::string reason;
  for (const auto& pm : world.cluster().context().flight_recorder.postmortems()) {
    if (pm.host == host) reason = pm.reason;
  }
  return reason;
}

// The exit cases' world: counters and post-mortems recorded.
test::WorldOptions ObservedWorld(int hosts = 2) {
  test::WorldOptions options;
  options.num_hosts = hosts;
  options.metrics = true;
  options.flight_recorder = true;
  return options;
}

// A /bin/counter on brick, dumped by hand with `dumpproc --tx`: a complete
// dump set (a.out, files, stack, ready) that is now the only copy of the
// process. Returns its pid.
int32_t HandDumpedCounter(World& world) {
  const int32_t pid = world.StartVm("brick", "/bin/counter");
  EXPECT_TRUE(world.RunUntilBlocked("brick", pid));
  const int32_t dp =
      world.StartTool("brick", "dumpproc", {"-p", std::to_string(pid), "--tx"});
  EXPECT_TRUE(world.RunUntilExited("brick", dp));
  EXPECT_EQ(world.ExitInfoOf("brick", dp).exit_code, 0);
  EXPECT_EQ(DumpSetOnDisk(world, "brick", pid), "a.out files stack ready");
  return pid;
}

void PlantClaim(World& world, int32_t pid, const std::string& holder) {
  world.host("brick").vfs().SetupCreateFile(
      DumpPaths::For(pid).claim,
      core::FormatClaimMarker(holder, world.cluster().clock().now()), kUserUid, 0600);
}

// Runs `migrate --robust -p <counter> -f brick -t schooner` in a world built
// from `options` (whose disk-full windows must all lie in the far future),
// with schooner down if `target_down`, and returns the first virtual instant
// at which `reached` holds. The simulation is deterministic, so a disk-full
// window that opens at that instant in a fresh world set up the same way
// lands at the same point of the run.
sim::Nanos ProbeInstant(const test::WorldOptions& options, bool target_down,
                        const std::function<bool(World&, int32_t)>& reached) {
  World world(options);
  const int32_t pid = world.StartVm("brick", "/bin/counter");
  EXPECT_TRUE(world.RunUntilBlocked("brick", pid));
  world.cluster().SetHostDown("schooner", target_down);
  SpawnMigrate(world, "brick", pid, "brick", "schooner", /*use_daemon=*/false,
               core::MigrateOptions::Robust());
  EXPECT_TRUE(world.cluster().RunUntil([&] { return reached(world, pid); },
                                       sim::Seconds(120)));
  return world.cluster().clock().now();
}

}  // namespace

// Exit: the dump leg fails while the process is still alive. A kernel-aborted
// dump resumes its process, so the transaction fails fast and sweeps up.
TEST(MigrateTransaction, AbortedDumpFailsFastAndSweepsTheSet) {
  test::WorldOptions options = ObservedWorld();
  options.faults.enabled = true;
  options.faults.disk_full.push_back({"brick", 0, sim::Seconds(600)});
  World world(options);
  const int32_t pid = world.StartVm("brick", "/bin/counter");
  ASSERT_TRUE(world.RunUntilBlocked("brick", pid));

  auto [mig, rc] = SpawnMigrate(world, "brick", pid, "brick", "schooner",
                                /*use_daemon=*/false, core::MigrateOptions::Robust());
  ASSERT_TRUE(world.RunUntilExited("brick", mig, sim::Seconds(300)));
  EXPECT_EQ(*rc, core::kToolTransient);
  kernel::Proc* p = world.host("brick").FindProc(pid);
  ASSERT_NE(p, nullptr);
  EXPECT_TRUE(p->Alive());
  EXPECT_EQ(DumpSetOnDisk(world, "brick", pid), "");
  EXPECT_EQ(MigrateCounters(world, "brick"), "migrate.retries=2;");
  EXPECT_EQ(LastPostmortem(world, "brick"),
            "dumpproc on brick failed (exit 3) phase=dump");
}

// Exit: the process died in its dump, but the dumpproc rewrite keeps hitting a
// full disk. The dead-source persistence loop retries until the attempt
// timeout (reaching the 8 s backoff cap), then the transaction keeps the set:
// it is the process now.
TEST(MigrateTransaction, DeadSourceKeepsItsDumpSetWhenTheRewriteCannotLand) {
  test::WorldOptions options = ObservedWorld();
  options.faults.enabled = true;
  options.faults.disk_full.push_back({"brick", sim::Seconds(100000), sim::Seconds(100001)});
  const sim::Nanos dumped = ProbeInstant(options, /*target_down=*/false, [](World& w, int32_t pid) {
    const kernel::Proc* p = w.host("brick").FindAnyProc(pid);
    return p == nullptr || !p->Alive();
  });
  // Open just after the instant the dump landed (its writes share that
  // instant): dumpproc only wakes from its one-second poll later, to rewrite
  // filesXXXXX.
  options.faults.disk_full = {{"brick", dumped + sim::Millis(1), dumped + sim::Seconds(600)}};
  World world(options);
  const int32_t pid = world.StartVm("brick", "/bin/counter");
  ASSERT_TRUE(world.RunUntilBlocked("brick", pid));

  auto [mig, rc] = SpawnMigrate(world, "brick", pid, "brick", "schooner",
                                /*use_daemon=*/false, core::MigrateOptions::Robust());
  ASSERT_TRUE(world.RunUntilExited("brick", mig, sim::Seconds(300)));
  EXPECT_EQ(*rc, core::kToolTransient);
  EXPECT_EQ(world.host("brick").FindProc(pid), nullptr);
  EXPECT_EQ(DumpSetOnDisk(world, "brick", pid), "a.out files stack");
  EXPECT_FALSE(world.FileExists("brick", DumpPaths::For(pid).files + ".tmp"));
  EXPECT_EQ(MigrateCounters(world, "brick"), "migrate.backoff_capped=2;migrate.retries=14;");
  EXPECT_EQ(LastPostmortem(world, "brick"),
            "dump set for " + std::to_string(pid) + " kept: it is the process now phase=dump");
}

// Exit: the restart leg lost the claim to a host that is down. That holder
// may be running the process, so the set (claim included) is left alone.
TEST(MigrateTransaction, ClaimHeldByADownHostLeavesTheSet) {
  World world(ObservedWorld(3));
  const int32_t pid = HandDumpedCounter(world);
  PlantClaim(world, pid, "brador");
  world.cluster().SetHostDown("brador", true);

  auto [mig, rc] = SpawnMigrate(world, "brick", pid, "brick", "schooner",
                                /*use_daemon=*/false, core::MigrateOptions::Robust());
  ASSERT_TRUE(world.RunUntilExited("brick", mig, sim::Seconds(300)));
  EXPECT_EQ(*rc, core::kToolTransient);
  EXPECT_EQ(DumpSetOnDisk(world, "brick", pid), "a.out files stack ready claim");
  EXPECT_EQ(MigrateCounters(world, "brick"), "");
  EXPECT_EQ(LastPostmortem(world, "brick"),
            "claim holder for " + std::to_string(pid) + " unreachable phase=restart");
}

// Exit: the restart leg's claim was won by a restart that is running the
// process now, so the migration succeeded and the set is swept up.
TEST(MigrateTransaction, ClaimWonByARunningRestartIsASuccess) {
  World world(ObservedWorld());
  const int32_t pid = HandDumpedCounter(world);
  const int32_t rs = world.StartTool("schooner", "restart",
                                     {"-p", std::to_string(pid), "-h", "brick", "--claim"});
  ASSERT_TRUE(world.RunUntilBlocked("schooner", rs));  // overlaid by the counter
  ASSERT_EQ(world.FindPidByCommand("schooner", "migrated"), rs);

  auto [mig, rc] = SpawnMigrate(world, "brick", pid, "brick", "schooner",
                                /*use_daemon=*/false, core::MigrateOptions::Robust());
  ASSERT_TRUE(world.RunUntilExited("brick", mig, sim::Seconds(300)));
  EXPECT_EQ(*rc, core::kToolOk);
  EXPECT_EQ(DumpSetOnDisk(world, "brick", pid), "");
  EXPECT_EQ(MigrateCounters(world, "brick"), "");
  EXPECT_EQ(LastPostmortem(world, "brick"), "");
}

// Exit: restart failed on the target and a dump file has since vanished, so
// there is nothing whole to fall back to.
TEST(MigrateTransaction, MissingStackFileCannotFallBack) {
  World world(ObservedWorld());
  const int32_t pid = HandDumpedCounter(world);
  world.host("brick").vfs().SetupUnlink(DumpPaths::For(pid).stack);

  auto [mig, rc] = SpawnMigrate(world, "brick", pid, "brick", "schooner",
                                /*use_daemon=*/false, core::MigrateOptions::Robust());
  ASSERT_TRUE(world.RunUntilExited("brick", mig, sim::Seconds(300)));
  EXPECT_EQ(*rc, core::kToolFail);
  EXPECT_EQ(DumpSetOnDisk(world, "brick", pid), "a.out files ready");
  EXPECT_EQ(MigrateCounters(world, "brick"), "");
  EXPECT_EQ(LastPostmortem(world, "brick"),
            "dump files for " + std::to_string(pid) +
                " are gone; cannot fall back phase=fallback");
}

// Exit: the target is down and the fallback restart finds the set claimed by
// that same target. It may have committed before it went away, so the
// transaction does not fall back.
TEST(MigrateTransaction, FallbackClaimHeldByTheDownTargetIsNotBroken) {
  World world(ObservedWorld());
  const int32_t pid = HandDumpedCounter(world);
  PlantClaim(world, pid, "schooner");
  world.cluster().SetHostDown("schooner", true);

  auto [mig, rc] = SpawnMigrate(world, "brick", pid, "brick", "schooner",
                                /*use_daemon=*/false, core::MigrateOptions::Robust());
  ASSERT_TRUE(world.RunUntilExited("brick", mig, sim::Seconds(300)));
  EXPECT_EQ(*rc, core::kToolTransient);
  EXPECT_EQ(DumpSetOnDisk(world, "brick", pid), "a.out files stack ready claim");
  EXPECT_EQ(MigrateCounters(world, "brick"), "migrate.retries=2;");
  EXPECT_EQ(LastPostmortem(world, "brick"),
            "claim holder for " + std::to_string(pid) + " unreachable phase=fallback");
}

// Exit: the fallback finds a stale claim (no process behind it), breaks it,
// and loses the claim again to a contender that still has no process. The
// transaction stops there and leaves the set to the orphan reaper.
TEST(MigrateTransaction, ContendedFallbackClaimLeavesTheSet) {
  World world(ObservedWorld());
  const int32_t pid = HandDumpedCounter(world);
  world.cluster().SetHostDown("schooner", true);
  // The contender claims the set whenever it is unclaimed, naming brick, and
  // never restarts anything.
  const std::string claim = DumpPaths::For(pid).claim;
  kernel::Kernel* brick = &world.host("brick");
  auto claims = std::make_shared<int>(0);
  kernel::SpawnOptions opts;
  opts.creds = {kUserUid, 10, kUserUid, 10};
  world.host("brick").SpawnNative(
      "claimer",
      [claim, brick, claims](SyscallApi& api) {
        for (;;) {
          const Result<int> fd = api.Open(
              claim, vm::abi::OpenFlags::kOWrOnly | vm::abi::OpenFlags::kOCreat |
                         vm::abi::OpenFlags::kOExcl,
              0600);
          if (fd.ok()) {
            ++*claims;
            const Result<int64_t> n = api.Write(*fd, core::FormatClaimMarker("brick", api.Now()));
            (void)n;
            const Status closed = api.Close(*fd);
            (void)closed;
          }
          api.BlockUntil([brick, claim] {
            return !brick->vfs()
                        .Resolve(brick->vfs().RootState(), claim, vfs::Follow::kAll, nullptr)
                        .ok();
          });
        }
        return 0;
      },
      opts);
  ASSERT_TRUE(world.cluster().RunUntil([&] { return world.FileExists("brick", claim); },
                                       sim::Seconds(10)));

  auto [mig, rc] = SpawnMigrate(world, "brick", pid, "brick", "schooner",
                                /*use_daemon=*/false, core::MigrateOptions::Robust());
  ASSERT_TRUE(world.RunUntilExited("brick", mig, sim::Seconds(300)));
  EXPECT_EQ(*rc, core::kToolTransient);
  EXPECT_EQ(*claims, 2);
  EXPECT_EQ(DumpSetOnDisk(world, "brick", pid), "a.out files stack ready claim");
  EXPECT_EQ(MigrateCounters(world, "brick"), "migrate.retries=2;migrate.stale_claims_broken=1;");
  EXPECT_EQ(LastPostmortem(world, "brick"),
            "claim on " + std::to_string(pid) + " contended; leaving the set phase=fallback");
}

// Exit: the target is down, and the fallback restart finds the set claimed by
// a restart on a third host that is running the process. That remote winner
// makes this a successful migration, not a fallback.
TEST(MigrateTransaction, RemoteWinnerBehindTheFallbackClaimIsASuccess) {
  World world(ObservedWorld(3));
  const int32_t pid = HandDumpedCounter(world);
  const int32_t rs = world.StartTool("schooner", "restart",
                                     {"-p", std::to_string(pid), "-h", "brick", "--claim"});
  ASSERT_TRUE(world.RunUntilBlocked("schooner", rs));  // overlaid by the counter
  ASSERT_EQ(world.FindPidByCommand("schooner", "migrated"), rs);
  world.cluster().SetHostDown("brador", true);

  auto [mig, rc] = SpawnMigrate(world, "brick", pid, "brick", "brador",
                                /*use_daemon=*/false, core::MigrateOptions::Robust());
  ASSERT_TRUE(world.RunUntilExited("brick", mig, sim::Seconds(300)));
  EXPECT_EQ(*rc, core::kToolOk);
  EXPECT_EQ(DumpSetOnDisk(world, "brick", pid), "");
  EXPECT_EQ(MigrateCounters(world, "brick"), "migrate.retries=2;");
  EXPECT_EQ(LastPostmortem(world, "brick"),
            "restart on brador failed (EHOSTUNREACH); falling back to brick phase=restart");
}

// Exit: the target is down and the source disk is full, so the fallback
// restart cannot write its claim. The fallback persistence loop retries until
// the attempt timeout (reaching the 8 s backoff cap), then leaves the set.
TEST(MigrateTransaction, FallbackPersistsThroughAFullDiskThenLeavesTheSet) {
  test::WorldOptions options = ObservedWorld();
  options.faults.enabled = true;
  options.faults.disk_full.push_back({"brick", sim::Seconds(100000), sim::Seconds(100001)});
  // The instant dumpproc has stamped the ready marker: the dump leg is done.
  const sim::Nanos dumped = ProbeInstant(options, /*target_down=*/true, [](World& w, int32_t pid) {
    return !core::ParseDumpMarker(w.FileContents("brick", DumpPaths::For(pid).ready))
                .host.empty();
  });
  options.faults.disk_full = {{"brick", dumped + sim::Millis(1), dumped + sim::Seconds(600)}};
  World world(options);
  const int32_t pid = world.StartVm("brick", "/bin/counter");
  ASSERT_TRUE(world.RunUntilBlocked("brick", pid));
  world.cluster().SetHostDown("schooner", true);

  auto [mig, rc] = SpawnMigrate(world, "brick", pid, "brick", "schooner",
                                /*use_daemon=*/false, core::MigrateOptions::Robust());
  ASSERT_TRUE(world.RunUntilExited("brick", mig, sim::Seconds(300)));
  EXPECT_EQ(*rc, core::kToolTransient);
  EXPECT_EQ(DumpSetOnDisk(world, "brick", pid), "a.out files stack ready");
  EXPECT_EQ(MigrateCounters(world, "brick"), "migrate.backoff_capped=2;migrate.retries=16;");
  EXPECT_EQ(LastPostmortem(world, "brick"),
            "fallback restart on brick failed (exit 3) phase=fallback");
}

// Exit: the disk fills between the creat of dumpproc's ready marker and its
// write. The failed attempt must not leave an empty readyXXXXX behind (a retry
// would take it for a finished set, and the reaper could not age it), so the
// retried dumpproc --tx rewrites the set and publishes a marker that names its
// host and time, and the migration completes.
TEST(MigrateTransaction, ReadyMarkerThatCannotBeWrittenIsRemoved) {
  test::WorldOptions options = ObservedWorld();
  options.faults.enabled = true;
  options.faults.disk_full.push_back({"brick", sim::Seconds(100000), sim::Seconds(100001)});
  // The instant the marker's creat has landed; its write comes a disk wait later.
  const sim::Nanos created = ProbeInstant(options, /*target_down=*/false, [](World& w, int32_t pid) {
    return w.FileExists("brick", DumpPaths::For(pid).ready);
  });
  const sim::Nanos window_end = created + sim::Millis(100);
  options.faults.disk_full = {{"brick", created + sim::Millis(1), window_end}};
  World world(options);
  const int32_t pid = world.StartVm("brick", "/bin/counter");
  ASSERT_TRUE(world.RunUntilBlocked("brick", pid));
  const DumpPaths paths = DumpPaths::For(pid);

  auto [mig, rc] = SpawnMigrate(world, "brick", pid, "brick", "schooner",
                                /*use_daemon=*/false, core::MigrateOptions::Robust());
  // The first attempt has failed by the end of the window; the retry waits
  // out the first backoff.
  world.cluster().RunFor(window_end - world.cluster().clock().now());
  EXPECT_EQ(DumpSetOnDisk(world, "brick", pid), "a.out files stack");
  ASSERT_TRUE(world.cluster().RunUntil(
      [&] { return !core::ParseDumpMarker(world.FileContents("brick", paths.ready)).host.empty(); },
      sim::Seconds(60)));
  const core::DumpMarker ready =
      core::ParseDumpMarker(world.FileContents("brick", paths.ready));
  EXPECT_EQ(ready.host, "brick");
  EXPECT_GT(ready.at, window_end);

  ASSERT_TRUE(world.RunUntilExited("brick", mig, sim::Seconds(300)));
  EXPECT_EQ(*rc, core::kToolOk);
  EXPECT_GT(world.FindPidByCommand("schooner", "migrated"), 0);
  EXPECT_EQ(DumpSetOnDisk(world, "brick", pid), "");
  EXPECT_EQ(MigrateCounters(world, "brick"), "migrate.retries=1;");
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
