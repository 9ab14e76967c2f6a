// Section 7: the limitations, reproduced as behaviour.
//
//   * sockets are not migrated (they become /dev/null);
//   * processes waiting for children must not be migrated;
//   * heterogeneity only works toward a superset ISA (Sun-2 -> Sun-3, not back);
//   * processes that "know things about their environment" (pid, hostname) break —
//     unless the Section 7 identity-virtualisation proposal is enabled.

#include <gtest/gtest.h>

#include "src/core/dump_format.h"
#include "src/vm/assembler.h"
#include "tests/test_util.h"

namespace pmig {
namespace {

using test::kUserUid;
using test::World;
using test::WorldOptions;

// Migrates `pid` from brick to schooner with migrate typed on schooner; returns
// the new pid on schooner (or -1).
int32_t MigrateToSchooner(World& world, int32_t pid) {
  const int32_t mig = world.StartTool(
      "schooner", "migrate",
      {"-p", std::to_string(pid), "-f", "brick", "-t", "schooner"}, kUserUid,
      world.console("schooner"));
  if (!world.RunUntilExited("schooner", mig, sim::Seconds(300))) return -1;
  if (world.ExitInfoOf("schooner", mig).exit_code != 0) return -1;
  return world.FindPidByCommand("schooner", "migrated");
}

TEST(Limitations, SocketsBecomeNullAndProcessKeepsRunning) {
  World world;
  const int32_t pid = world.StartVm("brick", "/bin/socketer");
  ASSERT_TRUE(world.RunUntilBlocked("brick", pid));
  const int32_t new_pid = MigrateToSchooner(world, pid);
  ASSERT_GT(new_pid, 0);

  kernel::Proc* p = world.host("schooner").FindProc(new_pid);
  ASSERT_NE(p, nullptr);
  // fds 3/4 were the socket pair; now both are the null device.
  for (int fd : {3, 4}) {
    const kernel::OpenFilePtr& f = p->fds[static_cast<size_t>(fd)];
    ASSERT_NE(f, nullptr) << fd;
    ASSERT_EQ(f->kind, kernel::FileKind::kInode) << fd;
    EXPECT_EQ(std::string(f->inode->device->DeviceName()), "null") << fd;
  }
  // "the process migration mechanism is still useful": it keeps running — its
  // socket writes just vanish.
  world.console("schooner")->Type("more\n");
  ASSERT_TRUE(world.RunUntilBlocked("schooner", new_pid));
}

TEST(Limitations, ParentWaitingForChildrenBreaks) {
  World world;
  const int32_t pid = world.StartVm("brick", "/bin/forkwait");
  kernel::Kernel& brick = world.host("brick");
  // Wait until the parent is blocked in wait() (child blocked in read()).
  ASSERT_TRUE(world.cluster().RunUntil([&] {
    int blocked = 0;
    for (kernel::Proc* p : brick.ListProcs()) {
      if (p->kind == kernel::ProcKind::kVm && p->state == kernel::ProcState::kBlocked) {
        ++blocked;
      }
    }
    return blocked >= 2;
  }));

  const int32_t new_pid = MigrateToSchooner(world, pid);
  ASSERT_GT(new_pid, 0);
  // On schooner the migrated parent has no children: its wait() fails and the
  // program exits with its error code (10).
  ASSERT_TRUE(world.RunUntilExited("schooner", new_pid, sim::Seconds(120)));
  EXPECT_EQ(world.ExitInfoOf("schooner", new_pid).exit_code, 10);
}

TEST(Limitations, MigrationUphillSun2ToSun3Works) {
  WorldOptions options;
  options.isa = {vm::IsaLevel::kIsa10, vm::IsaLevel::kIsa20};  // brick=Sun-2
  World world(options);
  const int32_t pid = world.StartVm("brick", "/bin/counter");
  ASSERT_TRUE(world.RunUntilBlocked("brick", pid));
  world.console("brick")->Type("a\n");
  ASSERT_TRUE(world.RunUntilBlocked("brick", pid));
  const int32_t new_pid = MigrateToSchooner(world, pid);
  ASSERT_GT(new_pid, 0);
  world.console("schooner")->Type("b\n");
  ASSERT_TRUE(world.cluster().RunUntil([&] {
    return world.console("schooner")->PlainOutput().find("r=3 s=3 k=3") != std::string::npos;
  }));
}

TEST(Limitations, MigrationDownhillSun3ToSun2Refused) {
  WorldOptions options;
  options.isa = {vm::IsaLevel::kIsa20, vm::IsaLevel::kIsa10};  // schooner=Sun-2
  World world(options);
  const int32_t pid = world.StartVm("brick", "/bin/isa20");  // uses lmul
  ASSERT_TRUE(world.RunUntilBlocked("brick", pid));
  // migrate's restart phase fails: execve refuses the 68020 binary on the 68010.
  const int32_t mig = world.StartTool(
      "schooner", "migrate",
      {"-p", std::to_string(pid), "-f", "brick", "-t", "schooner"}, kUserUid,
      world.console("schooner"));
  ASSERT_TRUE(world.RunUntilExited("schooner", mig, sim::Seconds(300)));
  EXPECT_NE(world.ExitInfoOf("schooner", mig).exit_code, 0);
  EXPECT_EQ(world.FindPidByCommand("schooner", "migrated"), -1);
}

TEST(Limitations, Isa20ProgramOnSun2DiesWithSigill) {
  // The "crash" variant: a program that *already decided* to use 68020
  // instructions executes them on a 68010 and dies.
  WorldOptions options;
  options.isa = {vm::IsaLevel::kIsa10};
  World world(options);
  // Force the image into the machine regardless of the exec check by patching the
  // header's machtype (models a program that *chooses* fancy instructions at run
  // time based on its original host).
  auto img = vm::MustAssemble(std::string(core::Isa20ProgramSource()));
  img.header.machtype = 10;  // lies about its requirements
  world.host("brick").vfs().SetupCreateFile("/bin/liar", img.Serialize(), 0, 0755);
  const int32_t pid = world.StartVm("brick", "/bin/liar");
  ASSERT_GT(pid, 0);
  ASSERT_TRUE(world.RunUntilExited("brick", pid));
  const kernel::ExitInfo info = world.ExitInfoOf("brick", pid);
  EXPECT_EQ(info.killed_by_signal, vm::abi::kSigIll);
  EXPECT_TRUE(info.core_dumped);
}

TEST(Limitations, PidAndHostnameChangeAfterMigration) {
  World world;
  const int32_t pid = world.StartVm("brick", "/bin/identity");
  ASSERT_TRUE(world.RunUntilBlocked("brick", pid));
  EXPECT_NE(world.console("brick")->PlainOutput().find(std::to_string(pid) + ":brick"),
            std::string::npos);

  const int32_t new_pid = MigrateToSchooner(world, pid);
  ASSERT_GT(new_pid, 0);
  world.console("schooner")->Type("\n");
  ASSERT_TRUE(world.cluster().RunUntil([&] {
    return world.console("schooner")->PlainOutput().find(std::to_string(new_pid) +
                                                         ":schooner") != std::string::npos;
  }));
}

TEST(Limitations, VirtualizedIdentityReportsOldValues) {
  // The Section 7 proposal: getpid()/gethostname() keep reporting the old values;
  // getpid_real()/gethostname_real() tell the truth.
  WorldOptions options;
  options.virtualize_identity = true;
  World world(options);
  const int32_t pid = world.StartVm("brick", "/bin/identity");
  ASSERT_TRUE(world.RunUntilBlocked("brick", pid));

  const int32_t new_pid = MigrateToSchooner(world, pid);
  ASSERT_GT(new_pid, 0);
  world.console("schooner")->Type("\n");
  // The program still believes it is <old pid> on brick.
  ASSERT_TRUE(world.cluster().RunUntil([&] {
    return world.console("schooner")->PlainOutput().find(std::to_string(pid) + ":brick") !=
           std::string::npos;
  }));
  // The real syscalls see through it.
  kernel::Proc* p = world.host("schooner").FindProc(new_pid);
  ASSERT_NE(p, nullptr);
  EXPECT_TRUE(p->migrated);
  EXPECT_EQ(p->api->GetPid(), pid);  // virtualised view
}

TEST(Limitations, TemporaryFileProblem) {
  // A process that re-derives a temp-file name from getpid() each time loses the
  // file after migration (its pid changed) — unless identity is virtualised.
  World world;
  const int32_t pid = world.StartVm("brick", "/bin/counter");
  ASSERT_TRUE(world.RunUntilBlocked("brick", pid));
  // Simulate the program's temp file keyed by pid.
  world.host("brick").vfs().SetupCreateFile("/tmp/app." + std::to_string(pid), "state",
                                            kUserUid, 0600);
  const int32_t new_pid = MigrateToSchooner(world, pid);
  ASSERT_GT(new_pid, 0);
  // The name the program would now derive does not exist anywhere.
  EXPECT_FALSE(world.FileExists("schooner", "/tmp/app." + std::to_string(new_pid)));
  EXPECT_FALSE(world.FileExists("brick", "/tmp/app." + std::to_string(new_pid)));
}

}  // namespace
}  // namespace pmig
