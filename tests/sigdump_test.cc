// SIGDUMP: the three dump files, their contents, their timing, and undump.

#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "src/core/dump_format.h"
#include "src/core/test_programs.h"
#include "src/vm/aout.h"
#include "tests/test_util.h"

namespace pmig {
namespace {

using core::DumpPaths;
using core::FilesEntry;
using core::FilesFile;
using core::StackFile;
using test::kUserUid;
using test::World;

// Starts the counter on brick, feeds `lines`, leaves it blocked at its prompt.
int32_t StartCounter(World& world, int lines = 1) {
  const int32_t pid = world.StartVm("brick", "/bin/counter");
  EXPECT_TRUE(world.RunUntilBlocked("brick", pid));
  for (int i = 0; i < lines; ++i) {
    world.console("brick")->Type("line " + std::to_string(i) + "\n");
    EXPECT_TRUE(world.RunUntilBlocked("brick", pid));
  }
  return pid;
}

// Dumps `pid` with a raw SIGDUMP and waits for completion.
void Sigdump(World& world, int32_t pid) {
  ASSERT_TRUE(world.host("brick").PostSignal(pid, vm::abi::kSigDump, nullptr).ok());
  ASSERT_TRUE(world.RunUntilExited("brick", pid));
  ASSERT_TRUE(world.ExitInfoOf("brick", pid).migration_dumped);
}

TEST(Sigdump, ProducesThreeWellFormedFiles) {
  World world;
  const int32_t pid = StartCounter(world);
  Sigdump(world, pid);
  const DumpPaths paths = DumpPaths::For(pid);

  // a.outXXXXX parses as an ordinary executable.
  const std::string aout = world.FileContents("brick", paths.aout);
  const Result<vm::AoutImage> image = vm::AoutImage::Parse(aout);
  ASSERT_TRUE(image.ok());
  EXPECT_GT(image->text.size(), 0u);
  EXPECT_GT(image->data.size(), 0u);

  // filesXXXXX has magic 0445 and knows host, cwd, tty modes.
  const Result<FilesFile> files =
      FilesFile::Parse(world.FileContents("brick", paths.files));
  ASSERT_TRUE(files.ok());
  EXPECT_EQ(files->host, "brick");
  EXPECT_EQ(files->cwd, "/u/user");
  EXPECT_TRUE(files->had_tty);

  // stackXXXXX has magic 0444, the credentials, and a plausible stack.
  const Result<StackFile> stack =
      StackFile::Parse(world.FileContents("brick", paths.stack));
  ASSERT_TRUE(stack.ok());
  EXPECT_EQ(stack->creds.uid, kUserUid);
  EXPECT_GT(stack->stack_size(), 0u);
  EXPECT_EQ(stack->old_pid, pid);
  EXPECT_EQ(stack->old_host, "brick");
}

TEST(Sigdump, AoutCapturesLiveTextAndData) {
  World world;
  const int32_t pid = StartCounter(world, 2);
  kernel::Proc* p = world.host("brick").FindProc(pid);
  ASSERT_NE(p, nullptr);
  const sim::Blob live_text = p->vm->text();
  const std::vector<uint8_t> live_data = p->vm->data;

  Sigdump(world, pid);
  const std::string aout = world.FileContents("brick", DumpPaths::For(pid).aout);
  const Result<vm::AoutImage> image = vm::AoutImage::Parse(aout);
  ASSERT_TRUE(image.ok());
  EXPECT_EQ(image->text, live_text);
  EXPECT_EQ(image->data, live_data);  // statics at their values when killed
}

TEST(Sigdump, StackFileCapturesRegistersAndStack) {
  World world;
  const int32_t pid = StartCounter(world, 3);
  kernel::Proc* p = world.host("brick").FindProc(pid);
  ASSERT_NE(p, nullptr);
  const vm::CpuState live_cpu = p->vm->cpu;
  const std::vector<uint8_t> live_stack = p->vm->StackContents();

  Sigdump(world, pid);
  const Result<StackFile> stack =
      StackFile::Parse(world.FileContents("brick", DumpPaths::For(pid).stack));
  ASSERT_TRUE(stack.ok());
  EXPECT_EQ(stack->cpu.regs[5], 4);  // register counter: initial pass + 3 fed lines
  EXPECT_EQ(stack->cpu, live_cpu);
  EXPECT_EQ(stack->stack, live_stack);
}

TEST(Sigdump, RecordsOpenFilesWithOffsets) {
  World world;
  const int32_t pid = StartCounter(world, 2);  // wrote "line 0\nline 1\n" = 14 bytes
  Sigdump(world, pid);
  const Result<FilesFile> files =
      FilesFile::Parse(world.FileContents("brick", DumpPaths::For(pid).files));
  ASSERT_TRUE(files.ok());
  // fds 0..2: the terminal. fd 3: counter.out, opened append.
  EXPECT_EQ(files->entries[0].kind, FilesEntry::Kind::kFile);
  EXPECT_EQ(files->entries[0].path, "/dev/console");
  EXPECT_EQ(files->entries[3].kind, FilesEntry::Kind::kFile);
  EXPECT_EQ(files->entries[3].path, "/u/user/counter.out");
  EXPECT_EQ(files->entries[3].offset, 14);
  EXPECT_EQ(files->entries[4].kind, FilesEntry::Kind::kUnused);
}

TEST(Sigdump, MarksSocketsAsSockets) {
  World world;
  const int32_t pid = world.StartVm("brick", "/bin/socketer");
  ASSERT_TRUE(world.RunUntilBlocked("brick", pid));
  Sigdump(world, pid);
  const Result<FilesFile> files =
      FilesFile::Parse(world.FileContents("brick", DumpPaths::For(pid).files));
  ASSERT_TRUE(files.ok());
  EXPECT_EQ(files->entries[3].kind, FilesEntry::Kind::kSocket);
  EXPECT_EQ(files->entries[4].kind, FilesEntry::Kind::kSocket);
}

TEST(Sigdump, RecordsTtyFlags) {
  World world;
  const int32_t pid = world.StartVm("brick", "/bin/editor");  // sets raw mode
  ASSERT_TRUE(world.RunUntilBlocked("brick", pid));
  EXPECT_TRUE(world.console("brick")->raw());
  Sigdump(world, pid);
  const Result<FilesFile> files =
      FilesFile::Parse(world.FileContents("brick", DumpPaths::For(pid).files));
  ASSERT_TRUE(files.ok());
  EXPECT_EQ(files->tty_flags & vm::abi::kTtyRaw, vm::abi::kTtyRaw);
}

TEST(Sigdump, FilesAppearOnlyWhenDumpCompletes) {
  World world;
  const int32_t pid = StartCounter(world);
  const DumpPaths paths = DumpPaths::For(pid);
  ASSERT_TRUE(world.host("brick").PostSignal(pid, vm::abi::kSigDump, nullptr).ok());
  // Immediately after delivery the dump is still being written.
  world.cluster().RunFor(sim::Millis(30));
  EXPECT_FALSE(world.FileExists("brick", paths.aout));
  kernel::Proc* p = world.host("brick").FindProc(pid);
  ASSERT_NE(p, nullptr);
  EXPECT_TRUE(p->Alive());  // dying, but not gone
  ASSERT_TRUE(world.RunUntilExited("brick", pid));
  EXPECT_TRUE(world.FileExists("brick", paths.aout));
}

TEST(Sigdump, SigKillDuringDumpAbortsIt) {
  World world;
  const int32_t pid = StartCounter(world);
  const DumpPaths paths = DumpPaths::For(pid);
  ASSERT_TRUE(world.host("brick").PostSignal(pid, vm::abi::kSigDump, nullptr).ok());
  world.cluster().RunFor(sim::Millis(30));
  ASSERT_TRUE(world.host("brick").PostSignal(pid, vm::abi::kSigKill, nullptr).ok());
  ASSERT_TRUE(world.RunUntilExited("brick", pid));
  world.cluster().RunFor(sim::Seconds(2));
  EXPECT_FALSE(world.FileExists("brick", paths.aout));  // dump never completed
  EXPECT_FALSE(world.ExitInfoOf("brick", pid).migration_dumped);
}

TEST(Sigdump, NativeProcessJustDies) {
  // The tools themselves are not migratable; SIGDUMP degenerates to a kill.
  World world;
  kernel::Kernel& k = world.host("brick");
  kernel::SpawnOptions opts;
  opts.creds = {kUserUid, 10, kUserUid, 10};
  const int32_t pid = k.SpawnNative("sleeper",
                                    [](kernel::SyscallApi& api) {
                                      api.Sleep(sim::Seconds(1000));
                                      return 0;
                                    },
                                    opts);
  world.cluster().RunFor(sim::Millis(100));
  ASSERT_TRUE(k.PostSignal(pid, vm::abi::kSigDump, nullptr).ok());
  ASSERT_TRUE(world.RunUntilExited("brick", pid, sim::Seconds(30)));
  EXPECT_FALSE(world.ExitInfoOf("brick", pid).migration_dumped);
  EXPECT_FALSE(world.FileExists("brick", DumpPaths::For(pid).aout));
}

TEST(Sigdump, StockKernelTreatsSigdumpAsPlainKill) {
  // Without the migration hooks installed, SIGDUMP terminates without a dump.
  cluster::ClusterConfig config;
  config.hosts.push_back({"plain", vm::IsaLevel::kIsa20});
  cluster::Cluster plain(std::move(config));
  kernel::Kernel& k = plain.host("plain");
  core::InstallStandardPrograms(k);
  kernel::Tty* tty = k.CreateTty("console");
  kernel::SpawnOptions opts;
  opts.creds = {kUserUid, 10, kUserUid, 10};
  opts.tty = tty;
  opts.cwd = "/tmp";
  const Result<int32_t> pid = k.SpawnVm("/bin/counter", {}, opts);
  ASSERT_TRUE(pid.ok());
  plain.RunUntil([&] {
    const kernel::Proc* p = k.FindProc(*pid);
    return p != nullptr && p->state == kernel::ProcState::kBlocked;
  });
  ASSERT_TRUE(k.PostSignal(*pid, vm::abi::kSigDump, nullptr).ok());
  plain.RunUntil([&] {
    const kernel::Proc* p = k.FindAnyProc(*pid);
    return p == nullptr || !p->Alive();
  });
  kernel::Proc* p = k.FindAnyProc(*pid);
  ASSERT_NE(p, nullptr);
  EXPECT_FALSE(p->exit_info.migration_dumped);
  EXPECT_EQ(p->exit_info.killed_by_signal, vm::abi::kSigDump);
}

// --- The machtype a dump records: the ISA level its text needs ---

// Starts `path` on brick, waits until it blocks, dumps it, and returns the
// machtype its a.outXXXXX records.
uint32_t DumpedMachtype(World& world, const std::string& path) {
  const int32_t pid = world.StartVm("brick", path);
  EXPECT_GT(pid, 0);
  EXPECT_TRUE(world.RunUntilBlocked("brick", pid));
  Sigdump(world, pid);
  const Result<vm::AoutImage> image =
      vm::AoutImage::Parse(world.FileContents("brick", DumpPaths::For(pid).aout));
  EXPECT_TRUE(image.ok()) << path;
  return image.ok() ? image->header.machtype : 0;
}

// Declares `.isa 20` but uses only kIsa10 opcodes; blocks reading its terminal.
constexpr std::string_view kDeclaresIsa20 = R"(
        .isa 20
        .text
start:  movi r0, 0
        movi r1, buf
        movi r2, 8
        sys  SYS_read
        jmp  start
        .data
buf:    .space 8
)";

TEST(Sigdump, MachtypeOfAnIsa20Text) {
  World world;
  EXPECT_EQ(DumpedMachtype(world, "/bin/isa20"), 20u);
}

// The level comes from the opcodes in the text, not from what the program's
// own header declared.
TEST(Sigdump, MachtypeOfAnIsa10TextDeclaredIsa20) {
  World world;
  core::InstallProgram(world.host("brick"), "/bin/declares20", kDeclaresIsa20);
  EXPECT_EQ(DumpedMachtype(world, "/bin/declares20"), 10u);
}

// The kernel remembers the level of the last text it scanned: each dump here
// follows a different text's dump on the same host.
TEST(Sigdump, MachtypeAfterTheHostDumpedAnotherText) {
  World world;
  core::InstallProgram(world.host("brick"), "/bin/declares20", kDeclaresIsa20);
  EXPECT_EQ(DumpedMachtype(world, "/bin/isa20"), 20u);
  EXPECT_EQ(DumpedMachtype(world, "/bin/counter"), 10u);
  EXPECT_EQ(DumpedMachtype(world, "/bin/isa20"), 20u);
  EXPECT_EQ(DumpedMachtype(world, "/bin/declares20"), 10u);
}

// --- Undump: executable + core -> new executable (Section 4.3 aside) ---

TEST(Undump, CombinesAoutAndCore) {
  World world;
  const int32_t pid = StartCounter(world, 2);
  // SIGQUIT leaves a core in the cwd.
  ASSERT_TRUE(world.host("brick").PostSignal(pid, vm::abi::kSigQuit, nullptr).ok());
  ASSERT_TRUE(world.RunUntilExited("brick", pid));
  ASSERT_TRUE(world.FileExists("brick", "/u/user/core"));

  // undump /bin/counter /u/user/core /u/user/revived
  const int32_t ud = world.StartTool(
      "brick", "undump", {"/bin/counter", "/u/user/core", "/u/user/revived"});
  ASSERT_TRUE(world.RunUntilExited("brick", ud));
  EXPECT_EQ(world.ExitInfoOf("brick", ud).exit_code, 0);

  // Running the revived executable starts from the beginning, but the static
  // counter begins at its value when the process was killed (3, after two fed
  // lines): the first iteration increments it and prints r=1 s=4 k=1.
  const int32_t revived = world.StartVm("brick", "/u/user/revived");
  ASSERT_GT(revived, 0);
  ASSERT_TRUE(world.RunUntilBlocked("brick", revived));
  EXPECT_NE(world.console("brick")->PlainOutput().find("r=1 s=4 k=1"), std::string::npos);
}

TEST(Undump, RejectsGarbageInputs) {
  World world;
  world.host("brick").vfs().SetupCreateFile("/tmp/junk", "junk", kUserUid, 0644);
  const int32_t a =
      world.StartTool("brick", "undump", {"/tmp/junk", "/tmp/junk", "/tmp/out"});
  ASSERT_TRUE(world.RunUntilExited("brick", a));
  EXPECT_NE(world.ExitInfoOf("brick", a).exit_code, 0);
}

}  // namespace
}  // namespace pmig
