// The VM-side syscall ABI, exercised by real machine programs: every trap the
// dispatcher implements, including its error returns into r0.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/core/test_programs.h"
#include "tests/test_util.h"

namespace pmig {
namespace {

using test::kUserUid;
using test::World;

// Runs an assembly program on brick to completion; returns its exit code and
// the system CPU it was charged. The program is installed at /bin/t and
// started with no tty (batch).
std::pair<int, sim::Nanos> RunAsmCharged(World& world, const std::string& source,
                                         bool with_tty = false,
                                         const std::string& cwd = "/u/user") {
  core::InstallProgram(world.host("brick"), "/bin/t", source);
  kernel::Kernel& k = world.host("brick");
  kernel::SpawnOptions opts;
  opts.creds = {kUserUid, 10, kUserUid, 10};
  if (with_tty) opts.tty = world.console("brick");
  opts.cwd = cwd;
  const Result<int32_t> pid = k.SpawnVm("/bin/t", {}, opts);
  EXPECT_TRUE(pid.ok());
  if (!pid.ok()) return {-1, 0};
  EXPECT_TRUE(world.RunUntilExited("brick", *pid, sim::Seconds(120)));
  const kernel::Proc* p = k.FindAnyProc(*pid);
  return {p->exit_info.exit_code, p->stime};
}

// The exit code alone.
int RunAsm(World& world, const std::string& source, bool with_tty = false,
           const std::string& cwd = "/u/user") {
  return RunAsmCharged(world, source, with_tty, cwd).first;
}

// Convention in these programs: exit(0) = success, exit(N) = step N failed.

TEST(VmSyscall, TimeAdvances) {
  World world;
  world.cluster().RunFor(sim::Seconds(3));
  const int code = RunAsm(world, R"(
start:  sys  SYS_time           ; r0 = seconds since boot
        movi r1, 3
        blt  r0, r1, bad
        movi r0, 0
        sys  SYS_exit
bad:    movi r0, 1
        sys  SYS_exit
)");
  EXPECT_EQ(code, 0);
}

TEST(VmSyscall, GetUidAndPpid) {
  World world;
  const int code = RunAsm(world, R"(
start:  sys  SYS_getuid
        movi r1, 100
        bne  r0, r1, bad1
        sys  SYS_getppid        ; spawned by the kernel: ppid 0
        movi r1, 0
        bne  r0, r1, bad2
        movi r0, 0
        sys  SYS_exit
bad1:   movi r0, 1
        sys  SYS_exit
bad2:   movi r0, 2
        sys  SYS_exit
)");
  EXPECT_EQ(code, 0);
}

TEST(VmSyscall, MkdirChdirGetcwdRmdir) {
  World world;
  const int code = RunAsm(world, R"(
start:  movi r0, dname
        movi r1, 493            ; 0755
        sys  SYS_mkdir
        movi r1, 0
        bne  r0, r1, bad1
        movi r0, dname
        sys  SYS_chdir
        movi r1, 0
        bne  r0, r1, bad2
        movi r0, cwdbuf
        movi r1, 64
        sys  SYS_getcwd
        movi r1, 0
        bne  r0, r1, bad3
        ; verify cwd ends with "subdir": check first byte is '/'
        movi r3, cwdbuf
        ldb  r4, r3, 0
        movi r5, 47             ; '/'
        bne  r4, r5, bad4
        ; back out and remove
        movi r0, dotdot
        sys  SYS_chdir
        movi r0, dname
        sys  SYS_rmdir
        movi r1, 0
        bne  r0, r1, bad5
        movi r0, 0
        sys  SYS_exit
bad1:   movi r0, 1
        sys  SYS_exit
bad2:   movi r0, 2
        sys  SYS_exit
bad3:   movi r0, 3
        sys  SYS_exit
bad4:   movi r0, 4
        sys  SYS_exit
bad5:   movi r0, 5
        sys  SYS_exit
        .data
dname:  .asciiz "subdir"
dotdot: .asciiz ".."
cwdbuf: .space 64
)");
  EXPECT_EQ(code, 0);
}

TEST(VmSyscall, RenameAndStat) {
  World world;
  const int code = RunAsm(world, R"(
start:  movi r0, oldn
        movi r1, 420
        sys  SYS_creat
        movi r7, 0
        blt  r0, r7, bad1
        mov  r6, r0
        mov  r0, r6
        movi r1, msg
        movi r2, 5
        sys  SYS_write
        mov  r0, r6
        sys  SYS_close
        movi r0, oldn
        movi r1, newn
        sys  SYS_rename
        movi r1, 0
        bne  r0, r1, bad2
        ; stat the new name: size must be 5, type regular (0)
        movi r0, newn
        movi r1, stbuf
        sys  SYS_stat
        movi r1, 0
        bne  r0, r1, bad3
        movi r3, stbuf
        ld   r4, r3, 0          ; type
        movi r5, 0
        bne  r4, r5, bad4
        ld   r4, r3, 8          ; size
        movi r5, 5
        bne  r4, r5, bad5
        ; the old name is gone
        movi r0, oldn
        movi r1, stbuf
        sys  SYS_stat
        movi r1, -2             ; -ENOENT
        bne  r0, r1, bad6
        movi r0, 0
        sys  SYS_exit
bad1:   movi r0, 1
        sys  SYS_exit
bad2:   movi r0, 2
        sys  SYS_exit
bad3:   movi r0, 3
        sys  SYS_exit
bad4:   movi r0, 4
        sys  SYS_exit
bad5:   movi r0, 5
        sys  SYS_exit
bad6:   movi r0, 6
        sys  SYS_exit
        .data
oldn:   .asciiz "before.txt"
newn:   .asciiz "after.txt"
msg:    .asciiz "12345"
stbuf:  .space 32
)");
  EXPECT_EQ(code, 0);
  EXPECT_TRUE(world.FileExists("brick", "/u/user/after.txt"));
  EXPECT_FALSE(world.FileExists("brick", "/u/user/before.txt"));
}

TEST(VmSyscall, PipeBetweenForkedProcesses) {
  World world;
  const int code = RunAsm(world, R"(
; parent writes through a pipe to the child; child exits with the byte it read.
start:  sys  SYS_pipe           ; r0 = read end, r1 = write end
        mov  r6, r0
        mov  r7, r1
        sys  SYS_fork
        movi r1, 0
        beq  r0, r1, child
        ; parent: write one byte, wait for the child, exit with its code
        movi r3, pbuf
        movi r4, 42
        stb  r4, r3, 0
        mov  r0, r7
        movi r1, pbuf
        movi r2, 1
        sys  SYS_write
        sys  SYS_wait           ; r0 = pid, r1 = status (code | sig<<8)
        movi r2, 0
        blt  r0, r2, badw
        mov  r0, r1
        sys  SYS_exit
badw:   movi r0, 99
        sys  SYS_exit
child:  mov  r0, r6
        movi r1, cbuf
        movi r2, 1
        sys  SYS_read
        movi r3, cbuf
        ldb  r0, r3, 0          ; the byte (42)
        sys  SYS_exit
        .data
pbuf:   .space 4
cbuf:   .space 4
)");
  EXPECT_EQ(code, 42);
}

TEST(VmSyscall, DupSharesOffsetInVm) {
  World world;
  const int code = RunAsm(world, R"(
start:  movi r0, fname
        movi r1, 420
        sys  SYS_creat
        mov  r6, r0
        mov  r0, r6
        movi r1, data8
        movi r2, 8
        sys  SYS_write
        mov  r0, r6
        sys  SYS_dup            ; r0 = dup fd
        mov  r7, r0
        ; lseek(dup, 0, CUR) must be 8
        mov  r0, r7
        movi r1, 0
        movi r2, SEEK_CUR
        sys  SYS_lseek
        movi r1, 8
        bne  r0, r1, bad
        movi r0, 0
        sys  SYS_exit
bad:    movi r0, 1
        sys  SYS_exit
        .data
fname:  .asciiz "dup.dat"
data8:  .ascii "ABCDEFGH"
        .byte 0
)");
  EXPECT_EQ(code, 0);
}

TEST(VmSyscall, LinkUnlinkFromVm) {
  World world;
  const int code = RunAsm(world, R"(
start:  movi r0, fname
        movi r1, 420
        sys  SYS_creat
        mov  r0, r0
        sys  SYS_close
        movi r0, fname
        movi r1, lname
        sys  SYS_link
        movi r1, 0
        bne  r0, r1, bad1
        movi r0, fname
        sys  SYS_unlink
        movi r1, 0
        bne  r0, r1, bad2
        ; the hard link still resolves
        movi r0, lname
        movi r1, stbuf
        sys  SYS_stat
        movi r1, 0
        bne  r0, r1, bad3
        movi r0, 0
        sys  SYS_exit
bad1:   movi r0, 1
        sys  SYS_exit
bad2:   movi r0, 2
        sys  SYS_exit
bad3:   movi r0, 3
        sys  SYS_exit
        .data
fname:  .asciiz "orig"
lname:  .asciiz "alias"
stbuf:  .space 32
)");
  EXPECT_EQ(code, 0);
}

TEST(VmSyscall, ReadlinkFromVm) {
  World world;
  world.host("brick").vfs().SetupSymlink("/u/user/sl", "/etc");
  const int code = RunAsm(world, R"(
start:  movi r0, sl
        movi r1, buf
        movi r2, 32
        sys  SYS_readlink       ; r0 = bytes
        movi r1, 4
        bne  r0, r1, bad1
        movi r3, buf
        ldb  r4, r3, 0
        movi r5, '/'
        bne  r4, r5, bad2
        ldb  r4, r3, 1
        movi r5, 'e'
        bne  r4, r5, bad3
        movi r0, 0
        sys  SYS_exit
bad1:   movi r0, 1
        sys  SYS_exit
bad2:   movi r0, 2
        sys  SYS_exit
bad3:   movi r0, 3
        sys  SYS_exit
        .data
sl:     .asciiz "sl"
buf:    .space 32
)");
  EXPECT_EQ(code, 0);
}

TEST(VmSyscall, GethostnameBoundsChecked) {
  World world;
  const int code = RunAsm(world, R"(
start:  movi r0, buf
        movi r1, 64
        sys  SYS_gethostname
        movi r1, 0
        bne  r0, r1, bad1
        movi r3, buf
        ldb  r4, r3, 0
        movi r5, 'b'            ; "brick"
        bne  r4, r5, bad2
        ; too-small buffer fails
        movi r0, buf
        movi r1, 2
        sys  SYS_gethostname
        movi r1, 0
        beq  r0, r1, bad3
        movi r0, 0
        sys  SYS_exit
bad1:   movi r0, 1
        sys  SYS_exit
bad2:   movi r0, 2
        sys  SYS_exit
bad3:   movi r0, 3
        sys  SYS_exit
        .data
buf:    .space 64
)");
  EXPECT_EQ(code, 0);
}

TEST(VmSyscall, ExecveReplacesImage) {
  World world;
  // The replacement program exits 7 immediately.
  core::InstallProgram(world.host("brick"), "/bin/seven", R"(
start:  movi r0, 7
        sys  SYS_exit
)");
  const int code = RunAsm(world, R"(
start:  movi r0, path
        sys  SYS_execve
        movi r0, 1              ; only reached if execve failed
        sys  SYS_exit
        .data
path:   .asciiz "/bin/seven"
)");
  EXPECT_EQ(code, 7);
}

TEST(VmSyscall, ExecveFailureReturnsToCaller) {
  World world;
  const int code = RunAsm(world, R"(
start:  movi r0, path
        sys  SYS_execve
        movi r1, -2             ; -ENOENT
        bne  r0, r1, bad
        movi r0, 0
        sys  SYS_exit
bad:    movi r0, 1
        sys  SYS_exit
        .data
path:   .asciiz "/bin/does-not-exist"
)");
  EXPECT_EQ(code, 0);
}

TEST(VmSyscall, ErrnosArriveAsNegativeValues) {
  World world;
  const int code = RunAsm(world, R"(
start:  movi r0, 57             ; read from an unopened fd
        movi r1, buf
        movi r2, 4
        sys  SYS_read
        movi r1, -9             ; -EBADF
        bne  r0, r1, bad1
        movi r0, nope
        movi r1, O_RDONLY
        movi r2, 0
        sys  SYS_open
        movi r1, -2             ; -ENOENT
        bne  r0, r1, bad2
        movi r0, 0
        sys  SYS_exit
bad1:   movi r0, 1
        sys  SYS_exit
bad2:   movi r0, 2
        sys  SYS_exit
        .data
buf:    .space 4
nope:   .asciiz "/no/such/file"
)");
  EXPECT_EQ(code, 0);
}

TEST(VmSyscall, UnknownSyscallIsEinval) {
  // Numbers the ABI does not define: past its end, gaps inside the trap table,
  // both of the table's ends, and the extremes of the 32-bit immediate.
  World world;
  for (const int64_t number : {int64_t{999}, int64_t{0}, int64_t{11}, int64_t{103},
                               int64_t{138}, int64_t{-1}, int64_t{INT32_MIN},
                               int64_t{INT32_MAX}}) {
    SCOPED_TRACE(number);
    const int code = RunAsm(world, "start:  sys  " + std::to_string(number) + R"(
        movi r1, -22            ; -EINVAL
        bne  r0, r1, bad
        movi r0, 0
        sys  SYS_exit
bad:    movi r0, 1
        sys  SYS_exit
)");
    EXPECT_EQ(code, 0);
  }
}

TEST(VmSyscall, BadPointerIsEfault) {
  // Every call that takes paths, trapped once per path argument with that
  // pointer outside every segment and any other path valid, returns -EFAULT and
  // changes nothing: the cwd, the files and the running image stay as they were.
  World world;
  world.host("brick").vfs().SetupCreateFile("/u/user/f", "x", kUserUid, 0644);
  const struct {
    const char* name;
    int paths;
  } calls[] = {{"open", 1}, {"creat", 1}, {"link", 2}, {"unlink", 1},
               {"chdir", 1}, {"stat", 1}, {"readlink", 1}, {"execve", 1},
               {"rest_proc", 2}, {"rename", 2}, {"mkdir", 1}, {"rmdir", 1}};
  // 1 lies in the execute-only text; 0x400000 between the data segment and the
  // stack.
  std::string program = "start:\n";
  int step = 0;
  for (const auto& call : calls) {
    for (int bad = 0; bad < call.paths; ++bad) {
      for (const char* pointer : {"1", "0x400000"}) {
        ++step;
        program += "        movi r0, fpath\n        movi r1, gpath\n";
        program += "        movi r" + std::to_string(bad) + ", " + pointer + "\n";
        program += "        movi r2, 420\n        sys  SYS_" + std::string(call.name) + "\n";
        program += "        movi r5, -14            ; -EFAULT\n";
        program += "        movi r4, " + std::to_string(step) + "\n        bne  r0, r5, bad\n";
      }
    }
  }
  program += R"(        movi r0, fpath          ; still here, in the same cwd
        movi r1, O_RDONLY
        movi r2, 0
        sys  SYS_open
        movi r4, 0
        blt  r0, r4, gone
        movi r0, 0
        sys  SYS_exit
gone:   movi r4, 999
bad:    mov  r0, r4
        sys  SYS_exit
        .data
fpath:  .asciiz "f"
gpath:  .asciiz "g"
)";
  const auto entries = [&world] {
    kernel::Kernel& k = world.host("brick");
    auto dir = k.vfs().Resolve(k.vfs().RootState(), "/u/user", vfs::Follow::kAll, nullptr);
    std::vector<std::string> names;
    for (const auto& [name, inode] : dir->inode->entries) names.push_back(name);
    return names;
  };
  const std::vector<std::string> before = entries();
  EXPECT_EQ(RunAsm(world, program), 0);
  EXPECT_EQ(entries(), before);
}

TEST(VmSyscall, KillSelfWithSigTerm) {
  World world;
  core::InstallProgram(world.host("brick"), "/bin/t", R"(
start:  sys  SYS_getpid
        mov  r5, r0
        mov  r0, r5
        movi r1, SIGTERM
        sys  SYS_kill
loop:   jmp  loop               ; the signal arrives at the next quantum
)");
  kernel::Kernel& k = world.host("brick");
  kernel::SpawnOptions opts;
  opts.creds = {kUserUid, 10, kUserUid, 10};
  const Result<int32_t> pid = k.SpawnVm("/bin/t", {}, opts);
  ASSERT_TRUE(pid.ok());
  ASSERT_TRUE(world.RunUntilExited("brick", *pid, sim::Seconds(10)));
  EXPECT_EQ(world.ExitInfoOf("brick", *pid).killed_by_signal, vm::abi::kSigTerm);
}

TEST(VmSyscall, SbrkGrowsAndShrinksTheHeap) {
  World world;
  const int code = RunAsm(world, R"(
start:  movi r0, 4096
        sys  SYS_brk            ; r0 = old break (end of static data)
        movi r1, 0
        blt  r0, r1, bad1
        mov  r6, r0             ; heap base
        ; write a pattern across the new heap
        movi r2, 0
fill:   add  r3, r6, r2
        mov  r4, r2
        stb  r4, r3, 0
        addi r2, r2, 1
        movi r5, 4096
        blt  r2, r5, fill
        ; read one back
        ldb  r4, r6, 100
        movi r5, 100
        bne  r4, r5, bad2
        ; shrink below zero is ENOMEM
        movi r0, -1000000
        sys  SYS_brk
        movi r1, -12            ; -ENOMEM
        bne  r0, r1, bad3
        ; so is an increment the break cannot reach without overflowing
        movi r0, -1
        movi r2, 1
        shr  r0, r0, r2         ; INT64_MAX
        sys  SYS_brk
        bne  r0, r1, bad3
        ; shrink legitimately; access past the new break faults... so just exit
        movi r0, -4096
        sys  SYS_brk
        movi r1, 0
        blt  r0, r1, bad4
        movi r0, 0
        sys  SYS_exit
bad1:   movi r0, 1
        sys  SYS_exit
bad2:   movi r0, 2
        sys  SYS_exit
bad3:   movi r0, 3
        sys  SYS_exit
bad4:   movi r0, 4
        sys  SYS_exit
)");
  EXPECT_EQ(code, 0);
}

TEST(VmSyscall, GrownHeapSurvivesMigration) {
  // An sbrk'd heap is part of the data segment: the dump carries it whole.
  World world;
  core::InstallProgram(world.host("brick"), "/bin/heapy", R"(
start:  movi r0, 8192
        sys  SYS_brk
        mov  r6, r0             ; heap base
        ; stamp a recognisable value deep in the heap
        movi r4, 77
        stb  r4, r6, 8000
        ; prompt and wait (the dump point)
        movi r0, 1
        movi r1, pr
        movi r2, 2
        sys  SYS_write
        movi r0, 0
        movi r1, buf
        movi r2, 16
        sys  SYS_read
        ; after migration: verify the heap byte, print verdict
        ldb  r4, r6, 8000
        movi r5, 77
        bne  r4, r5, lost
        movi r0, 1
        movi r1, okmsg
        movi r2, 8
        sys  SYS_write
        movi r0, 0
        sys  SYS_exit
lost:   movi r0, 1
        movi r1, badmsg
        movi r2, 9
        sys  SYS_write
        movi r0, 1
        sys  SYS_exit
        .data
pr:     .asciiz "? "
okmsg:  .ascii "heap ok\n"
badmsg: .ascii "heap bad\n"
buf:    .space 16
)");
  kernel::SpawnOptions opts;
  opts.creds = {kUserUid, 10, kUserUid, 10};
  opts.tty = world.console("brick");
  opts.cwd = "/u/user";
  const Result<int32_t> pid = world.host("brick").SpawnVm("/bin/heapy", {}, opts);
  ASSERT_TRUE(pid.ok());
  ASSERT_TRUE(world.RunUntilBlocked("brick", *pid));

  const int32_t mig = world.StartTool(
      "schooner", "migrate", {"-p", std::to_string(*pid), "-f", "brick", "-t", "schooner"},
      kUserUid, world.console("schooner"));
  ASSERT_TRUE(world.RunUntilExited("schooner", mig, sim::Seconds(300)));
  ASSERT_EQ(world.ExitInfoOf("schooner", mig).exit_code, 0);
  const int32_t moved = world.FindPidByCommand("schooner", "migrated");
  ASSERT_GT(moved, 0);
  world.console("schooner")->Type("go\n");
  ASSERT_TRUE(world.RunUntilExited("schooner", moved, sim::Seconds(60)));
  EXPECT_EQ(world.ExitInfoOf("schooner", moved).exit_code, 0);
  EXPECT_NE(world.console("schooner")->PlainOutput().find("heap ok"), std::string::npos);
}

TEST(VmSyscall, SleepWaitsItsSeconds) {
  World world;
  const sim::Nanos t0 = world.cluster().clock().now();
  const int code = RunAsm(world, R"(
start:  movi r0, -1
        sys  SYS_sleep
        movi r1, -22            ; -EINVAL: negative seconds
        bne  r0, r1, bad1
        movi r0, 1
        movi r1, 31
        shl  r0, r0, r1         ; 2^31 seconds: past 2^31 - 1
        sys  SYS_sleep
        movi r1, -22
        bne  r0, r1, bad2
        movi r0, 2
        sys  SYS_sleep
        movi r1, 0
        bne  r0, r1, bad3
        movi r0, 0
        sys  SYS_exit
bad1:   movi r0, 1
        sys  SYS_exit
bad2:   movi r0, 2
        sys  SYS_exit
bad3:   movi r0, 3
        sys  SYS_exit
)");
  EXPECT_EQ(code, 0);
  const sim::Nanos elapsed = world.cluster().clock().now() - t0;
  EXPECT_GE(elapsed, sim::Seconds(2));
  EXPECT_LT(elapsed, sim::Seconds(3));
}

TEST(VmSyscall, WriteRangeOutsideEverySegmentIsEfault) {
  // The count is the guest's: a range no segment holds fails before a buffer
  // is sized by it, including a count whose low 32 bits look small.
  World world;
  const int code = RunAsm(world, R"(
start:  movi r0, fname
        movi r1, 420
        sys  SYS_creat
        mov  r6, r0
        mov  r0, r6
        movi r1, msg
        movi r2, 1
        movi r3, 61
        shl  r2, r2, r3         ; 2^61 bytes
        sys  SYS_write
        movi r5, -14            ; -EFAULT
        bne  r0, r5, bad1
        mov  r0, r6
        movi r1, msg
        movi r2, 1
        movi r3, 32
        shl  r2, r2, r3
        addi r2, r2, 5          ; 2^32 + 5 bytes
        sys  SYS_write
        bne  r0, r5, bad2
        mov  r0, r6
        movi r1, msg
        movi r2, 5
        sys  SYS_write
        movi r5, 5
        bne  r0, r5, bad3
        movi r0, 0
        sys  SYS_exit
bad1:   movi r0, 1
        sys  SYS_exit
bad2:   movi r0, 2
        sys  SYS_exit
bad3:   movi r0, 3
        sys  SYS_exit
        .data
fname:  .asciiz "w.dat"
msg:    .ascii "hello"
)");
  EXPECT_EQ(code, 0);
  EXPECT_EQ(world.FileContents("brick", "/u/user/w.dat"), "hello");
}

TEST(VmSyscall, ReadIntoBadBufferKeepsTheData) {
  // A read whose buffer lies outside every segment fails with -EFAULT before
  // it takes anything: the bytes stay in the pipe for the next read.
  World world;
  const int code = RunAsm(world, R"(
start:  sys  SYS_pipe
        mov  r6, r0             ; read end
        mov  r0, r1
        movi r1, msg
        movi r2, 5
        sys  SYS_write
        mov  r0, r6
        movi r1, 0x400000       ; between the data segment and the stack
        movi r2, 5
        sys  SYS_read
        movi r5, -14            ; -EFAULT
        bne  r0, r5, bad1
        mov  r0, r6
        movi r1, buf
        movi r2, 16
        sys  SYS_read
        movi r5, 5              ; all five bytes still there
        bne  r0, r5, bad2
        movi r3, buf
        ldb  r4, r3, 4
        movi r5, 111            ; 'o'
        bne  r4, r5, bad3
        movi r0, 0
        sys  SYS_exit
bad1:   movi r0, 1
        sys  SYS_exit
bad2:   movi r0, 2
        sys  SYS_exit
bad3:   movi r0, 3
        sys  SYS_exit
        .data
msg:    .ascii "hello"
buf:    .space 16
)");
  EXPECT_EQ(code, 0);
}

TEST(VmSyscall, NonPositiveChannelReadTakesNothing) {
  // A read count <= 0 on a pipe or socket returns 0 bytes, leaves the buffer
  // whole and charges nothing, as on a file or a terminal.
  for (const char* channel : {"SYS_pipe", "SYS_socket"}) {
    SCOPED_TRACE(channel);
    sim::Nanos stime[2] = {0, 0};
    for (const int count : {-1, 0}) {
      World world;
      const auto [code, charged] = RunAsmCharged(world, R"(
start:  sys  )" + std::string(channel) + R"(
        mov  r6, r0             ; read end
        mov  r0, r1
        movi r1, msg
        movi r2, 5
        sys  SYS_write
        mov  r0, r6
        movi r1, buf
        movi r2, )" + std::to_string(count) + R"(
        sys  SYS_read
        movi r5, 0
        bne  r0, r5, bad1
        mov  r0, r6
        movi r1, buf
        movi r2, 16
        sys  SYS_read
        movi r5, 5              ; all five bytes still there
        bne  r0, r5, bad2
        movi r0, 0
        sys  SYS_exit
bad1:   movi r0, 1
        sys  SYS_exit
bad2:   movi r0, 2
        sys  SYS_exit
        .data
msg:    .ascii "hello"
buf:    .space 16
)");
      EXPECT_EQ(code, 0) << "count " << count;
      stime[count + 1] = charged;
    }
    EXPECT_EQ(stime[0], stime[1]);  // count -1 is charged what count 0 is
  }
}

TEST(VmSyscall, SeekAndWritePastTheOffsetLimit) {
  // lseek() refuses a position that overflows; write() refuses to grow a file
  // past 2^31 - 1 bytes (Sun UNIX 3.0's 32-bit off_t) with EFBIG.
  World world;
  const int code = RunAsm(world, R"(
start:  movi r0, fname
        movi r1, 420
        sys  SYS_creat
        mov  r6, r0
        movi r7, 1
        movi r3, 61
        shl  r7, r7, r3         ; 2^61
        mov  r0, r6
        mov  r1, r7
        movi r2, SEEK_SET
        sys  SYS_lseek
        bne  r0, r7, bad1
        mov  r0, r6
        movi r1, msg
        movi r2, 1
        sys  SYS_write
        movi r5, -27            ; -EFBIG
        bne  r0, r5, bad2
        movi r1, 1
        movi r3, 31
        shl  r1, r1, r3
        addi r1, r1, -1         ; 2^31 - 1: one byte more is too many
        mov  r0, r6
        movi r2, SEEK_SET
        sys  SYS_lseek
        mov  r0, r6
        movi r1, msg
        movi r2, 1
        sys  SYS_write
        bne  r0, r5, bad3
        movi r7, -1
        movi r3, 1
        shr  r7, r7, r3         ; INT64_MAX
        mov  r0, r6
        mov  r1, r7
        movi r2, SEEK_CUR       ; (2^31 - 1) + INT64_MAX overflows
        sys  SYS_lseek
        movi r5, -22            ; -EINVAL
        bne  r0, r5, bad4
        movi r0, 0
        sys  SYS_exit
bad1:   movi r0, 1
        sys  SYS_exit
bad2:   movi r0, 2
        sys  SYS_exit
bad3:   movi r0, 3
        sys  SYS_exit
bad4:   movi r0, 4
        sys  SYS_exit
        .data
fname:  .asciiz "big.dat"
msg:    .ascii "x"
)");
  EXPECT_EQ(code, 0);
  EXPECT_EQ(world.FileContents("brick", "/u/user/big.dat"), "");
}

}  // namespace
}  // namespace pmig
