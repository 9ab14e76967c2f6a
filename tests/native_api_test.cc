// The native SyscallApi conveniences and process-level behaviours that the tools
// rely on: ReadLine/ReadAll, Sleep accuracy, BlockUntil, preemption fairness, and
// name-tracking under the fixed-size storage policy. Also the native-task
// lifecycle: every way a task ends unwinds its own stack exactly once; a switch
// keeps the state the ABI says a call preserves; stacks are reused and keep their
// guard page; and a spawn that cannot get a stack leaves nothing behind.

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <bit>
#include <cfenv>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <system_error>
#include <vector>

#include "src/sim/context.h"
#include "src/sim/cost_model.h"
#include "tests/test_util.h"

namespace pmig {
namespace {

using kernel::SyscallApi;
using test::kUserUid;
using test::World;

kernel::SpawnOptions UserOpts(World& world) {
  kernel::SpawnOptions opts;
  opts.creds = {kUserUid, 10, kUserUid, 10};
  opts.cwd = "/u/user";
  opts.tty = world.console("brick");
  return opts;
}

int RunUser(World& world, kernel::NativeTask::Entry fn) {
  const int32_t pid = world.host("brick").SpawnNative("api", std::move(fn), UserOpts(world));
  world.RunUntilExited("brick", pid);
  return world.ExitInfoOf("brick", pid).exit_code;
}

TEST(NativeApi, ReadLineSplitsRegularFiles) {
  World world;
  world.host("brick").vfs().SetupCreateFile("/u/user/lines.txt",
                                            "one\ntwo\nthree", kUserUid, 0644);
  const int code = RunUser(world, [](SyscallApi& api) {
    const Result<int> fd = api.Open("lines.txt", vm::abi::kORdOnly);
    if (!fd.ok()) return 1;
    if (api.ReadLine(*fd).value_or("") != "one\n") return 2;
    if (api.ReadLine(*fd).value_or("") != "two\n") return 3;
    if (api.ReadLine(*fd).value_or("") != "three") return 4;  // no trailing newline
    if (!api.ReadLine(*fd).value_or("x").empty()) return 5;   // EOF
    return 0;
  });
  EXPECT_EQ(code, 0);
}

TEST(NativeApi, ReadLineHandlesLongLines) {
  World world;
  const std::string long_line(1000, 'z');
  world.host("brick").vfs().SetupCreateFile("/u/user/long.txt", long_line + "\nend\n",
                                            kUserUid, 0644);
  const int code = RunUser(world, [&long_line](SyscallApi& api) {
    const Result<int> fd = api.Open("long.txt", vm::abi::kORdOnly);
    if (!fd.ok()) return 1;
    // ReadLine reads in 256-byte chunks: a 1000-char line arrives in pieces, each
    // a prefix of the line — concatenating them must reconstruct it exactly.
    std::string assembled;
    while (assembled.size() < long_line.size() + 1) {
      const Result<std::string> piece = api.ReadLine(fd.value());
      if (!piece.ok() || piece->empty()) return 2;
      assembled += *piece;
    }
    if (assembled != long_line + "\n") return 3;
    if (api.ReadLine(*fd).value_or("") != "end\n") return 4;
    return 0;
  });
  EXPECT_EQ(code, 0);
}

TEST(NativeApi, ReadAllConcatenatesWholeFile) {
  World world;
  const std::string big(10000, 'b');
  world.host("brick").vfs().SetupCreateFile("/u/user/big", big, kUserUid, 0644);
  const int code = RunUser(world, [&big](SyscallApi& api) {
    const Result<int> fd = api.Open("big", vm::abi::kORdOnly);
    if (!fd.ok()) return 1;
    const Result<std::string> all = api.ReadAll(*fd);
    return (all.ok() && *all == big) ? 0 : 2;
  });
  EXPECT_EQ(code, 0);
}

TEST(NativeApi, SleepAdvancesVirtualTimeAccurately) {
  World world;
  auto slept = std::make_shared<sim::Nanos>(0);
  RunUser(world, [slept](SyscallApi& api) {
    const sim::Nanos t0 = api.Now();
    api.Sleep(sim::Seconds(7));
    *slept = api.Now() - t0;
    return 0;
  });
  EXPECT_GE(*slept, sim::Seconds(7));
  EXPECT_LE(*slept, sim::Seconds(7) + sim::Millis(50));  // within a few quanta
}

TEST(NativeApi, BlockUntilWaitsForCrossProcessCondition) {
  World world;
  auto flag = std::make_shared<bool>(false);
  auto observed_at = std::make_shared<sim::Nanos>(0);
  kernel::SpawnOptions opts;
  opts.creds = {kUserUid, 10, kUserUid, 10};
  const int32_t waiter = world.host("brick").SpawnNative(
      "waiter",
      [flag, observed_at](SyscallApi& api) {
        api.BlockUntil([flag] { return *flag; });
        *observed_at = api.Now();
        return 0;
      },
      opts);
  world.host("brick").SpawnNative("setter",
                                  [flag](SyscallApi& api) {
                                    api.Sleep(sim::Seconds(5));
                                    *flag = true;
                                    return 0;
                                  },
                                  opts);
  ASSERT_TRUE(world.RunUntilExited("brick", waiter, sim::Seconds(60)));
  EXPECT_GE(*observed_at, sim::Seconds(5));
}

TEST(NativeApi, PreemptionInterleavesNativeAndVmWork) {
  // A syscall-heavy native process and a compute-bound VM process share one CPU:
  // both make progress; neither starves.
  World world;
  const int32_t hog = world.StartVm("brick", "/bin/hog", {"hog", "300000"});
  auto loops = std::make_shared<int>(0);
  kernel::SpawnOptions opts;
  opts.creds = {kUserUid, 10, kUserUid, 10};
  opts.cwd = "/u/user";
  const int32_t churner = world.host("brick").SpawnNative(
      "churner",
      [loops](SyscallApi& api) {
        for (int i = 0; i < 200; ++i) {
          const Result<int> fd = api.Creat("churn", 0644);
          if (!fd.ok()) return 1;
          const Status st = api.Close(*fd);
          (void)st;
          ++*loops;
        }
        return 0;
      },
      opts);
  world.cluster().RunFor(sim::Millis(400));
  kernel::Proc* h = world.host("brick").FindProc(hog);
  ASSERT_NE(h, nullptr);
  EXPECT_GT(h->utime, 0);
  EXPECT_GT(*loops, 0);
  ASSERT_TRUE(world.RunUntilExited("brick", churner, sim::Seconds(120)));
  ASSERT_TRUE(world.RunUntilExited("brick", hog, sim::Seconds(120)));
}

TEST(NativeApi, FixedNameStorageTruncatesLongPaths) {
  World world;
  kernel::Kernel& k = world.host("brick");
  k.mutable_config().name_storage = kernel::KernelConfig::NameStorage::kFixed;
  k.mutable_config().fixed_name_bytes = 32;
  auto name = std::make_shared<std::string>();
  const std::string deep = "/u/user/a-very-long-directory-name-indeed";
  k.vfs().SetupMkdirAll(deep)->uid = kUserUid;
  kernel::SpawnOptions opts;
  opts.creds = {kUserUid, 10, kUserUid, 10};
  opts.cwd = deep;
  const int32_t pid = k.SpawnNative(
      "nt",
      [name](SyscallApi& api) {
        const Result<int> fd = api.Creat("file-with-a-long-name.dat", 0644);
        if (!fd.ok()) return 1;
        const auto& f = api.proc().fds[static_cast<size_t>(*fd)];
        if (f->name.has_value()) *name = *f->name;
        return 0;
      },
      opts);
  world.RunUntilExited("brick", pid);
  // Fixed 32-byte slots can hold at most 31 characters: the stored name is a
  // truncated prefix — exactly the breakage the paper's design avoided.
  EXPECT_EQ(name->size(), 31u);
  EXPECT_EQ(deep.compare(0, 31, *name), 0);
}

// A fixed slot lives inside the file structure, so naming an open file under
// kFixed allocates and frees nothing: its creat() costs exactly one kmem_alloc
// less system CPU than under kDynamic, its close() one kmem_free less, and no
// kmem allocation is counted. Both policies still copy the name in.
TEST(NativeApi, FixedNameSlotSkipsKmemAllocAndFree) {
  struct Costs {
    sim::Nanos creat = -1;
    sim::Nanos close = -1;
    int64_t kmem_allocs = -1;
  };
  auto measure = [](kernel::KernelConfig::NameStorage storage) {
    test::WorldOptions options;
    options.metrics = true;
    World world(options);
    kernel::Kernel& k = world.host("brick");
    k.mutable_config().name_storage = storage;
    auto costs = std::make_shared<Costs>();
    const int64_t allocs_before = k.metrics().Counter("kernel.kmem_allocs");
    EXPECT_EQ(RunUser(world,
                      [costs](SyscallApi& api) {
                        const sim::Nanos s0 = api.proc().stime;
                        const Result<int> fd = api.Creat("/u/user/f", 0644);
                        if (!fd.ok()) return 1;
                        const sim::Nanos s1 = api.proc().stime;
                        const Status closed = api.Close(*fd);
                        costs->creat = s1 - s0;
                        costs->close = api.proc().stime - s1;
                        return closed.ok() ? 0 : 1;
                      }),
              0);
    costs->kmem_allocs = k.metrics().Counter("kernel.kmem_allocs") - allocs_before;
    return *costs;
  };
  const Costs dynamic = measure(kernel::KernelConfig::NameStorage::kDynamic);
  const Costs fixed = measure(kernel::KernelConfig::NameStorage::kFixed);
  const sim::CostModel costs;
  EXPECT_EQ(dynamic.creat - fixed.creat, costs.kmem_alloc);
  EXPECT_EQ(dynamic.close - fixed.close, costs.kmem_free);
  EXPECT_EQ(dynamic.kmem_allocs, 1);
  EXPECT_EQ(fixed.kmem_allocs, 0);
}

TEST(NativeApi, SyscallsCountedInStats) {
  World world;
  kernel::Kernel& k = world.host("brick");
  const int64_t before = k.stats().syscalls;
  RunUser(world, [](SyscallApi& api) {
    for (int i = 0; i < 10; ++i) {
      const Result<kernel::StatInfo> info = api.Stat("/");
      if (!info.ok()) return 1;
    }
    return 0;
  });
  EXPECT_GE(k.stats().syscalls - before, 10);
}

// --- Native-task lifecycle ---

// Counts its destructor runs, to check that an unwind runs it exactly once.
class DestructorCounter {
 public:
  explicit DestructorCounter(int* count) : count_(count) {}
  ~DestructorCounter() { ++*count_; }
  DestructorCounter(const DestructorCounter&) = delete;
  DestructorCounter& operator=(const DestructorCounter&) = delete;

 private:
  int* count_;
};

TEST(NativeTask, KillWhileBlockedRunsStackDestructorsOnce) {
  int destroyed = 0;
  bool woke = false;
  World world;
  kernel::Kernel& k = world.host("brick");
  const int32_t pid = k.SpawnNative("blocked",
                                    [&destroyed, &woke](SyscallApi& api) {
                                      DestructorCounter outer(&destroyed);
                                      {
                                        DestructorCounter inner(&destroyed);
                                        api.BlockUntil([] { return false; });
                                      }
                                      woke = true;
                                      return 0;
                                    },
                                    UserOpts(world));
  ASSERT_TRUE(world.cluster().RunUntil(
      [&k, pid] {
        const kernel::Proc* p = k.FindProc(pid);
        return p != nullptr && p->state == kernel::ProcState::kBlocked;
      },
      sim::Seconds(10)));
  EXPECT_EQ(destroyed, 0);
  ASSERT_TRUE(k.PostSignal(pid, vm::abi::kSigKill, nullptr).ok());
  ASSERT_TRUE(world.RunUntilExited("brick", pid));
  EXPECT_EQ(destroyed, 2);
  EXPECT_FALSE(woke);
  EXPECT_EQ(world.ExitInfoOf("brick", pid).killed_by_signal, vm::abi::kSigKill);
}

TEST(NativeTask, KillBeforeFirstResumeNeverRunsEntry) {
  bool ran = false;
  World world;
  kernel::Kernel& k = world.host("brick");
  const int32_t pid = k.SpawnNative("unstarted",
                                    [&ran](SyscallApi&) {
                                      ran = true;
                                      return 0;
                                    },
                                    UserOpts(world));
  ASSERT_TRUE(k.PostSignal(pid, vm::abi::kSigKill, nullptr).ok());
  ASSERT_TRUE(world.RunUntilExited("brick", pid));
  EXPECT_FALSE(ran);
  EXPECT_EQ(world.ExitInfoOf("brick", pid).killed_by_signal, vm::abi::kSigKill);
}

// Recurses `depth` frames that each hold a counter, sleeps at the bottom, and
// exits from there.
[[noreturn]] void ExitFromDepth(SyscallApi& api, int depth, int* destroyed) {
  DestructorCounter frame(destroyed);
  if (depth == 0) {
    api.Sleep(sim::Millis(10));
    api.Exit(42);
  }
  ExitFromDepth(api, depth - 1, destroyed);
}

TEST(NativeTask, ExitFromNestedFrameYieldsItsCode) {
  int destroyed = 0;
  World world;
  const int code = RunUser(world, [&destroyed](SyscallApi& api) {
    ExitFromDepth(api, 4, &destroyed);
    return 0;  // not reached
  });
  EXPECT_EQ(code, 42);
  EXPECT_EQ(destroyed, 5);
}

TEST(NativeTask, KernelDestructionUnwindsUnstartedAndBlockedTasks) {
  int destroyed = 0;
  bool read_returned = false;
  bool unstarted_ran = false;
  sim::ClusterContext context;
  const sim::CostModel costs;
  {
    kernel::Kernel k("solo", context, &costs, kernel::KernelConfig{});
    kernel::SpawnOptions opts;
    opts.tty = k.CreateTty("console");  // nobody ever types on it
    const int32_t reader = k.SpawnNative("reader",
                                         [&destroyed, &read_returned](SyscallApi& api) {
                                           DestructorCounter frame(&destroyed);
                                           const Result<std::string> line = api.Read(0, 64);
                                           read_returned = true;
                                           return line.ok() ? 0 : 1;
                                         },
                                         opts);
    ASSERT_TRUE(k.RunQuantum());
    const kernel::Proc* p = k.FindProc(reader);
    ASSERT_NE(p, nullptr);
    ASSERT_EQ(p->state, kernel::ProcState::kBlocked);  // inside read()
    k.SpawnNative("unstarted",
                  [&unstarted_ran](SyscallApi&) {
                    unstarted_ran = true;
                    return 0;
                  },
                  opts);
  }
  EXPECT_EQ(destroyed, 1);
  EXPECT_FALSE(read_returned);
  EXPECT_FALSE(unstarted_ran);
}

// Fills and sums a 64 KiB buffer on the task's stack, sleeping in between so the
// buffer lives across a switch. Not inlined, so the frame really is that large.
[[gnu::noinline]] int64_t SumStackBuffer(SyscallApi& api) {
  volatile unsigned char buffer[64 * 1024];
  for (size_t i = 0; i < sizeof(buffer); ++i) buffer[i] = static_cast<unsigned char>(i);
  api.Sleep(sim::Millis(1));
  int64_t sum = 0;
  for (size_t i = 0; i < sizeof(buffer); ++i) sum += buffer[i];
  return sum;
}

TEST(NativeTask, EntryUsing64KiBOfStackRunsToCompletion) {
  World world;
  const int code = RunUser(world, [](SyscallApi& api) {
    return SumStackBuffer(api) == 256 * (255 * 256 / 2) ? 0 : 1;
  });
  EXPECT_EQ(code, 0);
}

// The rounding mode both floating-point control registers hold, or -1 if they
// disagree: fegetround() reads the x87 control word, and the last bit of an SSE
// division shows MXCSR's mode.
int RoundingMode() {
  volatile float one = 1.0f;
  volatile float three = 3.0f;
  const auto bits = std::bit_cast<uint32_t>(one / three);
  const int sse = bits == 0x3EAAAAABu ? FE_TONEAREST : bits == 0x3EAAAAAAu ? FE_TOWARDZERO : -1;
  return sse == std::fegetround() ? sse : -1;
}

TEST(NativeTask, SwitchKeepsEachSidesRoundingMode) {
  World world;
  auto task_checks = std::make_shared<int>(0);
  const int32_t pid = world.host("brick").SpawnNative(
      "fp",
      [task_checks](SyscallApi& api) {
        std::fesetround(FE_TOWARDZERO);
        for (int i = 0; i < 5; ++i) {
          api.Sleep(sim::Millis(1));
          if (RoundingMode() != FE_TOWARDZERO) return 1;
          ++*task_checks;
        }
        return 0;
      },
      UserOpts(world));
  ASSERT_EQ(RoundingMode(), FE_TONEAREST);
  for (int i = 0; i < 100 && world.host("brick").FindProc(pid) != nullptr; ++i) {
    world.cluster().RunFor(sim::Millis(1));
    ASSERT_EQ(RoundingMode(), FE_TONEAREST) << "after step " << i;
  }
  EXPECT_EQ(world.ExitInfoOf("brick", pid).exit_code, 0);
  EXPECT_EQ(*task_checks, 5);
}

// Twelve values loaded before a yield and checked after it: more than the six
// callee-saved registers hold, so some live in the task's stack frame.
[[gnu::noinline]] bool TwelveLocalsSurviveYield(SyscallApi& api, int64_t base) {
  volatile int64_t source[12];
  for (int i = 0; i < 12; ++i) source[i] = base * (i + 1);
  const int64_t v0 = source[0], v1 = source[1], v2 = source[2], v3 = source[3];
  const int64_t v4 = source[4], v5 = source[5], v6 = source[6], v7 = source[7];
  const int64_t v8 = source[8], v9 = source[9], v10 = source[10], v11 = source[11];
  api.Sleep(sim::Millis(1));
  return v0 == base && v1 == 2 * base && v2 == 3 * base && v3 == 4 * base &&
         v4 == 5 * base && v5 == 6 * base && v6 == 7 * base && v7 == 8 * base &&
         v8 == 9 * base && v9 == 10 * base && v10 == 11 * base && v11 == 12 * base;
}

TEST(NativeTask, LiveLocalsSurviveYield) {
  World world;
  kernel::Kernel& k = world.host("brick");
  std::vector<int32_t> pids;
  for (const int64_t base : {3, 1000003}) {
    // Two tasks run the same code in turn, so each one's registers are
    // clobbered while the other runs.
    pids.push_back(k.SpawnNative(
        "locals",
        [base](SyscallApi& api) {
          for (int i = 0; i < 4; ++i) {
            if (!TwelveLocalsSurviveYield(api, base)) return 1;
          }
          return 0;
        },
        UserOpts(world)));
  }
  for (const int32_t pid : pids) {
    ASSERT_TRUE(world.RunUntilExited("brick", pid));
    EXPECT_EQ(world.ExitInfoOf("brick", pid).exit_code, 0);
  }
}

TEST(NativeTask, FinishedTasksStackIsReused) {
  World world;
  std::vector<uintptr_t> frames;
  auto record = [&frames](SyscallApi&) {
    // The frame's address rather than a local's: under ASan's fake stacks a
    // local may live off the task stack.
    frames.push_back(reinterpret_cast<uintptr_t>(__builtin_frame_address(0)));
    return 0;
  };
  RunUser(world, record);
  RunUser(world, record);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0], frames[1]);
}

// Recurses `depth` frames deep, each holding 1 KiB of the real stack (alloca,
// unlike an array, never moves to ASan's fake stacks).
[[gnu::noinline]] int64_t Recurse(int depth) {
  auto* frame = static_cast<volatile char*>(__builtin_alloca(1024));
  frame[0] = static_cast<char>(depth);
  frame[1023] = 1;
  if (depth == 0) return frame[0];
  return Recurse(depth - 1) + frame[1023];
}

// Runs a task whose recursion overruns its stack by half again. The task sleeps
// first, so a neighbour spawned after it, whose stack is mapped just below its
// own, runs and blocks for good with live frames at the top of that stack. Only
// the guard page stops the overrun: without it the frames would land in the
// neighbour's stack, the task would return, and the process would exit 0.
void OverflowNextToANeighbour(World& world) {
  kernel::Kernel& k = world.host("brick");
  const int32_t pid = k.SpawnNative(
      "overflow",
      [](SyscallApi& api) {
        api.Sleep(sim::Millis(1));
        return Recurse(3 * static_cast<int>(kernel::kTaskStackBytes / 2048)) > 0;
      },
      UserOpts(world));
  k.SpawnNative(
      "neighbour",
      [](SyscallApi& api) {
        api.BlockUntil([] { return false; });
        return 0;
      },
      UserOpts(world));
  world.RunUntilExited("brick", pid);
  std::_Exit(0);  // skips unwinding a neighbour the overrun trampled
}

TEST(NativeTaskDeathTest, OverflowFaultsOnTheGuardPage) {
  EXPECT_DEATH(
      {
        World world;
        OverflowNextToANeighbour(world);
      },
      "");
  // The same on a stack a finished task gave back.
  EXPECT_DEATH(
      {
        World world;
        RunUser(world, [](SyscallApi&) { return 0; });
        OverflowNextToANeighbour(world);
      },
      "");
}

// A host that cannot map a task stack gets an exception from SpawnNative and no
// half-made process: the next quantum runs normally.
TEST(NativeTaskDeathTest, SpawnWithoutStackLeavesNoProcess) {
#ifdef __SANITIZE_ADDRESS__
  GTEST_SKIP() << "AddressSanitizer cannot run under an address-space limit";
#endif
  EXPECT_EXIT(
      {
        test::WorldOptions options;
        options.num_hosts = 1;
        World world(options);
        kernel::Kernel& k = world.host("brick");
        const size_t procs = k.ListProcs().size();
        rlimit saved{};
        getrlimit(RLIMIT_AS, &saved);
        rlimit none = saved;
        none.rlim_cur = 0;
        setrlimit(RLIMIT_AS, &none);
        bool threw = false;
        try {
          k.SpawnNative("nostack", [](SyscallApi&) { return 0; }, UserOpts(world));
        } catch (const std::system_error&) {
          threw = true;
        }
        setrlimit(RLIMIT_AS, &saved);
        world.cluster().RunFor(sim::Millis(100));
        std::exit(threw && k.ListProcs().size() == procs ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
}

}  // namespace
}  // namespace pmig
