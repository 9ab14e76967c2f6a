// Figure 3: relative performance of execve(), rest_proc(), and restart
// (Section 6.3).
//
// A dumped copy of the test program is (a) executed as a fresh program with
// execve() — legal, since a.outXXXXX is an ordinary executable — (b) restored with
// a bare rest_proc() call, and (c) restored with the full restart application.
// System-call times come from "timing code inside the kernel" (KernelTimers); the
// restart application is timed to the point where its process is overlaid.
// Paper result (execve = 1): rest_proc slightly above 1; restart ≈ 5x CPU,
// ≈ 6x real, most of the gap being restart's own user-level work.

#include "bench/bench_util.h"
#include "src/core/dump_format.h"

namespace pmig::bench {
namespace {

// Builds a world with dump files for a counter staged on brick. Returns the pid
// the dump files are named after.
int32_t StageDump(Testbed& world) {
  const int32_t pid = StartBlockedCounter(world, "brick");
  const int32_t dp = world.StartTool("brick", "dumpproc", {"-p", std::to_string(pid)});
  world.RunUntilExited("brick", pid);
  world.RunUntilExited("brick", dp);
  return pid;
}

Measurement MeasureExecve() {
  TestbedOptions options;
  options.num_hosts = 2;
  options.file_server_home = true;
  Testbed world(options);
  InstallPaddedCounter(world);
  const int32_t pid = StageDump(world);
  const core::DumpPaths paths = core::DumpPaths::For(pid);

  kernel::Kernel& k = world.host("brick");
  kernel::SpawnOptions opts;
  opts.creds = {kUserUid, 10, kUserUid, 10};
  opts.tty = world.console("brick");
  const Result<int32_t> fresh = k.SpawnVm(paths.aout, {}, opts);
  (void)fresh;
  world.cluster().RunFor(sim::Seconds(2));
  const kernel::InKernelTiming t = k.timers().execve;
  return Measurement{sim::ToMillis(t.cpu), sim::ToMillis(t.real)};
}

Measurement MeasureRestProc() {
  TestbedOptions options;
  options.num_hosts = 2;
  options.file_server_home = true;
  Testbed world(options);
  InstallPaddedCounter(world);
  const int32_t pid = StageDump(world);
  const core::DumpPaths paths = core::DumpPaths::For(pid);

  kernel::Kernel& k = world.host("brick");
  kernel::SpawnOptions opts;
  opts.creds = {kUserUid, 10, kUserUid, 10};
  opts.tty = world.console("brick");
  k.SpawnNative("bare-rest_proc", [paths](kernel::SyscallApi& api) {
    const Status st = api.RestProc(paths.aout, paths.stack);
    (void)st;
    return 1;  // only reached on failure
  }, opts);
  world.cluster().RunFor(sim::Seconds(2));
  const kernel::InKernelTiming t = k.timers().rest_proc;
  return Measurement{sim::ToMillis(t.cpu), sim::ToMillis(t.real)};
}

struct RestartSplit {
  Measurement total;
  Measurement rest_proc_part;
};

RestartSplit MeasureRestart() {
  TestbedOptions options;
  options.num_hosts = 2;
  options.file_server_home = true;
  Testbed world(options);
  InstallPaddedCounter(world);
  const int32_t pid = StageDump(world);

  kernel::Kernel& k = world.host("brick");
  const sim::Nanos t0 = world.cluster().clock().now();
  const int32_t rs = world.StartTool("brick", "restart", {"-p", std::to_string(pid)},
                                     kUserUid, world.console("brick"));
  // Run until the restored program has resumed execution (it re-enters its
  // blocked read once the restart I/O completes).
  world.cluster().RunUntil([&k, rs] {
    const kernel::Proc* p = k.FindProc(rs);
    return p != nullptr && p->kind == kernel::ProcKind::kVm &&
           p->state == kernel::ProcState::kBlocked;
  });
  RestartSplit split;
  kernel::Proc* p = k.FindProc(rs);
  split.total.cpu_ms = p != nullptr ? sim::ToMillis(p->utime + p->stime) : 0.0;
  split.total.real_ms = sim::ToMillis(world.cluster().clock().now() - t0);
  split.rest_proc_part = Measurement{sim::ToMillis(k.timers().rest_proc.cpu),
                                     sim::ToMillis(k.timers().rest_proc.real)};
  return split;
}

}  // namespace
}  // namespace pmig::bench

int main(int argc, char** argv) {
  using namespace pmig::bench;
  ParseBenchFlags(argc, argv);
  const Measurement execve = MeasureExecve();
  const Measurement rest_proc = MeasureRestProc();
  const RestartSplit restart = MeasureRestart();
  const std::vector<Row> rows = {
      {"execve() of a.outXXXXX", execve, "1.0"},
      {"rest_proc()", rest_proc, "slightly above 1"},
      {"restart application (total)", restart.total, "~5x cpu, ~6x real"},
      {"  of which rest_proc()", restart.rest_proc_part, "(dotted split)"},
  };
  PrintFigure("Figure 3: restarting the test program (normalised to execve)", rows, 0);
  WriteBenchJson("fig3", rows);
  return 0;
}
