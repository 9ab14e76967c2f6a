// Figure 1: overhead of the modified system calls (Section 6.1).
//
// "For the open()/close() system calls, we gauged the overhead by measuring the
// system CPU execution time of a program that opens and closes a certain file for
// a hundred times, both under the standard UNIX kernel and under our new kernel...
// For the chdir() system call ... one hundred sets of three calls ..., one with an
// absolute path name, one with the parent directory '..' and one with a path
// relative to the current directory '.'"
//
// Paper result: open/close ≈ +44%, chdir ≈ +36%.

#include <memory>

#include "bench/bench_util.h"

namespace pmig::bench {
namespace {

constexpr int kIterations = 100;

// One 100-iteration loop: its system CPU time (stime) and its elapsed virtual
// time, which adds the I/O waits the calls incurred.
struct Loop {
  sim::Nanos stime = 0;
  sim::Nanos real = 0;
};

// Microseconds of system CPU per iteration, the unit of the printed table.
double PerIterationUs(const Loop& loop) {
  return static_cast<double>(loop.stime) / (kIterations * sim::kMicrosecond);
}

// A hundred open/close pairs of one file.
Loop MeasureOpenClose(bool track_names) {
  TestbedOptions options;
  options.num_hosts = 1;
  options.track_names = track_names;
  Testbed world(options);
  kernel::Kernel& k = world.host("brick");

  auto loop = std::make_shared<Loop>();
  kernel::SpawnOptions opts;
  opts.creds = {kUserUid, 10, kUserUid, 10};
  k.SpawnNative("fig1-openclose", [loop](kernel::SyscallApi& api) {
    const Result<int> created = api.Creat("/tmp/fig1.dat", 0644);
    if (!created.ok()) return 1;
    const Status closed = api.Close(*created);
    (void)closed;
    const sim::Nanos stime0 = api.proc().stime;
    const sim::Nanos t0 = api.Now();
    for (int i = 0; i < kIterations; ++i) {
      const Result<int> fd = api.Open("/tmp/fig1.dat", vm::abi::kORdOnly);
      if (!fd.ok()) return 1;
      const Status st = api.Close(*fd);
      (void)st;
    }
    *loop = {api.proc().stime - stime0, api.Now() - t0};
    return 0;
  }, opts);
  world.cluster().RunUntilIdle();
  return *loop;
}

// A hundred {absolute, "..", "."} chdir triples.
Loop MeasureChdir(bool track_names) {
  TestbedOptions options;
  options.num_hosts = 1;
  options.track_names = track_names;
  Testbed world(options);
  kernel::Kernel& k = world.host("brick");

  auto loop = std::make_shared<Loop>();
  kernel::SpawnOptions opts;
  opts.creds = {kUserUid, 10, kUserUid, 10};
  k.SpawnNative("fig1-chdir", [loop](kernel::SyscallApi& api) {
    const sim::Nanos stime0 = api.proc().stime;
    const sim::Nanos t0 = api.Now();
    for (int i = 0; i < kIterations; ++i) {
      if (!api.Chdir("/usr/tmp").ok()) return 1;
      if (!api.Chdir("..").ok()) return 1;
      if (!api.Chdir(".").ok()) return 1;
    }
    *loop = {api.proc().stime - stime0, api.Now() - t0};
    return 0;
  }, opts);
  world.cluster().RunUntilIdle();
  return *loop;
}

void PrintTables() {
  const Loop oc_orig_loop = MeasureOpenClose(false);
  const Loop oc_mod_loop = MeasureOpenClose(true);
  const Loop cd_orig_loop = MeasureChdir(false);
  const Loop cd_mod_loop = MeasureChdir(true);
  const double oc_orig = PerIterationUs(oc_orig_loop);
  const double oc_mod = PerIterationUs(oc_mod_loop);
  const double cd_orig = PerIterationUs(cd_orig_loop);
  const double cd_mod = PerIterationUs(cd_mod_loop);

  std::printf("\n=== Figure 1: performance of modified system calls ===\n");
  std::printf("%-22s %16s %16s %10s   %s\n", "syscall", "original (us)", "modified (us)",
              "overhead", "paper");
  std::printf("%-22s %16.1f %16.1f %9.1f%%   +44%%\n", "open()/close() pair", oc_orig, oc_mod,
              100.0 * (oc_mod - oc_orig) / oc_orig);
  std::printf("%-22s %16.1f %16.1f %9.1f%%   +36%%\n", "chdir() triple", cd_orig, cd_mod,
              100.0 * (cd_mod - cd_orig) / cd_orig);

  // BENCH_fig1.json carries each loop's totals, so %.4f ms resolves 1 ns per
  // iteration.
  const auto row = [](const char* name, const Loop& loop) {
    return Row{name, Measurement{sim::ToMillis(loop.stime), sim::ToMillis(loop.real)}, ""};
  };
  WriteBenchJson("fig1", {row("open_close/original", oc_orig_loop),
                          row("open_close/migration_kernel", oc_mod_loop),
                          row("chdir/original", cd_orig_loop),
                          row("chdir/migration_kernel", cd_mod_loop)});
}

}  // namespace
}  // namespace pmig::bench

int main(int argc, char** argv) {
  pmig::bench::ParseBenchFlags(argc, argv);
  pmig::bench::PrintTables();
  return 0;
}
