// Ablation C: dump and restart cost vs process size.
//
// SIGDUMP writes text+data (a.outXXXXX) plus stack; SIGQUIT's core writes only
// data+stack. The Figure 2 and 3 ratios are therefore direct functions of segment
// sizes. This sweep makes that dependence explicit: text-heavy processes make
// SIGDUMP comparatively expensive; data-heavy processes narrow the gap (the core
// file grows too).

#include "bench/bench_util.h"

namespace pmig::bench {
namespace {

struct Sizes {
  int text_instructions;
  int data_bytes;
};

struct DumpCosts {
  Measurement sigquit;
  Measurement sigdump;
  Measurement restart;
};

DumpCosts Measure(const Sizes& sizes) {
  TestbedOptions options;
  options.num_hosts = 1;
  const std::string padded =
      core::WithPadding(core::CounterProgramSource(), sizes.text_instructions,
                        sizes.data_bytes);

  DumpCosts costs;
  auto measure_kill = [&](int signo) {
    Testbed w(options);
    core::InstallProgram(w.host("brick"), "/bin/sized", padded);
    const int32_t pid = w.StartVm("brick", "/bin/sized");
    w.RunUntilBlocked("brick", pid);
    const sim::Nanos cpu0 = w.cluster().TotalCpu();
    const sim::Nanos t0 = w.cluster().clock().now();
    const Status st = w.host("brick").PostSignal(pid, signo, nullptr);
    (void)st;
    w.RunUntilExited("brick", pid);
    return Measurement{sim::ToMillis(w.cluster().TotalCpu() - cpu0),
                       sim::ToMillis(w.cluster().clock().now() - t0)};
  };
  costs.sigquit = measure_kill(vm::abi::kSigQuit);
  costs.sigdump = measure_kill(vm::abi::kSigDump);

  // Restart of the dumped image.
  {
    Testbed w(options);
    core::InstallProgram(w.host("brick"), "/bin/sized", padded);
    const int32_t pid = w.StartVm("brick", "/bin/sized");
    w.RunUntilBlocked("brick", pid);
    const Status st = w.host("brick").PostSignal(pid, vm::abi::kSigDump, nullptr);
    (void)st;
    w.RunUntilExited("brick", pid);
    const sim::Nanos cpu0 = w.cluster().TotalCpu();
    const sim::Nanos t0 = w.cluster().clock().now();
    const int32_t rs = w.StartTool("brick", "restart", {"-p", std::to_string(pid)},
                                   kUserUid, w.console("brick"));
    kernel::Kernel& k = w.host("brick");
    w.cluster().RunUntil([&k, rs] {
      const kernel::Proc* p = k.FindProc(rs);
      return p != nullptr && p->kind == kernel::ProcKind::kVm &&
             p->state == kernel::ProcState::kBlocked;
    });
    costs.restart = Measurement{sim::ToMillis(w.cluster().TotalCpu() - cpu0),
                                sim::ToMillis(w.cluster().clock().now() - t0)};
  }
  return costs;
}

}  // namespace
}  // namespace pmig::bench

int main(int argc, char** argv) {
  using namespace pmig::bench;
  ParseBenchFlags(argc, argv);
  std::printf("\n=== Ablation C: dump/restart cost vs process size ===\n");
  std::printf("%10s %10s | %12s %12s %8s | %12s\n", "text (KB)", "data (KB)",
              "SIGQUIT (ms)", "SIGDUMP (ms)", "ratio", "restart (ms)");
  const Sizes sweep[] = {
      {0, 0},        // the bare counter
      {500, 2048},   // small C program
      {1400, 5600},  // the Figure 2/3 configuration
      {1400, 16384}, // data-heavy (narrows the SIGDUMP/SIGQUIT gap)
      {4000, 5600},  // text-heavy (widens it)
  };
  std::vector<Row> rows;
  for (const Sizes& sizes : sweep) {
    const DumpCosts costs = Measure(sizes);
    const std::string point = "text=" + std::to_string(sizes.text_instructions) +
                              "/data=" + std::to_string(sizes.data_bytes);
    rows.push_back({point + "/sigquit", costs.sigquit, ""});
    rows.push_back({point + "/sigdump", costs.sigdump, ""});
    rows.push_back({point + "/restart", costs.restart, ""});
    std::printf("%10.1f %10.1f | %12.1f %12.1f %7.2fx | %12.1f\n",
                sizes.text_instructions * 8 / 1024.0, sizes.data_bytes / 1024.0,
                costs.sigquit.real_ms, costs.sigdump.real_ms,
                costs.sigdump.real_ms / costs.sigquit.real_ms, costs.restart.real_ms);
  }
  std::printf("\n(text grows only the SIGDUMP side — the a.out carries text+data while the\n"
              " core carries data+stack; the paper's ~3x comes from a typical C program's\n"
              " text:data proportions)\n");
  WriteBenchJson("ablation_dump_scaling", rows);
  return 0;
}
