// Figure 4: real-time performance of the migrate application, compared to running
// dumpproc and restart separately on the appropriate machines (Section 6.4).
//
// Four placements relative to the machine where migrate is typed (L = that
// machine, R = a remote machine): L->L, L->R, R->L, R->R. migrate runs dumpproc
// and restart through rsh when either end is remote, and rsh's connection setup
// dominates: the paper reports up to ~10x the separate-command baseline, "almost
// half a minute", for the doubly remote case.

#include "bench/bench_util.h"

namespace pmig::bench {
namespace {

// The machine migrate is typed on is "home". Source/destination pick between home
// and the two remotes.
struct Placement {
  std::string name;
  std::string from;
  std::string to;
  std::string paper_note;
};

const Placement kPlacements[] = {
    {"local -> local  (L->L)", "brick", "brick", "~1x"},
    {"local -> remote (L->R)", "brick", "schooner", "one rsh: several x"},
    {"remote -> local (R->L)", "schooner", "brick", "one rsh: several x"},
    {"remote -> remote(R->R)", "schooner", "brador", "up to ~10x, ~half a minute"},
};

Testbed MakeWorld(bool instrumented = false) {
  TestbedOptions options;
  options.num_hosts = 3;  // brick (home), schooner, brador (also file server)
  options.file_server_home = true;
  options.metrics = true;  // for bytes_moved; observation-only, times unchanged
  if (instrumented) EnableAllInstrumentation(&options);
  return Testbed(options);
}

// Baseline: dumpproc on the source machine, restart on the destination machine,
// each run directly where it belongs.
Measurement MeasureSeparate(const Placement& placement, bool instrumented = false) {
  Testbed world = MakeWorld(instrumented);
  InstallPaddedCounter(world);
  const int32_t pid = StartBlockedCounter(world, placement.from);

  const sim::Nanos cpu0 = world.cluster().TotalCpu();
  const sim::Nanos t0 = world.cluster().clock().now();
  const int64_t bytes0 = TotalBytesMoved(world);
  const int32_t dp = world.StartTool(placement.from, "dumpproc", {"-p", std::to_string(pid)});
  world.RunUntilExited(placement.from, dp);
  const int32_t rs = world.StartTool(
      placement.to, "restart", {"-p", std::to_string(pid), "-h", placement.from}, kUserUid,
      world.console(placement.to));
  kernel::Kernel& dst = world.host(placement.to);
  world.cluster().RunUntil([&dst, rs] {
    const kernel::Proc* p = dst.FindProc(rs);
    return p == nullptr || !p->Alive() ||
           (p->kind == kernel::ProcKind::kVm && p->state == kernel::ProcState::kBlocked);
  });
  return Measurement{sim::ToMillis(world.cluster().TotalCpu() - cpu0),
                     sim::ToMillis(world.cluster().clock().now() - t0),
                     TotalBytesMoved(world) - bytes0};
}

Measurement MeasureMigrate(const Placement& placement, bool use_daemon,
                           bool instrumented = false) {
  TestbedOptions options;
  options.num_hosts = 3;
  options.file_server_home = true;
  options.daemons = use_daemon;
  options.metrics = true;  // for bytes_moved; observation-only, times unchanged
  if (instrumented) EnableAllInstrumentation(&options);
  Testbed world(options);
  InstallPaddedCounter(world);
  const int32_t pid = StartBlockedCounter(world, placement.from);

  std::vector<std::string> args = {"-p", std::to_string(pid), "-f", placement.from,
                                   "-t", placement.to};
  if (use_daemon) args.push_back("--daemon");

  const sim::Nanos cpu0 = world.cluster().TotalCpu();
  const sim::Nanos t0 = world.cluster().clock().now();
  const int64_t bytes0 = TotalBytesMoved(world);
  const int32_t mig = world.StartTool("brick", "migrate", args, kUserUid,
                                      world.console("brick"));
  world.RunUntilExited("brick", mig, sim::Seconds(600));
  return Measurement{sim::ToMillis(world.cluster().TotalCpu() - cpu0),
                     sim::ToMillis(world.cluster().clock().now() - t0),
                     TotalBytesMoved(world) - bytes0};
}

// With --report and/or --trace-out: one instrumented remote-to-remote migrate
// (metrics, spans, flight recorder, sampler, decision log all on) whose full
// cluster report — per-host metrics, spans with trace ids, per-phase and
// per-trace breakdowns — is appended to the report file, and whose Chrome
// trace-event timeline is written to the trace file (open it in Perfetto). Run
// separately from the measured scenarios so the figure numbers above stay
// bit-identical to an uninstrumented run.
void AppendInstrumentedReport(const BenchFlags& flags) {
  if (flags.report.empty() && flags.trace_out.empty()) return;
  TestbedOptions options;
  options.num_hosts = 3;
  options.file_server_home = true;
  EnableAllInstrumentation(&options);
  Testbed world(options);
  InstallPaddedCounter(world);
  const int32_t pid = StartBlockedCounter(world, "schooner");
  const int32_t mig = world.StartTool(
      "brick", "migrate",
      {"-p", std::to_string(pid), "-f", "schooner", "-t", "brador"}, kUserUid,
      world.console("brick"));
  world.RunUntilExited("brick", mig, sim::Seconds(600));
  if (!flags.report.empty()) world.cluster().WriteReport(flags.report);
  if (!flags.trace_out.empty()) world.cluster().WriteChromeTrace(flags.trace_out);
}

}  // namespace
}  // namespace pmig::bench

int main(int argc, char** argv) {
  using namespace pmig::bench;
  const BenchFlags flags = ParseBenchFlags(argc, argv, kCheckFlag | kReportFlags);

  // --check: the bit-identical gate. Each placement re-run with the whole
  // observability layer on (metrics, spans, flight recorder, sampler, decision
  // log) must reproduce the plain run's measurements exactly.
  if (flags.check) {
    int failures = 0;
    const auto compare = [&failures](const std::string& name, const Measurement& plain,
                                     const Measurement& instrumented) {
      const bool ok = SameMeasurement(plain, instrumented);
      std::printf("fig4/%s: plain cpu=%.4f real=%.4f bytes=%lld | instrumented "
                  "cpu=%.4f real=%.4f bytes=%lld -> %s\n",
                  name.c_str(), plain.cpu_ms, plain.real_ms,
                  static_cast<long long>(plain.bytes_moved), instrumented.cpu_ms,
                  instrumented.real_ms, static_cast<long long>(instrumented.bytes_moved),
                  ok ? "IDENTICAL" : "MISMATCH");
      failures += ok ? 0 : 1;
    };
    compare("separate", MeasureSeparate(kPlacements[0], false),
            MeasureSeparate(kPlacements[0], true));
    for (const Placement& placement : kPlacements) {
      compare("migrate " + placement.name, MeasureMigrate(placement, false, false),
              MeasureMigrate(placement, false, true));
    }
    return failures == 0 ? 0 : 1;
  }

  std::vector<Row> rows;
  // One shared baseline, as in the figure: the separate dumpproc/restart pair.
  const Measurement base = MeasureSeparate(kPlacements[0]);
  rows.push_back({"dumpproc + restart (separate)", base, "1.0 (baseline)"});
  for (const Placement& placement : kPlacements) {
    rows.push_back({"migrate " + placement.name, MeasureMigrate(placement, false),
                    placement.paper_note});
  }
  PrintFigure("Figure 4: migrate vs separate dumpproc/restart (real time)", rows, 0);
  WriteBenchJson("fig4", rows);

  std::printf("\n(remote cases pay rsh connection setup; see ablation_daemon_vs_rsh for\n"
              " the Section 6.4 daemon-based improvement)\n");

  AppendInstrumentedReport(flags);
  return 0;
}
