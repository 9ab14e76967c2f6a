// Figure 2: relative performance of SIGQUIT, SIGDUMP, and dumpproc (Section 6.2).
//
// The paper's counter program is started and killed after its first input prompt,
// three ways; CPU and real time "required to kill the process" are measured.
// Paper result (normalised to SIGQUIT = 1): SIGDUMP ≈ 3x CPU and real; dumpproc
// ≈ 4x CPU and ≈ 6x real (the real-time gap is dumpproc's 1-second poll sleep
// while the dying process writes the dump files).

#include "bench/bench_util.h"

namespace pmig::bench {
namespace {

enum class KillMode { kSigQuit, kSigDump, kDumpproc };

Measurement MeasureKill(KillMode mode, bool instrumented = false) {
  TestbedOptions options;
  options.num_hosts = 2;
  options.file_server_home = true;
  options.metrics = true;  // for bytes_moved; observation-only, times unchanged
  if (instrumented) EnableAllInstrumentation(&options);
  Testbed world(options);
  InstallPaddedCounter(world);
  kernel::Kernel& k = world.host("brick");

  const int32_t pid = StartBlockedCounter(world, "brick");
  const sim::Nanos cpu0 = world.cluster().TotalCpu();
  const sim::Nanos t0 = world.cluster().clock().now();
  const int64_t bytes0 = TotalBytesMoved(world);

  int32_t tool_pid = -1;
  switch (mode) {
    case KillMode::kSigQuit: {
      const Status st = k.PostSignal(pid, vm::abi::kSigQuit, nullptr);
      (void)st;
      break;
    }
    case KillMode::kSigDump: {
      const Status st = k.PostSignal(pid, vm::abi::kSigDump, nullptr);
      (void)st;
      break;
    }
    case KillMode::kDumpproc:
      tool_pid = world.StartTool("brick", "dumpproc", {"-p", std::to_string(pid)});
      break;
  }

  // The operation is complete when the process is gone — and, for dumpproc, when
  // the tool itself has finished rewriting filesXXXXX.
  world.RunUntilExited("brick", pid);
  if (tool_pid > 0) world.RunUntilExited("brick", tool_pid);

  Measurement m;
  m.cpu_ms = sim::ToMillis(world.cluster().TotalCpu() - cpu0);
  m.real_ms = sim::ToMillis(world.cluster().clock().now() - t0);
  m.bytes_moved = TotalBytesMoved(world) - bytes0;
  return m;
}

}  // namespace
}  // namespace pmig::bench

int main(int argc, char** argv) {
  using namespace pmig::bench;
  // --check: the bit-identical gate. Every scenario re-run with the whole
  // observability layer on (metrics, spans, flight recorder, sampler, decision
  // log) must reproduce the plain run's measurements exactly.
  if (ParseBenchFlags(argc, argv, kCheckFlag).check) {
    int failures = 0;
    const struct {
      const char* name;
      KillMode mode;
    } cases[] = {{"sigquit", KillMode::kSigQuit},
                 {"sigdump", KillMode::kSigDump},
                 {"dumpproc", KillMode::kDumpproc}};
    for (const auto& c : cases) {
      const Measurement plain = MeasureKill(c.mode, false);
      const Measurement instrumented = MeasureKill(c.mode, true);
      const bool ok = SameMeasurement(plain, instrumented);
      std::printf("fig2/%s: plain cpu=%.4f real=%.4f bytes=%lld | instrumented "
                  "cpu=%.4f real=%.4f bytes=%lld -> %s\n",
                  c.name, plain.cpu_ms, plain.real_ms,
                  static_cast<long long>(plain.bytes_moved), instrumented.cpu_ms,
                  instrumented.real_ms, static_cast<long long>(instrumented.bytes_moved),
                  ok ? "IDENTICAL" : "MISMATCH");
      failures += ok ? 0 : 1;
    }
    return failures == 0 ? 0 : 1;
  }

  const Measurement quit = MeasureKill(KillMode::kSigQuit);
  const Measurement dump = MeasureKill(KillMode::kSigDump);
  const Measurement tool = MeasureKill(KillMode::kDumpproc);
  const std::vector<Row> rows = {
      {"SIGQUIT (core dump)", quit, "1.0 / 1.0"},
      {"SIGDUMP (migration dump)", dump, "~3x cpu, ~3x real"},
      {"dumpproc application", tool, "~4x cpu, ~6x real"},
  };
  PrintFigure("Figure 2: killing the test program (normalised to SIGQUIT)", rows, 0);
  WriteBenchJson("fig2", rows);
  return 0;
}
