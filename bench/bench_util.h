// Shared bench plumbing.
//
// Every bench binary reproduces one figure of the paper or one ablation. All
// timing is virtual (the simulator's deterministic clock): a bench runs each
// scenario to completion once, reads off virtual CPU and real time, prints a
// paper-style table normalised the way the figure is (with the paper's
// reported shape alongside), and writes the same rows to BENCH_<name>.json,
// which a baseline_<name> ctest holds to its committed copy. EXPERIMENTS.md
// records these numbers.

#ifndef PMIG_BENCH_BENCH_UTIL_H_
#define PMIG_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/cluster/testbed.h"

namespace pmig::bench {

using testbed::kUserUid;
using testbed::Testbed;
using testbed::TestbedOptions;

// One measured operation, in virtual time. bytes_moved is the disk+network
// payload traffic during the measured window (filled only by scenarios that run
// with metrics on; it is observation-only and never affects the virtual times).
struct Measurement {
  double cpu_ms = 0;
  double real_ms = 0;
  int64_t bytes_moved = 0;
};

struct Row {
  std::string name;
  Measurement m;
  std::string paper_note;  // what the paper reports for this row
};

// A bench's command-line flags. Each bench accepts only the ones it
// implements: none, --check (the nine gated benches), or fig4_migrate's
// --check, --report and --trace-out.
struct BenchFlags {
  bool check = false;     // run the bench's gate; exit 1 when it fails
  std::string report;     // append the instrumented cluster report (JSONL) here
  std::string trace_out;  // write the Perfetto-loadable timeline here
};

// The flag sets ParseBenchFlags can accept, or-ed together.
enum : unsigned { kCheckFlag = 1, kReportFlags = 2 };

// Parses argv against the flags in `accepted`; call first in every bench
// main(). Anything else (an unknown flag, one this bench does not implement,
// a missing value) prints a usage line and exits 2 before any scenario runs.
// --report and --trace-out take FILE as --flag=FILE or --flag FILE.
inline BenchFlags ParseBenchFlags(int argc, char** argv, unsigned accepted = 0) {
  BenchFlags flags;
  const auto take = [argc, argv](int* i, std::string_view name, std::string* dest) {
    const std::string_view arg = argv[*i];
    if (arg.size() > name.size() + 1 && arg.substr(0, name.size()) == name &&
        arg[name.size()] == '=') {
      *dest = arg.substr(name.size() + 1);
      return true;
    }
    if (arg == name && *i + 1 < argc) {
      *dest = argv[++*i];
      return true;
    }
    return false;
  };
  for (int i = 1; i < argc; ++i) {
    if ((accepted & kCheckFlag) != 0 && std::string_view(argv[i]) == "--check") {
      flags.check = true;
    } else if ((accepted & kReportFlags) == 0 ||
               !(take(&i, "--report", &flags.report) ||
                 take(&i, "--trace-out", &flags.trace_out))) {
      std::fprintf(stderr, "%s: unrecognized argument '%s'\nusage: %s%s%s\n", argv[0],
                   argv[i], argv[0], (accepted & kCheckFlag) != 0 ? " [--check]" : "",
                   (accepted & kReportFlags) != 0 ? " [--report=FILE] [--trace-out=FILE]"
                                                  : "");
      std::exit(2);
    }
  }
  return flags;
}

// Exact comparison for the bit-identical gates: a scenario re-run with the
// observability layer enabled (see EnableAllInstrumentation) must reproduce
// every measured value to the last bit.
inline bool SameMeasurement(const Measurement& a, const Measurement& b) {
  return a.cpu_ms == b.cpu_ms && a.real_ms == b.real_ms && a.bytes_moved == b.bytes_moved;
}

// Turns every observation-only subsystem on. Virtual times must not move.
inline void EnableAllInstrumentation(TestbedOptions* options) {
  options->metrics = true;
  options->spans = true;
  options->flight_recorder = true;
  options->sample_period = sim::Millis(50);
  options->decision_log = true;
}

// Bytes the scenario put on disk or on the wire, summed across every host:
// all writes plus NFS reads (local reads just revisit data already in place).
// Zero unless the testbed was built with metrics on. Subtract a snapshot taken
// at the start of the measured window to get bytes moved by the scenario.
inline int64_t TotalBytesMoved(Testbed& world) {
  int64_t total = 0;
  for (const auto& host : world.cluster().hosts()) {
    const sim::MetricsRegistry& m = host->metrics();
    total += m.Counter("vfs.bytes_written") + m.Counter("vfs.nfs_bytes_written") +
             m.Counter("vfs.nfs_bytes_read");
  }
  return total;
}

// Writes the standardized BENCH_<name>.json in the working directory: one
// object per row with the virtual-time totals and bytes moved. Silent (no
// stdout), so the printed tables stay bit-identical to earlier runs.
inline void WriteBenchJson(const std::string& bench, const std::vector<Row>& rows) {
  std::ofstream out("BENCH_" + bench + ".json");
  if (!out) return;
  out << "{\"bench\":\"" << sim::JsonEscape(bench) << "\",\"rows\":[";
  for (size_t i = 0; i < rows.size(); ++i) {
    char buf[384];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"case\":\"%s\",\"vcpu_ms\":%.4f,\"vreal_ms\":%.4f,"
                  "\"bytes_moved\":%lld}",
                  i == 0 ? "" : ",", sim::JsonEscape(rows[i].name).c_str(), rows[i].m.cpu_ms,
                  rows[i].m.real_ms, static_cast<long long>(rows[i].m.bytes_moved));
    out << buf;
  }
  out << "]}\n";
}

// Prints a figure table normalised against rows[baseline].
inline void PrintFigure(const std::string& title, const std::vector<Row>& rows,
                        size_t baseline) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("%-34s %12s %12s %10s %10s   %s\n", "case", "cpu (ms)", "real (ms)",
              "cpu (norm)", "real(norm)", "paper");
  const double cpu_base = rows[baseline].m.cpu_ms;
  const double real_base = rows[baseline].m.real_ms;
  for (const Row& row : rows) {
    const double cpu_norm = cpu_base > 0 ? row.m.cpu_ms / cpu_base : 0.0;
    const double real_norm = real_base > 0 ? row.m.real_ms / real_base : 0.0;
    std::printf("%-34s %12.2f %12.2f %10.2f %10.2f   %s\n", row.name.c_str(), row.m.cpu_ms,
                row.m.real_ms, cpu_norm, real_norm, row.paper_note.c_str());
  }
}

// The paper's counter test program with 1987-realistic segment sizes (a compiled
// C program's library text and data). Installed as /bin/bigcounter on every host.
inline void InstallPaddedCounter(Testbed& world) {
  const std::string padded =
      core::WithPadding(core::CounterProgramSource(), /*extra_text_instructions=*/1400,
                        /*extra_data_bytes=*/5600);
  for (const auto& host : world.cluster().hosts()) {
    core::InstallProgram(*host, "/bin/bigcounter", padded);
  }
}

// Starts /bin/bigcounter on `host_name`, feeds it one line, and leaves it blocked
// at its second input prompt (the paper kills the program "after its first prompt
// for input"; one fed line makes all three counters nonzero first). Returns pid.
inline int32_t StartBlockedCounter(Testbed& world, const std::string& host_name) {
  const int32_t pid = world.StartVm(host_name, "/bin/bigcounter");
  world.RunUntilBlocked(host_name, pid);
  world.console(host_name)->Type("x\n");
  world.RunUntilBlocked(host_name, pid);
  return pid;
}

}  // namespace pmig::bench

#endif  // PMIG_BENCH_BENCH_UTIL_H_
