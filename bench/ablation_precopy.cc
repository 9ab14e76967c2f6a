// Ablation F: freeze-everything (the paper's SIGDUMP/restart) vs V-System-style
// pre-copying (Section 2's related work, implemented in src/core/precopy.h).
//
// The paper's mechanism freezes the process for the entire transfer; pre-copying
// ships state while the process runs and freezes only for the final dirty bytes.
// The trade: shorter freezes, more total bytes on the wire — and the advantage
// shrinks as the process dirties memory faster.

#include "bench/bench_util.h"
#include "src/core/dump_format.h"
#include "src/core/precopy.h"

namespace pmig::bench {
namespace {

struct FreezeResult {
  double freeze_ms = 0;
  double total_ms = 0;
  int64_t bytes = 0;
  int rounds = 0;
};

// The paper's transport: SIGDUMP on brick, restart on schooner. Freeze spans the
// whole thing.
FreezeResult MeasureFreezeEverything(int dirty_stride, int net_slowdown) {
  TestbedOptions options;
  options.costs.net_per_byte *= net_slowdown;
  Testbed world(options);
  const int32_t pid =
      world.StartVm("brick", "/bin/dirtier", {"dirtier", std::to_string(dirty_stride)});
  world.cluster().RunFor(sim::Millis(300));

  const sim::Nanos t0 = world.cluster().clock().now();
  const Status st = world.host("brick").PostSignal(pid, vm::abi::kSigDump, nullptr);
  (void)st;
  world.RunUntilExited("brick", pid);
  kernel::Proc* old_proc = world.host("brick").FindAnyProc(pid);
  int64_t bytes = 0;
  if (old_proc != nullptr) {
    // Everything crosses the wire after the freeze began.
    const std::string aout = world.FileContents("brick", core::DumpPaths::For(pid).aout);
    const std::string files = world.FileContents("brick", core::DumpPaths::For(pid).files);
    const std::string stack = world.FileContents("brick", core::DumpPaths::For(pid).stack);
    bytes = static_cast<int64_t>(aout.size() + files.size() + stack.size());
  }
  const int32_t rs =
      world.StartTool("schooner", "restart", {"-p", std::to_string(pid), "-h", "brick"});
  world.cluster().RunUntil([&] {
    const kernel::Proc* p = world.host("schooner").FindProc(rs);
    return p != nullptr && p->kind == kernel::ProcKind::kVm &&
           p->state == kernel::ProcState::kRunnable;
  });
  FreezeResult r;
  r.freeze_ms = sim::ToMillis(world.cluster().clock().now() - t0);
  r.total_ms = r.freeze_ms;
  r.bytes = bytes;
  r.rounds = 1;
  const Status kill = world.host("schooner").PostSignal(rs, vm::abi::kSigKill, nullptr);
  (void)kill;
  return r;
}

FreezeResult MeasurePrecopy(int dirty_stride, int net_slowdown) {
  TestbedOptions options;
  options.costs.net_per_byte *= net_slowdown;
  Testbed world(options);
  const int32_t pid =
      world.StartVm("brick", "/bin/dirtier", {"dirtier", std::to_string(dirty_stride)});
  world.cluster().RunFor(sim::Millis(300));

  auto stats = std::make_shared<Result<core::PrecopyStats>>(Errno::kAgain);
  net::Network* net = &world.cluster().network();
  kernel::SpawnOptions opts;  // root
  const int32_t mgr = world.host("brick").SpawnNative(
      "precopy-mgr",
      [stats, net, pid](kernel::SyscallApi& api) {
        *stats = core::PrecopyMigrate(api, *net, pid, "schooner", {});
        return stats->ok() ? 0 : 1;
      },
      opts);
  world.RunUntilExited("brick", mgr, sim::Seconds(600));
  FreezeResult r;
  if (stats->ok()) {
    r.freeze_ms = sim::ToMillis((*stats)->freeze_time);
    r.total_ms = sim::ToMillis((*stats)->total_time);
    r.bytes = (*stats)->bytes_precopied + (*stats)->bytes_frozen;
    r.rounds = (*stats)->rounds;
    const Status kill =
        world.host("schooner").PostSignal((*stats)->new_pid, vm::abi::kSigKill, nullptr);
    (void)kill;
  }
  return r;
}

}  // namespace
}  // namespace pmig::bench

int main(int argc, char** argv) {
  using namespace pmig::bench;
  ParseBenchFlags(argc, argv);
  std::printf("\n=== Ablation F: freeze-everything (the paper) vs pre-copy (V-System) ===\n");
  std::printf("%12s | %12s %10s | %12s %10s %8s %7s | %10s\n", "dirty B/cyc",
              "paper frz ms", "bytes", "precopy frz", "total ms", "bytes", "rounds",
              "frz speedup");
  std::vector<Row> rows;
  const auto sweep = [&rows](int net_slowdown) {
    for (const int stride : {0, 64, 512, 4096}) {
      const FreezeResult paper = MeasureFreezeEverything(stride, net_slowdown);
      const FreezeResult pre = MeasurePrecopy(stride, net_slowdown);
      std::printf("%12d | %12.1f %10lld | %12.1f %10.1f %8lld %7d | %9.1fx\n", stride,
                  paper.freeze_ms, static_cast<long long>(paper.bytes), pre.freeze_ms,
                  pre.total_ms, static_cast<long long>(pre.bytes), pre.rounds,
                  paper.freeze_ms / pre.freeze_ms);
      const std::string point =
          "net=" + std::to_string(net_slowdown) + "x/stride=" + std::to_string(stride);
      rows.push_back({point + "/paper", Measurement{0, paper.freeze_ms, paper.bytes}, ""});
      rows.push_back({point + "/precopy_freeze", Measurement{0, pre.freeze_ms}, ""});
      rows.push_back({point + "/precopy_total", Measurement{0, pre.total_ms, pre.bytes}, ""});
    }
  };
  sweep(1);
  std::printf("\nSame sweep on a 20x slower network (transfer windows long enough for the\n"
              "dirtier to matter):\n");
  sweep(20);
  std::printf("\n(pre-copying trades total bytes for a much shorter freeze; the advantage\n"
              " narrows as the dirty rate rises — the V-System's design point, versus the\n"
              " paper's simpler freeze-everything approach)\n");
  WriteBenchJson("ablation_precopy", rows);
  return 0;
}
