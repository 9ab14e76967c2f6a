// Ablation D: checkpointing overhead vs interval (the Section 8 application).
//
// A long-running batch job is checkpointed every T seconds. Each snapshot costs a
// dump + a local restart, so tighter intervals trade runtime overhead for a
// smaller recovery window. We report the job's completion-time inflation.

#include "bench/bench_util.h"
#include "src/apps/checkpoint.h"

namespace pmig::bench {
namespace {

// A hog big enough to run for ~40 virtual seconds.
constexpr const char* kJobIterations = "10000000";

struct JobRun {
  sim::Nanos time = 0;  // to job completion
  int checkpoints = 0;
};

JobRun RunJob(int checkpoint_every_s) {
  TestbedOptions options;
  options.num_hosts = 1;
  Testbed world(options);
  world.host("brick").vfs().SetupMkdirAll("/ckpt");
  const int32_t pid = world.StartVm("brick", "/bin/hog", {"hog", kJobIterations});

  const sim::Nanos t0 = world.cluster().clock().now();
  if (checkpoint_every_s > 0) {
    kernel::SpawnOptions opts;  // root
    auto taken = std::make_shared<int>(0);
    auto snapshotting = std::make_shared<bool>(false);
    world.host("brick").SpawnNative(
        "checkpointd",
        [pid, checkpoint_every_s, taken, snapshotting](kernel::SyscallApi& api) {
          int32_t current = pid;
          for (;;) {
            api.Sleep(sim::Seconds(checkpoint_every_s));
            *snapshotting = true;
            const auto r = apps::TakeCheckpoint(api, current, "/ckpt", *taken);
            *snapshotting = false;
            if (!r.ok()) break;  // the job has finished
            current = r->new_pid;
            ++*taken;
          }
          return 0;
        },
        opts);
    // Measure to *job completion*: no live VM process while no snapshot is in
    // flight (mid-snapshot the job is momentarily dead by design). The daemon's
    // final sleep-and-discover-gone cycle is not part of the job's runtime.
    world.cluster().RunUntil(
        [&world, snapshotting] {
          if (*snapshotting) return false;
          for (const auto& host : world.cluster().hosts()) {
            for (kernel::Proc* p : host->ListProcs()) {
              if (p->kind == kernel::ProcKind::kVm && p->Alive()) return false;
            }
          }
          return true;
        },
        sim::Seconds(3000));
    const sim::Nanos done = world.cluster().clock().now();
    world.cluster().RunUntilIdle(sim::Seconds(3000));  // drain the daemon
    return {done - t0, *taken};
  }
  world.cluster().RunUntilIdle(sim::Seconds(3000));
  return {world.cluster().clock().now() - t0, 0};
}

}  // namespace
}  // namespace pmig::bench

int main(int argc, char** argv) {
  using namespace pmig::bench;
  namespace sim = pmig::sim;
  ParseBenchFlags(argc, argv);
  std::printf("\n=== Ablation D: checkpoint interval vs job slowdown (Section 8) ===\n");
  const sim::Nanos baseline = RunJob(0).time;
  std::printf("%14s %12s %14s %10s\n", "interval (s)", "checkpoints", "job time (s)",
              "overhead");
  std::printf("%14s %12d %14.2f %9.1f%%\n", "none", 0, sim::ToSeconds(baseline), 0.0);
  std::vector<Row> rows = {{"no_checkpoints", Measurement{0, sim::ToMillis(baseline)}, ""}};
  for (const int interval : {20, 10, 5}) {
    const JobRun run = RunJob(interval);
    std::printf("%14d %12d %14.2f %9.1f%%\n", interval, run.checkpoints,
                sim::ToSeconds(run.time),
                100.0 * static_cast<double>(run.time - baseline) /
                    static_cast<double>(baseline));
    rows.push_back({"every_" + std::to_string(interval) + "s",
                    Measurement{0, sim::ToMillis(run.time)}, ""});
  }
  std::printf("\n(each snapshot costs a SIGDUMP + file copies + a local restart; the paper\n"
              " proposes exactly this application but does not measure it)\n");
  WriteBenchJson("ablation_checkpoint", rows);
  return 0;
}
