// Ablation: the incremental migration data path (dirty-page deltas + the
// content-addressed segment cache).
//
// Two claims, both of which must emerge from the cost model (fewer bytes through
// the dump's DiskIo and the wire's NetIo — no hard-coded discounts):
//
//  A. Re-migrating a binary to a host that has already seen it: with --cached,
//     text and the delta base travel by content digest, both ends hit their
//     /var/segcache copies, and the second migration's real time drops ≥2x.
//
//  B. Checkpointing a large, mostly-idle data segment: once the first
//     incremental checkpoint has seeded the cache, later snapshots dump only the
//     dirty pages, cutting steady-state checkpoint time by ≥40%.
//
// --check runs both comparisons and fails (exit 1) if incremental is ever slower
// than the full-dump baseline — the coarse no-regression gate wired into ctest.

#include "bench/bench_util.h"
#include "src/apps/checkpoint.h"

namespace pmig::bench {
namespace {

// ~100 KB text + ~100 KB data: a big 1987 program whose data is mostly bss the
// counter loop never touches — the favourable (and common) case for deltas.
std::string BigJobSource() {
  return core::WithPadding(core::CounterProgramSource(), /*extra_text_instructions=*/12500,
                           /*extra_data_bytes=*/100000);
}

Testbed MakeWorld(int num_hosts) {
  TestbedOptions options;
  options.num_hosts = num_hosts;
  options.file_server_home = true;
  options.daemons = true;        // daemon transport, so rsh setup doesn't mask the ratio
  options.dirty_tracking = true; // arm page tracking at exec
  options.metrics = true;        // for bytes_moved (observation-only)
  Testbed world(options);
  const std::string padded = BigJobSource();
  for (const auto& host : world.cluster().hosts()) {
    core::InstallProgram(*host, "/bin/bigjob", padded);
  }
  return world;
}

int32_t StartBlockedBigJob(Testbed& world, const std::string& host_name) {
  const int32_t pid = world.StartVm(host_name, "/bin/bigjob");
  world.RunUntilBlocked(host_name, pid);
  world.console(host_name)->Type("x\n");
  world.RunUntilBlocked(host_name, pid);
  return pid;
}

void MigrateAndWait(Testbed& world, int32_t pid, bool cached) {
  std::vector<std::string> args = {"-p",       std::to_string(pid), "-f", "brick",
                                   "-t",       "schooner",          "--daemon"};
  if (cached) args.push_back("--cached");
  const int32_t mig =
      world.StartTool("brick", "migrate", args, kUserUid, world.console("brick"));
  world.RunUntilExited("brick", mig, sim::Seconds(600));
}

// Scenario A: a first --cached migration warms both hosts' segment caches; the
// measured leg then migrates a *second* instance of the same binary the same way.
Measurement MeasureSecondMigration(bool cached) {
  Testbed world = MakeWorld(2);
  const int32_t first = StartBlockedBigJob(world, "brick");
  MigrateAndWait(world, first, /*cached=*/true);

  const int32_t second = StartBlockedBigJob(world, "brick");
  const sim::Nanos cpu0 = world.cluster().TotalCpu();
  const sim::Nanos t0 = world.cluster().clock().now();
  const int64_t bytes0 = TotalBytesMoved(world);
  MigrateAndWait(world, second, cached);
  return Measurement{sim::ToMillis(world.cluster().TotalCpu() - cpu0),
                     sim::ToMillis(world.cluster().clock().now() - t0),
                     TotalBytesMoved(world) - bytes0};
}

// Scenario B: checkpoint the blocked big job twice; the first snapshot seeds the
// cache (incremental mode), the measured second one is the steady state.
Measurement MeasureSteadyCheckpoint(bool incremental) {
  Testbed world = MakeWorld(1);
  world.host("brick").vfs().SetupMkdirAll("/ckpt");
  const int32_t pid = StartBlockedBigJob(world, "brick");

  auto take = [&world, incremental](int32_t target, int index,
                                    std::shared_ptr<int32_t> new_pid) {
    kernel::SpawnOptions opts;  // root
    const int32_t ck = world.host("brick").SpawnNative(
        "ckpt", [target, index, incremental, new_pid](kernel::SyscallApi& api) {
          const auto r = apps::TakeCheckpoint(api, target, "/ckpt", index, incremental);
          if (!r.ok()) return 1;
          *new_pid = r->new_pid;
          return 0;
        },
        opts);
    world.RunUntilExited("brick", ck, sim::Seconds(600));
  };

  auto survivor = std::make_shared<int32_t>(0);
  take(pid, 0, survivor);

  const sim::Nanos cpu0 = world.cluster().TotalCpu();
  const sim::Nanos t0 = world.cluster().clock().now();
  const int64_t bytes0 = TotalBytesMoved(world);
  take(*survivor, 1, survivor);
  return Measurement{sim::ToMillis(world.cluster().TotalCpu() - cpu0),
                     sim::ToMillis(world.cluster().clock().now() - t0),
                     TotalBytesMoved(world) - bytes0};
}

}  // namespace
}  // namespace pmig::bench

int main(int argc, char** argv) {
  using namespace pmig::bench;
  const bool check = ParseBenchFlags(argc, argv, kCheckFlag).check;

  const Measurement mig_full = MeasureSecondMigration(/*cached=*/false);
  const Measurement mig_cached = MeasureSecondMigration(/*cached=*/true);
  const Measurement ckpt_full = MeasureSteadyCheckpoint(/*incremental=*/false);
  const Measurement ckpt_incr = MeasureSteadyCheckpoint(/*incremental=*/true);

  const std::vector<Row> mig_rows = {
      {"2nd migration, full dump", mig_full, "baseline"},
      {"2nd migration, --cached (warm)", mig_cached, "target: >=2x faster"},
  };
  const std::vector<Row> ckpt_rows = {
      {"steady checkpoint, full dump", ckpt_full, "baseline"},
      {"steady checkpoint, incremental", ckpt_incr, "target: >=40% faster"},
  };
  PrintFigure("Ablation: warm-cache re-migration of the same binary", mig_rows, 0);
  PrintFigure("Ablation: steady-state checkpoint of a mostly-idle job", ckpt_rows, 0);

  std::vector<Row> all = mig_rows;
  all.insert(all.end(), ckpt_rows.begin(), ckpt_rows.end());
  WriteBenchJson("ablation_incremental", all);

  std::printf("\nmigration speedup: %.2fx   bytes: %lld -> %lld\n",
              mig_full.real_ms / mig_cached.real_ms,
              static_cast<long long>(mig_full.bytes_moved),
              static_cast<long long>(mig_cached.bytes_moved));
  std::printf("checkpoint reduction: %.1f%%   bytes: %lld -> %lld\n",
              100.0 * (1.0 - ckpt_incr.real_ms / ckpt_full.real_ms),
              static_cast<long long>(ckpt_full.bytes_moved),
              static_cast<long long>(ckpt_incr.bytes_moved));

  if (check) {
    // The ctest gate: the incremental path must never be slower than the full
    // dump it replaces.
    const bool ok = mig_cached.real_ms <= mig_full.real_ms &&
                    ckpt_incr.real_ms <= ckpt_full.real_ms;
    std::printf("check: %s\n", ok ? "ok" : "REGRESSION: incremental slower than full");
    return ok ? 0 : 1;
  }
  return 0;
}
