// Ablation: migrations, coordinators, and the reaper under network partitions.
//
// Three scenarios plus a bit-identity leg, all driven by the pure
// (config, clock) partition model — no RNG anywhere, so every run replays
// bit-identically by construction:
//
//  cut        — serial robust migrations while a flapping brick<->schooner link
//               and a hard brador island carve up the cluster mid-flight. The
//               claim: whatever each leg did (complete across an open phase,
//               fall back, abandon a set for the reaper), every victim ends the
//               run alive exactly once and no dump/claim/lease file is leaked.
//  splitbrain — two coordinators on different hosts evacuate the same source
//               concurrently with lease_targets on: placement leases serialise
//               their target picks, the dump claims serialise consumption, and
//               nothing is lost or doubled. A bare variant runs without leases
//               for comparison.
//  flap       — a soak with the reaper daemon running: a pre-orphaned dump set
//               on the flapping host (its origin process dead, its coordinator
//               gone) must be revived exactly once after the link heals, while
//               live migrations keep flowing around the reaper.
//  inert      — the zero-cost claim: a run with the partition config armed but
//               every window out past the horizon is bit-identical (virtual
//               CPU, virtual real time, bytes moved) to a run with faults off.
//
// --check runs all of it and fails (exit 1) on any violated claim — the
// partition gate wired into ctest and scripts/ci.sh.

#include <memory>

#include "bench/bench_util.h"
#include "src/apps/evacuate.h"
#include "src/apps/recovery.h"
#include "src/core/tools.h"

namespace pmig::bench {
namespace {

// The sleep-loop victim from the chaos soak: stays alive wherever a restart
// lands it, so conservation is countable.
constexpr std::string_view kTickerSource = R"(
        .text
start:
loop:   movi r0, 2
        sys  SYS_sleep
        jmp  loop
)";

int32_t StartQuiescedTicker(Testbed& world, const std::string& host) {
  const int32_t pid = world.StartVm(host, "/bin/ticker");
  if (pid <= 0) return -1;
  world.cluster().RunUntil(
      [&world, &host, pid] {
        const kernel::Proc* p = world.host(host).FindProc(pid);
        return p != nullptr && p->state == kernel::ProcState::kSleeping;
      },
      sim::Seconds(120));
  return pid;
}

// Live copies of the process whose pre-migration identity is (origin, pid):
// the unmigrated original still under that pid, or any migrant/revival
// carrying the identity. Exactly-once means this is 1 for every victim.
int CopiesOf(Testbed& world, const std::string& origin, int32_t pid) {
  int copies = 0;
  for (const auto& host : world.cluster().hosts()) {
    if (host->down()) continue;
    for (kernel::Proc* p : host->ListProcs()) {
      if (p->kind != kernel::ProcKind::kVm || !p->Alive()) continue;
      const bool original =
          host->hostname() == origin && p->pid == pid && p->old_pid == 0;
      const bool migrant = p->old_pid == pid && p->old_host == origin;
      if (original || migrant) ++copies;
    }
  }
  return copies;
}

// Dump-machinery and lease files left anywhere in the cluster.
int LeakedFiles(Testbed& world) {
  int leaked = 0;
  for (const auto& host : world.cluster().hosts()) {
    kernel::Kernel& k = *host;
    auto tmp = k.vfs().Resolve(k.vfs().RootState(), "/usr/tmp", vfs::Follow::kAll,
                               nullptr);
    if (tmp.ok()) {
      for (const auto& [name, inode] : tmp->inode->entries) {
        for (const char* prefix : {"a.out", "files", "stack", "ready", "claim"}) {
          if (name.rfind(prefix, 0) == 0) {
            ++leaked;
            break;
          }
        }
      }
    }
    if (k.vfs()
            .Resolve(k.vfs().RootState(), "/var/lease/placement", vfs::Follow::kAll,
                     nullptr)
            .ok()) {
      ++leaked;
    }
  }
  return leaked;
}

// One serial robust migration driven from a root native proc on `from`.
int MigrateOne(Testbed& world, net::Network* net, int32_t pid,
               const std::string& from, const std::string& to) {
  auto rc = std::make_shared<int>(-1);
  const int32_t mig = world.host(from).SpawnNative(
      "migrate",
      [rc, net, pid, from, to](kernel::SyscallApi& api) {
        *rc = core::Migrate(api, *net, pid, from, to, /*use_daemon=*/true,
                            core::MigrateOptions::Robust());
        return *rc;
      },
      kernel::SpawnOptions{});
  world.RunUntilExited(from, mig, sim::Seconds(600));
  return *rc;
}

void RunReaperPasses(Testbed& world, net::Network* net) {
  auto state = std::make_shared<apps::ReaperState>();
  for (int pass = 0; pass < 2; ++pass) {
    const int32_t rp = world.host("brick").SpawnNative(
        "preap",
        [net, state](kernel::SyscallApi& api) {
          apps::ReaperOptions ropts;
          ropts.grace = sim::Seconds(5);
          const apps::ReaperReport report =
              apps::ReapOrphans(api, *net, ropts, state.get());
          (void)report;
          return 0;
        },
        kernel::SpawnOptions{});
    world.RunUntilExited("brick", rp, sim::Seconds(600));
    world.cluster().RunFor(sim::Seconds(6));
  }
}

struct Outcome {
  int lost = 0;        // victims with no live copy at the end
  int duplicated = 0;  // victims with more than one live copy
  int leaked = 0;      // dump/claim/lease files left anywhere
  int64_t partitions_hit = 0;
  int64_t lease_acquired = 0;
  int64_t lease_contended = 0;
  int64_t revived = 0;
  Measurement m;
};

void FillCounters(Testbed& world, Outcome* out) {
  const sim::MetricsRegistry metrics = world.cluster().AggregateMetrics();
  out->partitions_hit = metrics.Counter("fault.injected.partition");
  out->lease_acquired = metrics.Counter("lease.acquired");
  out->lease_contended = metrics.Counter("lease.contended");
  out->revived = metrics.Counter("reaper.revived");
}

enum class PartitionMode { kActive, kInert, kOff };

// Scenario 1 (and the bit-identity pair): serial robust migrations out of
// brick while the links churn. kInert arms the injector with a partition whose
// window sits past the horizon; kOff leaves faults entirely off.
Outcome RunCutMigrations(PartitionMode mode) {
  TestbedOptions options;
  options.num_hosts = 3;  // brick, schooner, brador
  options.daemons = true;
  options.metrics = true;
  if (mode != PartitionMode::kOff) {
    options.faults.enabled = true;
    if (mode == PartitionMode::kActive) {
      sim::PartitionFault flap;
      flap.group_a = {"brick"};
      flap.group_b = {"schooner"};
      flap.begin = sim::Seconds(1);
      flap.heal = sim::Seconds(40);
      flap.flap_period = sim::Seconds(2);
      options.faults.partitions.push_back(flap);
      sim::PartitionFault island;
      island.group_a = {"brador"};
      island.begin = sim::Seconds(5);
      island.heal = sim::Seconds(25);
      options.faults.partitions.push_back(island);
    } else {
      sim::PartitionFault never;
      never.group_a = {"brick"};
      never.begin = sim::Seconds(100000);
      never.heal = sim::Seconds(100001);
      options.faults.partitions.push_back(never);
    }
  }
  Testbed world(options);
  core::InstallProgram(world.host("brick"), "/bin/ticker", kTickerSource);
  std::vector<int32_t> victims;
  for (int i = 0; i < 4; ++i) victims.push_back(StartQuiescedTicker(world, "brick"));

  net::Network* net = &world.cluster().network();
  const sim::Nanos cpu0 = world.cluster().TotalCpu();
  const sim::Nanos t0 = world.cluster().clock().now();
  const int64_t bytes0 = TotalBytesMoved(world);

  for (size_t i = 0; i < victims.size(); ++i) {
    const std::string target = (i % 2 == 0) ? "schooner" : "brador";
    const int rc = MigrateOne(world, net, victims[i], "brick", target);
    (void)rc;  // a failed or fallen-back leg is part of the scenario
  }
  world.cluster().context().faults.Disarm();  // heals whatever is still cut
  world.cluster().RunFor(sim::Seconds(10));
  RunReaperPasses(world, net);  // settle anything a cut leg abandoned

  Outcome out;
  out.m = Measurement{sim::ToMillis(world.cluster().TotalCpu() - cpu0),
                      sim::ToMillis(world.cluster().clock().now() - t0),
                      TotalBytesMoved(world) - bytes0};
  for (const int32_t pid : victims) {
    const int copies = CopiesOf(world, "brick", pid);
    if (copies == 0) ++out.lost;
    if (copies > 1) ++out.duplicated;
  }
  out.leaked = LeakedFiles(world);
  FillCounters(world, &out);
  return out;
}

// Scenario 2: two coordinators, on schooner and brador, evacuate brick at the
// same time. Leases keep them off each other's targets; the dump claims keep a
// doubly-attempted process from restarting twice.
Outcome RunSplitBrain(bool leases) {
  TestbedOptions options;
  options.num_hosts = 3;
  options.daemons = true;
  options.metrics = true;
  Testbed world(options);
  core::InstallProgram(world.host("brick"), "/bin/ticker", kTickerSource);
  std::vector<int32_t> victims;
  for (int i = 0; i < 4; ++i) victims.push_back(StartQuiescedTicker(world, "brick"));

  net::Network* net = &world.cluster().network();
  const sim::Nanos cpu0 = world.cluster().TotalCpu();
  const sim::Nanos t0 = world.cluster().clock().now();
  const int64_t bytes0 = TotalBytesMoved(world);

  std::vector<int32_t> coordinators;
  for (const std::string host : {"schooner", "brador"}) {
    coordinators.push_back(world.host(host).SpawnNative(
        "evacuator",
        [net, leases](kernel::SyscallApi& api) {
          const apps::EvacuationReport report = apps::EvacuateHost(
              api, *net, "brick", "", /*use_daemon=*/true,
              core::MigrateOptions::Robust(), apps::PlacementPolicy::kLoadOnly,
              /*health_threshold=*/1.0, /*lease_targets=*/leases);
          return report.Status();
        },
        kernel::SpawnOptions{}));
  }
  world.RunUntilExited("schooner", coordinators[0], sim::Seconds(600));
  world.RunUntilExited("brador", coordinators[1], sim::Seconds(600));
  world.cluster().RunFor(sim::Seconds(10));

  Outcome out;
  out.m = Measurement{sim::ToMillis(world.cluster().TotalCpu() - cpu0),
                      sim::ToMillis(world.cluster().clock().now() - t0),
                      TotalBytesMoved(world) - bytes0};
  for (const int32_t pid : victims) {
    const int copies = CopiesOf(world, "brick", pid);
    if (copies == 0) ++out.lost;
    if (copies > 1) ++out.duplicated;
  }
  out.leaked = LeakedFiles(world);
  FillCounters(world, &out);
  return out;
}

// Scenario 3: the reaper daemon runs through a flap. A dump set pre-orphaned
// on the flapping host (origin dead, coordinator gone) must be revived exactly
// once after the heal, while robust migrations keep flowing around it.
Outcome RunFlapWithReaperDaemon() {
  TestbedOptions options;
  options.num_hosts = 3;
  options.daemons = true;
  options.metrics = true;
  options.faults.enabled = true;
  sim::PartitionFault flap;
  flap.group_a = {"schooner"};
  flap.begin = sim::Seconds(2);
  flap.heal = sim::Seconds(20);
  flap.flap_period = sim::Seconds(2);
  options.faults.partitions.push_back(flap);
  Testbed world(options);
  for (const std::string host : {"brick", "schooner"}) {
    core::InstallProgram(world.host(host), "/bin/ticker", kTickerSource);
  }

  // The orphan: dumped transactionally on schooner before the flap starts,
  // then its coordinator never returns for it.
  const int32_t orphan = StartQuiescedTicker(world, "schooner");
  const int32_t dp = world.StartTool("schooner", "dumpproc",
                                     {"-p", std::to_string(orphan), "--tx"});
  world.RunUntilExited("schooner", dp, sim::Seconds(120));

  std::vector<int32_t> victims;
  for (int i = 0; i < 3; ++i) victims.push_back(StartQuiescedTicker(world, "brick"));

  net::Network* net = &world.cluster().network();
  const sim::Nanos cpu0 = world.cluster().TotalCpu();
  const sim::Nanos t0 = world.cluster().clock().now();
  const int64_t bytes0 = TotalBytesMoved(world);

  const int32_t reaper = world.host("brick").SpawnNative(
      "preapd",
      [net](kernel::SyscallApi& api) {
        apps::ReaperOptions ropts;
        ropts.grace = sim::Seconds(10);
        ropts.poll_interval = sim::Seconds(5);
        ropts.rounds = 12;
        return apps::ReaperDaemonMain(api, *net, ropts);
      },
      kernel::SpawnOptions{});

  for (const int32_t pid : victims) {
    const int rc = MigrateOne(world, net, pid, "brick", "schooner");
    (void)rc;  // a failed or fallen-back leg is part of the scenario
  }
  world.RunUntilExited("brick", reaper, sim::Seconds(600));
  world.cluster().context().faults.Disarm();
  world.cluster().RunFor(sim::Seconds(10));

  Outcome out;
  out.m = Measurement{sim::ToMillis(world.cluster().TotalCpu() - cpu0),
                      sim::ToMillis(world.cluster().clock().now() - t0),
                      TotalBytesMoved(world) - bytes0};
  for (const int32_t pid : victims) {
    const int copies = CopiesOf(world, "brick", pid);
    if (copies == 0) ++out.lost;
    if (copies > 1) ++out.duplicated;
  }
  const int orphan_copies = CopiesOf(world, "schooner", orphan);
  if (orphan_copies == 0) ++out.lost;
  if (orphan_copies > 1) ++out.duplicated;
  out.leaked = LeakedFiles(world);
  FillCounters(world, &out);
  return out;
}

}  // namespace
}  // namespace pmig::bench

int main(int argc, char** argv) {
  using namespace pmig::bench;
  const bool check = ParseBenchFlags(argc, argv, kCheckFlag).check;

  std::printf("\n=== Ablation: migrations and coordinators under partition ===\n");
  const Outcome cut = RunCutMigrations(PartitionMode::kActive);
  const Outcome sb_leased = RunSplitBrain(/*leases=*/true);
  const Outcome sb_bare = RunSplitBrain(/*leases=*/false);
  const Outcome flap = RunFlapWithReaperDaemon();
  std::printf("%-18s %5s %4s %7s %10s %9s %10s %8s\n", "case", "lost", "dup",
              "leaked", "part_hits", "leases", "contended", "revived");
  const auto print = [](const char* name, const Outcome& o) {
    std::printf("%-18s %5d %4d %7d %10lld %9lld %10lld %8lld\n", name, o.lost,
                o.duplicated, o.leaked, static_cast<long long>(o.partitions_hit),
                static_cast<long long>(o.lease_acquired),
                static_cast<long long>(o.lease_contended),
                static_cast<long long>(o.revived));
  };
  print("cut/robust", cut);
  print("splitbrain/leased", sb_leased);
  print("splitbrain/bare", sb_bare);
  print("flap/reaper", flap);

  std::printf("\n=== Bit-identity: armed-but-inert partitions vs faults off ===\n");
  const Outcome inert_armed = RunCutMigrations(PartitionMode::kInert);
  const Outcome inert_off = RunCutMigrations(PartitionMode::kOff);
  const bool identical = SameMeasurement(inert_armed.m, inert_off.m);
  std::printf("armed: cpu=%.3fms real=%.3fms bytes=%lld\n", inert_armed.m.cpu_ms,
              inert_armed.m.real_ms,
              static_cast<long long>(inert_armed.m.bytes_moved));
  std::printf("off:   cpu=%.3fms real=%.3fms bytes=%lld  -> %s\n",
              inert_off.m.cpu_ms, inert_off.m.real_ms,
              static_cast<long long>(inert_off.m.bytes_moved),
              identical ? "identical" : "DIVERGED");

  std::vector<Row> rows;
  rows.push_back({"cut/robust", cut.m, "exactly-once through the cut"});
  rows.push_back({"splitbrain/leased", sb_leased.m, "leases serialise targets"});
  rows.push_back({"splitbrain/bare", sb_bare.m, "claims alone"});
  rows.push_back({"flap/reaper", flap.m, "orphan revived post-heal"});
  rows.push_back({"inert/armed", inert_armed.m, "bit-identical to off"});
  rows.push_back({"inert/off", inert_off.m, "reference"});
  WriteBenchJson("ablation_partition", rows);

  if (check) {
    bool ok = true;
    const auto require = [&ok](bool cond, const char* what) {
      if (!cond) {
        std::printf("check: FAIL %s\n", what);
        ok = false;
      }
    };
    require(cut.lost == 0, "cut scenario lost a process");
    require(cut.duplicated == 0, "cut scenario duplicated a process");
    require(cut.leaked == 0, "cut scenario leaked dump/claim/lease files");
    require(cut.partitions_hit > 0, "cut scenario never hit a partition");
    require(sb_leased.lost == 0, "leased split-brain lost a process");
    require(sb_leased.duplicated == 0, "leased split-brain duplicated a process");
    require(sb_leased.leaked == 0, "leased split-brain leaked files");
    require(sb_leased.lease_acquired > 0, "leased split-brain never took a lease");
    require(sb_bare.lost == 0, "bare split-brain lost a process");
    require(sb_bare.duplicated == 0, "bare split-brain duplicated a process");
    require(flap.lost == 0, "flap scenario lost a process");
    require(flap.duplicated == 0, "flap scenario duplicated a process");
    require(flap.leaked == 0, "flap scenario leaked files");
    require(flap.revived >= 1, "reaper daemon never revived the orphan");
    require(identical, "armed-but-inert partition config perturbed the run");
    std::printf("check: %s\n", ok ? "ok" : "REGRESSION");
    return ok ? 0 : 1;
  }
  return 0;
}
