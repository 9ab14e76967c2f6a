// Chaos soak: many migrations under a randomized-but-seeded fault schedule.
//
// The invariant is the PR's contract — a migration pipeline that never loses a
// process. Whatever the injected faults do to an individual migrate command
// (retry, fall back, give up), every victim must end the run alive on *some*
// host, and no dump files may be left behind. And because every fault is drawn
// from a seeded RNG over virtual time, the entire run — final clock value,
// every counter, every per-migration exit code — must replay bit-identically
// for the same seed.

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/apps/recovery.h"
#include "src/core/dump_format.h"
#include "src/core/test_programs.h"
#include "src/core/tools.h"
#include "tests/test_util.h"

namespace pmig {
namespace {

using kernel::SyscallApi;
using test::kUserUid;
using test::World;

constexpr int kVictims = 8;

// The soak victim: a daemon-style program that sleeps in a loop forever. Unlike
// /bin/counter it never reads stdin, so a restart that lands it on /dev/null
// stdio (a remote restart has no terminal) does not make it exit — the victim
// stays alive indefinitely on whichever host it ends up on, which is exactly
// the property the soak's conservation invariant counts.
constexpr std::string_view kTickerSource = R"(
        .text
start:
loop:   movi r0, 2
        sys  SYS_sleep
        jmp  loop
)";

int CountAliveVms(World& world, const std::string& host) {
  int alive = 0;
  for (kernel::Proc* p : world.host(host).ListProcs()) {
    if (p->kind == kernel::ProcKind::kVm && p->Alive()) ++alive;
  }
  return alive;
}

// Names of dump-machinery files left in a host's /usr/tmp.
std::vector<std::string> OrphanedDumpFiles(World& world, const std::string& host) {
  std::vector<std::string> orphans;
  kernel::Kernel& k = world.host(host);
  auto r = k.vfs().Resolve(k.vfs().RootState(), "/usr/tmp", vfs::Follow::kAll, nullptr);
  if (!r.ok()) return orphans;
  for (const auto& [name, inode] : r->inode->entries) {
    for (const char* prefix : {"a.out", "files", "stack", "ready", "claim"}) {
      if (name.rfind(prefix, 0) == 0) {
        orphans.push_back(host + ":" + name);
        break;
      }
    }
  }
  return orphans;
}

// One full soak run. Returns a fingerprint covering everything observable:
// the final virtual clock, each migration's exit code, the per-host survivor
// counts, and every aggregated metric counter. Two runs with the same seed
// must produce the same string.
std::string RunChaos(uint64_t seed, bool with_partitions = false) {
  test::WorldOptions options;
  options.num_hosts = 3;  // brick, schooner, brador
  options.metrics = true;
  options.spans = true;
  options.flight_recorder = true;
  options.faults.enabled = true;
  options.faults.seed = seed;
  options.faults.net_send_failure_rate = 0.25;
  options.faults.dump_corruption_rate = 0.15;
  options.faults.crashes.push_back({"schooner", sim::Seconds(8), sim::Seconds(20)});
  if (with_partitions) {
    // On top of the crash/loss schedule: brador becomes an island for nearly a
    // minute in the middle of the migration phase (the serial legs run out to
    // ~130 s virtual), and then the brick->schooner direction flaps. Disarm()
    // heals whatever is still cut when the drain begins, so the post-heal
    // reaper passes settle everything the partitions orphaned.
    sim::PartitionFault island;
    island.group_a = {"brador"};
    island.begin = sim::Seconds(20);
    island.heal = sim::Seconds(70);
    options.faults.partitions.push_back(island);
    sim::PartitionFault flap;
    flap.group_a = {"brick"};
    flap.group_b = {"schooner"};
    flap.begin = sim::Seconds(70);
    flap.heal = sim::Seconds(140);
    flap.one_way = true;
    flap.flap_period = sim::Seconds(2);
    options.faults.partitions.push_back(flap);
  }
  World world(options);

  core::InstallProgram(world.host("brick"), "/bin/ticker", kTickerSource);
  std::vector<int32_t> victims;
  for (int i = 0; i < kVictims; ++i) {
    const int32_t pid = world.StartVm("brick", "/bin/ticker");
    EXPECT_GT(pid, 0);
    victims.push_back(pid);
  }
  for (const int32_t pid : victims) {
    // Quiesced for a ticker means asleep in its loop (kSleeping, not kBlocked —
    // there is no terminal read to block on).
    EXPECT_TRUE(world.cluster().RunUntil(
        [&world, pid] {
          const kernel::Proc* p = world.host("brick").FindProc(pid);
          return p != nullptr && p->state == kernel::ProcState::kSleeping;
        },
        sim::Seconds(120)));
  }

  net::Network* net = &world.cluster().network();
  std::ostringstream fp;
  int failed_legs = 0;
  for (int i = 0; i < kVictims; ++i) {
    const int32_t pid = victims[static_cast<size_t>(i)];
    const std::string target = (i % 2 == 0) ? "schooner" : "brador";
    auto rc = std::make_shared<int>(-1);
    kernel::SpawnOptions opts;
    opts.creds = {kUserUid, 10, kUserUid, 10};
    const int32_t mig = world.host("brick").SpawnNative(
        "migrate",
        [rc, net, pid, target](SyscallApi& api) {
          *rc = core::Migrate(api, *net, pid, "brick", target,
                              /*use_daemon=*/false, core::MigrateOptions::Robust());
          return *rc;
        },
        opts);
    EXPECT_TRUE(world.RunUntilExited("brick", mig, sim::Seconds(600)));
    if (*rc != core::kToolOk) ++failed_legs;
    fp << "rc" << i << "=" << *rc << ";";
  }

  // Fault phase over: stop injecting and let everything in flight settle —
  // well past schooner's scheduled recovery, so frozen processes thaw.
  world.cluster().context().faults.Disarm();
  world.cluster().RunFor(sim::Seconds(40));

  if (with_partitions) {
    // The healed cluster runs reaper passes: every dump set a partition
    // orphaned must be settled — revived if its process died with it,
    // collected if a survivor runs elsewhere — before the leak scan below.
    // Two stateful passes a grace period apart so incomplete debris ages out.
    auto reap_state = std::make_shared<apps::ReaperState>();
    auto reaper_pass = [&world, net, reap_state] {
      const int32_t rp = world.host("brick").SpawnNative(
          "preap",
          [net, reap_state](SyscallApi& api) {
            apps::ReaperOptions ropts;
            ropts.grace = sim::Seconds(5);
            ropts.use_daemon = false;
            const apps::ReaperReport report =
                apps::ReapOrphans(api, *net, ropts, reap_state.get());
            (void)report;
            return 0;
          },
          kernel::SpawnOptions{});
      EXPECT_TRUE(world.RunUntilExited("brick", rp, sim::Seconds(600)));
    };
    reaper_pass();
    world.cluster().RunFor(sim::Seconds(6));
    reaper_pass();
    world.cluster().RunFor(sim::Seconds(10));
  }

  int total_alive = 0;
  for (const std::string host : {"brick", "schooner", "brador"}) {
    const int alive = CountAliveVms(world, host);
    total_alive += alive;
    fp << host << "=" << alive << ";";
    for (const std::string& orphan : OrphanedDumpFiles(world, host)) {
      ADD_FAILURE() << "seed " << seed << ": orphaned dump file " << orphan;
    }
    if (with_partitions) {
      EXPECT_FALSE(world.FileExists(host, "/var/lease/placement"))
          << "seed " << seed << ": leaked placement lease on " << host;
    }
  }
  EXPECT_EQ(total_alive, kVictims) << "seed " << seed << " lost a process";

  if (with_partitions) {
    // Exactly-once across the heal: every victim exists exactly once — either
    // still under its original identity on brick, or as the one migrant/revival
    // carrying that identity. Two copies would mean a fallback restart AND a
    // reaper resurrection of the same dump set.
    for (const int32_t pid : victims) {
      int copies = 0;
      for (const std::string host : {"brick", "schooner", "brador"}) {
        for (kernel::Proc* p : world.host(host).ListProcs()) {
          if (p->kind != kernel::ProcKind::kVm || !p->Alive()) continue;
          const bool original = host == "brick" && p->pid == pid && p->old_pid == 0;
          const bool migrant = p->old_pid == pid && p->old_host == "brick";
          if (original || migrant) ++copies;
        }
      }
      EXPECT_EQ(copies, 1) << "seed " << seed << ": victim " << pid << " exists "
                           << copies << " times";
    }
  }

  // Every migrate leg that failed or fell back must have left a flight-recorder
  // post-mortem (the kernel may add more for aborted dumps), each tagged with a
  // trace id and a failing phase. The count is part of the replay fingerprint.
  const auto& postmortems = world.cluster().context().flight_recorder.postmortems();
  EXPECT_GE(static_cast<int>(postmortems.size()), failed_legs)
      << "seed " << seed << ": a failed migrate left no post-mortem";
  for (const auto& pm : postmortems) {
    EXPECT_NE(pm.reason.find("phase="), std::string::npos) << pm.reason;
  }
  fp << "pm=" << postmortems.size() << ";";

  fp << "t=" << world.cluster().clock().now() << ";";
  const sim::MetricsRegistry metrics = world.cluster().AggregateMetrics();
  for (const auto& [name, value] : metrics.counters()) {
    fp << name << "=" << value << ";";
  }
  // A soak that injected nothing proves nothing: the schedule must actually
  // have bitten at least once for the invariants above to mean anything.
  const int64_t injected = metrics.Counter("fault.injected.net_send") +
                           metrics.Counter("fault.injected.nfs_io") +
                           metrics.Counter("fault.injected.disk_full") +
                           metrics.Counter("fault.injected.dump_corrupt");
  EXPECT_GT(injected, 0) << "seed " << seed << " injected no faults";
  if (with_partitions) {
    EXPECT_GT(metrics.Counter("fault.injected.partition"), 0)
        << "seed " << seed << " never cut a link";
  }
  return fp.str();
}

// Replaying within one build only shows that a soak is deterministic; a change
// that moves a fault-path number would still replay. So every soak must also
// equal its committed fingerprint: tests/chaos_fingerprints.txt holds one
// "<suite>/<seed> <fingerprint>" line per soak ('#' lines are comments). On a
// mismatch the failure prints the fresh line; a change that moves a soak on
// purpose copies it over the old one.
void ExpectGoldenFingerprint(const std::string& suite, uint64_t seed,
                             const std::string& fingerprint) {
  const std::string key = suite + "/" + std::to_string(seed) + " ";
  std::ifstream golden(PMIG_CHAOS_GOLDEN);
  ASSERT_TRUE(golden.is_open()) << "cannot read " << PMIG_CHAOS_GOLDEN;
  std::string line;
  std::string committed;
  while (std::getline(golden, line)) {
    if (line.rfind(key, 0) == 0) committed = line.substr(key.size());
  }
  EXPECT_EQ(committed, fingerprint) << "fresh line for " << PMIG_CHAOS_GOLDEN << ":\n"
                                    << key << fingerprint;
}

class ChaosSoak : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChaosSoak, NoProcessLostAndDeterministicReplay) {
  const uint64_t seed = GetParam();
  const std::string first = RunChaos(seed);
  const std::string second = RunChaos(seed);
  EXPECT_EQ(first, second) << "seed " << seed << " did not replay deterministically";
  ExpectGoldenFingerprint("ChaosSoak", seed, first);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosSoak, ::testing::Values(1u, 2u, 3u));

// The same soak with network partitions layered over the fault schedule: an
// island, a flapping one-way link, the crash, and the packet loss all at once.
// Same contract — nothing lost, nothing duplicated, nothing leaked, and the
// whole run (including the post-heal reaper passes) replays bit-identically.
class PartitionChaosSoak : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PartitionChaosSoak, NothingLostNothingDuplicatedDeterministicReplay) {
  const uint64_t seed = GetParam();
  const std::string first = RunChaos(seed, /*with_partitions=*/true);
  const std::string second = RunChaos(seed, /*with_partitions=*/true);
  EXPECT_EQ(first, second) << "seed " << seed << " did not replay deterministically";
  ExpectGoldenFingerprint("PartitionChaosSoak", seed, first);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartitionChaosSoak, ::testing::Values(1u, 2u, 3u));

}  // namespace
}  // namespace pmig
