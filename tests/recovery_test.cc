// Partition-tolerant recovery: placement leases and the orphan dump-set reaper.
//
// The lease tests pin the protocol itself — acquire, contend, release, break on
// expiry, fail cleanly across a partition — and the evacuation's re-pick past
// a contended target. The reaper tests pin each decision of its state machine
// (origin-alive, young, incomplete aging, consumed, holder-unreachable,
// break-contended, revive) and above all the exactly-once rule: a healed
// partition yields exactly one copy of the process, never a fallback restart
// *and* a reaper resurrection.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/apps/evacuate.h"
#include "src/apps/recovery.h"
#include "src/core/dump_format.h"
#include "src/core/test_programs.h"
#include "src/core/tools.h"
#include "tests/test_util.h"
#include "src/vm/abi.h"

namespace pmig {
namespace {

using kernel::SyscallApi;
using test::World;
using vm::abi::OpenFlags;

// Same daemon-style victim as the chaos soak: sleeps in a loop forever, so it
// stays alive wherever a restart lands it.
constexpr std::string_view kTickerSource = R"(
        .text
start:
loop:   movi r0, 2
        sys  SYS_sleep
        jmp  loop
)";

// Runs `fn` as a root native process on `host` and waits for it to exit.
int RunNative(World& world, const std::string& host,
              std::function<int(SyscallApi&)> fn) {
  auto rc = std::make_shared<int>(-999);
  const int32_t pid = world.host(host).SpawnNative(
      "test-native", [rc, fn](SyscallApi& api) { return *rc = fn(api); },
      kernel::SpawnOptions{});
  EXPECT_TRUE(world.RunUntilExited(host, pid, sim::Seconds(600)));
  return *rc;
}

// Starts a ticker on `host`, quiesces it, and dumps it with `dumpproc --tx`,
// leaving a complete (ready-marked) dump set and a dead origin process.
int32_t MakeOrphanedDumpSet(World& world, const std::string& host) {
  core::InstallProgram(world.host(host), "/bin/ticker", kTickerSource);
  const int32_t pid = world.StartVm(host, "/bin/ticker");
  EXPECT_GT(pid, 0);
  EXPECT_TRUE(world.cluster().RunUntil(
      [&world, &host, pid] {
        const kernel::Proc* p = world.host(host).FindProc(pid);
        return p != nullptr && p->state == kernel::ProcState::kSleeping;
      },
      sim::Seconds(120)));
  const int32_t dp =
      world.StartTool(host, "dumpproc", {"-p", std::to_string(pid), "--tx"});
  EXPECT_TRUE(world.RunUntilExited(host, dp, sim::Seconds(120)));
  EXPECT_EQ(world.ExitInfoOf(host, dp).exit_code, core::kToolOk);
  const core::DumpPaths paths = core::DumpPaths::For(pid);
  EXPECT_TRUE(world.FileExists(host, paths.ready));
  return pid;
}

// The one live VM process anywhere whose pre-migration identity is
// (dump_host, pid); nullptr when none (or more than one — that is a bug).
kernel::Proc* FindSurvivor(World& world, const std::string& dump_host,
                           int32_t pid) {
  kernel::Proc* found = nullptr;
  int copies = 0;
  for (const auto& host : world.cluster().hosts()) {
    for (kernel::Proc* p : host->ListProcs()) {
      if (p->kind != kernel::ProcKind::kVm || !p->Alive()) continue;
      if (p->old_pid == pid && p->old_host == dump_host) {
        found = p;
        ++copies;
      }
    }
  }
  EXPECT_LE(copies, 1) << "process " << pid << "@" << dump_host
                       << " restarted more than once";
  return copies == 1 ? found : nullptr;
}

bool DumpSetGone(World& world, const std::string& host, int32_t pid) {
  const core::DumpPaths paths = core::DumpPaths::For(pid);
  for (const std::string* p : {&paths.aout, &paths.files, &paths.stack,
                               &paths.ready, &paths.claim}) {
    if (world.FileExists(host, *p)) return false;
  }
  return true;
}

TEST(PlacementLeaseTest, AcquireContendRelease) {
  test::WorldOptions options;
  options.num_hosts = 3;
  options.metrics = true;
  World world(options);
  net::Network* net = &world.cluster().network();

  auto brick_lease = std::make_shared<apps::PlacementLease>();
  RunNative(world, "brick", [net, brick_lease](SyscallApi& api) {
    const Result<apps::PlacementLease> r =
        apps::AcquirePlacementLease(api, *net, "schooner");
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(r->held);
    EXPECT_EQ(r->holder, "brick");
    *brick_lease = *r;
    return 0;
  });
  EXPECT_TRUE(world.FileExists("schooner", "/var/lease/placement"));

  // A second coordinator finds the lease held and learns who holds it.
  RunNative(world, "brador", [net](SyscallApi& api) {
    const Result<apps::PlacementLease> r =
        apps::AcquirePlacementLease(api, *net, "schooner");
    EXPECT_TRUE(r.ok());
    EXPECT_FALSE(r->held);
    EXPECT_EQ(r->holder, "brick");
    return 0;
  });

  // The holder releases; the target frees up.
  RunNative(world, "brick", [brick_lease](SyscallApi& api) {
    apps::ReleasePlacementLease(api, *brick_lease);
    return 0;
  });
  EXPECT_FALSE(world.FileExists("schooner", "/var/lease/placement"));

  const sim::MetricsRegistry metrics = world.cluster().AggregateMetrics();
  EXPECT_EQ(metrics.Counter("lease.acquired"), 1);
  EXPECT_EQ(metrics.Counter("lease.contended"), 1);
  EXPECT_EQ(metrics.Counter("lease.released"), 1);
}

TEST(PlacementLeaseTest, ExpiredLeaseIsBrokenAndOldHolderLearns) {
  test::WorldOptions options;
  options.num_hosts = 3;
  options.metrics = true;
  World world(options);
  net::Network* net = &world.cluster().network();

  auto stale = std::make_shared<apps::PlacementLease>();
  RunNative(world, "brick", [net, stale](SyscallApi& api) {
    const sim::Nanos t0 = api.Now();
    const Result<apps::PlacementLease> r =
        apps::AcquirePlacementLease(api, *net, "schooner");
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(r->held);
    // Stamped kLeaseTtl past the instant of its exclusive create.
    EXPECT_GE(r->expires, t0 + apps::kLeaseTtl);
    EXPECT_LE(r->expires, api.Now() + apps::kLeaseTtl);
    *stale = *r;
    return 0;
  });
  world.cluster().RunFor(apps::kLeaseTtl + sim::Seconds(5));  // let it expire

  // A newcomer breaks the expired lease and takes it.
  RunNative(world, "brador", [net](SyscallApi& api) {
    const Result<apps::PlacementLease> r =
        apps::AcquirePlacementLease(api, *net, "schooner");
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(r->held);
    EXPECT_EQ(r->holder, "brador");
    return 0;
  });

  // The original holder still thinks it holds the lease, but its release must
  // not unlink the new holder's.
  RunNative(world, "brick", [stale](SyscallApi& api) {
    EXPECT_TRUE(stale->held);
    apps::ReleasePlacementLease(api, *stale);
    return 0;
  });
  EXPECT_TRUE(world.FileExists("schooner", "/var/lease/placement"));

  const sim::MetricsRegistry metrics = world.cluster().AggregateMetrics();
  EXPECT_EQ(metrics.Counter("lease.broken"), 1);
  EXPECT_EQ(metrics.Counter("lease.acquired"), 2);
  EXPECT_EQ(metrics.Counter("lease.released"), 0);
}

TEST(PlacementLeaseTest, PartitionedTargetFailsCleanlyAndHealedSucceeds) {
  test::WorldOptions options;
  options.num_hosts = 3;
  options.metrics = true;
  options.faults.enabled = true;
  sim::PartitionFault cut;
  cut.group_a = {"brick"};
  cut.group_b = {"schooner"};
  cut.begin = 0;
  cut.heal = sim::Seconds(60);
  options.faults.partitions.push_back(cut);
  World world(options);
  net::Network* net = &world.cluster().network();

  // Cut off from the target: the acquisition fails with an Errno (the
  // coordinator abandons cleanly), never a wedge, never a half-made lease.
  RunNative(world, "brick", [net](SyscallApi& api) {
    const Result<apps::PlacementLease> r =
        apps::AcquirePlacementLease(api, *net, "schooner");
    EXPECT_FALSE(r.ok());
    return 0;
  });
  EXPECT_FALSE(world.FileExists("schooner", "/var/lease/placement"));
  EXPECT_GT(world.cluster().AggregateMetrics().Counter("fault.injected.partition"), 0);

  // After the heal the same call just works.
  world.cluster().RunFor(sim::Seconds(61));
  RunNative(world, "brick", [net](SyscallApi& api) {
    const Result<apps::PlacementLease> r =
        apps::AcquirePlacementLease(api, *net, "schooner");
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(r->held);
    return 0;
  });
  EXPECT_TRUE(world.FileExists("schooner", "/var/lease/placement"));
}

// An evacuation with lease_targets re-picks past a target another coordinator
// holds: the engine's first choice, schooner, is leased by brador, so the
// process goes to brador under brick's own lease, which it gives back.
TEST(PlacementLeaseTest, EvacuationRepicksPastAContendedTarget) {
  test::WorldOptions options;
  options.num_hosts = 3;
  options.metrics = true;
  options.daemons = true;
  options.decision_log = true;
  World world(options);
  net::Network* net = &world.cluster().network();

  core::InstallProgram(world.host("brick"), "/bin/ticker", kTickerSource);
  const int32_t pid = world.StartVm("brick", "/bin/ticker");
  ASSERT_GT(pid, 0);
  RunNative(world, "brador", [net](SyscallApi& api) {
    const Result<apps::PlacementLease> r =
        apps::AcquirePlacementLease(api, *net, "schooner");
    EXPECT_TRUE(r.ok() && r->held);
    return 0;
  });

  auto report = std::make_shared<apps::EvacuationReport>();
  RunNative(world, "brick", [net, report](SyscallApi& api) {
    *report = apps::EvacuateHost(api, *net, "brick", /*to_host=*/"",
                                 /*use_daemon=*/true, core::MigrateOptions{},
                                 apps::PlacementPolicy::kLoadOnly,
                                 /*health_threshold=*/1.0, /*lease_targets=*/true);
    return 0;
  });
  ASSERT_EQ(report->moved.size(), 1u);
  EXPECT_EQ(report->moved[0], pid);
  EXPECT_EQ(report->lease_conflicts, 1);
  EXPECT_EQ(report->Status(), apps::kEvacuateOk);

  std::vector<const sim::DecisionRecord*> picks;
  for (const sim::DecisionRecord& r : world.cluster().context().decision_log.records()) {
    if (r.context == "evacuation") picks.push_back(&r);
  }
  ASSERT_EQ(picks.size(), 2u);
  EXPECT_EQ(picks[0]->chosen, "schooner");
  EXPECT_EQ(picks[1]->chosen, "brador");
  ASSERT_EQ(picks[1]->exclusions.size(), 1u);
  EXPECT_EQ(picks[1]->exclusions[0].host, "schooner");
  EXPECT_EQ(picks[1]->exclusions[0].reason, "lease-contended");
  EXPECT_EQ(picks[1]->outcome_rc, 0);

  kernel::Proc* moved = FindSurvivor(world, "brick", pid);
  ASSERT_NE(moved, nullptr);
  EXPECT_EQ(moved, world.host("brador").FindProc(moved->pid));
  EXPECT_FALSE(world.FileExists("brador", "/var/lease/placement"));
  EXPECT_EQ(core::ParseDumpMarker(world.FileContents("schooner", "/var/lease/placement")).host,
            "brador");
}

TEST(ReaperTest, RevivesOrphanedReadySet) {
  test::WorldOptions options;
  options.num_hosts = 3;
  options.metrics = true;
  options.daemons = true;
  World world(options);
  net::Network* net = &world.cluster().network();

  const int32_t pid = MakeOrphanedDumpSet(world, "schooner");
  world.cluster().RunFor(sim::Seconds(70));  // past the default 60 s grace

  auto report = std::make_shared<apps::ReaperReport>();
  RunNative(world, "brick", [net, report](SyscallApi& api) {
    *report = apps::ReapOrphans(api, *net);
    return 0;
  });
  ASSERT_EQ(report->revived.size(), 1u);
  EXPECT_EQ(report->revived[0], pid);
  EXPECT_NE(report->log.find("revived"), std::string::npos) << report->log;

  world.cluster().RunFor(sim::Seconds(5));
  kernel::Proc* survivor = FindSurvivor(world, "schooner", pid);
  ASSERT_NE(survivor, nullptr) << "revived process not running anywhere";
  EXPECT_TRUE(DumpSetGone(world, "schooner", pid));
  // The revive leased its restart target and cleaned up after itself.
  for (const std::string host : {"brick", "schooner", "brador"}) {
    EXPECT_FALSE(world.FileExists(host, "/var/lease/placement")) << host;
  }
  const sim::MetricsRegistry metrics = world.cluster().AggregateMetrics();
  EXPECT_EQ(metrics.Counter("reaper.revived"), 1);
}

TEST(ReaperTest, LeavesLiveOriginsAndYoungSetsAlone) {
  test::WorldOptions options;
  options.num_hosts = 2;
  options.metrics = true;
  World world(options);
  net::Network* net = &world.cluster().network();

  // A fresh complete set: dead origin, but the marker is younger than grace —
  // its coordinator may still be mid-transaction.
  const int32_t pid = MakeOrphanedDumpSet(world, "schooner");

  // A dump-set file for a pid that is alive: a dump landing right now.
  core::InstallProgram(world.host("brick"), "/bin/ticker", kTickerSource);
  const int32_t live = world.StartVm("brick", "/bin/ticker");
  ASSERT_GT(live, 0);
  world.cluster().RunFor(sim::Millis(100));
  RunNative(world, "brick", [live](SyscallApi& api) {
    const Result<int> fd =
        api.Open(core::DumpPaths::For(live).aout,
                 OpenFlags::kOWrOnly | OpenFlags::kOCreat, 0644);
    EXPECT_TRUE(fd.ok());
    return api.Close(*fd).ok() ? 0 : 1;
  });

  auto report = std::make_shared<apps::ReaperReport>();
  RunNative(world, "brick", [net, report](SyscallApi& api) {
    *report = apps::ReapOrphans(api, *net);
    return 0;
  });
  EXPECT_EQ(report->scanned, 2);
  EXPECT_TRUE(report->revived.empty());
  EXPECT_TRUE(report->collected.empty());
  EXPECT_NE(report->log.find(std::to_string(live) + "@brick:origin-alive"),
            std::string::npos)
      << report->log;
  EXPECT_NE(report->log.find(std::to_string(pid) + "@schooner:young"),
            std::string::npos)
      << report->log;
  EXPECT_FALSE(DumpSetGone(world, "schooner", pid));
}

TEST(ReaperTest, IncompleteSetsAgeAcrossPassesBeforeCollection) {
  test::WorldOptions options;
  options.num_hosts = 2;
  options.metrics = true;
  World world(options);
  net::Network* net = &world.cluster().network();

  // Half-written debris: an a.out with no ready marker, for a pid nobody has.
  const int32_t pid = 777;
  RunNative(world, "schooner", [pid](SyscallApi& api) {
    const Result<int> fd =
        api.Open(core::DumpPaths::For(pid).aout,
                 OpenFlags::kOWrOnly | OpenFlags::kOCreat, 0644);
    EXPECT_TRUE(fd.ok());
    return api.Close(*fd).ok() ? 0 : 1;
  });

  apps::ReaperOptions ropts;
  ropts.grace = sim::Seconds(10);
  ropts.use_daemon = false;
  auto state = std::make_shared<apps::ReaperState>();
  auto report = std::make_shared<apps::ReaperReport>();
  auto pass = [&world, net, ropts, state, report](bool with_state) {
    RunNative(world, "brick", [net, ropts, state, report, with_state](SyscallApi& api) {
      *report = apps::ReapOrphans(api, *net, ropts,
                                  with_state ? state.get() : nullptr);
      return 0;
    });
  };

  // One-shot (stateless) passes must never touch an incomplete set.
  pass(/*with_state=*/false);
  EXPECT_NE(report->log.find("incomplete;"), std::string::npos) << report->log;
  EXPECT_TRUE(world.FileExists("schooner", core::DumpPaths::For(pid).aout));

  // Stateful passes age it: first-seen, still young, then debris.
  pass(/*with_state=*/true);
  EXPECT_NE(report->log.find("incomplete-first-seen"), std::string::npos);
  world.cluster().RunFor(sim::Seconds(4));
  pass(/*with_state=*/true);
  EXPECT_NE(report->log.find("incomplete-young"), std::string::npos);
  EXPECT_TRUE(world.FileExists("schooner", core::DumpPaths::For(pid).aout));
  world.cluster().RunFor(sim::Seconds(10));
  pass(/*with_state=*/true);
  EXPECT_NE(report->log.find("debris"), std::string::npos) << report->log;
  EXPECT_FALSE(world.FileExists("schooner", core::DumpPaths::For(pid).aout));
  EXPECT_EQ(world.cluster().AggregateMetrics().Counter("reaper.collected"), 1);
}

TEST(ReaperTest, CollectsSetWhoseSurvivorRunsElsewhere) {
  test::WorldOptions options;
  options.num_hosts = 3;
  options.metrics = true;
  World world(options);
  net::Network* net = &world.cluster().network();

  const int32_t pid = MakeOrphanedDumpSet(world, "schooner");

  // Fake the consumed state: a live process on brador carrying the dump's
  // pre-migration identity (as a committed restart would have left it).
  core::InstallProgram(world.host("brador"), "/bin/ticker", kTickerSource);
  const int32_t survivor = world.StartVm("brador", "/bin/ticker");
  ASSERT_GT(survivor, 0);
  world.cluster().RunFor(sim::Millis(100));
  kernel::Proc* sp = world.host("brador").FindProc(survivor);
  ASSERT_NE(sp, nullptr);
  sp->old_pid = pid;
  sp->old_host = "schooner";

  world.cluster().RunFor(sim::Seconds(70));
  auto report = std::make_shared<apps::ReaperReport>();
  RunNative(world, "brick", [net, report](SyscallApi& api) {
    *report = apps::ReapOrphans(api, *net);
    return 0;
  });
  ASSERT_EQ(report->collected.size(), 1u);
  EXPECT_EQ(report->collected[0], pid);
  EXPECT_NE(report->log.find("consumed"), std::string::npos) << report->log;
  EXPECT_TRUE(DumpSetGone(world, "schooner", pid));
  // The survivor itself is untouched.
  kernel::Proc* still = world.host("brador").FindProc(survivor);
  ASSERT_NE(still, nullptr);
  EXPECT_TRUE(still->Alive());
  EXPECT_EQ(world.cluster().AggregateMetrics().Counter("reaper.collected"), 1);
}

// THE exactly-once test: a claimed dump set whose claim holder sits on the far
// side of a partition is untouchable — the holder may be running the process
// over there. Only after the heal, with the holder observable and no survivor
// in sight, does the reaper break the stale claim and revive — exactly once.
TEST(ReaperTest, ClaimedSetWaitsForPartitionHealThenRevivesOnce) {
  test::WorldOptions options;
  options.num_hosts = 3;
  options.metrics = true;
  options.faults.enabled = true;
  sim::PartitionFault island;
  island.group_a = {"brador"};  // the claim holder, cut off from everyone
  island.begin = 0;
  island.heal = sim::Seconds(100);
  options.faults.partitions.push_back(island);
  World world(options);
  net::Network* net = &world.cluster().network();

  const int32_t pid = MakeOrphanedDumpSet(world, "schooner");
  // Stamp a claim naming the partitioned host, as if brador claimed the set
  // and then vanished behind the cut mid-restart.
  RunNative(world, "schooner", [pid](SyscallApi& api) {
    const Result<int> fd =
        api.Open(core::DumpPaths::For(pid).claim,
                 OpenFlags::kOWrOnly | OpenFlags::kOCreat, 0644);
    EXPECT_TRUE(fd.ok());
    const Result<int64_t> n =
        api.Write(*fd, core::FormatClaimMarker("brador", api.Now()));
    EXPECT_TRUE(n.ok());
    return api.Close(*fd).ok() ? 0 : 1;
  });

  apps::ReaperOptions ropts;
  ropts.grace = sim::Seconds(30);
  ropts.use_daemon = false;

  // Pass 1, mid-partition: everything is stale, but the holder is unreachable.
  world.cluster().RunFor(sim::Seconds(70));
  auto report = std::make_shared<apps::ReaperReport>();
  RunNative(world, "brick", [net, ropts, report](SyscallApi& api) {
    *report = apps::ReapOrphans(api, *net, ropts);
    return 0;
  });
  EXPECT_TRUE(report->revived.empty());
  EXPECT_TRUE(report->collected.empty());
  EXPECT_NE(report->log.find("holder-unreachable"), std::string::npos)
      << report->log;
  EXPECT_FALSE(DumpSetGone(world, "schooner", pid));
  EXPECT_EQ(world.cluster().AggregateMetrics().Counter("reaper.claims_broken"), 0);

  // Pass 2, healed: the holder is observable, no survivor exists — the
  // claimant died before committing. Break the claim and revive.
  world.cluster().RunFor(sim::Seconds(40));
  RunNative(world, "brick", [net, ropts, report](SyscallApi& api) {
    *report = apps::ReapOrphans(api, *net, ropts);
    return 0;
  });
  ASSERT_EQ(report->revived.size(), 1u);
  EXPECT_EQ(report->revived[0], pid);

  world.cluster().RunFor(sim::Seconds(5));
  EXPECT_NE(FindSurvivor(world, "schooner", pid), nullptr);
  EXPECT_TRUE(DumpSetGone(world, "schooner", pid));
  const sim::MetricsRegistry metrics = world.cluster().AggregateMetrics();
  EXPECT_EQ(metrics.Counter("reaper.claims_broken"), 1);
  EXPECT_EQ(metrics.Counter("reaper.revived"), 1);
}

TEST(ReaperTest, ClaimBreakingDefersToAnotherCoordinatorsLease) {
  test::WorldOptions options;
  options.num_hosts = 3;
  options.metrics = true;
  World world(options);
  net::Network* net = &world.cluster().network();

  const int32_t pid = MakeOrphanedDumpSet(world, "schooner");
  // A stale claim by a reachable host (it died between claiming and committing).
  RunNative(world, "schooner", [pid](SyscallApi& api) {
    const Result<int> fd =
        api.Open(core::DumpPaths::For(pid).claim,
                 OpenFlags::kOWrOnly | OpenFlags::kOCreat, 0644);
    EXPECT_TRUE(fd.ok());
    const Result<int64_t> n =
        api.Write(*fd, core::FormatClaimMarker("brick", api.Now()));
    EXPECT_TRUE(n.ok());
    return api.Close(*fd).ok() ? 0 : 1;
  });
  // Another coordinator takes the dump host's lease 45 s in, so it still
  // holds it when the reaper comes by at 70 s, with the claim long stale.
  world.cluster().RunFor(sim::Seconds(45));
  RunNative(world, "brador", [net](SyscallApi& api) {
    const Result<apps::PlacementLease> r =
        apps::AcquirePlacementLease(api, *net, "schooner");
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(r->held);
    return 0;
  });

  apps::ReaperOptions ropts;
  ropts.grace = sim::Seconds(30);
  ropts.use_daemon = false;
  world.cluster().RunFor(sim::Seconds(25));
  auto report = std::make_shared<apps::ReaperReport>();
  RunNative(world, "brick", [net, ropts, report](SyscallApi& api) {
    *report = apps::ReapOrphans(api, *net, ropts);
    return 0;
  });
  EXPECT_TRUE(report->revived.empty());
  EXPECT_NE(report->log.find("break-contended"), std::string::npos)
      << report->log;
  EXPECT_FALSE(DumpSetGone(world, "schooner", pid));
  EXPECT_EQ(world.cluster().AggregateMetrics().Counter("reaper.claims_broken"), 0);
}

// A reaper cut off from one host never aims a revive at it: the pick filters
// the unreachable host up front, so the decision log holds one record, and it
// names the partition as the reason brador was passed over.
TEST(ReaperTest, ReviveSkipsAHostCutOffFromTheReaper) {
  test::WorldOptions options;
  options.num_hosts = 3;
  options.metrics = true;
  options.daemons = true;
  options.decision_log = true;
  options.faults.enabled = true;
  sim::PartitionFault cut;
  cut.group_a = {"brador"};
  cut.group_b = {"brick"};
  cut.begin = 0;
  options.faults.partitions.push_back(cut);
  World world(options);
  net::Network* net = &world.cluster().network();

  // A ticker on brick makes brador, idle, the least occupied candidate.
  core::InstallProgram(world.host("brick"), "/bin/ticker", kTickerSource);
  ASSERT_GT(world.StartVm("brick", "/bin/ticker"), 0);
  const int32_t pid = MakeOrphanedDumpSet(world, "schooner");
  world.cluster().RunFor(sim::Seconds(70));  // past the default 60 s grace

  auto report = std::make_shared<apps::ReaperReport>();
  RunNative(world, "brick", [net, report](SyscallApi& api) {
    *report = apps::ReapOrphans(api, *net);
    return 0;
  });
  ASSERT_EQ(report->revived.size(), 1u) << report->log;
  EXPECT_EQ(report->revived[0], pid);

  std::vector<const sim::DecisionRecord*> picks;
  for (const sim::DecisionRecord& r : world.cluster().context().decision_log.records()) {
    if (r.context == "reaper") picks.push_back(&r);
  }
  ASSERT_EQ(picks.size(), 1u);
  EXPECT_EQ(picks[0]->chosen, "brick");
  ASSERT_EQ(picks[0]->exclusions.size(), 1u);
  EXPECT_EQ(picks[0]->exclusions[0].host, "brador");
  EXPECT_EQ(picks[0]->exclusions[0].reason, "partitioned-from-source");

  world.cluster().RunFor(sim::Seconds(5));
  kernel::Proc* survivor = FindSurvivor(world, "schooner", pid);
  ASSERT_NE(survivor, nullptr);
  EXPECT_EQ(survivor, world.host("brick").FindProc(survivor->pid));
}

TEST(ReaperTest, HostSubsetScansOnlyItsShard) {
  test::WorldOptions options;
  options.num_hosts = 3;
  options.metrics = true;
  options.daemons = true;
  World world(options);
  net::Network* net = &world.cluster().network();

  const int32_t pid = MakeOrphanedDumpSet(world, "schooner");
  world.cluster().RunFor(sim::Seconds(70));  // past the default 60 s grace

  // A sharded reaper daemon scoped to brador never looks at schooner's
  // /usr/tmp: the orphan survives its pass untouched.
  auto report = std::make_shared<apps::ReaperReport>();
  RunNative(world, "brick", [net, report](SyscallApi& api) {
    apps::ReaperOptions ropts;
    ropts.hosts = {"brador"};
    *report = apps::ReapOrphans(api, *net, ropts);
    return 0;
  });
  EXPECT_EQ(report->scanned, 0);
  EXPECT_TRUE(report->revived.empty());
  EXPECT_FALSE(DumpSetGone(world, "schooner", pid));

  // The shard that owns schooner settles it — same ladder, same outcome as
  // the classic whole-cluster pass.
  RunNative(world, "brick", [net, report](SyscallApi& api) {
    apps::ReaperOptions ropts;
    ropts.hosts = {"schooner"};
    *report = apps::ReapOrphans(api, *net, ropts);
    return 0;
  });
  ASSERT_EQ(report->revived.size(), 1u);
  EXPECT_EQ(report->revived[0], pid);
  world.cluster().RunFor(sim::Seconds(5));
  EXPECT_NE(FindSurvivor(world, "schooner", pid), nullptr);
  EXPECT_TRUE(DumpSetGone(world, "schooner", pid));
}

TEST(PreapCommandTest, OnePassFromTheShellRevivesAndReports) {
  test::WorldOptions options;
  options.num_hosts = 2;
  options.metrics = true;
  World world(options);

  const int32_t pid = MakeOrphanedDumpSet(world, "schooner");
  world.cluster().RunFor(sim::Seconds(70));

  const int32_t rp =
      world.StartTool("brick", "preap", {"-g", "60", "--rsh"}, /*uid=*/0);
  ASSERT_GT(rp, 0);
  EXPECT_TRUE(world.RunUntilExited("brick", rp, sim::Seconds(120)));
  EXPECT_EQ(world.ExitInfoOf("brick", rp).exit_code, core::kToolOk);

  world.cluster().RunFor(sim::Seconds(5));
  EXPECT_NE(FindSurvivor(world, "schooner", pid), nullptr);
  EXPECT_TRUE(DumpSetGone(world, "schooner", pid));

  // Bad flags are a usage error, not a pass. --no-lease is one too: every
  // pass leases its targets.
  for (const char* flag : {"--bogus", "--no-lease"}) {
    const int32_t bad = world.StartTool("brick", "preap", {flag}, /*uid=*/0);
    EXPECT_TRUE(world.RunUntilExited("brick", bad, sim::Seconds(120)));
    EXPECT_EQ(world.ExitInfoOf("brick", bad).exit_code, core::kToolUsage) << flag;
  }
  const std::string out = world.tty("brick", "ttyp0")->PlainOutput();
  const std::string usage = "usage: preap [-g grace_seconds] [-H host ...] [--rsh]\n";
  const size_t first = out.find(usage);
  ASSERT_NE(first, std::string::npos) << out;
  EXPECT_NE(out.find(usage, first + usage.size()), std::string::npos) << out;
}

}  // namespace
}  // namespace pmig
