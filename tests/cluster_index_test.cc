// The cluster index: incrementally maintained placement state.
//
// The contract under test: indexed placement is an *optimisation*, never a
// behaviour change. A fresh index must reproduce the full scan's decisions
// exactly (same targets, same tie-breaks, same virtual timeline); staleness
// refresh must re-survey only the entries past their ttl; free signals
// (liveness, reachability, fault scores, sampler snapshots, migrate deltas)
// must keep the view current without survey messages; and an indexed balancer
// under a crash schedule must lose nothing, aim at nothing down or
// partitioned, and replay bit-identically.

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/apps/cluster_index.h"
#include "src/apps/load_balancer.h"
#include "src/apps/night_shift.h"
#include "src/apps/placement.h"
#include "src/apps/recovery.h"
#include "src/core/test_programs.h"
#include "tests/test_util.h"

namespace pmig {
namespace {

using apps::ClusterIndex;
using apps::ClusterIndexOptions;
using apps::IndexEntry;
using apps::PlacementEngine;
using apps::PlacementPolicy;
using apps::PlacementQuery;
using kernel::SyscallApi;
using test::World;
using test::WorldOptions;

// Runs `fn` as root on `host`; returns its exit code.
int RunSystem(World& world, std::string_view host, kernel::NativeTask::Entry fn) {
  kernel::SpawnOptions opts;  // root
  opts.tty = world.console(host);
  opts.cwd = "/";
  const int32_t pid = world.host(host).SpawnNative("system", std::move(fn), opts);
  world.RunUntilExited(host, pid, sim::Seconds(1200));
  return world.ExitInfoOf(host, pid).exit_code;
}

int64_t SurveyMessages(World& world) {
  return world.cluster().AggregateMetrics().Counter("placement.survey_msgs");
}

// --- Fresh index == full scan ---

TEST(ClusterIndex, FreshIndexMatchesFullScanAcrossPolicies) {
  WorldOptions options;
  options.num_hosts = 4;
  World world(options);
  // An uneven cluster: 3 jobs on brick, 1 on schooner, 0 on brador, 2 on classic.
  std::vector<int32_t> brick_pids;
  for (int i = 0; i < 3; ++i) {
    brick_pids.push_back(world.StartVm("brick", "/bin/hog", {"hog", "50000000"}));
  }
  world.StartVm("schooner", "/bin/hog", {"hog", "50000000"});
  for (int i = 0; i < 2; ++i) {
    world.StartVm("classic", "/bin/hog", {"hog", "50000000"});
  }
  world.cluster().RunFor(sim::Millis(100));

  net::Network* net = &world.cluster().network();
  ClusterIndex index(net, "brick");
  index.Refresh(world.cluster().clock().now());

  for (const PlacementPolicy policy :
       {PlacementPolicy::kLoadOnly, PlacementPolicy::kCostAware,
        PlacementPolicy::kFaultAware, PlacementPolicy::kCombined}) {
    const PlacementEngine engine(net, policy);
    PlacementQuery scan;
    scan.from_host = "brick";
    scan.pid = brick_pids[0];
    PlacementQuery indexed = scan;
    indexed.index = &index;
    EXPECT_EQ(engine.PickTarget(indexed), engine.PickTarget(scan))
        << apps::PlacementPolicyName(policy);

    // Score lists agree element for element (hosts and loads).
    const auto a = engine.Score(scan);
    const auto b = engine.Score(indexed);
    ASSERT_EQ(a.size(), b.size()) << apps::PlacementPolicyName(policy);
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].host, b[i].host);
      EXPECT_EQ(a[i].load, b[i].load);
    }
  }
}

TEST(ClusterIndex, IndexedBalancerWithZeroTtlMatchesFullScan) {
  struct Outcome {
    apps::LoadBalancerStats stats;
    std::string decisions;
  };
  auto scenario = [](bool use_index, Outcome* out) {
    WorldOptions options;
    options.num_hosts = 3;
    options.daemons = true;
    options.decision_log = true;  // the decision sequence under comparison
    World world(options);
    for (int i = 0; i < 5; ++i) {
      world.StartVm("brick", "/bin/hog", {"hog", "4000000"});
    }
    world.cluster().RunFor(sim::Seconds(3));
    net::Network* net = &world.cluster().network();
    apps::LoadBalancerStats* stats = &out->stats;
    RunSystem(world, "brick", [net, use_index, stats](SyscallApi& api) {
      apps::LoadBalancerOptions lb;
      lb.poll_interval = sim::Seconds(2);
      lb.min_age = sim::Seconds(1);
      lb.max_rounds = 12;
      lb.use_index = use_index;
      lb.index_ttl = 0;  // trust nothing: every round re-surveys (the gate)
      *stats = apps::RunLoadBalancer(api, *net, lb);
      return 0;
    });
    out->decisions = world.cluster().context().decision_log.OutcomeSequence();
    return world.cluster().clock().now();
  };
  Outcome scan, indexed;
  const sim::Nanos scan_clock = scenario(false, &scan);
  const sim::Nanos indexed_clock = scenario(true, &indexed);
  EXPECT_FALSE(scan.decisions.empty());  // the scenario must actually migrate
  EXPECT_EQ(indexed.decisions, scan.decisions);
  EXPECT_EQ(indexed_clock, scan_clock);  // same decisions, same virtual timeline
  EXPECT_EQ(indexed.stats.attempts_to_unreachable, 0);
}

// --- Staleness-driven refresh ---

TEST(ClusterIndex, RefreshOnlyResurveysExpiredEntries) {
  WorldOptions options;
  options.num_hosts = 3;
  options.metrics = true;
  World world(options);
  world.StartVm("brick", "/bin/hog", {"hog", "50000000"});
  world.cluster().RunFor(sim::Millis(50));

  ClusterIndexOptions iopts;
  iopts.ttl = sim::Seconds(10);
  ClusterIndex index(&world.cluster().network(), "brick", iopts);
  const sim::Nanos t0 = world.cluster().clock().now();

  // Never-observed entries are always stale: the first pass surveys everyone.
  EXPECT_EQ(index.Refresh(t0), 3);
  EXPECT_EQ(SurveyMessages(world), 3);

  // Inside the ttl nothing is touched — no messages, no timestamp movement.
  EXPECT_EQ(index.Refresh(t0 + sim::Seconds(5)), 0);
  EXPECT_EQ(SurveyMessages(world), 3);

  // One host re-surveyed by hand resets only its own clock...
  EXPECT_TRUE(index.RefreshHost("brador", t0 + sim::Seconds(5)));
  ASSERT_NE(index.Find("brador"), nullptr);
  EXPECT_EQ(index.Find("brador")->updated_at, t0 + sim::Seconds(5));

  // ...so a refresh past the others' ttl touches exactly the expired two.
  EXPECT_EQ(index.Refresh(t0 + sim::Seconds(12)), 2);
  EXPECT_EQ(index.Find("brick")->updated_at, t0 + sim::Seconds(12));
  EXPECT_EQ(index.Find("schooner")->updated_at, t0 + sim::Seconds(12));
  EXPECT_EQ(index.Find("brador")->updated_at, t0 + sim::Seconds(5));  // untouched
  EXPECT_EQ(SurveyMessages(world), 6);  // 3 + 1 + 2
}

// --- Free event feeds ---

TEST(ClusterIndex, NoteMigratedAdjustsLoadsWithoutSurveyMessages) {
  WorldOptions options;
  options.num_hosts = 3;
  options.metrics = true;
  World world(options);
  world.StartVm("brick", "/bin/hog", {"hog", "50000000"});
  world.StartVm("brick", "/bin/hog", {"hog", "50000000"});
  world.cluster().RunFor(sim::Millis(50));

  ClusterIndex index(&world.cluster().network(), "brick");
  index.Refresh(world.cluster().clock().now());
  const int64_t after_refresh = SurveyMessages(world);
  ASSERT_EQ(index.Find("brick")->load, 2);
  ASSERT_EQ(index.Find("brador")->load, 0);

  // A migrate outcome is a load of one moving: pure bookkeeping, no survey.
  index.NoteMigrated("brick", "brador");
  EXPECT_EQ(index.Find("brick")->load, 1);
  EXPECT_EQ(index.Find("brador")->load, 1);
  EXPECT_EQ(index.Find("brick")->occupancy, 1);
  EXPECT_EQ(index.Find("brador")->occupancy, 1);
  EXPECT_EQ(SurveyMessages(world), after_refresh);
}

TEST(ClusterIndex, SamplerFeedsIndexSoRefreshSurveysNothing) {
  WorldOptions options;
  options.num_hosts = 3;
  options.metrics = true;
  options.sample_period = sim::Millis(500);
  World world(options);
  ClusterIndexOptions iopts;
  iopts.ttl = sim::Seconds(10);
  ClusterIndex index(&world.cluster().network(), "brick", iopts);

  world.StartVm("brick", "/bin/hog", {"hog", "50000000"});
  world.StartVm("brick", "/bin/hog", {"hog", "50000000"});
  world.cluster().RunFor(sim::Seconds(2));

  // The sampler's observations kept every entry fresh: nothing to re-survey,
  // and the observed loads match the live truth.
  EXPECT_EQ(index.Refresh(world.cluster().clock().now()), 0);
  EXPECT_EQ(SurveyMessages(world), 0);
  ASSERT_NE(index.Find("brick"), nullptr);
  EXPECT_GE(index.Find("brick")->updated_at, 0);
  EXPECT_EQ(index.Find("brick")->load, apps::HostLoad(world.host("brick")));
  EXPECT_EQ(index.Find("brador")->load, 0);
}

// --- Partitions ---

TEST(ClusterIndex, PartitionedHostExcludedAndRequalifiesOnHeal) {
  WorldOptions options;
  options.num_hosts = 3;
  options.faults.enabled = true;
  sim::PartitionFault cut;
  cut.group_a = {"brick"};
  cut.group_b = {"brador"};
  cut.begin = sim::Seconds(5);
  cut.heal = sim::Seconds(20);
  options.faults.partitions.push_back(cut);
  World world(options);
  // schooner is busy, so brador is the natural (but soon unreachable) pick.
  world.StartVm("schooner", "/bin/hog", {"hog", "200000000"});
  world.StartVm("schooner", "/bin/hog", {"hog", "200000000"});
  world.cluster().RunFor(sim::Seconds(10));  // inside the cut

  net::Network* net = &world.cluster().network();
  ClusterIndex index(net, "brick");
  index.Refresh(world.cluster().clock().now());
  EXPECT_FALSE(index.Find("brador")->reachable);

  const PlacementEngine engine(net, PlacementPolicy::kLoadOnly);
  PlacementQuery query;
  query.from_host = "brick";
  query.index = &index;
  // Without the filter the historical pick stands (and the leg would fail
  // fast); with it the unreachable host is never chosen.
  EXPECT_EQ(engine.PickTarget(query), "brador");
  query.reachable_from = "brick";
  EXPECT_EQ(engine.PickTarget(query), "schooner");

  // The full scan agrees with the index on both answers.
  PlacementQuery scan = query;
  scan.index = nullptr;
  EXPECT_EQ(engine.PickTarget(scan), "schooner");

  // Heal: reachability is a pure function of config and clock, so the same
  // query requalifies brador with no event needed (Refresh just updates the
  // recorded view).
  world.cluster().RunFor(sim::Seconds(15));  // past heal
  EXPECT_EQ(engine.PickTarget(query), "brador");
  index.RefreshHost("brador", world.cluster().clock().now());
  EXPECT_TRUE(index.Find("brador")->reachable);
}

// --- Chaos soak: determinism under crashes with the index on ---

TEST(ClusterIndex, ChaosSoakWithIndexReplaysBitIdentically) {
  constexpr int kJobs = 5;
  auto scenario = [kJobs](std::string* fingerprint) {
    WorldOptions options;
    options.num_hosts = 3;
    options.daemons = true;
    options.metrics = true;
    options.decision_log = true;  // the decision sequence folds into the fingerprint
    options.faults.enabled = true;  // scheduled crashes only, no random rates
    options.faults.crashes.push_back({"schooner", sim::Seconds(6), sim::Seconds(18)});
    options.faults.crashes.push_back({"schooner", sim::Seconds(30), sim::Seconds(42)});
    World world(options);
    const std::string padded = core::WithPadding(core::CpuHogProgramSource(),
                                                 /*extra_text_instructions=*/6000,
                                                 /*extra_data_bytes=*/50000);
    for (const auto& host : world.cluster().hosts()) {
      core::InstallProgram(*host, "/bin/bighog", padded);
    }
    for (int i = 0; i < kJobs; ++i) {
      world.StartVm("brick", "/bin/bighog", {"bighog", "50000000"});
    }
    net::Network* net = &world.cluster().network();
    auto stats = std::make_shared<apps::LoadBalancerStats>();
    RunSystem(world, "brick", [net, stats](SyscallApi& api) {
      apps::LoadBalancerOptions lb;
      lb.poll_interval = sim::Seconds(2);
      lb.min_age = sim::Seconds(1);
      lb.max_rounds = 12;
      lb.policy = PlacementPolicy::kFaultAware;
      lb.migrate = core::MigrateOptions::Robust();
      lb.use_index = true;
      lb.index_ttl = sim::Seconds(4);
      lb.batch_per_round = 2;
      *stats = apps::RunLoadBalancer(api, *net, lb);
      return 0;
    });
    world.cluster().RunUntil([&world] { return !world.host("schooner").down(); },
                             sim::Seconds(120));
    world.cluster().RunFor(sim::Seconds(2));
    int alive = 0;
    std::ostringstream fp;
    fp << world.cluster().context().decision_log.OutcomeSequence()
       << "|m=" << stats->migrations
       << ",f=" << stats->failed_migrations << ",fb=" << stats->fallback_restarts
       << ",refresh=" << stats->index_refreshes;
    for (const auto& host : world.cluster().hosts()) {
      int n = 0;
      for (kernel::Proc* p : host->ListProcs()) {
        if (p->kind == kernel::ProcKind::kVm && p->Alive()) ++n;
      }
      alive += n;
      fp << "|" << host->hostname() << "=" << n;
    }
    fp << "|t=" << world.cluster().clock().now();
    *fingerprint = fp.str();
    EXPECT_EQ(stats->attempts_to_down, 0);
    EXPECT_EQ(stats->attempts_to_unreachable, 0);
    return alive;
  };
  std::string first, second;
  EXPECT_EQ(scenario(&first), kJobs);   // nothing lost
  EXPECT_EQ(scenario(&second), kJobs);
  EXPECT_EQ(first, second);  // bit-identical replay with the index on
}

// The same crash schedule with the event-driven balancer: rounds fire on
// sampler edges, migrate deltas, and fault records instead of a poll timer.
// This schedule bisects one migration — the 30s crash lands between the
// transactional dump (which kills the origin) and the restart — so the job
// survives only as an orphaned dump set on the crashed host. Conservation is
// asserted end-to-end: after the heal and the reaper's grace period, one
// reaper pass must revive exactly that job, and the whole run (decisions,
// wakeups, revival, final placement) must replay bit-identically.
TEST(ClusterIndex, ChaosSoakEventDrivenConservesAndReplays) {
  constexpr int kJobs = 5;
  auto scenario = [kJobs](std::string* fingerprint) {
    WorldOptions options;
    options.num_hosts = 3;
    options.daemons = true;
    options.metrics = true;
    options.decision_log = true;  // the decision sequence folds into the fingerprint
    options.sample_period = sim::Millis(500);  // the wakeup source
    options.faults.enabled = true;
    options.faults.crashes.push_back({"schooner", sim::Seconds(6), sim::Seconds(18)});
    options.faults.crashes.push_back({"schooner", sim::Seconds(30), sim::Seconds(42)});
    World world(options);
    const std::string padded = core::WithPadding(core::CpuHogProgramSource(),
                                                 /*extra_text_instructions=*/6000,
                                                 /*extra_data_bytes=*/50000);
    for (const auto& host : world.cluster().hosts()) {
      core::InstallProgram(*host, "/bin/bighog", padded);
    }
    for (int i = 0; i < kJobs; ++i) {
      // Long enough that no job completes inside the 60s balancer budget —
      // conservation counts live processes, so none may finish legitimately.
      world.StartVm("brick", "/bin/bighog", {"bighog", "500000000"});
    }
    net::Network* net = &world.cluster().network();
    auto stats = std::make_shared<apps::LoadBalancerStats>();
    RunSystem(world, "brick", [net, stats](SyscallApi& api) {
      apps::LoadBalancerOptions lb;
      lb.poll_interval = sim::Seconds(2);
      lb.min_age = sim::Seconds(1);
      lb.max_rounds = 12;
      lb.policy = PlacementPolicy::kFaultAware;
      lb.migrate = core::MigrateOptions::Robust();
      lb.use_index = true;
      lb.index_ttl = sim::Seconds(4);
      lb.batch_per_round = 2;
      lb.event_driven = true;
      lb.max_idle = sim::Seconds(20);
      lb.run_for = sim::Seconds(60);
      *stats = apps::RunLoadBalancer(api, *net, lb);
      return 0;
    });
    world.cluster().RunUntil([&world] { return !world.host("schooner").down(); },
                             sim::Seconds(120));
    // Let the orphaned set age past the reaper's grace period — the paused
    // dumpproc resumes at the 42s heal and commits its ready marker then —
    // and settle it with one reaper pass.
    world.cluster().RunFor(sim::Seconds(65));
    auto reaped = std::make_shared<apps::ReaperReport>();
    RunSystem(world, "brador", [net, reaped](SyscallApi& api) {
      *reaped = apps::ReapOrphans(api, *net);
      return 0;
    });
    world.cluster().RunFor(sim::Seconds(2));
    EXPECT_EQ(reaped->revived.size(), 1u);  // the bisected migration's job
    int alive = 0;
    std::ostringstream fp;
    fp << world.cluster().context().decision_log.OutcomeSequence()
       << "|m=" << stats->migrations
       << ",f=" << stats->failed_migrations << ",fb=" << stats->fallback_restarts
       << ",rounds=" << stats->rounds << ",ev=" << stats->event_wakeups
       << ",hb=" << stats->heartbeats << "|reap=" << reaped->log;
    for (const auto& host : world.cluster().hosts()) {
      int n = 0;
      for (kernel::Proc* p : host->ListProcs()) {
        if (p->kind == kernel::ProcKind::kVm && p->Alive()) ++n;
      }
      alive += n;
      fp << "|" << host->hostname() << "=" << n;
    }
    fp << "|t=" << world.cluster().clock().now();
    *fingerprint = fp.str();
    EXPECT_EQ(stats->attempts_to_down, 0);
    EXPECT_EQ(stats->attempts_to_unreachable, 0);
    EXPECT_GT(stats->migrations, 0);  // the wakeups actually drove rebalancing
    return alive;
  };
  std::string first, second;
  EXPECT_EQ(scenario(&first), kJobs) << first;
  EXPECT_EQ(scenario(&second), kJobs) << second;
  EXPECT_EQ(first, second);
}

// --- Stacked indexes on the FaultHistory observers ---

// Two coordinators' indexes observe the one FaultHistory alongside an earlier
// observer. Destroying them in *either* order must keep the rest safe: the
// earlier observer keeps firing, the survivor keeps folding scores in, and no
// callback over a destroyed index is ever invoked (a use-after-free ASan
// catches).
TEST(ClusterIndex, StackedIndexesDestroyInEitherOrderKeepOtherObservers) {
  for (const bool newer_first : {true, false}) {
    WorldOptions options;
    options.num_hosts = 3;
    World world(options);
    net::Network* net = &world.cluster().network();
    sim::FaultHistory& history = net->context().fault_history;
    int base_calls = 0;
    history.observers().Add([&base_calls](std::string_view) { ++base_calls; });

    auto older = std::make_unique<ClusterIndex>(net, "brick");
    auto newer = std::make_unique<ClusterIndex>(net, "schooner");
    history.RecordFailure("brador", Errno::kHostUnreach);
    EXPECT_EQ(base_calls, 1);  // the base observer fires too
    EXPECT_GT(older->Find("brador")->fault_score, 0.0);
    EXPECT_GT(newer->Find("brador")->fault_score, 0.0);

    ClusterIndex* survivor;
    if (newer_first) {
      newer.reset();
      survivor = older.get();
    } else {
      older.reset();
      survivor = newer.get();
    }
    const double before = survivor->Find("brador")->fault_score;
    history.RecordFailure("brador", Errno::kHostUnreach);
    EXPECT_EQ(base_calls, 2) << (newer_first ? "newer" : "older")
                             << " destroyed first broke the base observer";
    EXPECT_GT(survivor->Find("brador")->fault_score, before);

    older.reset();
    newer.reset();
    history.RecordFailure("brador", Errno::kHostUnreach);
    EXPECT_EQ(base_calls, 3);  // both gone: the base observer alone remains
  }
}

// --- Armed but idle: event-driven must change nothing ---

struct ArmedIdleOutcome {
  std::string decisions;
  int migrations = 0;
  int rounds = 0;
  int event_wakeups = 0;
  int heartbeats = 0;
  sim::Nanos drained_at = 0;   // the workload's own timeline
  sim::Nanos final_clock = 0;  // after the balancer exits
  int64_t surveys = 0;
};

// Jobs on every host but the coordinator's, loads balanced below the
// threshold: the balancer (either mode) must watch without ever acting.
ArmedIdleOutcome RunArmedIdle(bool event_driven) {
  WorldOptions options;
  options.num_hosts = 4;
  options.daemons = true;
  options.metrics = true;
  options.decision_log = true;
  options.sample_period = sim::Millis(500);
  World world(options);
  for (const char* host : {"schooner", "brador", "classic"}) {
    world.StartVm(host, "/bin/hog", {"hog", "20000000"});
  }
  world.cluster().RunFor(sim::Seconds(2));
  net::Network* net = &world.cluster().network();
  auto stats = std::make_shared<apps::LoadBalancerStats>();
  kernel::SpawnOptions opts;  // root
  opts.tty = world.console("brick");
  opts.cwd = "/";
  const int32_t balancer = world.host("brick").SpawnNative(
      "balancer",
      [net, event_driven, stats](SyscallApi& api) {
        apps::LoadBalancerOptions lb;
        lb.poll_interval = sim::Seconds(2);
        lb.min_age = sim::Seconds(1);
        lb.max_rounds = 100;
        lb.use_index = true;
        lb.index_ttl = sim::Seconds(600);
        lb.event_driven = event_driven;
        lb.max_idle = sim::Seconds(30);
        *stats = apps::RunLoadBalancer(api, *net, lb);
        return 0;
      },
      opts);
  ArmedIdleOutcome out;
  world.cluster().RunUntil(
      [&world] {
        for (const auto& host : world.cluster().hosts()) {
          for (kernel::Proc* p : host->ListProcs()) {
            if (p->kind == kernel::ProcKind::kVm && p->Alive()) return false;
          }
        }
        return true;
      },
      sim::Seconds(300));
  out.drained_at = world.cluster().clock().now();
  world.RunUntilExited("brick", balancer, sim::Seconds(300));
  out.decisions = world.cluster().context().decision_log.OutcomeSequence();
  out.migrations = stats->migrations;
  out.rounds = stats->rounds;
  out.event_wakeups = stats->event_wakeups;
  out.heartbeats = stats->heartbeats;
  out.final_clock = world.cluster().clock().now();
  out.surveys = SurveyMessages(world);
  return out;
}

TEST(ClusterIndex, ArmedButIdleEventBalancerMatchesPollingAndReplays) {
  const ArmedIdleOutcome polling = RunArmedIdle(false);
  const ArmedIdleOutcome event = RunArmedIdle(true);

  // Neither mode acts: empty decision logs, zero migrations.
  EXPECT_EQ(polling.decisions, "");
  EXPECT_EQ(event.decisions, "");
  EXPECT_EQ(polling.migrations, 0);
  EXPECT_EQ(event.migrations, 0);

  // The workload's timeline is bit-identical: an armed-but-idle event balancer
  // perturbs the jobs exactly as much as the idle poller does — not at all.
  EXPECT_EQ(event.drained_at, polling.drained_at);

  // Both modes pay only the one-time index build (4 hosts); no idle surveys.
  EXPECT_EQ(polling.surveys, 4);
  EXPECT_EQ(event.surveys, 4);

  // The event balancer wakes for heartbeats (and the final drain observation),
  // not every poll_interval: strictly fewer rounds over the same window.
  EXPECT_LT(event.rounds, polling.rounds);
  EXPECT_GT(event.heartbeats, 0);  // the liveness pass on a silent cluster

  // And the whole event-driven run replays bit-identically.
  const ArmedIdleOutcome replay = RunArmedIdle(true);
  EXPECT_EQ(replay.decisions, event.decisions);
  EXPECT_EQ(replay.rounds, event.rounds);
  EXPECT_EQ(replay.event_wakeups, event.event_wakeups);
  EXPECT_EQ(replay.heartbeats, event.heartbeats);
  EXPECT_EQ(replay.drained_at, event.drained_at);
  EXPECT_EQ(replay.final_clock, event.final_clock);
  EXPECT_EQ(replay.surveys, event.surveys);
}

// --- Batch placement lookahead ---

TEST(ClusterIndex, PlaceBatchSpreadsWithLookahead) {
  WorldOptions options;
  options.num_hosts = 4;
  World world(options);
  std::vector<int32_t> pids;
  for (int i = 0; i < 3; ++i) {
    pids.push_back(world.StartVm("brick", "/bin/hog", {"hog", "50000000"}));
  }
  world.cluster().RunFor(sim::Millis(100));

  net::Network* net = &world.cluster().network();
  const PlacementEngine engine(net, PlacementPolicy::kLoadOnly);
  PlacementQuery query;
  query.from_host = "brick";
  // Every other host is idle; without lookahead all three would stack onto
  // schooner. The working-load bumps spread them, one per host.
  const std::vector<std::string> scan = engine.PlaceBatch(query, pids);
  ASSERT_EQ(scan.size(), 3u);
  EXPECT_EQ(scan[0], "schooner");
  EXPECT_EQ(scan[1], "brador");
  EXPECT_EQ(scan[2], "classic");

  // The index view places the batch identically.
  ClusterIndex index(net, "brick");
  index.Refresh(world.cluster().clock().now());
  query.index = &index;
  EXPECT_EQ(engine.PlaceBatch(query, pids), scan);
}

// --- Victim selection ---

TEST(ClusterIndex, PickVictimsTakesOldestFirst) {
  WorldOptions options;
  options.num_hosts = 1;
  World world(options);
  const int32_t older = world.StartVm("brick", "/bin/hog", {"hog", "500000000"});
  world.cluster().RunFor(sim::Seconds(2));
  const int32_t younger = world.StartVm("brick", "/bin/hog", {"hog", "500000000"});
  world.cluster().RunFor(sim::Seconds(2));
  ASSERT_GT(older, 0);
  ASSERT_GT(younger, 0);

  kernel::Kernel& brick = world.host("brick");
  const sim::Nanos now = world.cluster().clock().now();
  // Oldest first — the paper's "has been running for a while" proxy.
  const auto by_age = apps::PickVictims(brick, now, sim::Seconds(1), 2);
  ASSERT_EQ(by_age.size(), 2u);
  EXPECT_EQ(by_age[0], older);
  EXPECT_EQ(by_age[1], younger);
}

// --- Night shift picks its day host through the engine ---

TEST(ClusterIndex, NightShiftPicksDayHostThroughEngine) {
  WorldOptions options;
  options.num_hosts = 3;
  options.daemons = true;
  World world(options);
  // Four batch jobs (uid 999) submitted on brick — making brick the *most*
  // occupied host, so the engine's occupancy pick must land elsewhere.
  kernel::Kernel& brick = world.host("brick");
  for (int i = 0; i < 4; ++i) {
    kernel::SpawnOptions opts;
    opts.creds = {999, 99, 999, 99};
    opts.tty = nullptr;
    opts.cwd = "/tmp";
    const Result<int32_t> pid = brick.SpawnVm("/bin/hog", {"hog", "40000000"}, opts);
    ASSERT_TRUE(pid.ok());
  }
  apps::NightShiftStats stats;
  net::Network* net = &world.cluster().network();
  RunSystem(world, "brick", [net, &stats](SyscallApi& api) {
    apps::NightShiftOptions night;
    // day_host left empty: the engine chooses the least-occupied live host.
    night.night_length = sim::Seconds(30);
    night.nights = 1;
    stats = apps::RunNightShift(api, *net, night);
    return 0;
  });
  EXPECT_EQ(stats.day_host, "schooner");  // idle, first in network order
  EXPECT_EQ(stats.nights_run, 1);
  // Dawn consolidated the strays onto the chosen day machine.
  EXPECT_EQ(stats.gather_migrations, 4);
  EXPECT_EQ(stats.failed_gather, 0);
  EXPECT_EQ(apps::BatchJobsOn(world.host("schooner"), 999).size(), 4u);
  EXPECT_TRUE(apps::BatchJobsOn(world.host("brick"), 999).empty());
}

}  // namespace
}  // namespace pmig
