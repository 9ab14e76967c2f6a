// The placement engine and the crash-blind-placement fix.
//
// The bug under test: the pre-engine balancer surveyed *every* host — including
// crashed ones, which report zero load and so look maximally idle — and fired
// one-shot migrations at them. These tests pin the fix from every side: surveys
// and policies skip down hosts, the fault history decays so recovered hosts
// re-qualify, the default kLoadOnly policy reproduces the legacy balancer's
// decision sequence bit-for-bit on a healthy cluster, and a balancer run
// against a crash-and-recover schedule loses no process, aims nothing at a dead
// host, and replays deterministically.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/apps/evacuate.h"
#include "src/apps/load_balancer.h"
#include "src/apps/night_shift.h"
#include "src/apps/placement.h"
#include "src/core/dump_format.h"
#include "src/core/test_programs.h"
#include "src/sim/fault_history.h"
#include "src/sim/hash.h"
#include "tests/test_util.h"

namespace pmig {
namespace {

using apps::PlacementEngine;
using apps::PlacementPolicy;
using apps::PlacementQuery;
using kernel::SyscallApi;
using test::kUserUid;
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

// --- The fault history signal ---

TEST(FaultHistory, ScoresDecayAndSuccessesForgive) {
  sim::VirtualClock clock;
  sim::FaultHistory history(&clock);
  EXPECT_EQ(history.Score("schooner"), 0.0);

  history.RecordFailure("schooner", Errno::kHostUnreach);
  const double fresh = history.Score("schooner");
  EXPECT_GT(fresh, 1.0);  // an unreachable host is strong evidence

  clock.Advance(sim::Seconds(30));  // one half-life
  EXPECT_NEAR(history.Score("schooner"), fresh / 2, 1e-9);
  clock.Advance(sim::Seconds(120));
  EXPECT_LT(history.Score("schooner"), 0.1);  // decayed: the host re-qualifies

  // A success after recovery collapses what little weight remains.
  history.RecordFailure("schooner", Errno::kHostUnreach);
  history.RecordSuccess("schooner");
  EXPECT_LT(history.Score("schooner"), fresh / 2);
  EXPECT_EQ(history.failures("schooner"), 2);
  EXPECT_EQ(history.successes("schooner"), 1);

  // Other hosts are unaffected.
  EXPECT_EQ(history.Score("brador"), 0.0);
}

TEST(FaultHistory, MigrateOutcomesFeedTheClusterHistory) {
  WorldOptions options;
  options.num_hosts = 2;
  World world(options);
  world.host("schooner").set_down(true);

  const int32_t pid = world.StartVm("brick", "/bin/hog", {"hog", "40000000"});
  world.cluster().RunFor(sim::Millis(100));
  net::Network* net = &world.cluster().network();
  RunSystem(world, "brick", [net, pid](SyscallApi& api) {
    return core::Migrate(api, *net, pid, "brick", "schooner");
  });
  EXPECT_GT(world.cluster().context().fault_history.failures("schooner"), 0);
  EXPECT_GT(world.cluster().context().fault_history.Score("schooner"), 0.0);
}

// --- Surveys and the engine skip dead hosts ---

// A host's load is what its process table holds at the read, whether or not
// metrics are armed: the sched.runnable_vm gauge, set at the top of the host's
// last quantum, has not seen a VM spawned since.
TEST(Placement, HostLoadCountsTheProcessTableWithMetricsArmed) {
  for (const bool metrics : {false, true}) {
    WorldOptions options;
    options.num_hosts = 3;
    options.metrics = metrics;
    World world(options);
    world.cluster().RunFor(sim::Millis(10));
    world.StartVm("schooner", "/bin/hog");
    EXPECT_EQ(apps::HostLoad(world.host("schooner")), 1) << "metrics=" << metrics;
  }
}

TEST(Placement, SurveySkipsDownHosts) {
  WorldOptions options;
  options.num_hosts = 3;
  World world(options);
  world.StartVm("brick", "/bin/hog", {"hog", "4000000"});
  world.cluster().RunFor(sim::Millis(50));
  world.host("schooner").set_down(true);

  const auto loads = apps::SurveyLoad(world.cluster().network());
  ASSERT_EQ(loads.size(), 2u);  // a crashed machine is not an idle machine
  EXPECT_EQ(loads[0].first, "brick");
  EXPECT_EQ(loads[1].first, "brador");
}

TEST(Placement, EngineNeverPicksADownHost) {
  WorldOptions options;
  options.num_hosts = 3;
  World world(options);
  PlacementEngine engine(&world.cluster().network(), PlacementPolicy::kLoadOnly);
  PlacementQuery query;
  query.from_host = "brick";

  // Healthy cluster: ties on load resolve to the first host in network order —
  // exactly the legacy min_element choice.
  EXPECT_EQ(engine.PickTarget(query), "schooner");

  world.host("schooner").set_down(true);
  EXPECT_EQ(engine.PickTarget(query), "brador");

  world.host("brador").set_down(true);
  EXPECT_EQ(engine.PickTarget(query), "");  // no eligible target is reported, not guessed
}

TEST(Placement, FaultAwareExcludesFailingHostUntilScoreDecays) {
  WorldOptions options;
  options.num_hosts = 3;
  World world(options);
  sim::FaultHistory& history = world.cluster().context().fault_history;
  history.RecordFailure("schooner", Errno::kHostUnreach);

  PlacementEngine fault_aware(&world.cluster().network(), PlacementPolicy::kFaultAware);
  PlacementEngine load_only(&world.cluster().network(), PlacementPolicy::kLoadOnly);
  PlacementQuery query;
  query.from_host = "brick";

  // Load-only is blind to the signal; fault-aware routes around it.
  EXPECT_EQ(load_only.PickTarget(query), "schooner");
  EXPECT_EQ(fault_aware.PickTarget(query), "brador");
  EXPECT_TRUE(fault_aware.Score(query)[0].fault_excluded);  // schooner

  // After the score decays the recovered host re-qualifies. The residual score
  // still breaks ties toward the never-failed host, so prove requalification
  // two ways: eligibility, and winning outright once brador is the busier one.
  world.cluster().RunFor(sim::Seconds(180));  // six 30 s half-lives
  EXPECT_FALSE(fault_aware.Score(query)[0].fault_excluded);
  EXPECT_EQ(fault_aware.PickTarget(query), "brador");  // pristine wins the tie
  world.StartVm("brador", "/bin/hog", {"hog", "40000000"});
  world.cluster().RunFor(sim::Millis(100));
  EXPECT_EQ(fault_aware.PickTarget(query), "schooner");
}

TEST(Placement, CostAwarePrefersTheWarmSegmentCache) {
  WorldOptions options;
  options.num_hosts = 3;
  World world(options);
  const int32_t pid = world.StartVm("brick", "/bin/hog", {"hog", "40000000"});
  world.cluster().RunFor(sim::Millis(100));

  // Seed brador's segment cache with the hog's text digest, as a previous
  // --cached migration would have.
  kernel::Proc* p = world.host("brick").FindProc(pid);
  ASSERT_NE(p, nullptr);
  ASSERT_NE(p->vm, nullptr);
  const uint64_t digest = sim::HashBytes(p->vm->text().view());
  world.host("brador").vfs().SetupMkdirAll("/var/segcache");
  world.host("brador").vfs().SetupCreateFile(core::SegCachePath(digest), "seg");

  PlacementQuery query;
  query.from_host = "brick";
  query.pid = pid;
  PlacementEngine load_only(&world.cluster().network(), PlacementPolicy::kLoadOnly);
  PlacementEngine cost_aware(&world.cluster().network(), PlacementPolicy::kCostAware);
  EXPECT_EQ(load_only.PickTarget(query), "schooner");  // blind tie-break
  EXPECT_EQ(cost_aware.PickTarget(query), "brador");   // text travels by digest

  const auto scores = cost_aware.Score(query);
  ASSERT_EQ(scores.size(), 2u);
  EXPECT_LT(scores[1].est_bytes, scores[0].est_bytes);  // brador is cheaper
}

// Placement reads simulation state only. A migration into schooner leaves a
// restart-latency histogram and per-pair wire counters behind when metrics
// are armed, and nothing when they are off; neither may move a cost-aware pick
// between two otherwise equal hosts.
TEST(Placement, CostAwarePickIsTheSameWithMetricsArmed) {
  std::vector<std::string> picks;
  for (const bool metrics : {false, true}) {
    WorldOptions options;
    options.num_hosts = 3;
    options.metrics = metrics;
    World world(options);
    const int32_t moved = world.StartVm("brador", "/bin/counter");
    ASSERT_TRUE(world.RunUntilBlocked("brador", moved));
    const int32_t mig = world.StartTool(
        "brador", "migrate", {"-p", std::to_string(moved), "-t", "schooner"}, kUserUid,
        world.console("brador"));
    ASSERT_TRUE(world.RunUntilExited("brador", mig));
    ASSERT_EQ(world.ExitInfoOf("brador", mig).exit_code, 0);

    const int32_t fresh = world.StartVm("brick", "/bin/counter");
    ASSERT_TRUE(world.RunUntilBlocked("brick", fresh));
    PlacementQuery query;
    query.from_host = "brick";
    query.pid = fresh;
    const PlacementEngine engine(&world.cluster().network(), PlacementPolicy::kCostAware);
    picks.push_back(engine.PickTarget(query));
  }
  EXPECT_EQ(picks[0], "schooner");  // equal signals: network order decides
  EXPECT_EQ(picks[1], picks[0]);
}

// --- Legacy equivalence: kLoadOnly reproduces the pre-engine balancer ---

// A copy of the balancer loop as it stood before the placement engine (idlest =
// min_element over the survey, one-shot migrations), instrumented to log the
// same "pid:from->to=rc;" string DecisionLog::OutcomeSequence renders for the
// new balancer. Like the current balancer, it
// exits instead of paying a trailing poll_interval sleep after its last round
// (the pre-fix loop slept even when no round would follow, inflating every
// converged run's timeline by one interval).
std::string LegacyRunLoadBalancer(SyscallApi& api, net::Network& net,
                                  const apps::LoadBalancerOptions& options) {
  std::string decisions;
  const auto last_round = [&options](int round) {
    return round + 1 >= options.max_rounds;
  };
  for (int round = 0; round < options.max_rounds; ++round) {
    auto loads = apps::SurveyLoad(net);
    auto busiest = std::max_element(loads.begin(), loads.end(),
                                    [](const auto& a, const auto& b) { return a.second < b.second; });
    auto idlest = std::min_element(loads.begin(), loads.end(),
                                   [](const auto& a, const auto& b) { return a.second < b.second; });
    if (busiest == loads.end() || idlest == loads.end()) break;
    if (busiest->second - idlest->second < options.imbalance_threshold) {
      int total = 0;
      for (const auto& [host, n] : loads) total += n;
      if (total == 0 || last_round(round)) break;
      api.Sleep(options.poll_interval);
      continue;
    }
    kernel::Kernel* from = net.FindHost(busiest->first);
    kernel::Proc* candidate = nullptr;
    for (kernel::Proc* q : from->ListProcs()) {  // legacy PickCandidate, inlined
      if (q->kind != kernel::ProcKind::kVm || q->state != kernel::ProcState::kRunnable) continue;
      if (api.Now() - q->start_time < options.min_age) continue;
      bool skip = false;
      for (kernel::Proc* c : from->ListProcs()) {
        if (c->ppid == q->pid) skip = true;
      }
      for (const kernel::OpenFilePtr& f : q->fds) {
        if (f != nullptr && f->kind != kernel::FileKind::kInode) skip = true;
      }
      if (skip) continue;
      if (candidate == nullptr || q->start_time < candidate->start_time) candidate = q;
    }
    if (candidate == nullptr) {
      if (last_round(round)) break;
      api.Sleep(options.poll_interval);
      continue;
    }
    const int32_t victim = candidate->pid;
    const int rc = core::Migrate(api, net, victim, busiest->first, idlest->first,
                                 options.use_daemon);
    decisions += std::to_string(victim) + ":" + busiest->first + "->" + idlest->first +
                 "=" + std::to_string(rc) + ";";
    if (last_round(round)) break;
    api.Sleep(options.poll_interval);
  }
  return decisions;
}

TEST(Placement, LoadOnlyReproducesLegacyDecisionSequence) {
  auto scenario = [](bool legacy, std::string* decisions) {
    WorldOptions options;
    options.num_hosts = 3;
    options.daemons = true;
    options.decision_log = true;  // the engine's decision sequence
    World world(options);
    for (int i = 0; i < 5; ++i) {
      world.StartVm("brick", "/bin/hog", {"hog", "4000000"});
    }
    world.cluster().RunFor(sim::Seconds(3));
    net::Network* net = &world.cluster().network();
    RunSystem(world, "brick", [net, legacy, decisions](SyscallApi& api) {
      apps::LoadBalancerOptions lb;
      lb.poll_interval = sim::Seconds(2);
      lb.min_age = sim::Seconds(1);
      lb.max_rounds = 12;
      if (legacy) {
        *decisions = LegacyRunLoadBalancer(api, *net, lb);
      } else {
        apps::RunLoadBalancer(api, *net, lb);
      }
      return 0;
    });
    if (!legacy) *decisions = world.cluster().context().decision_log.OutcomeSequence();
    return world.cluster().clock().now();
  };
  std::string legacy_decisions, engine_decisions;
  const sim::Nanos legacy_clock = scenario(true, &legacy_decisions);
  const sim::Nanos engine_clock = scenario(false, &engine_decisions);
  EXPECT_FALSE(legacy_decisions.empty());  // the scenario must actually migrate
  EXPECT_EQ(engine_decisions, legacy_decisions);
  EXPECT_EQ(engine_clock, legacy_clock);  // same decisions, same virtual timeline
}

// The exit paths pay no trailing poll_interval: a balancer that just ran its
// last allowed round returns immediately instead of sleeping first and
// re-discovering the round budget at the top of the loop.
TEST(Placement, BalancerExitsWithoutTrailingSleep) {
  auto scenario = [](int max_rounds) {
    WorldOptions options;
    options.num_hosts = 3;
    options.daemons = true;
    World world(options);
    // One long hog per host: balanced but busy, so every round is an idle
    // watch round and the loop's only virtual-time cost is its sleeps.
    for (const char* host : {"brick", "schooner", "brador"}) {
      world.StartVm(host, "/bin/hog", {"hog", "200000000"});
    }
    world.cluster().RunFor(sim::Seconds(2));
    net::Network* net = &world.cluster().network();
    auto elapsed = std::make_shared<sim::Nanos>(0);
    RunSystem(world, "brick", [net, max_rounds, elapsed](SyscallApi& api) {
      apps::LoadBalancerOptions lb;
      lb.poll_interval = sim::Seconds(2);
      lb.max_rounds = max_rounds;
      const sim::Nanos t0 = api.Now();
      apps::RunLoadBalancer(api, *net, lb);
      *elapsed = api.Now() - t0;
      return 0;
    });
    return *elapsed;
  };
  // A single allowed round must exit without paying the interval at all (the
  // pre-fix loop slept its full poll_interval before noticing it was done)...
  EXPECT_LT(scenario(1), sim::Seconds(2));
  // ...and N rounds pay exactly the N-1 intervals *between* rounds, never a
  // trailing one (pre-fix: >= 3 intervals here).
  const sim::Nanos three = scenario(3);
  EXPECT_GE(three, sim::Seconds(4));
  EXPECT_LT(three, sim::Seconds(6));
}

// --- The balancer under a crash-and-recover schedule ---

struct ChaosResult {
  std::string fingerprint;
  apps::LoadBalancerStats stats;
  int alive = 0;
};

ChaosResult RunBalancerChaos(PlacementPolicy policy) {
  constexpr int kJobs = 5;
  WorldOptions options;
  options.num_hosts = 3;
  options.daemons = true;
  options.metrics = true;
  options.decision_log = true;  // the decision sequence folds into the fingerprint
  options.faults.enabled = true;  // scheduled crashes only, no random rates
  options.faults.crashes.push_back({"schooner", sim::Seconds(6), sim::Seconds(18)});
  options.faults.crashes.push_back({"schooner", sim::Seconds(30), sim::Seconds(42)});
  World world(options);
  // Big enough that a migration spans whole seconds, so the crash windows can
  // land mid-flight.
  const std::string padded = core::WithPadding(core::CpuHogProgramSource(),
                                               /*extra_text_instructions=*/6000,
                                               /*extra_data_bytes=*/50000);
  for (const auto& host : world.cluster().hosts()) {
    core::InstallProgram(*host, "/bin/bighog", padded);
  }
  for (int i = 0; i < kJobs; ++i) {
    world.StartVm("brick", "/bin/bighog", {"bighog", "50000000"});
  }

  ChaosResult result;
  net::Network* net = &world.cluster().network();
  apps::LoadBalancerStats* stats = &result.stats;
  RunSystem(world, "brick", [net, policy, stats](SyscallApi& api) {
    apps::LoadBalancerOptions lb;
    lb.poll_interval = sim::Seconds(2);
    lb.min_age = sim::Seconds(1);
    lb.max_rounds = 12;
    lb.policy = policy;
    lb.migrate = core::MigrateOptions::Robust();
    *stats = apps::RunLoadBalancer(api, *net, lb);
    return 0;
  });

  // Let the last crash window pass so frozen processes thaw, then roll call.
  world.cluster().RunUntil([&world] { return !world.host("schooner").down(); },
                           sim::Seconds(120));
  world.cluster().RunFor(sim::Seconds(2));
  std::ostringstream fp;
  fp << world.cluster().context().decision_log.OutcomeSequence()
     << "|m=" << result.stats.migrations
     << ",f=" << result.stats.failed_migrations << ",fb=" << result.stats.fallback_restarts
     << ",nt=" << result.stats.no_target_rounds << ",down=" << result.stats.attempts_to_down;
  for (const auto& host : world.cluster().hosts()) {
    int alive = 0;
    for (kernel::Proc* p : host->ListProcs()) {
      if (p->kind == kernel::ProcKind::kVm && p->Alive()) ++alive;
    }
    result.alive += alive;
    fp << "|" << host->hostname() << "=" << alive;
  }
  fp << "|t=" << world.cluster().clock().now();
  result.fingerprint = fp.str();

  EXPECT_EQ(result.alive, kJobs) << apps::PlacementPolicyName(policy) << " lost a process";
  EXPECT_EQ(result.stats.attempts_to_down, 0)
      << apps::PlacementPolicyName(policy) << " aimed a migration at a dead host";
  return result;
}

class BalancerChaos : public ::testing::TestWithParam<PlacementPolicy> {};

TEST_P(BalancerChaos, NoLossNoAimingAtDeadHostsDeterministicReplay) {
  const ChaosResult first = RunBalancerChaos(GetParam());
  const ChaosResult second = RunBalancerChaos(GetParam());
  EXPECT_EQ(first.fingerprint, second.fingerprint)
      << apps::PlacementPolicyName(GetParam()) << " did not replay deterministically";
  // The schedule must actually have interfered for the invariants to bite:
  // either a migration failed/fell back or the balancer had to wait a round.
  EXPECT_GT(first.stats.failed_migrations + first.stats.fallback_restarts +
                first.stats.no_target_rounds + first.stats.migrations,
            0);
}

INSTANTIATE_TEST_SUITE_P(Policies, BalancerChaos,
                         ::testing::Values(PlacementPolicy::kLoadOnly,
                                           PlacementPolicy::kFaultAware,
                                           PlacementPolicy::kCombined));

// --- Night shift with a crashed night host ---

TEST(NightShift, DownNightHostStrandsJobsVisiblyAndGetsNoAttempts) {
  WorldOptions options;
  options.num_hosts = 3;
  options.daemons = true;
  options.faults.enabled = true;
  // Schooner dies mid-night and is still down at dawn.
  options.faults.crashes.push_back({"schooner", sim::Seconds(20), sim::Seconds(400)});
  World world(options);
  kernel::Kernel& brick = world.host("brick");
  for (int i = 0; i < 6; ++i) {
    kernel::SpawnOptions opts;
    opts.creds = {999, 99, 999, 99};
    opts.tty = nullptr;
    opts.cwd = "/tmp";
    ASSERT_TRUE(brick.SpawnVm("/bin/hog", {"hog", "40000000"}, opts).ok());
  }

  apps::NightShiftStats stats;
  net::Network* net = &world.cluster().network();
  RunSystem(world, "brick", [net, &stats](SyscallApi& api) {
    apps::NightShiftOptions night;
    night.day_host = "brick";
    night.night_length = sim::Seconds(30);
    night.nights = 1;
    stats = apps::RunNightShift(api, *net, night);
    return 0;
  });
  EXPECT_EQ(stats.spread_migrations, 4);  // dusk happened before the crash
  EXPECT_EQ(stats.failed_spread, 0);
  EXPECT_EQ(stats.gather_migrations, 2);  // brador's pair came home
  EXPECT_EQ(stats.failed_gather, 2);      // schooner's pair: stranded, visible
  // The stranded jobs are frozen on schooner, not lost — and no migrate was
  // aimed at the dead machine (an attempt would have burned virtual seconds in
  // retries; instead the count was taken from the process table directly).
  EXPECT_EQ(apps::BatchJobsOn(world.host("schooner"), 999).size(), 2u);
  EXPECT_EQ(apps::BatchJobsOn(world.host("brador"), 999).size(), 0u);
  EXPECT_EQ(apps::BatchJobsOn(brick, 999).size(), 4u);
}

// --- Evacuation through the engine ---

TEST(Evacuate, EmptyTargetSpreadsViaEngineAndReportsUnplaced) {
  WorldOptions options;
  options.num_hosts = 3;
  options.daemons = true;
  World world(options);
  for (int i = 0; i < 2; ++i) {
    world.StartVm("brick", "/bin/hog", {"hog", "40000000"});
  }
  world.cluster().RunFor(sim::Millis(100));

  auto report = std::make_shared<apps::EvacuationReport>();
  net::Network* net = &world.cluster().network();
  RunSystem(world, "schooner", [net, report](SyscallApi& api) {
    *report = apps::EvacuateHost(api, *net, "brick", /*to_host=*/"");
    return 0;
  });
  EXPECT_EQ(report->moved.size(), 2u);
  EXPECT_TRUE(report->failed.empty());
  EXPECT_TRUE(report->unplaced.empty());
  // The engine balanced the evacuees instead of stacking them on one machine.
  int on_schooner = 0, on_brador = 0;
  for (kernel::Proc* p : world.host("schooner").ListProcs()) {
    if (p->kind == kernel::ProcKind::kVm && p->Alive()) ++on_schooner;
  }
  for (kernel::Proc* p : world.host("brador").ListProcs()) {
    if (p->kind == kernel::ProcKind::kVm && p->Alive()) ++on_brador;
  }
  EXPECT_EQ(on_schooner, 1);
  EXPECT_EQ(on_brador, 1);
}

TEST(Evacuate, NoEligibleTargetReportsUnplacedWithoutAttempts) {
  WorldOptions options;
  options.num_hosts = 3;
  World world(options);
  const int32_t pid = world.StartVm("brick", "/bin/hog", {"hog", "40000000"});
  world.cluster().RunFor(sim::Millis(100));
  world.host("schooner").set_down(true);
  world.host("brador").set_down(true);

  auto report = std::make_shared<apps::EvacuationReport>();
  net::Network* net = &world.cluster().network();
  const sim::Nanos t0 = world.cluster().clock().now();
  RunSystem(world, "brick", [net, report](SyscallApi& api) {
    *report = apps::EvacuateHost(api, *net, "brick", /*to_host=*/"");
    return 0;
  });
  ASSERT_EQ(report->unplaced.size(), 1u);
  EXPECT_EQ(report->unplaced[0], pid);
  EXPECT_TRUE(report->moved.empty());
  EXPECT_TRUE(report->failed.empty());
  // No doomed migrate was attempted: an attempt against a dead host would have
  // burned seconds in timeouts; reporting unplaced is near-instant.
  EXPECT_LT(world.cluster().clock().now() - t0, sim::Seconds(1));
}

}  // namespace
}  // namespace pmig
