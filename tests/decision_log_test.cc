// The placement decision audit log: ring bookkeeping, the evidence each pick
// records (candidates, exclusions, runner-up, margin), outcome attachment,
// the pwhy shell surface, and the two load-bearing invariants — every
// committed balancer migration leaves exactly one decision record, and an
// armed-but-unread log leaves a run bit-identical to one with the log off.

#include "src/sim/decision_log.h"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/apps/load_balancer.h"
#include "src/apps/placement.h"
#include "tests/test_util.h"

namespace pmig {
namespace {

using sim::DecisionLog;
using sim::DecisionRecord;
using test::kUserUid;
using test::World;
using test::WorldOptions;

DecisionRecord MakeRecord(const std::string& chosen, int32_t pid = 1) {
  DecisionRecord r;
  r.context = "test";
  r.policy = "load-only";
  r.source = "scan";
  r.from_host = "brick";
  r.pid = pid;
  r.chosen = chosen;
  return r;
}

TEST(DecisionLogUnit, RingEvictsOldestAndSeqKeepsClimbing) {
  sim::VirtualClock clock;
  DecisionLog log(&clock, /*capacity=*/2);
  EXPECT_FALSE(log.enabled());
  EXPECT_EQ(log.Record(MakeRecord("schooner")), 0u);  // disarmed: dropped
  EXPECT_EQ(log.records().size(), 0u);

  log.set_enabled(true);
  EXPECT_EQ(log.Record(MakeRecord("a")), 1u);
  EXPECT_EQ(log.Record(MakeRecord("b")), 2u);
  EXPECT_EQ(log.Record(MakeRecord("c")), 3u);
  ASSERT_EQ(log.records().size(), 2u);  // "a" evicted
  EXPECT_EQ(log.records().front().chosen, "b");
  EXPECT_EQ(log.records().back().chosen, "c");
  EXPECT_EQ(log.records().front().seq, 2u);
  EXPECT_EQ(log.total_recorded(), 3u);  // eviction does not rewind the count
  ASSERT_NE(log.Latest(), nullptr);
  EXPECT_EQ(log.Latest()->chosen, "c");
}

TEST(DecisionLogUnit, AttachOutcomeFindsNewestOutcomelessMatch) {
  sim::VirtualClock clock;
  DecisionLog log(&clock);
  log.set_enabled(true);
  log.Record(MakeRecord("schooner", 42));  // a lease re-pick's abandoned first try
  log.Record(MakeRecord("brador", 42));    // the pick that was actually migrated
  log.AttachOutcome(42, "brick", "brador", 0, /*trace_id=*/7);
  ASSERT_EQ(log.records().size(), 2u);
  EXPECT_EQ(log.records().front().outcome_rc, DecisionRecord::kNoOutcome);
  EXPECT_EQ(log.records().back().outcome_rc, 0);
  EXPECT_EQ(log.records().back().trace_id, 7u);

  // A second outcome for the same triple lands on the next outcome-less
  // record, never overwriting the one already settled.
  log.Record(MakeRecord("brador", 42));
  log.AttachOutcome(42, "brick", "brador", 3, 9);
  EXPECT_EQ(log.records().back().outcome_rc, 3);
  EXPECT_EQ(log.records()[1].outcome_rc, 0);
}

TEST(DecisionLogUnit, OutcomeSequenceListsSettledLegsInRecordOrder) {
  sim::VirtualClock clock;
  DecisionLog log(&clock);
  log.set_enabled(true);
  EXPECT_EQ(log.OutcomeSequence(), "");
  log.Record(MakeRecord("schooner", 42));  // abandoned pick: no outcome, no entry
  log.Record(MakeRecord("brador", 42));
  log.Record(MakeRecord("classic", 43));
  log.AttachOutcome(43, "brick", "classic", 5, 0);
  log.AttachOutcome(42, "brick", "brador", 0, 0);
  EXPECT_EQ(log.OutcomeSequence(), "42:brick->brador=0;43:brick->classic=5;");
}

TEST(DecisionLogUnit, LookupsByPidAndHost) {
  sim::VirtualClock clock;
  DecisionLog log(&clock);
  log.set_enabled(true);
  DecisionRecord r1 = MakeRecord("schooner", 10);
  r1.exclusions.push_back({"brador", "down", 0});
  log.Record(std::move(r1));
  log.Record(MakeRecord("classic", 11));

  ASSERT_NE(log.LatestForPid(10), nullptr);
  EXPECT_EQ(log.LatestForPid(10)->chosen, "schooner");
  EXPECT_EQ(log.LatestForPid(99), nullptr);
  // Host lookup matches an excluded host too — that is the pwhy an operator
  // asks about a machine that keeps being passed over.
  ASSERT_NE(log.LatestForHost("brador"), nullptr);
  EXPECT_EQ(log.LatestForHost("brador")->chosen, "schooner");
  EXPECT_EQ(log.LatestForHost("nowhere"), nullptr);
}

// A direct engine pick against a booted cluster records the full evidence:
// both live candidates, the runner-up, and the dead-tie "order" margin.
TEST(DecisionLogEngine, RecordsCandidatesRunnerUpAndNearTie) {
  WorldOptions options;
  options.num_hosts = 3;
  options.decision_log = true;
  World world(options);
  apps::PlacementEngine engine(&world.cluster().network());
  apps::PlacementQuery query;
  query.from_host = "brick";
  query.context = "test";
  EXPECT_EQ(engine.PickTarget(query), "schooner");

  const DecisionLog& log = world.cluster().context().decision_log;
  ASSERT_EQ(log.records().size(), 1u);
  const DecisionRecord& r = log.records().front();
  EXPECT_EQ(r.context, "test");
  EXPECT_EQ(r.source, "scan");
  EXPECT_EQ(r.chosen, "schooner");
  EXPECT_EQ(r.runner_up, "brador");
  EXPECT_EQ(r.margin_factor, "order");  // equal loads: network order decided
  EXPECT_TRUE(r.near_tie);
  ASSERT_EQ(r.candidates.size(), 2u);
  EXPECT_TRUE(r.exclusions.empty());

  const std::string rendered = DecisionLog::Render(r);
  EXPECT_NE(rendered.find("NEAR-TIE"), std::string::npos);
  EXPECT_NE(rendered.find("schooner"), std::string::npos);
  EXPECT_NE(rendered.find("CHOSEN"), std::string::npos);
}

// Exclusion reasons, one per structural filter: a down host, a caller-excluded
// host, and a fault-demoted host (which keeps its candidate row — the scores
// that damned it stay visible).
TEST(DecisionLogEngine, ExclusionReasonsNameTheFilter) {
  WorldOptions options;
  options.num_hosts = 4;  // brick, schooner, brador, classic
  options.decision_log = true;
  World world(options);
  world.host("schooner").set_down(true);
  world.cluster().context().fault_history.RecordFailure("brador", Errno::kHostUnreach);

  apps::PlacementEngine engine(&world.cluster().network(),
                               apps::PlacementPolicy::kFaultAware);
  apps::PlacementQuery query;
  query.from_host = "brick";
  query.context = "test";
  query.exclude.push_back("classic");
  EXPECT_EQ(engine.PickTarget(query), "");  // everything was filtered out

  const DecisionLog& log = world.cluster().context().decision_log;
  ASSERT_EQ(log.records().size(), 1u);
  const DecisionRecord& r = log.records().front();
  EXPECT_EQ(r.margin_factor, "none");
  ASSERT_EQ(r.exclusions.size(), 3u);  // network order: schooner, brador, classic
  EXPECT_EQ(r.exclusions[0].host, "schooner");
  EXPECT_EQ(r.exclusions[0].reason, "down");
  EXPECT_EQ(r.exclusions[1].host, "brador");
  EXPECT_EQ(r.exclusions[1].reason, "fault-threshold");
  EXPECT_GT(r.exclusions[1].value, 0.0);
  EXPECT_EQ(r.exclusions[2].host, "classic");
  EXPECT_EQ(r.exclusions[2].reason, "lease-contended");
  // The fault-demoted host was scored before the threshold cut it, so its
  // candidate row survives alongside the exclusion.
  bool brador_scored = false;
  for (const auto& c : r.candidates) brador_scored |= c.host == "brador";
  EXPECT_TRUE(brador_scored);
}

// A partition the query opted into filtering shows up by name.
TEST(DecisionLogEngine, PartitionedCandidateIsNamed) {
  WorldOptions options;
  options.num_hosts = 3;
  options.decision_log = true;
  options.faults.enabled = true;
  sim::PartitionFault cut;
  cut.group_a = {"brador"};
  cut.begin = 0;
  cut.heal = -1;
  options.faults.partitions.push_back(cut);
  World world(options);
  world.cluster().RunFor(sim::Millis(1));  // let the partition arm

  apps::PlacementEngine engine(&world.cluster().network());
  apps::PlacementQuery query;
  query.from_host = "brick";
  query.context = "test";
  query.reachable_from = "brick";
  EXPECT_EQ(engine.PickTarget(query), "schooner");

  const DecisionRecord* r = world.cluster().context().decision_log.Latest();
  ASSERT_NE(r, nullptr);
  ASSERT_EQ(r->exclusions.size(), 1u);
  EXPECT_EQ(r->exclusions[0].host, "brador");
  EXPECT_EQ(r->exclusions[0].reason, "partitioned-from-source");
}

// The balancer soak invariant: with the log armed, every committed migration
// has exactly one decision record carrying rc 0, the injected down host is
// excluded by name in every record, and the whole decision stream (plus its
// count) replays identically — the fingerprint the chaos suite folds in.
struct SoakOutcome {
  std::string fingerprint;
  int migrations = 0;
  int committed_records = 0;
  std::vector<std::string> down_exclusions;
};

SoakOutcome RunBalancerSoak() {
  WorldOptions options;
  options.num_hosts = 3;
  options.daemons = true;
  options.metrics = true;
  options.decision_log = true;
  World world(options);
  world.host("schooner").set_down(true);  // the injected fault
  for (int i = 0; i < 4; ++i) {
    world.StartVm("brick", "/bin/hog", {"hog", "4000000"});
  }
  world.cluster().RunFor(sim::Seconds(3));

  net::Network* net = &world.cluster().network();
  auto stats = std::make_shared<apps::LoadBalancerStats>();
  const int32_t balancer = world.host("brick").SpawnNative(
      "balancer",
      [net, stats](kernel::SyscallApi& api) {
        apps::LoadBalancerOptions lb;
        lb.poll_interval = sim::Seconds(2);
        lb.min_age = sim::Seconds(1);
        lb.max_rounds = 8;
        *stats = apps::RunLoadBalancer(api, *net, lb);
        return 0;
      },
      kernel::SpawnOptions{});
  EXPECT_TRUE(world.RunUntilExited("brick", balancer, sim::Seconds(600)));

  SoakOutcome out;
  out.migrations = stats->migrations;
  const DecisionLog& log = world.cluster().context().decision_log;
  std::ostringstream fp;
  fp << "n=" << log.total_recorded() << ";clock=" << world.cluster().clock().now()
     << ";";
  for (const DecisionRecord& r : log.records()) {
    fp << DecisionLog::CanonicalLine(r) << "\n";
    if (r.outcome_rc == 0) ++out.committed_records;
    for (const auto& e : r.exclusions) {
      if (e.reason == "down") out.down_exclusions.push_back(e.host);
    }
  }
  out.fingerprint = fp.str();
  return out;
}

TEST(DecisionLogSoak, EveryCommittedLegHasExactlyOneRecordAndReplays) {
  const SoakOutcome a = RunBalancerSoak();
  EXPECT_GT(a.migrations, 0);
  // Exactly one rc==0 record per committed migration: AttachOutcome settles
  // the final pick of each leg and nothing else.
  EXPECT_EQ(a.committed_records, a.migrations);
  // The injected fault shows up as a named exclusion in every pick.
  EXPECT_FALSE(a.down_exclusions.empty());
  for (const std::string& host : a.down_exclusions) EXPECT_EQ(host, "schooner");

  const SoakOutcome b = RunBalancerSoak();
  EXPECT_EQ(a.fingerprint, b.fingerprint);  // decisions fold into the replay
}

// Where every job ended: per host, the VM processes that are some job's last
// incarnation — alive, or exited other than by a migration dump. Host i
// numbers its pids from 100 + 1000 * i (Cluster::Boot), one per spawn.
std::string FinalHosts(World& world) {
  std::string out;
  const auto& hosts = world.cluster().hosts();
  for (size_t i = 0; i < hosts.size(); ++i) {
    kernel::Kernel& k = *hosts[i];
    out += k.hostname() + ":";
    for (int64_t j = 0; j < k.stats().procs_spawned; ++j) {
      const kernel::Proc* p =
          k.FindAnyProc(100 + 1000 * static_cast<int32_t>(i) + static_cast<int32_t>(j));
      if (p != nullptr && p->kind == kernel::ProcKind::kVm && !p->exit_info.migration_dumped) {
        out += std::to_string(p->pid) + ",";
      }
    }
    out += ";";
  }
  return out;
}

// Armed-but-unread must be bit-identical to log-off: every job ends on the
// same host, at the same virtual clock, with the same total CPU.
TEST(DecisionLogSoak, ArmedButUnreadIsBitIdentical) {
  struct RunResult {
    std::string final_hosts;
    sim::Nanos clock = 0;
    sim::Nanos cpu = 0;
  };
  const auto run = [](bool armed) {
    WorldOptions options;
    options.num_hosts = 3;
    options.daemons = true;
    options.metrics = true;
    options.decision_log = armed;
    World world(options);
    for (int i = 0; i < 4; ++i) {
      world.StartVm("brick", "/bin/hog", {"hog", "4000000"});
    }
    world.cluster().RunFor(sim::Seconds(3));
    net::Network* net = &world.cluster().network();
    const int32_t balancer = world.host("brick").SpawnNative(
        "balancer",
        [net](kernel::SyscallApi& api) {
          apps::LoadBalancerOptions lb;
          lb.poll_interval = sim::Seconds(2);
          lb.min_age = sim::Seconds(1);
          lb.max_rounds = 8;
          apps::RunLoadBalancer(api, *net, lb);
          return 0;
        },
        kernel::SpawnOptions{});
    EXPECT_TRUE(world.RunUntilExited("brick", balancer, sim::Seconds(600)));
    return RunResult{FinalHosts(world), world.cluster().clock().now(),
                     world.cluster().TotalCpu()};
  };
  const RunResult off = run(false);
  const RunResult on = run(true);
  EXPECT_EQ(off.final_hosts, on.final_hosts);
  EXPECT_EQ(off.clock, on.clock);
  EXPECT_EQ(off.cpu, on.cpu);
}

// --- pwhy, driven through the shell ---

size_t PromptCount(World& world, std::string_view host) {
  const std::string out = world.console(host)->PlainOutput();
  size_t count = 0;
  for (size_t at = out.find("$ "); at != std::string::npos;
       at = out.find("$ ", at + 2)) {
    ++count;
  }
  return count;
}

void Command(World& world, std::string_view host, const std::string& line) {
  const size_t before = PromptCount(world, host);
  world.console(host)->Type(line + "\n");
  ASSERT_TRUE(world.cluster().RunUntil(
      [&world, host, before] { return PromptCount(world, host) > before; }))
      << line;
}

TEST(Pwhy, NamesTheExcludingFactorForAFaultDemotedHost) {
  WorldOptions options;
  options.num_hosts = 3;
  options.metrics = true;
  options.decision_log = true;
  World world(options);
  world.cluster().context().fault_history.RecordFailure("schooner", Errno::kHostUnreach);

  apps::PlacementEngine engine(&world.cluster().network(),
                               apps::PlacementPolicy::kFaultAware);
  apps::PlacementQuery query;
  query.from_host = "brick";
  query.context = "test";
  EXPECT_EQ(engine.PickTarget(query), "brador");

  const int32_t shell =
      world.StartTool("brick", "sh", {}, kUserUid, world.console("brick"));
  ASSERT_TRUE(world.RunUntilBlocked("brick", shell));
  Command(world, "brick", "pwhy schooner");
  const std::string out = world.console("brick")->PlainOutput();
  EXPECT_NE(out.find("fault-threshold"), std::string::npos) << out;
  EXPECT_NE(out.find("excluded"), std::string::npos);

  // pwhy last renders the same decision; pwhy <pid> misses (no pid was set).
  Command(world, "brick", "pwhy last");
  EXPECT_NE(world.console("brick")->PlainOutput().find("decision #1"),
            std::string::npos);
  Command(world, "brick", "pwhy 424242");
  EXPECT_NE(world.console("brick")->PlainOutput().find("no decision recorded"),
            std::string::npos);

  // pstat surfaces the placement counters even at zero.
  Command(world, "brick", "pstat");
  EXPECT_NE(world.console("brick")->PlainOutput().find("placement: survey_msgs="),
            std::string::npos);
}

TEST(Pwhy, DisabledLogSaysSo) {
  World world;  // defaults: no decision log
  const int32_t shell =
      world.StartTool("brick", "sh", {}, kUserUid, world.console("brick"));
  ASSERT_TRUE(world.RunUntilBlocked("brick", shell));
  Command(world, "brick", "pwhy");
  EXPECT_NE(world.console("brick")->PlainOutput().find("decision log disabled"),
            std::string::npos);
}

// The report surfaces: one meta line (fingerprint + armed flags) and one
// decision line per record, and CanonicalLine stays stable across index/scan.
TEST(DecisionLogReport, MetaAndDecisionLinesAppear) {
  WorldOptions options;
  options.num_hosts = 3;
  options.metrics = true;
  options.decision_log = true;
  World world(options);
  apps::PlacementEngine engine(&world.cluster().network());
  apps::PlacementQuery query;
  query.from_host = "brick";
  query.context = "test";
  EXPECT_EQ(engine.PickTarget(query), "schooner");

  std::ostringstream report;
  world.cluster().WriteReport(report);
  const std::string text = report.str();
  EXPECT_NE(text.find("\"type\":\"meta\""), std::string::npos);
  EXPECT_NE(text.find("\"config_fingerprint\":\""), std::string::npos);
  EXPECT_NE(text.find("\"decision_log\":true"), std::string::npos);
  EXPECT_NE(text.find("\"type\":\"decision\""), std::string::npos);
  EXPECT_NE(text.find("\"ctx\":\"test\""), std::string::npos);
  EXPECT_NE(text.find("\"chosen\":\"schooner\""), std::string::npos);
}

}  // namespace
}  // namespace pmig
