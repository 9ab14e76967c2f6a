// The cluster health monitor: the observed series, the online anomaly
// detector, SLO burn-rate alerting, and the paths that surface them — run-report
// lines, flight-recorder post-mortems, placement demotion, and the phealth
// shell built-in.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/apps/placement.h"
#include "src/sim/flight_recorder.h"
#include "src/sim/health_monitor.h"
#include "tests/test_util.h"

namespace pmig {
namespace {

using test::kUserUid;
using test::World;
using test::WorldOptions;

// --- HealthMonitor core ------------------------------------------------------------

// An SLO named after the metric it watches. Its per-host budget counts the
// metric's observations, and as bad those above `threshold`, so a test can
// pin observed values through Budgets().
sim::Slo WatchSlo(std::string metric, double threshold) {
  sim::Slo slo;
  slo.name = metric;
  slo.metric = std::move(metric);
  slo.threshold = threshold;
  return slo;
}

// The budget of SLO `name` on `host` (zero events when there is none).
sim::HealthMonitor::BudgetStatus BudgetOf(const sim::HealthMonitor& monitor,
                                          std::string_view name, std::string_view host) {
  for (const sim::HealthMonitor::BudgetStatus& b : monitor.Budgets()) {
    if (b.slo->name == name && b.host == host) return b;
  }
  return {};
}

bool Listed(const sim::HealthMonitor& monitor, std::string_view host,
            std::string_view metric) {
  const std::vector<std::string> names = monitor.SeriesNames(host);
  return std::find(names.begin(), names.end(), metric) != names.end();
}

sim::Slo ErrorSlo() {
  sim::Slo slo;
  slo.name = "errs";
  slo.metric = "migrate.errors";
  slo.threshold = 0.5;
  slo.objective = 0.9;
  slo.fast_window = sim::Seconds(10);
  slo.fast_burn = 3.0;
  slo.slow_window = sim::Seconds(30);
  slo.slow_burn = 2.0;
  slo.min_events = 4;
  return slo;
}

TEST(HealthMonitor, DefaultConfigIsDisabledAndInert) {
  sim::VirtualClock clock;
  sim::HealthMonitor monitor(&clock, {}, {});
  EXPECT_FALSE(monitor.enabled());
  monitor.Observe("brick", "migrate.e2e_ns", 1e9);
  monitor.Tick();
  EXPECT_TRUE(monitor.Hosts().empty());
  EXPECT_TRUE(monitor.alerts().empty());
  EXPECT_TRUE(monitor.Budgets().empty());
  EXPECT_EQ(monitor.HealthScore("brick"), 0.0);
}

TEST(HealthMonitor, AnomalyFiresOnShiftAndResolvesOnRecovery) {
  sim::VirtualClock clock;
  sim::HealthOptions options;
  options.anomaly_detection = true;
  options.min_samples = 8;
  sim::HealthMonitor monitor(&clock, options, {});
  ASSERT_TRUE(monitor.enabled());

  // A steady baseline with mild jitter: no anomaly.
  for (int i = 0; i < 20; ++i) {
    clock.Advance(sim::Seconds(1));
    monitor.Observe("schooner", "migration.dump_ns", 100.0 + (i % 2));
  }
  EXPECT_FALSE(monitor.Anomalous("schooner", "migration.dump_ns"));
  EXPECT_EQ(monitor.HealthScore("schooner"), 0.0);

  // A sustained 10x shift: anomalous, alert raised, score counts it.
  for (int i = 0; i < 6; ++i) {
    clock.Advance(sim::Seconds(1));
    monitor.Observe("schooner", "migration.dump_ns", 1000.0);
  }
  EXPECT_TRUE(monitor.Anomalous("schooner", "migration.dump_ns"));
  EXPECT_GE(monitor.AnomalyZ("schooner", "migration.dump_ns"), 3.0);
  EXPECT_EQ(monitor.HealthScore("schooner"), 1.0);
  ASSERT_EQ(monitor.alerts().size(), 1u);
  EXPECT_EQ(monitor.alerts()[0].rule, "anomaly:migration.dump_ns");
  EXPECT_EQ(monitor.alerts()[0].host, "schooner");
  EXPECT_FALSE(monitor.alerts()[0].resolved);
  EXPECT_EQ(monitor.ActiveAlerts(), 1);

  // The baseline froze while anomalous: it did not teach itself that 1000 is
  // normal, so recovery means returning to the old level.
  for (int i = 0; i < 30; ++i) {
    clock.Advance(sim::Seconds(1));
    monitor.Observe("schooner", "migration.dump_ns", 100.0);
  }
  EXPECT_FALSE(monitor.Anomalous("schooner", "migration.dump_ns"));
  EXPECT_TRUE(monitor.alerts()[0].resolved);
  EXPECT_GT(monitor.alerts()[0].resolved_at, monitor.alerts()[0].at);
  EXPECT_EQ(monitor.ActiveAlerts(), 0);
  EXPECT_EQ(monitor.HealthScore("schooner"), 0.0);
}

TEST(HealthMonitor, ZeroErrorBaselineRecoversAfterOneBadBurst) {
  sim::VirtualClock clock;
  sim::HealthOptions options;
  options.anomaly_detection = true;
  sim::HealthMonitor monitor(&clock, options, {});
  for (int i = 0; i < 10; ++i) {
    clock.Advance(sim::Seconds(1));
    monitor.ObserveOutcome("brick", "migrate.errors", false);
  }
  clock.Advance(sim::Seconds(1));
  monitor.ObserveOutcome("brick", "migrate.errors", true);
  EXPECT_TRUE(monitor.Anomalous("brick", "migrate.errors"));
  // A handful of clean outcomes pulls the EWMA back under the clear threshold
  // — one transient blip must not mark a host sick forever.
  for (int i = 0; i < 10; ++i) {
    clock.Advance(sim::Seconds(1));
    monitor.ObserveOutcome("brick", "migrate.errors", false);
  }
  EXPECT_FALSE(monitor.Anomalous("brick", "migrate.errors"));
}

TEST(HealthMonitor, SloBurnRateFiresAndResolves) {
  sim::VirtualClock clock;
  sim::HealthMonitor monitor(&clock, {}, {ErrorSlo()});
  ASSERT_TRUE(monitor.enabled());

  // Four good observations: budget healthy, nothing fires (min_events met).
  for (int i = 0; i < 4; ++i) {
    clock.Advance(sim::Millis(500));
    monitor.ObserveOutcome("schooner", "migrate.errors", false);
  }
  EXPECT_EQ(monitor.ActiveAlerts(), 0);

  // A burst of failures: bad fraction ~0.6 over the fast window = 6x burn of
  // the 10% budget, over the 3x fast threshold -> page.
  for (int i = 0; i < 6; ++i) {
    clock.Advance(sim::Millis(500));
    monitor.ObserveOutcome("schooner", "migrate.errors", true);
  }
  EXPECT_GE(monitor.ActiveAlerts(), 1);
  bool fast_fired = false;
  for (const sim::HealthAlert& a : monitor.alerts()) {
    if (a.rule == "errs:fast" && a.host == "schooner") fast_fired = true;
  }
  EXPECT_TRUE(fast_fired);
  EXPECT_GE(monitor.HealthScore("schooner"), 2.0);

  const auto budgets = monitor.Budgets();
  ASSERT_EQ(budgets.size(), 1u);
  EXPECT_EQ(budgets[0].host, "schooner");
  EXPECT_EQ(budgets[0].bad, 6);
  EXPECT_EQ(budgets[0].events, 10);
  EXPECT_TRUE(budgets[0].firing_fast);

  // The failures age out of the windows; Tick() alone (no new observations)
  // re-evaluates and resolves the alert.
  clock.Advance(sim::Seconds(40));
  monitor.Tick();
  EXPECT_EQ(monitor.ActiveAlerts(), 0);
  EXPECT_EQ(monitor.HealthScore("schooner"), 0.0);
}

TEST(HealthMonitor, SloTooFewEventsNeverFires) {
  sim::VirtualClock clock;
  sim::HealthMonitor monitor(&clock, {}, {ErrorSlo()});
  // Three catastrophic observations, but min_events is 4: no verdict yet.
  for (int i = 0; i < 3; ++i) {
    clock.Advance(sim::Millis(500));
    monitor.ObserveOutcome("schooner", "migrate.errors", true);
  }
  EXPECT_EQ(monitor.ActiveAlerts(), 0);
}

TEST(HealthMonitor, AlertEdgeDumpsFlightRecorderPostmortem) {
  sim::VirtualClock clock;
  sim::FlightRecorder recorder(&clock, 16);
  recorder.set_enabled(true);
  recorder.Note("schooner", 7, 0, "leg failed");
  sim::HealthMonitor monitor(&clock, {}, {ErrorSlo()});
  monitor.set_flight_recorder(&recorder);
  for (int i = 0; i < 4; ++i) {
    clock.Advance(sim::Millis(500));
    monitor.ObserveOutcome("schooner", "migrate.errors", true);
  }
  ASSERT_GE(monitor.ActiveAlerts(), 1);
  ASSERT_FALSE(recorder.postmortems().empty());
  const sim::FlightRecorder::Postmortem& pm = recorder.postmortems().front();
  EXPECT_EQ(pm.host, "schooner");
  EXPECT_NE(pm.reason.find("[alert=errs:fast host=schooner]"), std::string::npos);
  EXPECT_NE(pm.jsonl.find("leg failed"), std::string::npos);
}

TEST(HealthMonitor, SeriesListedPerHostAndMetric) {
  sim::VirtualClock clock;
  sim::HealthOptions options;
  options.anomaly_detection = true;
  sim::HealthMonitor monitor(&clock, options, {WatchSlo("load.runnable", 1.5)});
  clock.Advance(sim::Seconds(1));
  monitor.Observe("brick", "load.runnable", 2);
  monitor.Observe("schooner", "load.runnable", 5);
  monitor.Observe("brick", "migrate.e2e_ns", 1e9);
  EXPECT_EQ(monitor.Hosts(), (std::vector<std::string>{"brick", "schooner"}));
  EXPECT_EQ(monitor.SeriesNames("brick"),
            (std::vector<std::string>{"load.runnable", "migrate.e2e_ns"}));
  EXPECT_TRUE(monitor.SeriesNames("brador").empty());
  // brick's one load observation was above 1.5.
  const sim::HealthMonitor::BudgetStatus load = BudgetOf(monitor, "load.runnable", "brick");
  EXPECT_EQ(load.events, 1);
  EXPECT_EQ(load.bad, 1);
}

// --- Cluster wiring ----------------------------------------------------------------

// A successful migrate on a monitor-armed cluster feeds the per-host series
// (dump/restart/e2e/error outcomes) and the run report carries slo lines.
TEST(HealthCluster, MigrateFeedsSeriesAndReportCarriesSloLines) {
  WorldOptions options;
  options.num_hosts = 3;
  options.metrics = true;
  options.slos = {ErrorSlo(), WatchSlo("migration.dump_ns", 0),
                  WatchSlo("migrate.e2e_ns", 0)};
  options.health.anomaly_detection = true;
  World world(options);
  ASSERT_TRUE(world.cluster().context().health_monitor.enabled());

  const int32_t pid = world.StartVm("schooner", "/bin/counter");
  ASSERT_GT(pid, 0);
  ASSERT_TRUE(world.RunUntilBlocked("schooner", pid));
  world.console("schooner")->Type("x\n");
  ASSERT_TRUE(world.RunUntilBlocked("schooner", pid));
  const int32_t mig = world.StartTool(
      "brick", "migrate", {"-p", std::to_string(pid), "-f", "schooner", "-t", "brador"},
      kUserUid, world.console("brick"));
  ASSERT_TRUE(world.RunUntilExited("brick", mig));
  EXPECT_EQ(world.ExitInfoOf("brick", mig).exit_code, 0);

  const sim::HealthMonitor& monitor = world.cluster().context().health_monitor;
  // The dump happened on schooner, the restart (and the landing) on brador.
  EXPECT_TRUE(Listed(monitor, "schooner", "migration.dump_ns"));
  EXPECT_TRUE(Listed(monitor, "schooner", "migration.dump_bytes"));
  EXPECT_TRUE(Listed(monitor, "brador", "migration.restart_ns"));
  EXPECT_TRUE(Listed(monitor, "brador", "migrate.e2e_ns"));
  // Both latencies were above 0.
  for (const auto& [metric, host] : {std::pair{"migration.dump_ns", "schooner"},
                                     std::pair{"migrate.e2e_ns", "brador"}}) {
    const sim::HealthMonitor::BudgetStatus b = BudgetOf(monitor, metric, host);
    EXPECT_GT(b.events, 0) << metric;
    EXPECT_EQ(b.bad, b.events) << metric;
  }
  // Every leg succeeded: error series exist and the SLO budget is clean.
  EXPECT_TRUE(Listed(monitor, "schooner", "migrate.errors"));
  EXPECT_EQ(monitor.ActiveAlerts(), 0);

  std::ostringstream out;
  world.cluster().WriteReport(out);
  const std::string report = out.str();
  EXPECT_NE(report.find("\"type\":\"slo\""), std::string::npos);
  EXPECT_NE(report.find("\"name\":\"errs\""), std::string::npos);
  EXPECT_EQ(report.find("\"type\":\"alert\""), std::string::npos);  // nothing fired
}

// The sampler feeds load/segcache/fault-score series for every up host.
TEST(HealthCluster, SamplerFeedsPerHostSeries) {
  const char* const kMetrics[] = {"load.runnable", "segcache.bytes", "fault.score"};
  WorldOptions options;
  options.num_hosts = 2;
  options.metrics = true;
  options.sample_period = sim::Millis(50);
  options.health.anomaly_detection = true;
  for (const char* metric : kMetrics) options.slos.push_back(WatchSlo(metric, 0));
  World world(options);
  world.StartVm("brick", "/bin/hog", {"hog", "2000000"});
  world.cluster().RunFor(sim::Seconds(1));
  const sim::HealthMonitor& monitor = world.cluster().context().health_monitor;
  for (const char* host : {"brick", "schooner"}) {
    for (const char* metric : kMetrics) {
      EXPECT_TRUE(Listed(monitor, host, metric)) << host << "/" << metric;
      EXPECT_GT(BudgetOf(monitor, metric, host).events, 1) << host << "/" << metric;
    }
  }
}

// An alert line shows up in the report when a rule fires, and it is marked
// resolved once the host recovers.
TEST(HealthCluster, ReportCarriesAlertLines) {
  WorldOptions options;
  options.num_hosts = 2;
  options.slos = {ErrorSlo()};
  World world(options);
  sim::HealthMonitor& monitor = world.cluster().context().health_monitor;
  for (int i = 0; i < 6; ++i) {
    world.cluster().RunFor(sim::Millis(100));
    monitor.ObserveOutcome("schooner", "migrate.errors", true);
  }
  ASSERT_GE(monitor.ActiveAlerts(), 1);
  std::ostringstream out;
  world.cluster().WriteReport(out);
  EXPECT_NE(out.str().find("\"type\":\"alert\""), std::string::npos);
  EXPECT_NE(out.str().find("\"rule\":\"errs:fast\""), std::string::npos);
}

// --- Placement demotion ------------------------------------------------------------

TEST(HealthPlacement, FaultAwarePoliciesDemoteUnhealthyHosts) {
  WorldOptions options;
  options.num_hosts = 3;  // brick, schooner, brador
  options.slos = {ErrorSlo()};
  World world(options);
  sim::HealthMonitor& monitor = world.cluster().context().health_monitor;
  net::Network& net = world.cluster().network();

  apps::PlacementQuery query;
  query.from_host = "brick";

  // All healthy: fault-aware picks schooner (first in network order, brick
  // excluded as the source).
  const apps::PlacementEngine fault_aware(&net, apps::PlacementPolicy::kFaultAware);
  EXPECT_EQ(fault_aware.PickTarget(query), "schooner");

  // Burn schooner's error budget: its health score crosses the default
  // threshold and fault-aware placement walks away from it — no migrate
  // against schooner ever failed; the *monitor* demoted it.
  for (int i = 0; i < 6; ++i) {
    world.cluster().RunFor(sim::Millis(100));
    monitor.ObserveOutcome("schooner", "migrate.errors", true);
  }
  ASSERT_GE(monitor.HealthScore("schooner"), 1.0);
  EXPECT_EQ(fault_aware.PickTarget(query), "brador");

  // The scores and the verdict are visible in the survey.
  const auto scores = fault_aware.Score(query);
  ASSERT_EQ(scores.size(), 2u);
  EXPECT_EQ(scores[0].host, "schooner");
  EXPECT_GE(scores[0].health_score, 1.0);
  EXPECT_TRUE(scores[0].health_excluded);
  EXPECT_FALSE(scores[1].health_excluded);
  EXPECT_FALSE(scores[1].fault_excluded);

  // kLoadOnly ignores health entirely (legacy equivalence).
  const apps::PlacementEngine load_only(&net, apps::PlacementPolicy::kLoadOnly);
  EXPECT_EQ(load_only.PickTarget(query), "schooner");
  EXPECT_FALSE(load_only.Score(query)[0].health_excluded);

  // A raised threshold keeps a mildly-unhealthy host in the pool.
  query.health_threshold = 100.0;
  EXPECT_EQ(fault_aware.PickTarget(query), "brador");  // still loses the tie-break
  EXPECT_FALSE(fault_aware.Score(query)[0].health_excluded);
}

// --- phealth built-in --------------------------------------------------------------

TEST(HealthShell, PhealthReportsBudgetsAndAlerts) {
  WorldOptions options;
  options.num_hosts = 2;
  options.slos = {ErrorSlo()};
  World world(options);
  sim::HealthMonitor& monitor = world.cluster().context().health_monitor;
  for (int i = 0; i < 6; ++i) {
    world.cluster().RunFor(sim::Millis(100));
    monitor.ObserveOutcome("schooner", "migrate.errors", true);
  }
  const int32_t shell = world.StartTool("brick", "sh", {}, kUserUid, world.console("brick"));
  ASSERT_TRUE(world.RunUntilBlocked("brick", shell));
  world.console("brick")->Type("phealth\n");
  ASSERT_TRUE(world.RunUntilBlocked("brick", shell));
  const std::string out = world.console("brick")->PlainOutput();
  EXPECT_NE(out.find("slo errs host=schooner"), std::string::npos);
  EXPECT_NE(out.find("FIRING-FAST"), std::string::npos);
  EXPECT_NE(out.find("alert [firing]"), std::string::npos);
}

TEST(HealthShell, PhealthSaysDisabledWhenUnarmed) {
  World world;
  const int32_t shell = world.StartTool("brick", "sh", {}, kUserUid, world.console("brick"));
  ASSERT_TRUE(world.RunUntilBlocked("brick", shell));
  world.console("brick")->Type("phealth\n");
  ASSERT_TRUE(world.RunUntilBlocked("brick", shell));
  EXPECT_NE(world.console("brick")->PlainOutput().find("health monitor disabled"),
            std::string::npos);
}

// --- Flight recorder capacity ------------------------------------------------------

TEST(FlightRecorderCapacity, RingEvictsOldestPastCapacity) {
  sim::VirtualClock clock;
  sim::FlightRecorder recorder(&clock, /*capacity_per_host=*/4);
  recorder.set_enabled(true);
  for (int i = 0; i < 10; ++i) {
    clock.Advance(sim::Millis(1));
    recorder.Note("brick", i, 0, "event " + std::to_string(i));
  }
  const auto& ring = recorder.ring("brick");
  ASSERT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.front().what, "event 6");  // 0..5 evicted
  EXPECT_EQ(ring.back().what, "event 9");
  // Rings are per host: another host's ring is untouched and capacity applies
  // independently.
  recorder.Note("schooner", 1, 0, "solo");
  EXPECT_EQ(recorder.ring("schooner").size(), 1u);
  EXPECT_EQ(recorder.ring("brick").size(), 4u);
  // A post-mortem snapshots exactly the retained window.
  recorder.Dump("brick", 0, "why");
  ASSERT_EQ(recorder.postmortems().size(), 1u);
  EXPECT_EQ(recorder.postmortems()[0].jsonl.find("event 5"), std::string::npos);
  EXPECT_NE(recorder.postmortems()[0].jsonl.find("event 6"), std::string::npos);
}

}  // namespace
}  // namespace pmig
