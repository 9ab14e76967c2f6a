// Observability layer: the metrics registry, phase spans, the cluster run
// report, and the load balancer's load survey.
//
// The acceptance property is the paper's own framing turned into an assertion:
// a remote-to-remote migrate's per-phase breakdown (signal, dump, setup,
// transfer, restart, plus unattributed "other") must sum to the end-to-end
// migrate time exactly — spans nest on one virtual timeline, so self times
// partition the total.

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/apps/load_balancer.h"
#include "src/sim/flight_recorder.h"
#include "src/sim/metrics.h"
#include "src/sim/span.h"
#include "tests/test_util.h"

namespace pmig {
namespace {

using test::World;
using test::WorldOptions;

TEST(MetricsRegistry, DisabledIsANoOp) {
  sim::MetricsRegistry m;
  EXPECT_FALSE(m.enabled());
  m.Inc("kernel.syscall.5");
  m.Set("sched.runnable_vm", 3);
  m.Observe("migration.dump_ns", sim::Millis(600));
  EXPECT_TRUE(m.counters().empty());
  EXPECT_TRUE(m.gauges().empty());
  EXPECT_TRUE(m.histograms().empty());
  EXPECT_EQ(m.Counter("kernel.syscall.5"), 0);
  EXPECT_EQ(m.Gauge("sched.runnable_vm"), 0);
  EXPECT_EQ(m.FindHistogram("migration.dump_ns"), nullptr);
}

TEST(MetricsRegistry, CountersGaugesHistograms) {
  sim::MetricsRegistry m;
  m.set_enabled(true);
  m.Inc("a");
  m.Inc("a", 4);
  m.Set("g", 7);
  m.Set("g", 2);  // gauges keep the last value
  m.Observe("h", sim::Millis(1));
  m.Observe("h", sim::Millis(3));
  EXPECT_EQ(m.Counter("a"), 5);
  EXPECT_EQ(m.Counter("never"), 0);
  EXPECT_EQ(m.Gauge("g"), 2);
  const sim::Histogram* h = m.FindHistogram("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 2);
  EXPECT_EQ(h->sum, sim::Millis(4));
  EXPECT_EQ(h->min, sim::Millis(1));
  EXPECT_EQ(h->max, sim::Millis(3));
  EXPECT_EQ(h->Mean(), sim::Millis(2));
}

TEST(MetricsRegistry, MergeFromAggregates) {
  sim::MetricsRegistry a, b;
  a.set_enabled(true);
  b.set_enabled(true);
  a.Inc("c", 2);
  b.Inc("c", 3);
  b.Inc("only_b");
  a.Observe("h", sim::Millis(1));
  b.Observe("h", sim::Millis(9));
  sim::MetricsRegistry total;  // stays disabled: MergeFrom bypasses the gate
  total.MergeFrom(a);
  total.MergeFrom(b);
  EXPECT_EQ(total.Counter("c"), 5);
  EXPECT_EQ(total.Counter("only_b"), 1);
  const sim::Histogram* h = total.FindHistogram("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 2);
  EXPECT_EQ(h->min, sim::Millis(1));
  EXPECT_EQ(h->max, sim::Millis(9));
}

TEST(MetricsRegistry, HistogramPercentiles) {
  sim::Histogram empty;
  // Every percentile of an empty histogram is 0, including the extremes.
  EXPECT_EQ(empty.Percentile(0), 0);
  EXPECT_EQ(empty.Percentile(50), 0);
  EXPECT_EQ(empty.Percentile(100), 0);

  sim::MetricsRegistry m;
  m.set_enabled(true);
  m.Observe("one", sim::Millis(5));
  const sim::Histogram* one = m.FindHistogram("one");
  ASSERT_NE(one, nullptr);
  // A single observation is every percentile: the log2-bucket estimate clamps
  // to the exact observed [min, max].
  EXPECT_EQ(one->Percentile(0), sim::Millis(5));
  EXPECT_EQ(one->Percentile(50), sim::Millis(5));
  EXPECT_EQ(one->Percentile(99), sim::Millis(5));
  EXPECT_EQ(one->Percentile(100), sim::Millis(5));

  m.Observe("two", sim::Millis(1));
  m.Observe("two", sim::Millis(100));
  const sim::Histogram* two = m.FindHistogram("two");
  ASSERT_NE(two, nullptr);
  // p50 lands in the low observation's bucket, p95 near the high one; estimates
  // stay inside the observed range and are monotone in p.
  EXPECT_GE(two->Percentile(50), sim::Millis(1));
  EXPECT_LT(two->Percentile(50), sim::Millis(2));
  EXPECT_GE(two->Percentile(95), sim::Millis(50));
  EXPECT_LE(two->Percentile(95), sim::Millis(100));
  // p0 pins to the observed min, p100 to the observed max, and the estimate is
  // monotone across the whole percentile chain in between.
  EXPECT_EQ(two->Percentile(0), two->min);
  EXPECT_EQ(two->Percentile(100), two->max);
  EXPECT_LE(two->Percentile(0), two->Percentile(50));
  EXPECT_LE(two->Percentile(50), two->Percentile(95));
  EXPECT_LE(two->Percentile(95), two->Percentile(99));
  EXPECT_LE(two->Percentile(99), two->Percentile(100));

  // A wider spread: monotone and range-clamped with many samples per bucket.
  for (int i = 1; i <= 64; ++i) m.Observe("many", sim::Millis(i));
  const sim::Histogram* many = m.FindHistogram("many");
  ASSERT_NE(many, nullptr);
  sim::Nanos prev = many->Percentile(0);
  EXPECT_EQ(prev, many->min);
  for (const int p : {10, 25, 50, 75, 90, 95, 99, 100}) {
    const sim::Nanos v = many->Percentile(p);
    EXPECT_GE(v, prev) << "p" << p;
    EXPECT_GE(v, many->min) << "p" << p;
    EXPECT_LE(v, many->max) << "p" << p;
    prev = v;
  }
  EXPECT_EQ(many->Percentile(100), many->max);
}

TEST(SpanLog, DisabledBeginReturnsZero) {
  sim::VirtualClock clock;
  sim::SpanLog log(&clock);
  EXPECT_EQ(log.Begin("dump", "brick", 1), 0u);
  log.End(0);  // must be a no-op
  EXPECT_TRUE(log.spans().empty());
}

TEST(SpanLog, NestedSelfTimesPartitionTheRoot) {
  sim::VirtualClock clock;
  sim::SpanLog log(&clock);
  log.set_enabled(true);
  // migrate [0,100ms] containing dump [10,40] and restart [50,90].
  const uint64_t root = log.Begin("migrate", "brick", 1);
  clock.Advance(sim::Millis(10));
  const uint64_t dump = log.Begin("dump", "brick", 1);
  clock.Advance(sim::Millis(30));
  log.End(dump);
  clock.Advance(sim::Millis(10));
  const uint64_t restart = log.Begin("restart", "brick", 1);
  clock.Advance(sim::Millis(40));
  log.End(restart);
  clock.Advance(sim::Millis(10));
  log.End(root);

  const auto self = log.PhaseSelfTimes();
  EXPECT_EQ(self.at("dump"), sim::Millis(30));
  EXPECT_EQ(self.at("restart"), sim::Millis(40));
  EXPECT_EQ(self.at("migrate"), sim::Millis(30));  // 100 - 30 - 40
  sim::Nanos sum = 0;
  for (const auto& [phase, ns] : self) sum += ns;
  EXPECT_EQ(sum, log.Find(root)->duration());
}

// The acceptance test: remote-to-remote migrate, phase breakdown sums to the
// end-to-end time, and the written report carries the same numbers.
TEST(Observability, MigrationPhaseBreakdownSumsToEndToEnd) {
  WorldOptions options;
  options.num_hosts = 3;  // migrate typed on brick, schooner -> brador
  options.metrics = true;
  options.spans = true;
  World world(options);

  const int32_t pid = world.StartVm("schooner", "/bin/counter");
  ASSERT_GT(pid, 0);
  ASSERT_TRUE(world.RunUntilBlocked("schooner", pid));
  world.console("schooner")->Type("x\n");
  ASSERT_TRUE(world.RunUntilBlocked("schooner", pid));

  const int32_t mig = world.StartTool(
      "brick", "migrate", {"-p", std::to_string(pid), "-f", "schooner", "-t", "brador"},
      test::kUserUid, world.console("brick"));
  ASSERT_GT(mig, 0);
  ASSERT_TRUE(world.RunUntilExited("brick", mig));
  EXPECT_EQ(world.ExitInfoOf("brick", mig).exit_code, 0);
  EXPECT_GT(world.FindPidByCommand("brador", "migrated"), 0);

  // Exactly one end-to-end "migrate" span, closed.
  const sim::SpanLog& spans = world.cluster().spans();
  sim::Nanos end_to_end = 0;
  int roots = 0;
  for (const sim::SpanRecord& s : spans.spans()) {
    if (s.phase == "migrate") {
      EXPECT_TRUE(s.closed());
      end_to_end += s.duration();
      ++roots;
    }
  }
  EXPECT_EQ(roots, 1);
  EXPECT_GT(end_to_end, 0);

  // Every paper phase shows up, and self times partition the total exactly.
  const auto self = spans.PhaseSelfTimes();
  for (const char* phase : {"signal", "dump", "setup", "transfer", "restart"}) {
    ASSERT_TRUE(self.count(phase)) << phase;
    EXPECT_GT(self.at(phase), 0) << phase;
  }
  sim::Nanos phase_sum = 0;
  for (const auto& [phase, ns] : self) phase_sum += ns;
  EXPECT_EQ(phase_sum, end_to_end);

  // The source kernel counted the dump; rsh connections crossed the wire.
  EXPECT_EQ(world.host("schooner").metrics().Counter("migration.dumps_started"), 1);
  const sim::MetricsRegistry total = world.cluster().AggregateMetrics();
  EXPECT_GE(total.Counter("net.rsh_connections"), 2);  // dumpproc + restart legs
  EXPECT_GT(total.Counter("kernel.syscall.native"), 0);

  // The report is JSONL: every line a JSON object, with a phase_summary whose
  // total matches the end-to-end span time.
  std::ostringstream out;
  world.cluster().WriteReport(out);
  const std::string report = out.str();
  std::istringstream lines(report);
  std::string line;
  int n = 0;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{') << line;
    EXPECT_EQ(line.back(), '}') << line;
    ++n;
  }
  EXPECT_GT(n, 10);
  EXPECT_NE(report.find("\"type\":\"phase_summary\""), std::string::npos);
  EXPECT_NE(report.find("\"total_ns\":" + std::to_string(end_to_end)), std::string::npos);
  EXPECT_NE(report.find("\"dump\":" + std::to_string(self.at("dump"))), std::string::npos);
  EXPECT_NE(report.find("\"type\":\"span\""), std::string::npos);
  EXPECT_NE(report.find("migration.dumps_started"), std::string::npos);
}

// The tentpole acceptance test: a remote-to-remote migrate typed on a third
// machine is ONE distributed trace. Spans recorded by three different kernels
// carry the same minted trace id, the parent links assemble them into a single
// tree rooted at the migrate command, and the per-trace self times reproduce
// the root's end-to-end duration exactly.
TEST(Observability, CrossHostTraceAssemblesOneTree) {
  WorldOptions options;
  options.num_hosts = 3;  // migrate typed on brick, schooner -> brador
  options.metrics = true;
  options.spans = true;
  World world(options);

  const int32_t pid = world.StartVm("schooner", "/bin/counter");
  ASSERT_GT(pid, 0);
  ASSERT_TRUE(world.RunUntilBlocked("schooner", pid));
  world.console("schooner")->Type("x\n");
  ASSERT_TRUE(world.RunUntilBlocked("schooner", pid));

  const int32_t mig = world.StartTool(
      "brick", "migrate", {"-p", std::to_string(pid), "-f", "schooner", "-t", "brador"},
      test::kUserUid, world.console("brick"));
  ASSERT_GT(mig, 0);
  ASSERT_TRUE(world.RunUntilExited("brick", mig));
  EXPECT_EQ(world.ExitInfoOf("brick", mig).exit_code, 0);

  // One migrate mints exactly one trace id; the remote dumpproc and restart
  // legs inherit it instead of minting their own.
  const sim::SpanLog& spans = world.cluster().spans();
  const std::vector<uint64_t> ids = spans.TraceIds();
  ASSERT_EQ(ids.size(), 1u);
  const uint64_t trace = ids[0];
  EXPECT_GT(trace, 0u);

  // The trace crosses all three machines: home, source, destination.
  std::set<std::string> hosts_in_trace;
  for (const sim::SpanRecord& s : spans.spans()) {
    if (s.trace_id == trace && s.closed()) hosts_in_trace.insert(s.host);
  }
  EXPECT_EQ(hosts_in_trace.size(), 3u);

  const sim::SpanRecord* root = spans.TraceRoot(trace);
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->phase, "migrate");
  EXPECT_EQ(root->host, "brick");
  EXPECT_GT(root->duration(), 0);

  // Self times over the cross-host tree partition the root exactly.
  const auto self = spans.TraceSelfTimes(trace);
  for (const char* phase : {"dump", "restart"}) {
    ASSERT_TRUE(self.count(phase)) << phase;
  }
  sim::Nanos sum = 0;
  for (const auto& [phase, ns] : self) sum += ns;
  EXPECT_EQ(sum, root->duration());

  // The run report carries a per-trace summary with the same numbers.
  std::ostringstream out;
  world.cluster().WriteReport(out);
  const std::string report = out.str();
  EXPECT_NE(report.find("\"type\":\"trace_summary\""), std::string::npos);
  EXPECT_NE(report.find("\"trace_id\":" + std::to_string(trace)), std::string::npos);
  EXPECT_NE(report.find("\"total_ns\":" + std::to_string(root->duration())),
            std::string::npos);
  EXPECT_NE(report.find("\"critical_path\":"), std::string::npos);
}

// A migrate into an unreachable host must leave a flight-recorder post-mortem
// whose trace id and failing phase match the complaint printed on the caller's
// terminal — the complaint greps straight to its post-mortem.
TEST(Observability, FlightRecorderDumpsOnHostUnreach) {
  WorldOptions options;
  options.num_hosts = 2;
  options.metrics = true;
  options.spans = true;
  options.flight_recorder = true;
  World world(options);

  const int32_t pid = world.StartVm("brick", "/bin/counter");
  ASSERT_GT(pid, 0);
  ASSERT_TRUE(world.RunUntilBlocked("brick", pid));
  world.cluster().SetHostDown("schooner", true);
  const int32_t mig = world.StartTool(
      "brick", "migrate", {"-p", std::to_string(pid), "-t", "schooner"});
  ASSERT_TRUE(world.RunUntilExited("brick", mig, sim::Seconds(300)));
  EXPECT_NE(world.ExitInfoOf("brick", mig).exit_code, 0);

  const sim::FlightRecorder& recorder = world.cluster().context().flight_recorder;
  ASSERT_FALSE(recorder.postmortems().empty());
  const sim::FlightRecorder::Postmortem& pm = recorder.postmortems().front();
  EXPECT_EQ(pm.host, "brick");
  EXPECT_GT(pm.trace_id, 0u);
  EXPECT_NE(pm.reason.find("phase=restart"), std::string::npos);
  EXPECT_FALSE(pm.jsonl.empty());
  EXPECT_FALSE(recorder.ring("brick").empty());

  const std::string tty = world.tty("brick", "ttyp0")->PlainOutput();
  EXPECT_NE(tty.find("EHOSTUNREACH"), std::string::npos);
  EXPECT_NE(tty.find("[trace=" + std::to_string(pm.trace_id) + " phase=restart]"),
            std::string::npos);

  // The run report summarises every post-mortem.
  std::ostringstream report;
  world.cluster().WriteReport(report);
  EXPECT_NE(report.str().find("\"type\":\"postmortem\""), std::string::npos);
}

// Integer field of a one-line JSON object, or -1 when absent. Good enough for
// the trace events this test generates (no nested objects before the key).
long long JsonField(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t pos = line.find(needle);
  if (pos == std::string::npos) return -1;
  return std::atoll(line.c_str() + pos + needle.size());
}

// The exported Chrome trace must be structurally sound: parseable line by
// line, every End matching an open Begin on its (process, thread) track, one
// named track per host, and at least one cross-host flow arrow pair.
TEST(Observability, ChromeTraceParsesAndBeginsMatchEnds) {
  WorldOptions options;
  options.num_hosts = 3;
  options.metrics = true;
  options.spans = true;
  options.flight_recorder = true;
  options.sample_period = sim::Millis(50);
  World world(options);

  const int32_t pid = world.StartVm("schooner", "/bin/counter");
  ASSERT_GT(pid, 0);
  ASSERT_TRUE(world.RunUntilBlocked("schooner", pid));
  world.console("schooner")->Type("x\n");
  ASSERT_TRUE(world.RunUntilBlocked("schooner", pid));
  const int32_t mig = world.StartTool(
      "brick", "migrate", {"-p", std::to_string(pid), "-f", "schooner", "-t", "brador"},
      test::kUserUid, world.console("brick"));
  ASSERT_TRUE(world.RunUntilExited("brick", mig));
  EXPECT_EQ(world.ExitInfoOf("brick", mig).exit_code, 0);

  std::ostringstream trace_out;
  world.cluster().WriteChromeTrace(trace_out);
  std::istringstream lines(trace_out.str());
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  std::vector<std::string> events;
  bool closed = false;
  while (std::getline(lines, line)) {
    if (line == "]}") {
      closed = true;
      break;
    }
    if (!line.empty() && line.back() == ',') line.pop_back();
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{') << line;
    EXPECT_EQ(line.back(), '}') << line;
    events.push_back(line);
  }
  EXPECT_TRUE(closed);
  EXPECT_FALSE(std::getline(lines, line));

  int process_names = 0;
  std::map<std::pair<long long, long long>, int> depth;
  long long flow_id = -1;
  bool flow_start = false, flow_finish = false;
  for (const std::string& e : events) {
    if (e.find("\"name\":\"process_name\"") != std::string::npos) {
      ++process_names;
      continue;
    }
    const auto track = std::make_pair(JsonField(e, "pid"), JsonField(e, "tid"));
    if (e.find("\"ph\":\"B\"") != std::string::npos) {
      ++depth[track];
    } else if (e.find("\"ph\":\"E\"") != std::string::npos) {
      ASSERT_GT(depth[track], 0) << "End without an open Begin: " << e;
      --depth[track];
    } else if (e.find("\"ph\":\"s\"") != std::string::npos) {
      flow_start = true;
      flow_id = JsonField(e, "id");
    } else if (e.find("\"ph\":\"f\"") != std::string::npos &&
               JsonField(e, "id") == flow_id) {
      flow_finish = e.find("\"bp\":\"e\"") != std::string::npos;
    }
  }
  EXPECT_EQ(process_names, 3);  // one named track per host
  for (const auto& [track, d] : depth) {
    EXPECT_EQ(d, 0) << "unbalanced track pid=" << track.first << " tid=" << track.second;
  }
  EXPECT_TRUE(flow_start);
  EXPECT_TRUE(flow_finish);

  // The sampler took periodic snapshots, and the report carries them alongside
  // the histogram percentiles.
  EXPECT_FALSE(world.cluster().samples().empty());
  std::ostringstream report;
  world.cluster().WriteReport(report);
  EXPECT_NE(report.str().find("\"type\":\"sample\""), std::string::npos);
  EXPECT_NE(report.str().find("\"p50_ns\":"), std::string::npos);
}

// With metrics on, HostLoad still counts the process table, and after a run
// of steady hogs the scheduler's gauge agrees with the same scan.
TEST(Observability, HostLoadGaugeMatchesProcessTableScan) {
  WorldOptions options;
  options.num_hosts = 2;
  options.metrics = true;
  World world(options);
  for (int i = 0; i < 3; ++i) world.StartVm("brick", "/bin/hog", {"hog", "1000000"});
  world.cluster().RunFor(sim::Millis(50));

  for (const auto& host : world.cluster().hosts()) {
    int scanned = 0;
    for (kernel::Proc* p : host->ListProcs()) {
      if (p->kind == kernel::ProcKind::kVm && p->state == kernel::ProcState::kRunnable) {
        ++scanned;
      }
    }
    EXPECT_EQ(apps::HostLoad(*host), scanned) << host->hostname();
    EXPECT_EQ(host->metrics().Gauge("sched.runnable_vm"), scanned) << host->hostname();
  }
  const auto loads = apps::SurveyLoad(world.cluster().network());
  ASSERT_EQ(loads.size(), 2u);
  EXPECT_EQ(loads[0].first, "brick");
  EXPECT_GE(loads[0].second, 2);  // 3 hogs minus at most the one on cpu
  EXPECT_EQ(loads[1].second, 0);
}

}  // namespace
}  // namespace pmig
