// Differential decision gate: the audit log as a regression instrument.
//
// The decision log records every placement verdict with its full evidence, so
// two runs of the same scenario can be compared decision-by-decision instead
// of by their end state. Three claims, each checked by --check (the ctest
// decision_diff_check gate):
//
//  D1 (equivalence): an indexed balancer with ttl 0 must produce the exact
//     canonical decision stream of the full scan — same contexts, candidates,
//     per-factor scores, exclusions, chosen targets, runner-ups, margins.
//     CanonicalLine deliberately omits the index/scan source tag: two picks
//     that weighed the same evidence the same way are the same decision.
//
//  D2 (divergence is precise): a deliberately perturbed config (a higher
//     imbalance threshold) must diverge from the baseline stream, and the
//     diff must name the exact first divergent decision — not just "streams
//     differ". This is the tool an operator uses when two configs disagree.
//
//  D3 (observation-only): the same scenario with the log disarmed and with it
//     armed-but-unread must agree on where every job ended up, the virtual
//     clock, and every measured value to the last bit. Recording must never
//     perturb the run it is observing.
//
// The armed run also writes a full cluster report (REPORT_decision_diff.jsonl
// next to the binary) whose every line — including the new "meta" and
// "decision" records — the report_schema gate then validates.

#include <fstream>

#include "bench/bench_util.h"
#include "src/apps/load_balancer.h"
#include "src/apps/placement.h"
#include "src/sim/decision_log.h"

namespace pmig::bench {
namespace {

struct DiffOutcome {
  std::vector<std::string> stream;  // CanonicalLine per retained record
  std::string final_hosts;          // FinalHosts() at the end of the run
  sim::Nanos clock = 0;
  uint64_t total_recorded = 0;
  Measurement m;
};

// Where every job ended: per host, the VM processes that are some job's last
// incarnation — alive, or exited other than by a migration dump. Host i
// numbers its pids from 100 + 1000 * i (Cluster::Boot), one per spawn.
std::string FinalHosts(Testbed& world) {
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

// The S2 equivalence scenario from ablation_scale, with the decision log in
// the loop: five hogs on brick, one balancer, paper scale.
DiffOutcome RunScenario(bool use_index, int imbalance_threshold, bool log_armed,
                        bool write_report) {
  TestbedOptions options;
  options.num_hosts = 3;
  options.daemons = true;
  options.metrics = true;
  options.decision_log = log_armed;
  Testbed world(options);
  for (int i = 0; i < 5; ++i) {
    world.StartVm("brick", "/bin/hog", {"hog", "4000000"});
  }
  world.cluster().RunFor(sim::Seconds(3));

  net::Network* net = &world.cluster().network();
  const sim::Nanos cpu0 = world.cluster().TotalCpu();
  const sim::Nanos t0 = world.cluster().clock().now();
  const int64_t bytes0 = TotalBytesMoved(world);
  kernel::SpawnOptions opts;  // root
  const int32_t balancer = world.host("brick").SpawnNative(
      "balancer",
      [net, use_index, imbalance_threshold](kernel::SyscallApi& api) {
        apps::LoadBalancerOptions lb;
        lb.poll_interval = sim::Seconds(2);
        lb.min_age = sim::Seconds(1);
        lb.max_rounds = 12;
        lb.imbalance_threshold = imbalance_threshold;
        lb.use_index = use_index;
        lb.index_ttl = 0;  // trust nothing: every round re-surveys
        apps::RunLoadBalancer(api, *net, lb);
        return 0;
      },
      opts);
  world.RunUntilExited("brick", balancer, sim::Seconds(600));

  DiffOutcome out;
  out.final_hosts = FinalHosts(world);
  out.m = Measurement{sim::ToMillis(world.cluster().TotalCpu() - cpu0),
                      sim::ToMillis(world.cluster().clock().now() - t0),
                      TotalBytesMoved(world) - bytes0};
  out.clock = world.cluster().clock().now();
  const sim::DecisionLog& log = world.cluster().context().decision_log;
  out.total_recorded = log.total_recorded();
  for (const sim::DecisionRecord& r : log.records()) {
    out.stream.push_back(sim::DecisionLog::CanonicalLine(r));
  }
  if (write_report) {
    world.cluster().WriteReport("REPORT_decision_diff.jsonl");
  }
  return out;
}

// First index where the streams disagree, or -1 when identical. A stream that
// ends while the other continues diverges at its end.
int FirstDivergence(const std::vector<std::string>& a,
                    const std::vector<std::string>& b) {
  const size_t n = a.size() < b.size() ? a.size() : b.size();
  for (size_t i = 0; i < n; ++i) {
    if (a[i] != b[i]) return static_cast<int>(i);
  }
  if (a.size() != b.size()) return static_cast<int>(n);
  return -1;
}

void PrintDivergence(const char* label, const std::vector<std::string>& a,
                     const std::vector<std::string>& b, int at) {
  if (at < 0) {
    std::printf("%s: streams identical (%zu decisions)\n", label, a.size());
    return;
  }
  const auto line = [at](const std::vector<std::string>& s) {
    return static_cast<size_t>(at) < s.size() ? s[static_cast<size_t>(at)].c_str()
                                              : "<end of stream>";
  };
  std::printf("%s: first divergence at decision %d\n  a: %s\n  b: %s\n", label, at,
              line(a), line(b));
}

}  // namespace
}  // namespace pmig::bench

int main(int argc, char** argv) {
  using namespace pmig::bench;
  const bool check = ParseBenchFlags(argc, argv, kCheckFlag).check;

  std::printf("\n=== Decision diff: indexed-ttl0 vs full scan (D1) ===\n");
  // Truncate the report so the schema gate validates exactly this run's lines
  // (WriteReport appends).
  { std::ofstream trunc("REPORT_decision_diff.jsonl"); }
  const DiffOutcome scan = RunScenario(false, 2, true, /*write_report=*/true);
  const DiffOutcome indexed = RunScenario(true, 2, true, /*write_report=*/false);
  const int d1 = FirstDivergence(scan.stream, indexed.stream);
  PrintDivergence("scan vs indexed", scan.stream, indexed.stream, d1);

  std::printf("\n=== Decision diff: perturbed config diverges precisely (D2) ===\n");
  const DiffOutcome perturbed = RunScenario(false, 4, true, /*write_report=*/false);
  const int d2 = FirstDivergence(scan.stream, perturbed.stream);
  PrintDivergence("baseline vs imbalance=4", scan.stream, perturbed.stream, d2);

  std::printf("\n=== Decision diff: armed-but-unread is bit-identical (D3) ===\n");
  const DiffOutcome dark = RunScenario(false, 2, false, /*write_report=*/false);
  std::printf("decisions match: %s   clock match: %s   measurement match: %s\n",
              dark.final_hosts == scan.final_hosts ? "yes" : "NO",
              dark.clock == scan.clock ? "yes" : "NO",
              SameMeasurement(dark.m, scan.m) ? "yes" : "NO");

  std::vector<Row> rows;
  rows.push_back({"diff3/full-scan", scan.m,
                  std::to_string(scan.stream.size()) + " decisions"});
  rows.push_back({"diff3/indexed-ttl0", indexed.m, "stream-identical"});
  rows.push_back({"diff3/perturbed", perturbed.m, "diverges precisely"});
  WriteBenchJson("decision_diff", rows);

  if (check) {
    bool ok = true;
    if (scan.stream.empty()) {
      std::printf("check: FAIL baseline recorded no decisions\n");
      ok = false;
    }
    if (scan.total_recorded != scan.stream.size()) {
      std::printf("check: FAIL ring evicted records at this scale (%llu vs %zu)\n",
                  static_cast<unsigned long long>(scan.total_recorded),
                  scan.stream.size());
      ok = false;
    }
    if (d1 != -1) {
      std::printf("check: FAIL indexed stream diverges from full scan\n");
      ok = false;
    }
    if (d2 == -1) {
      std::printf("check: FAIL perturbed config produced an identical stream\n");
      ok = false;
    }
    if (dark.final_hosts != scan.final_hosts || dark.clock != scan.clock ||
        !SameMeasurement(dark.m, scan.m)) {
      std::printf("check: FAIL armed log perturbed the run\n");
      ok = false;
    }
    std::printf("check: %s\n", ok ? "ok" : "REGRESSION");
    return ok ? 0 : 1;
  }
  return 0;
}
