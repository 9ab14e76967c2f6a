// Ablation: the health monitor closing the loop on a degrading host.
//
// Scenario: three workers sit on schooner while a probe job is migrated around
// the ring (brick -> schooner -> brador -> ...) to keep per-host migration
// signal flowing. From t=12s schooner's disk starts filling in lengthening
// RNG-free windows, so dumps out of it fail transiently more and more often; at
// t=60s the machine dies for good.
//
//  monitor   — SLO burn-rate alerting + anomaly detection are armed, and a
//              watchdog evacuates schooner (placement: kCombined, which also
//              refuses unhealthy targets) once its health score crosses the
//              line. The claim: the alert fires on the *soft* signal (failing
//              dumps), the evacuation completes before the hard crash, and no
//              process is lost.
//  baseline  — same degradation, monitor off, nobody watching: the workers are
//              still on schooner when it dies.
//  passive   — the monitor's zero-cost claim: the same run with the monitor
//              armed but nobody acting on it is bit-identical (virtual CPU,
//              virtual real time, bytes moved) to the run with it off.
//
// --check runs all of it and fails (exit 1) on any violated claim — the
// regression gate wired into ctest and scripts/ci.sh.

#include <memory>

#include "bench/bench_util.h"
#include "src/apps/evacuate.h"
#include "src/apps/placement.h"
#include "src/core/tools.h"

namespace pmig::bench {
namespace {

constexpr int kWorkers = 3;
// Far more iterations than any hog can burn in the 65-second scenario: the
// workers and the probe must still be running when the roll call happens.
constexpr const char* kHogIterations = "2000000000";

// Recurring ENOSPC windows on schooner's disk with ~2s breathing gaps, then a
// permanent crash at t=60s. Pure virtual-time window checks — no RNG. A dump
// takes ~0.7s of virtual time, so a gap admits one or two escapes; the
// evacuation has to keep retrying across windows to drain the host.
void DegradeSchooner(sim::FaultConfig* faults, bool crash) {
  faults->enabled = true;
  const double windows[][2] = {{12, 14}, {15.5, 18.5}, {20, 24}, {26, 31},
                               {33, 37}, {39, 44},     {46, 50}, {52, 56}};
  for (const auto& w : windows) {
    faults->disk_full.push_back({"schooner", sim::Millis(static_cast<int64_t>(w[0] * 1000)),
                                 sim::Millis(static_cast<int64_t>(w[1] * 1000))});
  }
  if (crash) faults->crashes.push_back({"schooner", sim::Seconds(60), -1});
}

std::vector<sim::Slo> MigrateErrorSlo() {
  sim::Slo slo;
  slo.name = "migrate-errors";
  slo.metric = "migrate.errors";  // 0/1 outcome series, one point per leg
  slo.threshold = 0.5;
  slo.objective = 0.9;
  slo.window = sim::Seconds(60);
  slo.fast_window = sim::Seconds(10);
  slo.fast_burn = 3.0;
  slo.slow_window = sim::Seconds(30);
  slo.slow_burn = 2.0;
  slo.min_events = 4;
  return {slo};
}

struct HealthOutcome {
  int lost = 0;               // workers not alive on any powered-on host at the end
  sim::Nanos first_alert = -1;
  sim::Nanos evac_trigger = -1;  // health score crossed the line
  sim::Nanos evac_done = -1;     // last worker off schooner
  int active_alerts = 0;
  Measurement m;
};

// The shared scenario. `armed` configures the monitor; `watchdog` acts on it;
// `crash` kills schooner at t=60s.
HealthOutcome RunDegradingHost(bool armed, bool watchdog, bool crash) {
  TestbedOptions options;
  options.num_hosts = 3;  // brick, schooner, brador
  options.daemons = true;
  options.metrics = true;
  options.flight_recorder = crash;  // alert post-mortems in the acting variants
  options.sample_period = sim::Millis(500);
  DegradeSchooner(&options.faults, crash);
  if (armed) {
    options.health.anomaly_detection = true;
    options.health.min_samples = 6;
    options.slos = MigrateErrorSlo();
  }
  Testbed world(options);
  // Workers and probe are runnable padded hogs (a tty-blocked process restarted
  // by the daemon would lose its terminal); the padding makes every dump move
  // real segment bytes.
  const std::string padded = core::WithPadding(
      core::CpuHogProgramSource(), /*extra_text_instructions=*/1400,
      /*extra_data_bytes=*/5600);
  for (const auto& host : world.cluster().hosts()) {
    core::InstallProgram(*host, "/bin/worker", padded);
    core::InstallProgram(*host, "/bin/probehog", padded);
  }
  for (int i = 0; i < kWorkers; ++i) {
    world.StartVm("schooner", "/bin/worker", {"worker", kHogIterations});
  }
  world.StartVm("brick", "/bin/probehog", {"probehog", kHogIterations});

  net::Network* net = &world.cluster().network();
  sim::HealthMonitor* monitor = &world.cluster().context().health_monitor;

  const sim::Nanos cpu0 = world.cluster().TotalCpu();
  const sim::Nanos t0 = world.cluster().clock().now();
  const int64_t bytes0 = TotalBytesMoved(world);

  // Probe driver: every second, move the probe one hop around the ring. Each
  // hop's dump/restart legs feed the monitor's per-host error series, so the
  // cluster has a pulse on every machine.
  kernel::SpawnOptions root_opts;
  const int32_t driver = world.host("brick").SpawnNative(
      "probedriver",
      [net](kernel::SyscallApi& api) {
        const std::vector<std::string> ring = {"brick", "schooner", "brador"};
        const core::MigrateOptions opts = core::MigrateOptions::Robust();
        int misses = 0;
        while (api.kernel().clock().now() < sim::Seconds(50)) {
          api.Sleep(sim::Seconds(1));
          std::string cur;
          int32_t pid = -1;
          for (kernel::Kernel* h : net->hosts()) {
            if (h->down()) continue;
            for (kernel::Proc* p : h->ListProcs()) {
              if (p->kind == kernel::ProcKind::kVm && p->Alive() &&
                  p->command.find("probehog") != std::string::npos) {
                cur = h->hostname();
                pid = p->pid;
              }
            }
          }
          if (pid < 0) {
            // Legitimately absent for a moment when the watchdog's evacuation
            // has it mid-flight (dumped on the source, not yet restarted on
            // the target). Only give up when it stays gone.
            if (++misses <= 8) continue;
            return 1;  // probe died: stop driving
          }
          misses = 0;
          size_t at = 0;
          for (size_t i = 0; i < ring.size(); ++i) {
            if (ring[i] == cur) at = i;
          }
          const std::string& next = ring[(at + 1) % ring.size()];
          if (net->FindHost(next)->down()) continue;
          const int rc = core::Migrate(api, *net, pid, cur, next, /*use_daemon=*/true, opts);
          (void)rc;  // a failed hop is itself signal: the legs feed migrate.errors
        }
        return 0;
      },
      root_opts);

  auto evac_trigger = std::make_shared<sim::Nanos>(-1);
  auto evac_done = std::make_shared<sim::Nanos>(-1);
  int32_t guard = -1;
  if (watchdog) {
    guard = world.host("brick").SpawnNative(
        "healthwatch",
        [net, monitor, evac_trigger, evac_done](kernel::SyscallApi& api) {
          // Single attempt per process per sweep: the outer loop is the retry.
          // A per-process retry envelope would pin the evacuation on one stuck
          // worker for a whole disk-full window; round-robin sweeps instead
          // give every process a shot at each breathing gap.
          core::MigrateOptions evac_opts = core::MigrateOptions::Robust();
          evac_opts.attempts = 1;
          for (;;) {
            api.Sleep(sim::Millis(500));
            const sim::Nanos now = api.kernel().clock().now();
            if (now > sim::Seconds(58)) return 1;  // gave up before the crash
            // >= 2: one wobbly series is a shrug; a firing burn alert (or two
            // anomalous series) on one host is a machine to walk away from.
            if (monitor->HealthScore("schooner") < 2.0) continue;
            if (*evac_trigger < 0) *evac_trigger = now;
            apps::EvacuateHost(api, *net, "schooner", "", /*use_daemon=*/true,
                               evac_opts, apps::PlacementPolicy::kCombined,
                               /*health_threshold=*/2.0);
            bool remaining = false;
            for (kernel::Proc* p : net->FindHost("schooner")->ListProcs()) {
              if (p->kind == kernel::ProcKind::kVm && p->Alive() &&
                  p->command.find("worker") != std::string::npos) {
                remaining = true;
              }
            }
            if (!remaining) {
              *evac_done = api.kernel().clock().now();
              return 0;
            }
          }
        },
        root_opts);
  }

  world.RunUntilExited("brick", driver, sim::Seconds(600));
  HealthOutcome out;
  out.m = Measurement{sim::ToMillis(world.cluster().TotalCpu() - cpu0),
                      sim::ToMillis(world.cluster().clock().now() - t0),
                      TotalBytesMoved(world) - bytes0};
  if (guard >= 0) world.RunUntilExited("brick", guard, sim::Seconds(600));
  if (crash) {
    // Ride past the crash, then take roll call on the machines still standing.
    world.cluster().RunUntil(
        [&world] { return world.cluster().clock().now() >= sim::Seconds(65); },
        sim::Seconds(600));
    world.cluster().RunFor(sim::Seconds(2));
  }
  int alive = 0;
  for (const auto& host : world.cluster().hosts()) {
    if (host->down()) continue;
    for (kernel::Proc* p : host->ListProcs()) {
      if (p->kind == kernel::ProcKind::kVm && p->Alive() &&
          p->command.find("worker") != std::string::npos) {
        ++alive;
      }
    }
  }
  out.lost = kWorkers - alive;
  if (!monitor->alerts().empty()) out.first_alert = monitor->alerts().front().at;
  out.active_alerts = monitor->ActiveAlerts();
  out.evac_trigger = *evac_trigger;
  out.evac_done = *evac_done;
  return out;
}

double ToSecs(sim::Nanos ns) { return ns < 0 ? -1.0 : static_cast<double>(ns) / 1e9; }

}  // namespace
}  // namespace pmig::bench

int main(int argc, char** argv) {
  using namespace pmig::bench;
  const bool check = ParseBenchFlags(argc, argv, kCheckFlag).check;

  std::printf("\n=== Ablation: degrading host, monitor vs nobody watching ===\n");
  const HealthOutcome monitored =
      RunDegradingHost(/*armed=*/true, /*watchdog=*/true, /*crash=*/true);
  const HealthOutcome blind =
      RunDegradingHost(/*armed=*/false, /*watchdog=*/false, /*crash=*/true);
  std::printf("%-10s %5s %12s %12s %12s\n", "variant", "lost", "alert(s)", "evac@(s)",
              "done@(s)");
  std::printf("%-10s %5d %12.1f %12.1f %12.1f\n", "monitor", monitored.lost,
              ToSecs(monitored.first_alert), ToSecs(monitored.evac_trigger),
              ToSecs(monitored.evac_done));
  std::printf("%-10s %5d %12.1f %12.1f %12.1f\n", "baseline", blind.lost,
              ToSecs(blind.first_alert), ToSecs(blind.evac_trigger),
              ToSecs(blind.evac_done));

  std::printf("\n=== Bit-identity: armed-but-unread monitor vs off ===\n");
  const HealthOutcome passive_armed =
      RunDegradingHost(/*armed=*/true, /*watchdog=*/false, /*crash=*/false);
  const HealthOutcome passive_off =
      RunDegradingHost(/*armed=*/false, /*watchdog=*/false, /*crash=*/false);
  const bool identical = SameMeasurement(passive_armed.m, passive_off.m);
  std::printf("armed: cpu=%.3fms real=%.3fms bytes=%lld\n", passive_armed.m.cpu_ms,
              passive_armed.m.real_ms, static_cast<long long>(passive_armed.m.bytes_moved));
  std::printf("off:   cpu=%.3fms real=%.3fms bytes=%lld  -> %s\n", passive_off.m.cpu_ms,
              passive_off.m.real_ms, static_cast<long long>(passive_off.m.bytes_moved),
              identical ? "identical" : "DIVERGED");

  std::vector<Row> rows;
  rows.push_back({"degrading/monitor", monitored.m, "lost=0, evacuated pre-crash"});
  rows.push_back({"degrading/baseline", blind.m, "crash-blind"});
  rows.push_back({"passive/armed", passive_armed.m, "bit-identical to off"});
  rows.push_back({"passive/off", passive_off.m, "reference"});
  WriteBenchJson("ablation_health", rows);

  if (check) {
    bool ok = true;
    if (monitored.lost != 0) {
      std::printf("check: FAIL monitor variant lost %d worker(s)\n", monitored.lost);
      ok = false;
    }
    if (monitored.first_alert < 0 || monitored.evac_trigger < 0 ||
        monitored.first_alert > monitored.evac_trigger) {
      std::printf("check: FAIL no alert before the evacuation trigger\n");
      ok = false;
    }
    if (monitored.evac_done < 0 || monitored.evac_done >= pmig::sim::Seconds(60)) {
      std::printf("check: FAIL evacuation did not finish before the crash\n");
      ok = false;
    }
    if (blind.lost < 1) {
      std::printf("check: FAIL baseline lost nothing; the scenario shows no hazard\n");
      ok = false;
    }
    if (!identical) {
      std::printf("check: FAIL armed-but-unread monitor perturbed the run\n");
      ok = false;
    }
    std::printf("check: %s\n", ok ? "ok" : "REGRESSION");
    return ok ? 0 : 1;
  }
  return 0;
}
