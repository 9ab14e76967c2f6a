// A cluster of workstations on one Ethernet, sharing one virtual timeline.
//
// Reproduces the paper's environment (Section 3): Sun workstations plus a file
// server, each machine's root mounted on every other machine as /n/<host> (the 8th
// research edition convention), NFS for all cross-machine file access. Machines run
// in lockstep scheduler quanta; all timers and I/O completions live on the shared
// VirtualClock, so a whole multi-machine experiment is deterministic.

#ifndef PMIG_SRC_CLUSTER_CLUSTER_H_
#define PMIG_SRC_CLUSTER_CLUSTER_H_

#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "src/kernel/kernel.h"
#include "src/net/migration_daemon.h"
#include "src/net/network.h"
#include "src/sim/clock.h"
#include "src/sim/context.h"
#include "src/sim/cost_model.h"
#include "src/sim/metrics.h"

namespace pmig::cluster {

struct HostSpec {
  std::string name;
  vm::IsaLevel isa = vm::IsaLevel::kIsa20;  // Sun-3 by default
};

struct ClusterConfig {
  std::vector<HostSpec> hosts;
  sim::CostModel costs;
  kernel::KernelConfig kernel;      // applied to every host (isa overridden per host)
  bool start_migration_daemons = false;  // run migrationd on every host (§6.4)
  // Observation-only recorders (metrics, spans, flight recorder, decision
  // log), all off by default.
  sim::RecordingOptions recording;
  // Time-series sampler: at least every `sample_period` of virtual time (checked
  // from the lockstep Step(), never via a clock timer, so sampling cannot perturb
  // virtual times), snapshot each host's runnable load, segment-cache bytes, and
  // fault score into the run report. 0 (the default) disables sampling.
  sim::Nanos sample_period = 0;
  // Health monitor (sim::HealthMonitor): armed iff `health.anomaly_detection`
  // is set or `slos` is non-empty. The sampler above feeds it per-host load /
  // segcache / fault-score series, and the kernel + migrate paths feed dump,
  // restart, and end-to-end latency plus per-host error outcomes. Like the
  // metrics layer it is observation-only (no RNG, no timers, no virtual-time
  // charge): with the defaults — no SLOs, detection off — it is a dead branch
  // and results stay bit-identical.
  sim::HealthOptions health;
  std::vector<sim::Slo> slos;
  // Deterministic fault injection (inert by default; when disabled no RNG is
  // consumed, no timers are armed, and results stay bit-identical).
  sim::FaultConfig faults;
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig config);
  // Unwinds every host's native tasks while the network, the context and every
  // other host are still alive (an unwinding task may reach all three), then
  // destroys the hosts.
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  kernel::Kernel& host(std::string_view name);
  const std::vector<std::unique_ptr<kernel::Kernel>>& hosts() const { return hosts_; }
  net::Network& network() { return network_; }
  // The clock, recorders and fault sources every host shares.
  sim::ClusterContext& context() { return ctx_; }
  sim::VirtualClock& clock() { return ctx_.clock; }
  sim::SpanLog& spans() { return ctx_.spans; }
  // Every sampler snapshot, one per host per sampling edge.
  const std::vector<net::LoadObservation>& samples() const { return samples_; }
  const sim::CostModel& costs() const { return config_.costs; }
  kernel::ProgramRegistry& programs() { return programs_; }

  void RegisterProgram(const std::string& name, kernel::ProgramEntry entry) {
    programs_[name] = std::move(entry);
  }

  // --- Simulation driving ---
  // Runs every machine for (roughly) `duration` of virtual time.
  void RunFor(sim::Nanos duration);
  // Runs until no machine has runnable/sleeping work (blocked-forever daemons are
  // considered idle) or `limit` virtual time elapses. True if it went idle.
  bool RunUntilIdle(sim::Nanos limit = sim::Seconds(600));
  // Runs until `cond()` holds; true if it did before `limit` elapsed.
  bool RunUntil(const std::function<bool()>& cond, sim::Nanos limit = sim::Seconds(600));

  // Total CPU consumed across all machines (for "CPU time of an operation" deltas).
  sim::Nanos TotalCpu() const;

  // Powers a machine off (crash) or back on. While down it runs nothing and its
  // disk is unreachable from every other machine.
  void SetHostDown(std::string_view name, bool down);

  // --- Run reports ---
  // Sum of every host's metrics registry (counters/gauges add; histograms merge).
  sim::MetricsRegistry AggregateMetrics() const;
  // Machine-readable run report: one JSON object per line (JSONL). Includes a
  // header, per-host metrics, every closed span, and a phase-time summary whose
  // per-phase self times sum exactly to the end-to-end migrate time.
  void WriteReport(std::ostream& out) const;
  // Convenience: appends the report to `path` on the real filesystem. False on
  // open failure.
  bool WriteReport(const std::string& path) const;
  // Chrome trace-event JSON (loads in Perfetto / chrome://tracing): one track
  // per host, nested B/E phase slices per process, s/f flow arrows where a
  // span's parent lives on a different host. Only closed spans are emitted.
  void WriteChromeTrace(std::ostream& out) const;
  // Convenience: writes (truncates) `path` on the real filesystem.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  void Boot();
  // One lockstep step: each machine runs a quantum, then the clock advances by one
  // quantum (machines are parallel hardware). Returns true if anything ran.
  bool Step();
  bool AnyTimedWork() const;
  void TakeSample();
  static int64_t SegcacheBytes(kernel::Kernel& k);

  ClusterConfig config_;
  // Declared before everything that holds a reference to it: the context must
  // outlive every kernel and the network.
  sim::ClusterContext ctx_;
  std::vector<net::LoadObservation> samples_;
  sim::Nanos next_sample_at_ = 0;  // next sampler due time (0 = sampler off)
  kernel::ProgramRegistry programs_;
  net::Network network_{&config_.costs, ctx_};
  std::vector<std::unique_ptr<net::SpawnService>> spawn_services_;
  std::vector<std::unique_ptr<kernel::Kernel>> hosts_;
};

}  // namespace pmig::cluster

#endif  // PMIG_SRC_CLUSTER_CLUSTER_H_
