// The cluster-wide simulation context: the one virtual clock plus every
// observer and fault source that kernels and the network share.
//
// The Cluster owns one context and hands it by reference to each Kernel and to
// the Network when it constructs them. Every member always exists: the span
// log, flight recorder and decision log are off unless RecordingOptions arms
// them (its fourth switch, metrics, arms each kernel's own registry), the
// health monitor unless its options or SLOs do, and the injector unless its
// config does (the fault history is pure bookkeeping and always records). So
// no component asks whether a subsystem was wired in, only — where building an
// observation costs something — whether it is on.

#ifndef PMIG_SRC_SIM_CONTEXT_H_
#define PMIG_SRC_SIM_CONTEXT_H_

#include <utility>
#include <vector>

#include "src/sim/clock.h"
#include "src/sim/decision_log.h"
#include "src/sim/fault.h"
#include "src/sim/fault_history.h"
#include "src/sim/flight_recorder.h"
#include "src/sim/health_monitor.h"
#include "src/sim/span.h"

namespace pmig::sim {

// The observation-only switches. Off, each is a dead branch and virtual-time
// results are bit-identical to a run without it; armed but unread, likewise.
struct RecordingOptions {
  bool metrics = false;  // per-host counter/gauge/histogram registries
  bool spans = false;    // migration phase spans (cluster-wide log)
  // Per-host bounded rings of recent migration/signal notes and span events
  // that snapshot a post-mortem when a migrate fails, falls back, or the kernel
  // aborts a dump.
  bool flight_recorder = false;
  // Placement decision audit log: every PlacementEngine pick's candidates,
  // per-factor scores, exclusions, runner-up and margin.
  bool decision_log = false;
};

struct ClusterContext {
  explicit ClusterContext(RecordingOptions recording_options = {}, FaultConfig fault_config = {},
                          HealthOptions health = {}, std::vector<Slo> slos = {})
      : recording(recording_options),
        health_monitor(&clock, std::move(health), std::move(slos)),
        faults(std::move(fault_config), &clock) {
    spans.set_enabled(recording.spans);
    spans.set_flight_recorder(&flight_recorder);
    flight_recorder.set_enabled(recording.flight_recorder);
    health_monitor.set_flight_recorder(&flight_recorder);
    decision_log.set_enabled(recording.decision_log);
  }

  ClusterContext(const ClusterContext&) = delete;
  ClusterContext& operator=(const ClusterContext&) = delete;

  const RecordingOptions recording;
  VirtualClock clock;
  SpanLog spans{&clock};
  FlightRecorder flight_recorder{&clock};
  HealthMonitor health_monitor;
  DecisionLog decision_log{&clock};
  FaultInjector faults;
  FaultHistory fault_history{&clock};
};

}  // namespace pmig::sim

#endif  // PMIG_SRC_SIM_CONTEXT_H_
