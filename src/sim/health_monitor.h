// Cluster health monitor: online anomaly detection and SLO error-budget /
// burn-rate alerting over per-host signal series.
//
// The migration machinery emits rich raw signals (spans, metrics, post-mortems)
// but nothing *watches* them — a host whose restarts quietly triple in latency
// is only noticed when a human reads a report. The monitor closes that loop:
//
//   series    — every observation belongs to a per-(host, metric) series,
//               stamped with the current virtual time. Feeders: the cluster's
//               lockstep sampler (load, segcache bytes, fault score), the
//               kernel's dump and restart paths (latency, bytes), and every
//               migrate leg (end-to-end latency, per-host error outcomes). No
//               points are retained: each observation folds into the series'
//               detector and the SLO windows watching its metric, and only
//               the observed (host, metric) keys are kept, for phealth.
//   anomaly   — an online detector per series: Welford rolling mean/variance
//               for the baseline, an EWMA for "what the signal is doing now",
//               and a z-score between them. Crossing the threshold raises an
//               anomaly (with hysteresis); the baseline freezes while anomalous
//               so a sustained shift cannot teach itself normal.
//   SLOs      — per-operation objectives ("migrate end-to-end ≤ 3 s for 90% of
//               migrations") with error-budget accounting over a window and
//               classic fast/slow burn-rate alert rules, all evaluated in
//               virtual time at observation/tick edges (never via clock timers).
//
// Alerts surface three ways: {"type":"alert"} lines in Cluster::WriteReport, a
// FlightRecorder post-mortem tagged [alert=<rule> host=<h>] at each firing
// edge, and a per-host HealthScore that the placement engine reads to demote
// anomalous (not just faulted) hosts under the fault-aware policies.
//
// Everything here is pure bookkeeping: no RNG, no timers, no virtual-time
// charge, and no clock reads outside the values callers pass in — so a monitor
// nobody reads leaves every virtual-time result bit-identical, and the default
// configuration (no SLOs, anomaly detection off) disables the monitor outright.

#ifndef PMIG_SRC_SIM_HEALTH_MONITOR_H_
#define PMIG_SRC_SIM_HEALTH_MONITOR_H_

#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "src/sim/clock.h"
#include "src/sim/time.h"

namespace pmig::sim {

class FlightRecorder;

// One service-level objective over a monitored series. An observation of
// `metric` counts against the objective when its value exceeds `threshold`
// (for error-outcome series, threshold 0.5 makes every bad outcome a
// violation). Budgets and burn rates are tracked per host, because every
// observation is host-attributed.
struct Slo {
  std::string name;    // rule name, e.g. "migrate-e2e"
  std::string metric;  // series it watches, e.g. "migrate.e2e_ns"
  double threshold = 0;
  double objective = 0.99;         // promised fraction of good observations
  Nanos window = Seconds(60);      // error-budget accounting window
  Nanos fast_window = Seconds(5);  // burn measured over this fires a page...
  double fast_burn = 10.0;         // ...at this multiple of budget rate
  Nanos slow_window = Seconds(30); // ...and over this files a ticket
  double slow_burn = 2.0;
  int min_events = 3;  // windows with fewer observations never fire
};

// The detector's EWMA weight, z thresholds and sigma floor are constants in
// health_monitor.cc.
struct HealthOptions {
  // Arms the Welford/EWMA detector on every series the monitor observes.
  bool anomaly_detection = false;
  // Baseline observations required before detection arms (a two-point history
  // has no business declaring anomalies).
  int min_samples = 8;
};

// One firing (and possibly later resolution) of an alert rule against a host.
struct HealthAlert {
  Nanos at = 0;
  std::string rule;  // "anomaly:<metric>", "<slo>:fast", or "<slo>:slow"
  std::string host;
  double value = 0;  // z-score or burn rate at the firing edge
  std::string detail;
  bool resolved = false;
  Nanos resolved_at = -1;
};

class HealthMonitor {
 public:
  HealthMonitor(const VirtualClock* clock, HealthOptions options, std::vector<Slo> slos);

  HealthMonitor(const HealthMonitor&) = delete;
  HealthMonitor& operator=(const HealthMonitor&) = delete;

  // Armed iff anomaly detection is on or at least one SLO is configured. While
  // disabled every entry point is a single-branch no-op, so default-config runs
  // carry no monitor state at all.
  bool enabled() const { return enabled_; }
  const HealthOptions& options() const { return options_; }
  const std::vector<Slo>& slos() const { return slos_; }

  // Alert firing edges additionally dump a post-mortem here (may be null).
  void set_flight_recorder(FlightRecorder* recorder) { recorder_ = recorder; }

  // Records one observation of `metric` against `host` at the current virtual
  // time: advances the series' anomaly detector and feeds every SLO watching
  // the metric.
  void Observe(std::string_view host, std::string_view metric, double value);
  // Convenience for error-rate series: observes 1 (bad) or 0 (good).
  void ObserveOutcome(std::string_view host, std::string_view metric, bool bad) {
    Observe(host, metric, bad ? 1.0 : 0.0);
  }

  // Re-evaluates burn-rate alert states at the current virtual time (window
  // contents age out even when no new observation arrives). The cluster's
  // lockstep sampler calls this; it is idempotent and costs no virtual time.
  void Tick();

  // --- Read side (surveys: no virtual time, no RNG) ---
  // Hosts with at least one observed series, sorted, and one host's observed
  // metrics, sorted.
  std::vector<std::string> Hosts() const;
  std::vector<std::string> SeriesNames(std::string_view host) const;

  // Current z-score of the series' EWMA against its baseline (0 until the
  // detector has min_samples of baseline), and whether it is anomalous now.
  double AnomalyZ(std::string_view host, std::string_view metric) const;
  bool Anomalous(std::string_view host, std::string_view metric) const;

  // The health penalty placement reads: 0 for a healthy host; +1 per anomalous
  // series, +2 per firing fast-burn alert, +1 per firing slow-burn alert. The
  // fault-aware placement policies demote hosts at or above their threshold
  // (default 1.0 — any active signal demotes).
  double HealthScore(std::string_view host) const;

  // SLO budget status per (rule, host) with at least one observation.
  struct BudgetStatus {
    const Slo* slo = nullptr;
    std::string host;
    int64_t events = 0;      // observations inside `window`
    int64_t bad = 0;         // violations inside `window`
    double allowed = 0;      // error budget: (1 - objective) * events
    double burn_fast = 0;    // bad-fraction over fast_window / (1 - objective)
    double burn_slow = 0;
    bool firing_fast = false;
    bool firing_slow = false;
  };
  std::vector<BudgetStatus> Budgets() const;

  // Every alert ever fired, in firing order (resolved ones stay, flagged).
  const std::vector<HealthAlert>& alerts() const { return alerts_; }
  int ActiveAlerts() const;

 private:
  struct SeriesKey {
    std::string host;
    std::string metric;
    bool operator<(const SeriesKey& o) const {
      if (host != o.host) return host < o.host;
      return metric < o.metric;
    }
  };

  // Online detector state for one series.
  struct Detector {
    int64_t n = 0;  // baseline sample count (anomalous samples are not folded in)
    double mean = 0;
    double m2 = 0;  // Welford sum of squared deviations
    double ewma = 0;
    bool ewma_init = false;
    double lo = 0, hi = 0;  // observed value range, all samples (sigma floor)
    bool range_init = false;
    double z = 0;
    bool anomalous = false;
  };

  // Sliding outcome window for one (slo, host) pair.
  struct SloState {
    size_t slo_index = 0;
    std::deque<std::pair<Nanos, bool>> events;  // (at, violated)
    bool firing_fast = false;
    bool firing_slow = false;
  };

  struct Burn {
    int64_t events = 0;
    int64_t bad = 0;
    double rate = 0;  // bad fraction / allowed fraction
  };

  void ObserveAnomaly(const SeriesKey& key, Detector& d, double value);
  void ObserveSlo(SloState& state, const std::string& host, Nanos now, bool violated);
  void EvaluateSlo(SloState& state, const std::string& host, Nanos now);
  Burn BurnOver(const SloState& state, Nanos now, Nanos window) const;
  void Raise(const std::string& rule, const std::string& host, double value,
             const std::string& detail);
  void Resolve(const std::string& rule, const std::string& host);

  bool enabled_;
  const VirtualClock* clock_;
  HealthOptions options_;
  std::vector<Slo> slos_;
  FlightRecorder* recorder_ = nullptr;
  std::set<SeriesKey> observed_;
  std::map<SeriesKey, Detector> detectors_;
  std::map<std::pair<size_t, std::string>, SloState> slo_states_;  // (slo idx, host)
  std::vector<HealthAlert> alerts_;
  std::map<std::string, size_t> open_alerts_;  // "rule|host" -> index in alerts_
};

}  // namespace pmig::sim

#endif  // PMIG_SRC_SIM_HEALTH_MONITOR_H_
