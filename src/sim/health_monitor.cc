#include "src/sim/health_monitor.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "src/sim/flight_recorder.h"

namespace pmig::sim {

namespace {

// Weight of the newest observation in the EWMA ("what the signal does now").
constexpr double kEwmaAlpha = 0.3;
// |ewma - mean| / sigma at which a series becomes anomalous, and the
// hysteresis level below which it recovers.
constexpr double kAnomalyZ = 3.0;
constexpr double kAnomalyClearZ = 1.5;
// Sigma floor, as a fraction of the observed value range: near-constant
// series would otherwise turn any wiggle into an infinite z-score.
constexpr double kMinSigmaFrac = 0.05;

std::string AlertKey(const std::string& rule, const std::string& host) {
  return rule + "|" + host;
}

std::string FormatValue(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3g", v);
  return buf;
}

}  // namespace

HealthMonitor::HealthMonitor(const VirtualClock* clock, HealthOptions options,
                             std::vector<Slo> slos)
    : enabled_(options.anomaly_detection || !slos.empty()),
      clock_(clock),
      options_(options),
      slos_(std::move(slos)) {}

void HealthMonitor::Observe(std::string_view host, std::string_view metric,
                            double value) {
  if (!enabled_) return;
  const Nanos now = clock_->now();
  const SeriesKey& key = *observed_.insert({std::string(host), std::string(metric)}).first;

  if (options_.anomaly_detection) ObserveAnomaly(key, detectors_[key], value);

  for (size_t i = 0; i < slos_.size(); ++i) {
    if (slos_[i].metric != metric) continue;
    SloState& state = slo_states_[{i, key.host}];
    state.slo_index = i;
    ObserveSlo(state, key.host, now, value > slos_[i].threshold);
  }
}

void HealthMonitor::ObserveAnomaly(const SeriesKey& key, Detector& d, double value) {
  // EWMA tracks the signal's present regardless of anomaly state, so a
  // recovered signal pulls itself back under the threshold and resolves.
  d.ewma = d.ewma_init ? kEwmaAlpha * value + (1 - kEwmaAlpha) * d.ewma : value;
  d.ewma_init = true;

  // The range (sigma floor) tracks every observation, anomalous ones included.
  // A pristine all-identical baseline (an error series of all zeros) would
  // otherwise keep a degenerate floor after the first deviation and never
  // resolve: once 1.0 enters the range, the floor is 0.05 and a few clean
  // observations pull the EWMA back under the clear threshold.
  if (!d.range_init) {
    d.lo = d.hi = value;
    d.range_init = true;
  } else {
    d.lo = std::min(d.lo, value);
    d.hi = std::max(d.hi, value);
  }

  if (d.n >= options_.min_samples) {
    const double variance =
        d.n > 1 ? d.m2 / static_cast<double>(d.n - 1) : 0.0;
    double sigma = std::sqrt(std::max(variance, 0.0));
    // Sigma floor: a near-constant baseline (every migrate succeeding, a flat
    // load) must not turn the first wiggle into an infinite z-score — but it
    // should still register a clear shift. Floor at a fraction of the observed
    // range, with a tiny absolute floor for the all-identical case.
    const double range = d.range_init ? d.hi - d.lo : 0.0;
    sigma = std::max({sigma, kMinSigmaFrac * range, 1e-9});
    d.z = std::abs(d.ewma - d.mean) / sigma;
  } else {
    d.z = 0;
  }

  const bool was = d.anomalous;
  if (!was && d.z >= kAnomalyZ) {
    d.anomalous = true;
    Raise("anomaly:" + key.metric, key.host, d.z,
          "ewma=" + FormatValue(d.ewma) + " baseline=" + FormatValue(d.mean) +
              " z=" + FormatValue(d.z));
  } else if (was && d.z < kAnomalyClearZ) {
    d.anomalous = false;
    Resolve("anomaly:" + key.metric, key.host);
  }

  // The baseline learns only from non-anomalous observations: a sustained shift
  // must stay anomalous rather than teaching itself normal. (It still recovers:
  // once the EWMA returns to baseline the series resolves and learning resumes.)
  if (!d.anomalous) {
    ++d.n;
    const double delta = value - d.mean;
    d.mean += delta / static_cast<double>(d.n);
    d.m2 += delta * (value - d.mean);
  }
}

HealthMonitor::Burn HealthMonitor::BurnOver(const SloState& state, Nanos now,
                                            Nanos window) const {
  Burn burn;
  const Nanos since = now - window;
  for (const auto& [at, violated] : state.events) {
    if (at < since) continue;
    ++burn.events;
    if (violated) ++burn.bad;
  }
  const Slo& slo = slos_[state.slo_index];
  const double allowed_frac = std::max(1.0 - slo.objective, 1e-9);
  if (burn.events >= slo.min_events) {
    burn.rate = (static_cast<double>(burn.bad) / static_cast<double>(burn.events)) /
                allowed_frac;
  }
  return burn;
}

void HealthMonitor::ObserveSlo(SloState& state, const std::string& host, Nanos now,
                               bool violated) {
  state.events.emplace_back(now, violated);
  const Slo& slo = slos_[state.slo_index];
  const Nanos keep = std::max({slo.window, slo.fast_window, slo.slow_window});
  while (!state.events.empty() && state.events.front().first < now - keep) {
    state.events.pop_front();
  }
  EvaluateSlo(state, host, now);
}

void HealthMonitor::EvaluateSlo(SloState& state, const std::string& host, Nanos now) {
  const Slo& slo = slos_[state.slo_index];
  const Burn fast = BurnOver(state, now, slo.fast_window);
  const Burn slow = BurnOver(state, now, slo.slow_window);
  // Hysteresis at 80%: a rate hovering exactly at the threshold must not
  // flap an alert on every observation.
  if (!state.firing_fast && fast.rate >= slo.fast_burn) {
    state.firing_fast = true;
    Raise(slo.name + ":fast", host, fast.rate,
          "burn=" + FormatValue(fast.rate) + "x over " +
              std::to_string(slo.fast_window / 1000000000) + "s (" +
              std::to_string(fast.bad) + "/" + std::to_string(fast.events) + " bad)");
  } else if (state.firing_fast && fast.rate < 0.8 * slo.fast_burn) {
    state.firing_fast = false;
    Resolve(slo.name + ":fast", host);
  }
  if (!state.firing_slow && slow.rate >= slo.slow_burn) {
    state.firing_slow = true;
    Raise(slo.name + ":slow", host, slow.rate,
          "burn=" + FormatValue(slow.rate) + "x over " +
              std::to_string(slo.slow_window / 1000000000) + "s (" +
              std::to_string(slow.bad) + "/" + std::to_string(slow.events) + " bad)");
  } else if (state.firing_slow && slow.rate < 0.8 * slo.slow_burn) {
    state.firing_slow = false;
    Resolve(slo.name + ":slow", host);
  }
}

void HealthMonitor::Tick() {
  if (!enabled_) return;
  const Nanos now = clock_->now();
  for (auto& [key, state] : slo_states_) {
    EvaluateSlo(state, key.second, now);
  }
}

void HealthMonitor::Raise(const std::string& rule, const std::string& host,
                          double value, const std::string& detail) {
  HealthAlert alert;
  alert.at = clock_->now();
  alert.rule = rule;
  alert.host = host;
  alert.value = value;
  alert.detail = detail;
  open_alerts_[AlertKey(rule, host)] = alerts_.size();
  alerts_.push_back(std::move(alert));
  if (recorder_ != nullptr && recorder_->enabled()) {
    // The same [alert=...] tag WriteReport and the terminal views use, so an
    // alert greps straight to the ring snapshot of what led up to it.
    recorder_->Dump(host, 0, "[alert=" + rule + " host=" + host + "] " + detail);
  }
}

void HealthMonitor::Resolve(const std::string& rule, const std::string& host) {
  const auto it = open_alerts_.find(AlertKey(rule, host));
  if (it == open_alerts_.end()) return;
  alerts_[it->second].resolved = true;
  alerts_[it->second].resolved_at = clock_->now();
  open_alerts_.erase(it);
}

std::vector<std::string> HealthMonitor::Hosts() const {
  // observed_ is sorted by host first, so each host's keys are adjacent.
  std::vector<std::string> hosts;
  for (const SeriesKey& key : observed_) {
    if (hosts.empty() || hosts.back() != key.host) hosts.push_back(key.host);
  }
  return hosts;
}

std::vector<std::string> HealthMonitor::SeriesNames(std::string_view host) const {
  std::vector<std::string> names;
  for (const SeriesKey& key : observed_) {
    if (key.host == host) names.push_back(key.metric);
  }
  return names;
}

double HealthMonitor::AnomalyZ(std::string_view host, std::string_view metric) const {
  const auto it = detectors_.find(SeriesKey{std::string(host), std::string(metric)});
  return it != detectors_.end() ? it->second.z : 0.0;
}

bool HealthMonitor::Anomalous(std::string_view host, std::string_view metric) const {
  const auto it = detectors_.find(SeriesKey{std::string(host), std::string(metric)});
  return it != detectors_.end() && it->second.anomalous;
}

double HealthMonitor::HealthScore(std::string_view host) const {
  if (!enabled_) return 0;
  double score = 0;
  for (const auto& [key, d] : detectors_) {
    if (key.host == host && d.anomalous) score += 1.0;
  }
  for (const auto& [key, state] : slo_states_) {
    if (key.second != host) continue;
    if (state.firing_fast) score += 2.0;
    if (state.firing_slow) score += 1.0;
  }
  return score;
}

std::vector<HealthMonitor::BudgetStatus> HealthMonitor::Budgets() const {
  std::vector<BudgetStatus> out;
  if (!enabled_) return out;
  const Nanos now = clock_->now();
  for (const auto& [key, state] : slo_states_) {
    const Slo& slo = slos_[key.first];
    BudgetStatus b;
    b.slo = &slo;
    b.host = key.second;
    const Burn window = BurnOver(state, now, slo.window);
    b.events = window.events;
    b.bad = window.bad;
    b.allowed = (1.0 - slo.objective) * static_cast<double>(window.events);
    b.burn_fast = BurnOver(state, now, slo.fast_window).rate;
    b.burn_slow = BurnOver(state, now, slo.slow_window).rate;
    b.firing_fast = state.firing_fast;
    b.firing_slow = state.firing_slow;
    out.push_back(std::move(b));
  }
  return out;
}

int HealthMonitor::ActiveAlerts() const {
  return static_cast<int>(open_alerts_.size());
}

}  // namespace pmig::sim
