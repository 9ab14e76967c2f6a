// Metrics: named counters, gauges, and virtual-time histograms.
//
// Each kernel owns one registry (per-host metrics, like a per-machine /dev/kmem
// statistics page); the cluster aggregates them for run reports. Everything is off
// by default: while disabled, Inc/Set/Observe return after a single branch and
// allocate nothing, so instrumentation can live permanently on hot paths without
// perturbing the deterministic virtual-time results (the figures must be
// bit-identical with metrics off).
//
// Names are dotted strings ("kernel.syscall.5", "net.bytes.brick->schooner");
// dynamic label material (syscall numbers, host pairs) is folded into the name, so
// callers that build names should guard on enabled() first.

#ifndef PMIG_SRC_SIM_METRICS_H_
#define PMIG_SRC_SIM_METRICS_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "src/sim/time.h"

namespace pmig::sim {

// Log2-bucketed histogram of virtual-time durations (nanoseconds). Bucket i
// counts values v with 2^i <= v < 2^(i+1); bucket 0 also takes v <= 1.
struct Histogram {
  static constexpr size_t kBuckets = 48;  // 2^47 ns ≈ 39 hours, ample for any run

  int64_t count = 0;
  Nanos sum = 0;
  Nanos min = 0;
  Nanos max = 0;
  std::array<int64_t, kBuckets> buckets{};

  void Record(Nanos value);
  void MergeFrom(const Histogram& other);
  Nanos Mean() const { return count > 0 ? sum / count : 0; }
  // Estimated p-th percentile (p in [0,100]) from the log2 buckets: find the
  // bucket where the cumulative count crosses p% and interpolate linearly
  // within it, clamped to the exact observed [min, max]. Empty histogram: 0.
  Nanos Percentile(double p) const;
};

class CounterHandle;

class MetricsRegistry {
 public:
  using CounterMap = std::map<std::string, int64_t, std::less<>>;
  using HistogramMap = std::map<std::string, Histogram, std::less<>>;

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  // Monotonic counter. No-op (one branch, no allocation) while disabled.
  void Inc(std::string_view name, int64_t delta = 1) {
    if (!enabled_) return;
    Slot(counters_, name) += delta;
  }

  // Last-value gauge (e.g. the scheduler's current runnable count).
  void Set(std::string_view name, int64_t value) {
    if (!enabled_) return;
    Slot(gauges_, name) = value;
  }

  // Records one virtual-time duration into the named histogram.
  void Observe(std::string_view name, Nanos value);

  // Zero when the name has never been incremented/set.
  int64_t Counter(std::string_view name) const;
  int64_t Gauge(std::string_view name) const;
  const Histogram* FindHistogram(std::string_view name) const;

  const CounterMap& counters() const { return counters_; }
  const CounterMap& gauges() const { return gauges_; }
  const HistogramMap& histograms() const { return histograms_; }

  // Folds `other`'s data into this registry (counters and gauges add, histograms
  // merge), regardless of either registry's enabled flag — used by the cluster to
  // aggregate per-host registries into one report.
  void MergeFrom(const MetricsRegistry& other);

  // Pre-resolved handles for hot paths (syscall entry, VFS copy loops): resolve
  // the string-keyed map slot once and reuse the pointer on every subsequent
  // record. Cheap to construct; safe to keep for the registry's lifetime (map
  // entries are never erased).
  CounterHandle MakeCounter(std::string_view name, bool gauge = false);

 private:
  friend class CounterHandle;

  static int64_t& Slot(CounterMap& map, std::string_view name) {
    auto it = map.find(name);
    if (it == map.end()) it = map.emplace(std::string(name), 0).first;
    return it->second;
  }

  bool enabled_ = false;
  CounterMap counters_;
  CounterMap gauges_;
  HistogramMap histograms_;
};

// A counter (or gauge) whose map slot is resolved on its first enabled record.
// While the registry is disabled, Inc/Set return after one branch and — unlike
// the dotted-name API — never even touch the name string. The slot itself is
// only materialised on the first enabled record, so a disabled run's report
// carries no phantom zero-valued entries.
class CounterHandle {
 public:
  CounterHandle() = default;

  void Inc(int64_t delta = 1) {
    if (registry_ == nullptr || !registry_->enabled_) return;
    if (slot_ == nullptr) Bind();
    *slot_ += delta;
  }
  void Set(int64_t value) {
    if (registry_ == nullptr || !registry_->enabled_) return;
    if (slot_ == nullptr) Bind();
    *slot_ = value;
  }

 private:
  friend class MetricsRegistry;
  CounterHandle(MetricsRegistry* registry, std::string name, bool gauge)
      : registry_(registry), name_(std::move(name)), gauge_(gauge) {}

  void Bind() {
    // std::map nodes are pointer-stable, so the slot stays valid for the
    // registry's lifetime.
    slot_ = &MetricsRegistry::Slot(gauge_ ? registry_->gauges_ : registry_->counters_,
                                   name_);
  }

  MetricsRegistry* registry_ = nullptr;
  std::string name_;
  bool gauge_ = false;
  int64_t* slot_ = nullptr;
};

inline CounterHandle MetricsRegistry::MakeCounter(std::string_view name, bool gauge) {
  return CounterHandle(this, std::string(name), gauge);
}

// Minimal JSON string escaping for report writers (quotes, backslashes, control
// characters). Metric/host names are plain ASCII; this keeps the output valid
// even if one is not.
std::string JsonEscape(std::string_view s);

}  // namespace pmig::sim

#endif  // PMIG_SRC_SIM_METRICS_H_
