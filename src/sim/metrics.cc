#include "src/sim/metrics.h"

#include <algorithm>
#include <cstdio>

namespace pmig::sim {

namespace {

size_t BucketOf(Nanos value) {
  size_t bucket = 0;
  while (value > 1 && bucket + 1 < Histogram::kBuckets) {
    value >>= 1;
    ++bucket;
  }
  return bucket;
}

}  // namespace

void Histogram::Record(Nanos value) {
  value = std::max<Nanos>(value, 0);
  if (count == 0) {
    min = max = value;
  } else {
    min = std::min(min, value);
    max = std::max(max, value);
  }
  ++count;
  sum += value;
  ++buckets[BucketOf(value)];
}

void Histogram::MergeFrom(const Histogram& other) {
  if (other.count == 0) return;
  if (count == 0) {
    min = other.min;
    max = other.max;
  } else {
    min = std::min(min, other.min);
    max = std::max(max, other.max);
  }
  count += other.count;
  sum += other.sum;
  for (size_t i = 0; i < kBuckets; ++i) buckets[i] += other.buckets[i];
}

Nanos Histogram::Percentile(double p) const {
  if (count == 0) return 0;
  p = std::min(std::max(p, 0.0), 100.0);
  // The extremes are tracked exactly; only interior percentiles need the
  // log2-bucket estimate.
  if (p == 0.0) return min;
  if (p == 100.0) return max;
  // Rank of the percentile observation, 1-based (nearest-rank definition).
  const int64_t rank = std::max<int64_t>(
      1, static_cast<int64_t>(static_cast<double>(count) * p / 100.0 + 0.5));
  int64_t seen = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    if (buckets[i] == 0) continue;
    if (seen + buckets[i] < rank) {
      seen += buckets[i];
      continue;
    }
    // Interpolate within bucket i, whose value range is [lo, hi).
    const Nanos lo = i == 0 ? 0 : Nanos{1} << i;
    const Nanos hi = Nanos{1} << (i + 1);
    const double frac =
        static_cast<double>(rank - seen) / static_cast<double>(buckets[i]);
    const Nanos est = lo + static_cast<Nanos>(static_cast<double>(hi - lo) * frac);
    return std::min(std::max(est, min), max);
  }
  return max;
}

void MetricsRegistry::Observe(std::string_view name, Nanos value) {
  if (!enabled_) return;
  auto it = histograms_.find(name);
  if (it == histograms_.end()) it = histograms_.emplace(std::string(name), Histogram{}).first;
  it->second.Record(value);
}

int64_t MetricsRegistry::Counter(std::string_view name) const {
  const auto it = counters_.find(name);
  return it != counters_.end() ? it->second : 0;
}

int64_t MetricsRegistry::Gauge(std::string_view name) const {
  const auto it = gauges_.find(name);
  return it != gauges_.end() ? it->second : 0;
}

const Histogram* MetricsRegistry::FindHistogram(std::string_view name) const {
  const auto it = histograms_.find(name);
  return it != histograms_.end() ? &it->second : nullptr;
}

void MetricsRegistry::MergeFrom(const MetricsRegistry& other) {
  for (const auto& [name, value] : other.counters_) Slot(counters_, name) += value;
  for (const auto& [name, value] : other.gauges_) Slot(gauges_, name) += value;
  for (const auto& [name, hist] : other.histograms_) {
    auto it = histograms_.find(name);
    if (it == histograms_.end()) it = histograms_.emplace(name, Histogram{}).first;
    it->second.MergeFrom(hist);
  }
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace pmig::sim
