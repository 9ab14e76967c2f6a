#include "src/sim/span.h"

#include <algorithm>

#include "src/sim/flight_recorder.h"

namespace pmig::sim {

uint64_t SpanLog::Begin(std::string phase, std::string host, int32_t pid,
                        uint64_t trace_id, uint64_t parent_id) {
  if (!enabled_) return 0;
  SpanRecord record;
  record.id = next_id_++;
  record.phase = std::move(phase);
  record.host = std::move(host);
  record.pid = pid;
  record.begin = clock_->now();
  record.trace_id = trace_id;
  record.parent_id = parent_id;
  if (recorder_ != nullptr && recorder_->enabled()) {
    recorder_->Note(record.host, record.pid, record.trace_id,
                    "span begin phase=" + record.phase + " id=" + std::to_string(record.id));
  }
  spans_.push_back(std::move(record));
  return spans_.back().id;
}

void SpanLog::End(uint64_t id) {
  if (id == 0) return;
  for (auto it = spans_.rbegin(); it != spans_.rend(); ++it) {
    if (it->id != id) continue;
    if (it->closed()) return;  // double End; keep the first
    it->end = clock_->now();
    if (recorder_ != nullptr && recorder_->enabled()) {
      recorder_->Note(it->host, it->pid, it->trace_id,
                      "span end phase=" + it->phase + " id=" + std::to_string(it->id) +
                          " dur_ns=" + std::to_string(it->duration()));
    }
    return;
  }
}

const SpanRecord* SpanLog::Find(uint64_t id) const {
  for (const SpanRecord& s : spans_) {
    if (s.id == id) return &s;
  }
  return nullptr;
}

std::map<std::string, Nanos> SpanLog::PhaseSelfTimes() const {
  // Closed spans in Begin order are sorted by begin time, and spans on one
  // virtual timeline nest properly, so a stack sweep assigns each span to its
  // enclosing parent: pop every span that ended before this one starts, then the
  // stack top (if any) is the parent.
  struct Open {
    const SpanRecord* record;
    Nanos child_time = 0;
  };
  std::map<std::string, Nanos> out;
  std::vector<Open> stack;

  const auto finalize_top = [&] {
    const Open top = stack.back();
    stack.pop_back();
    const Nanos self = std::max<Nanos>(top.record->duration() - top.child_time, 0);
    out[top.record->phase] += self;
    if (!stack.empty()) stack.back().child_time += top.record->duration();
  };

  for (const SpanRecord& s : spans_) {
    if (!s.closed()) continue;
    while (!stack.empty() && stack.back().record->end <= s.begin) finalize_top();
    stack.push_back(Open{&s});
  }
  while (!stack.empty()) finalize_top();
  return out;
}

std::vector<uint64_t> SpanLog::TraceIds() const {
  std::vector<uint64_t> ids;
  for (const SpanRecord& s : spans_) {
    if (s.trace_id == 0 || !s.closed()) continue;
    if (std::find(ids.begin(), ids.end(), s.trace_id) == ids.end()) ids.push_back(s.trace_id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

const SpanRecord* SpanLog::TraceRoot(uint64_t trace_id) const {
  if (trace_id == 0) return nullptr;
  for (const SpanRecord& s : spans_) {
    if (s.trace_id != trace_id || !s.closed()) continue;
    if (s.parent_id == 0) return &s;
    const SpanRecord* parent = Find(s.parent_id);
    if (parent == nullptr || parent->trace_id != trace_id) return &s;
  }
  return nullptr;
}

std::map<std::string, Nanos> SpanLog::TraceSelfTimes(uint64_t trace_id) const {
  // Tree-based, not timeline-based: a trace's spans live on several hosts, so
  // the stack sweep of PhaseSelfTimes does not apply; the explicit parent
  // links do. Children of one parent are sequential in virtual time (the
  // migration tools run their legs one after another), so subtracting direct
  // children's durations from each span partitions the root exactly.
  std::map<std::string, Nanos> out;
  if (trace_id == 0) return out;
  std::map<uint64_t, Nanos> child_time;
  for (const SpanRecord& s : spans_) {
    if (s.trace_id != trace_id || !s.closed()) continue;
    if (s.parent_id != 0) child_time[s.parent_id] += s.duration();
  }
  for (const SpanRecord& s : spans_) {
    if (s.trace_id != trace_id || !s.closed()) continue;
    const auto it = child_time.find(s.id);
    const Nanos children = it != child_time.end() ? it->second : 0;
    out[s.phase] += std::max<Nanos>(s.duration() - children, 0);
  }
  return out;
}

}  // namespace pmig::sim
