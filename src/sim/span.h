// Phase spans: structured begin/end intervals of virtual time.
//
// The paper's evaluation is a cost breakdown — where the ~0.6 s of a SIGDUMP
// goes, how much of a remote-to-remote migrate is rsh connection setup. Spans
// attribute virtual time to those phases: the migration machinery opens a span
// per phase ("signal", "dump", "transfer", "setup", "restart", with a "migrate"
// root spanning the whole command), and the span log keeps the closed records
// for run reports. When the flight recorder is enabled, every Begin/End also
// lands in its host's ring, carrying the span id, so a post-mortem can be
// correlated with the structured report.
//
// Spans on one timeline nest (the simulator is sequential in virtual time), so
// per-phase totals are computed as *self* time: a span's duration minus the
// durations of the spans nested inside it. Summing self time over every phase of
// a migration therefore reproduces the end-to-end time exactly.

#ifndef PMIG_SRC_SIM_SPAN_H_
#define PMIG_SRC_SIM_SPAN_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/sim/clock.h"
#include "src/sim/time.h"

namespace pmig::sim {

class FlightRecorder;

struct SpanRecord {
  uint64_t id = 0;
  std::string phase;
  std::string host;
  int32_t pid = -1;
  Nanos begin = 0;
  Nanos end = -1;  // -1 while open
  // Distributed-trace context: spans recorded on different hosts that carry the
  // same trace_id belong to one causal migration, and parent_id links them into
  // a tree (0 = root / no parent). Both are 0 for spans opened outside a trace.
  uint64_t trace_id = 0;
  uint64_t parent_id = 0;

  bool closed() const { return end >= 0; }
  Nanos duration() const { return closed() ? end - begin : 0; }
};

class SpanLog {
 public:
  explicit SpanLog(VirtualClock* clock) : clock_(clock) {}

  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  // Opens a span at the current virtual time. Returns its id, or 0 while
  // disabled (End(0) is a no-op, so callers need not re-check). The trace_id /
  // parent_id pair is the caller's distributed-trace context; 0/0 records a
  // context-free span exactly as before.
  uint64_t Begin(std::string phase, std::string host, int32_t pid,
                 uint64_t trace_id = 0, uint64_t parent_id = 0);
  void End(uint64_t id);

  // Mints a cluster-unique trace id (one SpanLog is shared cluster-wide).
  // Returns 0 while disabled so a disabled run never stamps ids anywhere.
  uint64_t MintTraceId() { return enabled_ ? next_trace_id_++ : 0; }

  // Events additionally mirror into `recorder` (may be null) when it is
  // enabled; the recorder never charges virtual time.
  void set_flight_recorder(FlightRecorder* recorder) { recorder_ = recorder; }

  const std::vector<SpanRecord>& spans() const { return spans_; }
  const SpanRecord* Find(uint64_t id) const;

  // Self (exclusive) virtual time per phase over all closed spans: each span's
  // duration minus the durations of spans nested directly inside it. Open spans
  // are ignored.
  std::map<std::string, Nanos> PhaseSelfTimes() const;

  // All distinct nonzero trace ids with at least one closed span, ascending.
  std::vector<uint64_t> TraceIds() const;
  // Root span of a trace (closed span with this trace_id whose parent_id is 0
  // or refers to no recorded span), or nullptr.
  const SpanRecord* TraceRoot(uint64_t trace_id) const;
  // Per-phase self time within one trace, computed from the parent links (not
  // the timeline sweep), so it works across hosts: each span's duration minus
  // its direct children's durations. Summing over a well-nested trace tree
  // reproduces the root's duration exactly.
  std::map<std::string, Nanos> TraceSelfTimes(uint64_t trace_id) const;

 private:
  bool enabled_ = false;
  uint64_t next_id_ = 1;
  uint64_t next_trace_id_ = 1;
  VirtualClock* clock_;
  FlightRecorder* recorder_ = nullptr;
  std::vector<SpanRecord> spans_;
};

}  // namespace pmig::sim

#endif  // PMIG_SRC_SIM_SPAN_H_
