// Flight recorder: a per-host bounded ring of recent events kept in memory so
// a failed migration can be diagnosed *after the fact*. It is the simulator's
// one event log.
//
// The chaos soak injects faults over hundreds of virtual seconds; when one
// migrate leg finally falls back, the interesting events happened long before
// anyone knew to look. The recorder is the always-cheap answer: every span
// begin/end and every migration or signal note the kernel makes is appended to
// a fixed-capacity ring for its host (old events fall off the back), and when a
// migrate transaction fails, falls back, or the kernel aborts a dump, the
// caller snapshots the ring into a JSONL post-mortem tagged with the trace id
// and a reason. Post-mortems are held in memory, where tests assert on them
// and Cluster::WriteReport summarises them.
//
// Recording is pure bookkeeping: it charges no virtual time and consumes no
// randomness, so an enabled recorder never perturbs the simulation.

#ifndef PMIG_SRC_SIM_FLIGHT_RECORDER_H_
#define PMIG_SRC_SIM_FLIGHT_RECORDER_H_

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "src/sim/clock.h"
#include "src/sim/time.h"

namespace pmig::sim {

struct FlightEvent {
  Nanos at = 0;
  std::string host;
  int32_t pid = -1;
  uint64_t trace_id = 0;
  std::string what;
};

class FlightRecorder {
 public:
  struct Postmortem {
    Nanos at = 0;
    std::string host;
    uint64_t trace_id = 0;
    std::string reason;
    std::string jsonl;  // one JSON object per line: the ring at dump time
  };

  explicit FlightRecorder(const VirtualClock* clock, size_t capacity_per_host = 256)
      : clock_(clock), capacity_(capacity_per_host) {}

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  // Appends an event to `host`'s ring, evicting the oldest past capacity.
  // No-op while disabled.
  void Note(const std::string& host, int32_t pid, uint64_t trace_id, std::string what);

  // Snapshots `host`'s ring into a post-mortem. A dump never clears the ring:
  // two failures in quick succession each get the full recent history.
  void Dump(const std::string& host, uint64_t trace_id, const std::string& reason);

  const std::vector<Postmortem>& postmortems() const { return postmortems_; }
  const std::deque<FlightEvent>& ring(const std::string& host) const;

 private:
  bool enabled_ = false;
  const VirtualClock* clock_;
  size_t capacity_;
  std::map<std::string, std::deque<FlightEvent>> rings_;
  std::vector<Postmortem> postmortems_;
};

}  // namespace pmig::sim

#endif  // PMIG_SRC_SIM_FLIGHT_RECORDER_H_
