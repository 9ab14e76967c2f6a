#include "src/sim/flight_recorder.h"

#include <sstream>

#include "src/sim/metrics.h"  // JsonEscape

namespace pmig::sim {

void FlightRecorder::Note(const std::string& host, int32_t pid, uint64_t trace_id,
                          std::string what) {
  if (!enabled_ || capacity_ == 0) return;
  std::deque<FlightEvent>& ring = rings_[host];
  ring.push_back(FlightEvent{clock_->now(), host, pid, trace_id, std::move(what)});
  while (ring.size() > capacity_) ring.pop_front();
}

void FlightRecorder::Dump(const std::string& host, uint64_t trace_id,
                          const std::string& reason) {
  if (!enabled_) return;
  Postmortem pm;
  pm.at = clock_->now();
  pm.host = host;
  pm.trace_id = trace_id;
  pm.reason = reason;
  std::ostringstream body;
  body << "{\"type\":\"postmortem\",\"t_ns\":" << pm.at << ",\"host\":\"" << JsonEscape(host)
       << "\",\"trace_id\":" << trace_id << ",\"reason\":\"" << JsonEscape(reason) << "\"}\n";
  const auto it = rings_.find(host);
  if (it != rings_.end()) {
    for (const FlightEvent& e : it->second) {
      body << "{\"type\":\"flight_event\",\"t_ns\":" << e.at << ",\"host\":\""
           << JsonEscape(e.host) << "\",\"pid\":" << e.pid << ",\"trace_id\":" << e.trace_id
           << ",\"what\":\"" << JsonEscape(e.what) << "\"}\n";
    }
  }
  pm.jsonl = body.str();
  postmortems_.push_back(std::move(pm));
}

const std::deque<FlightEvent>& FlightRecorder::ring(const std::string& host) const {
  static const std::deque<FlightEvent> kEmpty;
  const auto it = rings_.find(host);
  return it != rings_.end() ? it->second : kEmpty;
}

}  // namespace pmig::sim
