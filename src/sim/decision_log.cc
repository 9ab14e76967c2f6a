#include "src/sim/decision_log.h"

#include <cstdio>
#include <ostream>

#include "src/sim/metrics.h"  // JsonEscape

namespace pmig::sim {

namespace {

// Shortest-round-trip-ish double formatting shared by every rendering so the
// canonical diff lines, the JSONL report, and the pwhy table all agree on what
// a score looks like.
std::string Num(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

uint64_t DecisionLog::Record(DecisionRecord record) {
  if (!enabled_) return 0;
  record.seq = next_seq_++;
  record.at = clock_ != nullptr ? clock_->now() : 0;
  records_.push_back(std::move(record));
  while (records_.size() > capacity_) records_.pop_front();
  return records_.back().seq;
}

void DecisionLog::AttachOutcome(int32_t pid, std::string_view from_host,
                                std::string_view chosen, int rc,
                                uint64_t trace_id) {
  if (!enabled_) return;
  for (auto it = records_.rbegin(); it != records_.rend(); ++it) {
    if (it->outcome_rc != DecisionRecord::kNoOutcome) continue;
    if (it->pid != pid || it->from_host != from_host || it->chosen != chosen) {
      continue;
    }
    it->outcome_rc = rc;
    it->trace_id = trace_id;
    return;
  }
}

const DecisionRecord* DecisionLog::Latest() const {
  return records_.empty() ? nullptr : &records_.back();
}

const DecisionRecord* DecisionLog::LatestForPid(int32_t pid) const {
  for (auto it = records_.rbegin(); it != records_.rend(); ++it) {
    if (it->pid == pid) return &*it;
  }
  return nullptr;
}

const DecisionRecord* DecisionLog::LatestForHost(std::string_view host) const {
  for (auto it = records_.rbegin(); it != records_.rend(); ++it) {
    if (it->chosen == host || it->runner_up == host || it->from_host == host) {
      return &*it;
    }
    for (const DecisionCandidate& c : it->candidates) {
      if (c.host == host) return &*it;
    }
    for (const DecisionExclusion& e : it->exclusions) {
      if (e.host == host) return &*it;
    }
  }
  return nullptr;
}

std::string DecisionLog::Render(const DecisionRecord& r) {
  std::string out = "decision #" + std::to_string(r.seq) +
                    " t=" + std::to_string(r.at) + "ns " + r.context + "/" +
                    r.policy + " via " + r.source + ": pid " +
                    std::to_string(r.pid) + " from " +
                    (r.from_host.empty() ? "-" : r.from_host) + " -> " +
                    (r.chosen.empty() ? "NO TARGET" : r.chosen);
  if (!r.runner_up.empty()) {
    out += " (runner-up " + r.runner_up + "; margin " + r.margin_factor + "=" +
           Num(r.margin) + ")";
  } else {
    out += " (" + r.margin_factor + ")";
  }
  if (r.near_tie) out += " NEAR-TIE";
  out += " [trace=" + std::to_string(r.trace_id) +
         " rc=" + std::to_string(r.outcome_rc) + "]\n";
  out += "  host             load   est_bytes   fault  health  verdict\n";
  for (const DecisionCandidate& c : r.candidates) {
    const char* verdict = c.host == r.chosen      ? "CHOSEN"
                          : c.host == r.runner_up ? "runner-up"
                                                  : "";
    char line[192];
    std::snprintf(line, sizeof(line), "  %-15s %5d %11lld %7s %7s  %s\n",
                  c.host.c_str(), c.load, static_cast<long long>(c.est_bytes),
                  Num(c.fault_score).c_str(), Num(c.health_score).c_str(),
                  verdict);
    out += line;
  }
  for (const DecisionExclusion& e : r.exclusions) {
    out += "  " + e.host + ": excluded (" + e.reason;
    if (e.value != 0) out += " " + Num(e.value);
    out += ")\n";
  }
  return out;
}

std::string DecisionLog::CanonicalLine(const DecisionRecord& r) {
  std::string out = "ctx=" + r.context + " policy=" + r.policy +
                    " from=" + r.from_host + " pid=" + std::to_string(r.pid) +
                    " chosen=" + r.chosen + " ru=" + r.runner_up +
                    " margin=" + r.margin_factor + ":" + Num(r.margin) +
                    " rc=" + std::to_string(r.outcome_rc) + " cands[";
  for (size_t i = 0; i < r.candidates.size(); ++i) {
    const DecisionCandidate& c = r.candidates[i];
    if (i != 0) out += "|";
    out += c.host + ":l" + std::to_string(c.load) + ",b" +
           std::to_string(c.est_bytes) + ",f" + Num(c.fault_score) + ",h" +
           Num(c.health_score);
  }
  out += "] excl[";
  for (size_t i = 0; i < r.exclusions.size(); ++i) {
    const DecisionExclusion& e = r.exclusions[i];
    if (i != 0) out += "|";
    out += e.host + ":" + e.reason;
    if (e.value != 0) out += "=" + Num(e.value);
  }
  out += "]";
  return out;
}

std::string DecisionLog::OutcomeSequence() const {
  std::string out;
  for (const DecisionRecord& r : records_) {
    if (r.outcome_rc == DecisionRecord::kNoOutcome) continue;
    out += std::to_string(r.pid) + ":" + r.from_host + "->" + r.chosen + "=" +
           std::to_string(r.outcome_rc) + ";";
  }
  return out;
}

void DecisionLog::WriteJsonl(std::ostream& out) const {
  for (const DecisionRecord& r : records_) {
    out << "{\"type\":\"decision\",\"seq\":" << r.seq << ",\"t_ns\":" << r.at
        << ",\"ctx\":\"" << JsonEscape(r.context) << "\",\"policy\":\""
        << JsonEscape(r.policy) << "\",\"src\":\""
        << JsonEscape(r.source) << "\",\"from\":\""
        << JsonEscape(r.from_host) << "\",\"pid\":" << r.pid
        << ",\"chosen\":\"" << JsonEscape(r.chosen)
        << "\",\"runner_up\":\"" << JsonEscape(r.runner_up)
        << "\",\"margin_factor\":\"" << JsonEscape(r.margin_factor)
        << "\",\"margin\":" << Num(r.margin)
        << ",\"near_tie\":" << (r.near_tie ? "true" : "false")
        << ",\"trace\":" << r.trace_id << ",\"rc\":" << r.outcome_rc
        << ",\"candidates\":[";
    for (size_t i = 0; i < r.candidates.size(); ++i) {
      const DecisionCandidate& c = r.candidates[i];
      if (i != 0) out << ",";
      out << "{\"host\":\"" << JsonEscape(c.host)
          << "\",\"load\":" << c.load << ",\"est_bytes\":" << c.est_bytes
          << ",\"fault\":" << Num(c.fault_score)
          << ",\"health\":" << Num(c.health_score) << "}";
    }
    out << "],\"exclusions\":[";
    for (size_t i = 0; i < r.exclusions.size(); ++i) {
      const DecisionExclusion& e = r.exclusions[i];
      if (i != 0) out << ",";
      out << "{\"host\":\"" << JsonEscape(e.host) << "\",\"reason\":\""
          << JsonEscape(e.reason) << "\",\"value\":" << Num(e.value)
          << "}";
    }
    out << "]}\n";
  }
}

}  // namespace pmig::sim
