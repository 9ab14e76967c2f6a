#include "src/sim/fault_history.h"

#include <cmath>

namespace pmig::sim {

namespace {

// Failure weights. An unreachable host is the strongest evidence (the machine
// is dead or the wire to it is); a generic transport errno is ordinary; a tool
// that ran but reported a transient condition is the weakest.
constexpr double kUnreachableWeight = 2.0;
constexpr double kErrnoWeight = 1.0;
constexpr double kTransientWeight = 0.5;
// A completed command divides what remains of the score: one success after a
// recovery pulls a host most of the way back into the candidate pool.
constexpr double kSuccessFactor = 0.25;
// How fast a failure is forgotten: the score halves every half-life of
// virtual time.
constexpr Nanos kHalfLife = Seconds(30);

}  // namespace

double FaultHistory::DecayedWeight(const Entry& e) const {
  if (e.weight <= 0) return 0;
  const Nanos elapsed = clock_->now() - e.as_of;
  if (elapsed <= 0) return e.weight;
  return e.weight *
         std::exp2(-static_cast<double>(elapsed) / static_cast<double>(kHalfLife));
}

FaultHistory::Entry& FaultHistory::Touch(std::string_view host) {
  auto it = entries_.find(host);
  if (it == entries_.end()) it = entries_.emplace(std::string(host), Entry{}).first;
  Entry& e = it->second;
  e.weight = DecayedWeight(e);
  e.as_of = clock_->now();
  return e;
}

void FaultHistory::RecordFailure(std::string_view host, Errno error) {
  Entry& e = Touch(host);
  e.weight += error == Errno::kHostUnreach ? kUnreachableWeight : kErrnoWeight;
  ++e.failures;
  observers_.Publish(host);
}

void FaultHistory::RecordTransient(std::string_view host) {
  Entry& e = Touch(host);
  e.weight += kTransientWeight;
  ++e.failures;
  observers_.Publish(host);
}

void FaultHistory::RecordSuccess(std::string_view host) {
  Entry& e = Touch(host);
  e.weight *= kSuccessFactor;
  ++e.successes;
  observers_.Publish(host);
}

double FaultHistory::Score(std::string_view host) const {
  const auto it = entries_.find(host);
  return it == entries_.end() ? 0.0 : DecayedWeight(it->second);
}

int64_t FaultHistory::failures(std::string_view host) const {
  const auto it = entries_.find(host);
  return it == entries_.end() ? 0 : it->second.failures;
}

int64_t FaultHistory::successes(std::string_view host) const {
  const auto it = entries_.find(host);
  return it == entries_.end() ? 0 : it->second.successes;
}

}  // namespace pmig::sim
