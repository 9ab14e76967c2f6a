// Per-host fault history for placement decisions.
//
// One FaultHistory is shared cluster-wide (owned by the Cluster, reachable
// through the Network, like the fault injector): every migrate attempt records
// its outcome against the host it talked to, and placement policies read back a
// failure score. The score decays exponentially over *virtual* time, so a host
// that crashed and recovered re-qualifies as a target after a quiet interval —
// permanent blacklisting would defeat the paper's whole point of a cluster
// whose machines come and go. The score halves every 30 s of virtual time.
//
// Recording is pure bookkeeping: no RNG, no timers, no virtual-time cost, so a
// run with recording on is bit-identical to one without (only code that *reads*
// the scores can behave differently, and the default policy never reads them).

#ifndef PMIG_SRC_SIM_FAULT_HISTORY_H_
#define PMIG_SRC_SIM_FAULT_HISTORY_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "src/sim/clock.h"
#include "src/sim/observers.h"
#include "src/sim/result.h"
#include "src/sim/time.h"

namespace pmig::sim {

class FaultHistory {
 public:
  explicit FaultHistory(const VirtualClock* clock) : clock_(clock) {}

  // A remote command against `host` failed with `error`. EHOSTUNREACH (the
  // machine is observably dead) weighs more than an ordinary transient.
  void RecordFailure(std::string_view host, Errno error);

  // A remote tool ran on `host` but reported a transient failure (a poll that
  // timed out, a disk-full window): weaker evidence than an unreachable host.
  void RecordTransient(std::string_view host);

  // A remote command on `host` completed: the host is reachable. Knocks the
  // accumulated score down sharply so a recovered host re-qualifies fast.
  void RecordSuccess(std::string_view host);

  // The decayed failure weight at the current virtual time. 0 for a host that
  // has never failed (or whose failures have fully decayed away).
  double Score(std::string_view host) const;

  // Raw outcome counts (no decay) — for reports and tests.
  int64_t failures(std::string_view host) const;
  int64_t successes(std::string_view host) const;

  // Invoked after every recorded outcome with the host it was recorded
  // against. Coordinators keeping incremental placement state (the placement
  // layer's ClusterIndex) subscribe so fault updates reach them without
  // polling; recording stays pure bookkeeping (no time, no RNG) regardless.
  Observers<std::string_view>& observers() { return observers_; }

 private:
  struct Entry {
    double weight = 0;   // decayed failure mass as of `as_of`
    Nanos as_of = 0;     // virtual time the weight was last normalised
    int64_t failures = 0;
    int64_t successes = 0;
  };

  double DecayedWeight(const Entry& e) const;
  Entry& Touch(std::string_view host);

  const VirtualClock* clock_;
  std::map<std::string, Entry, std::less<>> entries_;
  Observers<std::string_view> observers_;
};

}  // namespace pmig::sim

#endif  // PMIG_SRC_SIM_FAULT_HISTORY_H_
