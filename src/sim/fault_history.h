// Per-host fault history for placement decisions.
//
// One FaultHistory is shared cluster-wide (owned by the Cluster, reachable
// through the Network, like the fault injector): every migrate attempt records
// its outcome against the host it talked to, and placement policies read back a
// failure score. The score decays exponentially over *virtual* time, so a host
// that crashed and recovered re-qualifies as a target after a quiet interval —
// permanent blacklisting would defeat the paper's whole point of a cluster
// whose machines come and go.
//
// Recording is pure bookkeeping: no RNG, no timers, no virtual-time cost, so a
// run with recording on is bit-identical to one without (only code that *reads*
// the scores can behave differently, and the default policy never reads them).

#ifndef PMIG_SRC_SIM_FAULT_HISTORY_H_
#define PMIG_SRC_SIM_FAULT_HISTORY_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>

#include "src/sim/clock.h"
#include "src/sim/result.h"
#include "src/sim/time.h"

namespace pmig::sim {

class FaultHistory {
 public:
  explicit FaultHistory(const VirtualClock* clock, Nanos half_life = Seconds(30))
      : clock_(clock), half_life_(half_life) {}

  // How fast a failure is forgotten: the score halves every `half_life` of
  // virtual time. Policies with long poll intervals want a longer memory.
  void set_half_life(Nanos half_life) { half_life_ = half_life; }
  Nanos half_life() const { return half_life_; }

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

  // Single listener slot, invoked after every recorded outcome with the host it
  // was recorded against. Coordinators keeping incremental placement state (the
  // placement layer's ClusterIndex) subscribe so fault updates reach them
  // without polling.
  // A subscriber that replaces an existing listener should save it and chain;
  // recording stays pure bookkeeping (no time, no RNG) regardless.
  //
  // Every set_listener bumps listener_token(): a chaining subscriber saves the
  // token its own install produced and, on teardown, restores the saved chain
  // only while the token still matches — i.e. only while it is the *top* of the
  // chain. Without the token check, destroying stacked subscribers out of LIFO
  // order re-installs a closure capturing a destroyed subscriber.
  using Listener = std::function<void(std::string_view host)>;
  void set_listener(Listener listener) {
    listener_ = std::move(listener);
    ++listener_token_;
  }
  const Listener& listener() const { return listener_; }
  uint64_t listener_token() const { return listener_token_; }

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
  Nanos half_life_;
  std::map<std::string, Entry, std::less<>> entries_;
  Listener listener_;
  uint64_t listener_token_ = 0;
};

}  // namespace pmig::sim

#endif  // PMIG_SRC_SIM_FAULT_HISTORY_H_
