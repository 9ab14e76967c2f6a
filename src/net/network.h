// The Ethernet: host registry and transfer-cost model.
//
// The paper's machines share a 10 Mbit Ethernet (Section 3). File access across
// machines goes through NFS (costed in the VFS layer via inode remoteness); this
// class provides host lookup and raw transfer timing for the remote-execution
// services (rsh, migration daemon) that move command output and dump data around.

#ifndef PMIG_SRC_NET_NETWORK_H_
#define PMIG_SRC_NET_NETWORK_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/kernel/kernel.h"
#include "src/sim/context.h"
#include "src/sim/cost_model.h"
#include "src/sim/observers.h"

namespace pmig::net {

class SpawnService;

// Knobs for a single remote execution (Rsh / DaemonExec). The default timeout
// bounds how long the caller blocks waiting for the remote side: a target that
// powers off after accepting the request used to hang the client until the
// simulation's RunUntil limit; now the wait wakes at the deadline and returns
// kTimedOut (or kHostUnreach when the host is observably down). timeout <= 0
// means wait forever (the old behaviour).
struct RemoteExecOptions {
  sim::Nanos timeout = sim::Seconds(300);
};

// One host's load as the cluster sampler saw it at a sampling edge: the
// sampler keeps it (the report's sample lines) and publishes it to registered
// load observers, so coordinators that keep incremental placement state (the
// placement layer's ClusterIndex) learn per-host load without surveying — the
// sampler already paid for the read.
struct LoadObservation {
  sim::Nanos at = 0;
  std::string host;
  bool down = false;
  int runnable = 0;            // runnable VM processes (the classic load signal)
  int alive_vm = 0;            // every live VM process (the occupancy signal)
  int64_t segcache_bytes = 0;  // bytes held by /var/segcache
  double fault_score = 0.0;    // decayed FaultHistory score
};

class Network {
 public:
  // `context` is the cluster-wide clock, recorders and fault sources; it must
  // outlive the network.
  Network(const sim::CostModel* costs, sim::ClusterContext& context)
      : costs_(costs), ctx_(context) {}

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  void AddHost(kernel::Kernel* host) { hosts_.push_back(host); }
  kernel::Kernel* FindHost(std::string_view name);
  const std::vector<kernel::Kernel*>& hosts() const { return hosts_; }

  // One-way time to move `bytes` across the wire (latency + serialisation).
  sim::Nanos TransferTime(int64_t bytes) const {
    return costs_->nfs_rpc / 2 + bytes * costs_->net_per_byte;
  }

  const sim::CostModel& costs() const { return *costs_; }

  // The cluster-wide context. The remote-exec paths draw injected send losses
  // from its fault injector; migrate feeds its fault history and health
  // monitor; the placement engine reads both back and records every pick in
  // its decision log.
  sim::ClusterContext& context() const { return ctx_; }

  // Well-known-port registry for the Section 6.4 migration daemons.
  void RegisterSpawnService(const std::string& hostname, SpawnService* service) {
    spawn_services_[hostname] = service;
  }
  SpawnService* FindSpawnService(std::string_view hostname);

  // True when traffic from `from` to `to` can flow right now: no configured
  // partition cuts that direction. Liveness (down()) is the caller's check —
  // a partitioned host is up, just unreachable. Pass null metrics when polling
  // from a wait predicate so only decision points count injections.
  bool Reachable(std::string_view from, std::string_view to,
                 sim::MetricsRegistry* metrics = nullptr) const {
    return !ctx_.faults.Partitioned(from, to, metrics);
  }

  // Load-observation fan-out: the cluster sampler publishes each host's load
  // here as it samples, and subscribers (cluster indexes) fold it in for free.
  // Publishing is pure bookkeeping, so an armed sampler with observers stays
  // bit-identical to one without. Event-driven consumers rely on the
  // registration-order delivery: a balancer's wake condition (armed from its
  // ClusterIndex's observer) must fire only after that index has already
  // absorbed the observation it is judging.
  sim::Observers<LoadObservation>& load_observers() { return load_observers_; }

 private:
  const sim::CostModel* costs_;
  sim::ClusterContext& ctx_;
  std::vector<kernel::Kernel*> hosts_;
  std::map<std::string, SpawnService*, std::less<>> spawn_services_;
  sim::Observers<LoadObservation> load_observers_;
};

}  // namespace pmig::net

#endif  // PMIG_SRC_NET_NETWORK_H_
