// The placement engine: where should a migrating process land?
//
// The paper's Section 8 applications (load balancing, evacuation, night-shift
// batch spreading) all end with "pick a target host" — and picking well needs
// more than the run-queue length. The engine scores candidates from signals the
// simulation itself holds, never from an observation switch (arming metrics
// must not move a pick):
//
//   liveness  — Kernel::down(): a crashed machine is never a target, full stop.
//   load      — runnable VM processes, counted from the process table (or read
//               from a ClusterIndex's entries).
//   cost      — bytes the migration would actually put on the wire: a target
//               whose /var/segcache already holds the process's text and delta
//               base receives only the dirty pages (the incremental delta
//               path), so it is measurably cheaper than a cold one.
//   faults    — the cluster FaultHistory: decayed weight of recent migration
//               failures against each host (EHOSTUNREACH counting double), fed
//               by every migrate leg. Decay means a recovered host re-qualifies
//               after a quiet interval.
//   health    — the HealthMonitor's score: anomalous series and firing burn
//               alerts against the host.
//
// Policies pick which signals rank: kLoadOnly reproduces the pre-engine
// balancer decision-for-decision (liveness aside — nothing is down in a
// fault-free run), kCostAware prefers warm caches among equal loads,
// kFaultAware refuses recently-failing or sick hosts, kCombined does both.
//
// Every decision runs the same three steps: one scoring loop over the network's
// hosts (Score), one filter that names why a host is left out (down,
// lease-contended, partitioned-from-source), and one factor order (load, then
// est_bytes under the cost policies, then fault and health under the fault
// policies, then network order) that both the pick and the decision log's
// margin read. Reading signals is a survey, like SurveyLoad: it consumes no
// virtual time and draws no RNG, so placement is deterministic and
// replay-stable.

#ifndef PMIG_SRC_APPS_PLACEMENT_H_
#define PMIG_SRC_APPS_PLACEMENT_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/kernel/kernel.h"
#include "src/net/network.h"
#include "src/sim/decision_log.h"

namespace pmig::apps {

class ClusterIndex;

enum class PlacementPolicy {
  kLoadOnly,    // the historical behaviour: least-loaded live host
  kCostAware,   // least-loaded, then fewest estimated bytes on the wire
  kFaultAware,  // least-loaded among hosts below the fault-score threshold
  kCombined,    // fault filter + load + cost
};

std::string_view PlacementPolicyName(PlacementPolicy policy);

// kFaultAware/kCombined: hosts whose decayed fault score is at or above this
// are excluded outright.
inline constexpr double kFaultThreshold = 0.5;

struct PlacementQuery {
  std::string from_host;  // the source; never a candidate
  // The process being placed (on from_host). -1 disables the cost signal
  // (est_bytes reports 0 for every candidate).
  int32_t pid = -1;
  // kFaultAware/kCombined: hosts whose HealthMonitor score (anomalous series,
  // firing burn alerts) is at or above this are excluded too — a host can be
  // demoted for *looking* sick before any migrate against it has failed. The
  // default demotes on any active signal; 0 scores (healthy, or monitor off)
  // never exclude.
  double health_threshold = 1.0;
  // Load = every live VM process instead of just the runnable ones. Back-to-back
  // placements (evacuation) want this: a just-restarted process sits briefly off
  // the run queue, and counting occupancy keeps consecutive picks from stacking
  // onto the same host. The balancer keeps the classic run-queue signal.
  bool occupancy = false;
  // Hosts to leave out entirely — a coordinator that failed to win a target's
  // placement lease re-picks with the loser added here, so lease contention
  // spreads the herd instead of deadlocking it. The decision log records each
  // as "lease-contended".
  std::vector<std::string> exclude;
  // Incrementally maintained placement state (see cluster_index.h). When set,
  // loads come from the index's entries instead of a survey of every host —
  // zero survey messages per decision; a host the index has not met is not a
  // candidate. Null (the default) keeps the full scan.
  const ClusterIndex* index = nullptr;
  // When non-empty, candidates this host cannot currently reach
  // (net::Network::Reachable) are filtered out before scoring — no migrate leg
  // is ever aimed across a partition. Reachability is a free read, but the
  // filter changes decisions, so it is opt-in; empty keeps the historical
  // behaviour (the doomed leg fails fast and the coordinator re-picks).
  std::string reachable_from;
  // Audit label for the decision log: who is asking ("balancer",
  // "night-shift", "evacuation", "reaper"). Recorded verbatim; never read by
  // the pick itself.
  std::string context;
};

// One candidate's signals, in network host order, plus whether a threshold
// under this policy excludes it.
struct CandidateScore : sim::DecisionCandidate {
  bool fault_excluded = false;   // fault_score at or over kFaultThreshold
  bool health_excluded = false;  // health_score at or over the query's threshold
};

class PlacementEngine {
 public:
  explicit PlacementEngine(net::Network* net,
                           PlacementPolicy policy = PlacementPolicy::kLoadOnly)
      : net_(net), policy_(policy) {}

  PlacementPolicy policy() const { return policy_; }

  // Every host but from_host that the filter passes (live, not excluded,
  // reachable when the query asks), in network order, signals filled. When
  // `exclusions` is non-null it receives, in network order, every host
  // left out and why: a structural reason from the filter, or the threshold a
  // scored candidate tripped (that host also keeps its row in the result).
  std::vector<CandidateScore> Score(
      const PlacementQuery& query,
      std::vector<sim::DecisionExclusion>* exclusions = nullptr) const;

  // The best candidate under the policy, or "" when none qualifies. Ties break
  // toward the earliest host in network order — which is exactly what the
  // pre-engine min_element scan did, so kLoadOnly is decision-identical.
  std::string PickTarget(const PlacementQuery& query) const {
    return PlaceBatch(query, {query.pid}).front();
  }

  // Places a whole batch with one survey (or the index view) and
  // occupancy-style lookahead: each pick bumps its target's working load so
  // consecutive victims spread instead of stacking — the evacuation trick,
  // without evacuation's per-process re-survey. Returns one target per pid
  // ("" where nothing qualified). query.pid is ignored; each pid supplies its
  // own cost signal under the cost-aware policies.
  std::vector<std::string> PlaceBatch(const PlacementQuery& query,
                                      const std::vector<int32_t>& pids) const;

 private:
  // The first factor, in the policy's tie-break order, on which two candidates
  // differ; "order" (a dead tie, left to network position) when none does.
  struct Margin {
    const char* factor = "order";
    bool first_wins = false;  // the first candidate is better on that factor
    double by = 0;
  };

  bool UsesFaultSignal() const {
    return policy_ == PlacementPolicy::kFaultAware ||
           policy_ == PlacementPolicy::kCombined;
  }
  bool UsesCostSignal() const {
    return policy_ == PlacementPolicy::kCostAware ||
           policy_ == PlacementPolicy::kCombined;
  }
  Margin Compare(const CandidateScore& a, const CandidateScore& b) const;
  // Why `host` is no candidate for `query` ("down", "lease-contended",
  // "partitioned-from-source"), or null when it is one.
  const char* Filtered(const PlacementQuery& query, kernel::Kernel& host) const;
  // The best non-excluded candidate other than `except` (null when none);
  // equal candidates keep the earlier one, so ties go to network order.
  const CandidateScore* Best(const std::vector<CandidateScore>& scores,
                             std::string_view except = {}) const;
  // Decision-log recording (the caller checks the log is armed): candidates,
  // exclusions, runner-up and margin factor, all from the pick's own scores —
  // so an armed log never perturbs the run it is observing.
  void RecordDecision(const PlacementQuery& query, int32_t pid,
                      const std::vector<CandidateScore>& scores,
                      const std::vector<sim::DecisionExclusion>& exclusions,
                      const CandidateScore* chosen) const;

  net::Network* net_;
  PlacementPolicy policy_;
};

// One host's runnable VM-process count (its "load"), counted from the process
// table at the moment of the read. Never the sched.runnable_vm gauge: that is
// set at the top of the host's last quantum, so it misses every process
// spawned, woken or blocked since, and arming metrics would change placement.
int HostLoad(kernel::Kernel& host);

// One host's occupancy load: every live VM process, runnable or not (see
// PlacementQuery::occupancy).
int HostOccupancy(kernel::Kernel& host);

// Section 7's rule for what can move at all: a process with children would
// orphan them, and one holding a socket or pipe would sever it. The balancer
// and evacuation both skip (evacuation: report) a process that fails it.
bool Movable(kernel::Kernel& host, const kernel::Proc& p);

// Per-host runnable VM-process count as a load daemon would report. Crashed
// (down) machines are not surveyed: a dead host reports nothing, rather than a
// load of zero that would make it everyone's favourite target.
std::vector<std::pair<std::string, int>> SurveyLoad(net::Network& net);

// Books one survey message against the surveyed host (`placement.survey_msgs`
// in its registry, so Cluster::AggregateMetrics sums the cluster-wide total).
// Every placement-driven read of a host's run queue / process table charges
// one — the cost the ClusterIndex exists to avoid. Pure observation: no
// virtual time, so counting never perturbs a run.
void NoteSurveyMessage(kernel::Kernel& surveyed);

}  // namespace pmig::apps

#endif  // PMIG_SRC_APPS_PLACEMENT_H_
