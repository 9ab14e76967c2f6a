// The cluster index: incrementally maintained placement state.
//
// The placement engine's load signal is a survey — SurveyLoad walks every
// host's run queue, Score re-reads every candidate per decision — so one
// balancer round on an H-host cluster costs O(H) survey messages per victim.
// That is fine for four machines and hopeless for four hundred. The index
// keeps a per-host view of the same signals current from events the
// coordinator already sees for free:
//
//   migrate outcomes  — a committed migration is a load of exactly one moving
//                       from source to target; NoteMigrated applies the delta.
//   sampler snapshots — Cluster::TakeSample publishes each host's runnable and
//                       occupancy counts to Network::load_observers(); the
//                       index subscribes and folds them in (the sampler
//                       already paid for the read).
//   fault history     — the shared FaultHistory calls the index's observer on
//                       every recorded leg outcome. (Scores are re-read live
//                       at decision time anyway — the history is coordinator-
//                       local memory, so reading it costs no messages.)
//   reachability      — Network::Reachable is a pure function of the partition
//                       config and the virtual clock: also free, also read
//                       live, so a healed partition requalifies instantly.
//
// What cannot arrive by event goes stale, and staleness is repaired by
// Refresh(now): re-survey ONLY the hosts whose entry is older than `ttl` —
// never the whole cluster. With the sampler armed, Refresh typically surveys
// nothing at all.
//
// Consistency caveats: the index is the coordinator's view, not the truth. A
// process that exits on its own leaves the indexed load optimistically high
// until the next sample/refresh; two coordinators each hold their own index
// and may disagree. Decisions stay safe because liveness, reachability, and
// fault/health scores are read live (all free), and because a worst-case
// stale load only misdirects a migration — the placement lease and the
// robust-migrate transaction already absorb that. With ttl = 0 every decision
// re-surveys and the index is decision-identical to the full scan (the
// equivalence tests pin this).
//
// Determinism: entries live in network host order (the engine's scoring loop
// reads them by name in that same order), and every update is bookkeeping — no
// RNG, no virtual-time cost — so indexed runs replay bit-identically.
//
// Event-driven consumers: every mutation that changes what a placement
// decision could see (a load, a down flag, a reachability verdict, an
// occupancy count, a fault/health score) bumps epoch() and fires the wake
// callback once per completed update. Alongside the entries the index
// maintains O(1) live-load aggregates — LoadSpread() (max - min indexed load
// over entries not marked down) and TotalLoad() — so a balancer's wake
// predicate costs two multiset-end reads per poll, not a scan. Both are
// *indexed* views: a host that died since its last observation still counts
// as live until the next sample or refresh folds the truth in, which is why
// event-driven consumers keep a heartbeat. The callback runs inside the
// mutation (sampler publish, fault record, migrate delta) and must stay pure
// bookkeeping: set a flag, never touch the clock, the RNG, or the index.

#ifndef PMIG_SRC_APPS_CLUSTER_INDEX_H_
#define PMIG_SRC_APPS_CLUSTER_INDEX_H_

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/kernel/kernel.h"
#include "src/net/network.h"
#include "src/sim/time.h"

namespace pmig::apps {

struct ClusterIndexOptions {
  // Entries older than this are re-surveyed by Refresh; fresher ones are
  // trusted as-is. 0 = trust nothing (every Refresh re-surveys every host,
  // making indexed decisions identical to the full scan).
  sim::Nanos ttl = sim::Seconds(10);
};

struct IndexEntry {
  std::string host;
  size_t order = 0;          // position in network host order
  int load = 0;              // runnable VM processes (HostLoad)
  int occupancy = 0;         // every live VM process (AliveVmCount)
  bool down = false;         // as of the last survey/sample (liveness is
                             // re-checked live at decision time)
  bool reachable = true;     // as of the last verdict folded in
  double fault_score = 0;    // as of the last FaultHistory callback/survey
  double health_score = 0;   // as of the last survey
  sim::Nanos updated_at = -1;  // virtual time of the last survey/sample; -1 =
                               // never observed (always stale)
};

class ClusterIndex {
 public:
  // Builds an entry per current host (hosts are fixed at boot) and subscribes
  // to the network's load observations and the shared FaultHistory's outcomes
  // (the destructor unsubscribes from both). `local_host` is the coordinator
  // running the index — the vantage point for reachability verdicts.
  ClusterIndex(net::Network* net, std::string local_host,
               ClusterIndexOptions opts = {});
  ~ClusterIndex();

  ClusterIndex(const ClusterIndex&) = delete;
  ClusterIndex& operator=(const ClusterIndex&) = delete;

  const std::string& local_host() const { return local_; }
  sim::Nanos ttl() const { return opts_.ttl; }

  // --- free event feeds -------------------------------------------------------

  // A migration from `from` to `to` committed: one unit of load (and
  // occupancy) moved. Leaves timestamps alone — a delta refines an old
  // absolute reading, it does not renew it.
  void NoteMigrated(std::string_view from, std::string_view to);

  // A reachability verdict the coordinator just learned (a Reachable() check,
  // an EHOSTUNREACH from a migrate leg). Decisions re-check live; this keeps
  // the entry's view honest for reports and tests.
  void NoteReachable(std::string_view host, bool reachable);

  // A sampler observation (the index's Network load observer calls this).
  void NoteObservation(const net::LoadObservation& obs);

  // --- staleness-driven refresh ----------------------------------------------

  // Re-surveys (one survey message each) exactly the hosts whose entry is
  // older than ttl at `now`; fresh entries are never touched. Returns how many
  // hosts were re-surveyed.
  int Refresh(sim::Nanos now);

  // Unconditional single-host re-survey. Returns false for an unknown host.
  bool RefreshHost(std::string_view host, sim::Nanos now);

  // --- read side (no survey messages) ----------------------------------------

  const std::vector<IndexEntry>& entries() const { return entries_; }
  const IndexEntry* Find(std::string_view host) const;

  // Live hosts and their indexed loads, in network order — the survey-free
  // stand-in for SurveyLoad. Liveness is read live (free); loads come from the
  // index.
  std::vector<std::pair<std::string, int>> Loads() const;

  // --- event-driven read side --------------------------------------------------

  // Bumped on every mutation a placement decision could observe (load, down,
  // reachable, occupancy, fault/health score). updated_at renewals alone do
  // not count — freshness is not an event. Monotonic within one index.
  uint64_t epoch() const { return epoch_; }

  // Indexed max - min load over entries not marked down (0 with fewer than two
  // such entries) and their load sum. O(1): maintained incrementally with each
  // load and down change, never a scan.
  int LoadSpread() const;
  int TotalLoad() const;

  // True when some entry this index has marked unreachable can be reached
  // again right now. Reachable() is a pure function of the partition config
  // and the virtual clock, so heals generate no event — wait predicates poll
  // this (no metrics are booked from here).
  bool AnyMarkedUnreachableHealed() const;

  // Invoked once after every epoch-bumping update completes, from inside the
  // mutation (a sampler publish, a fault record, a migrate delta). Must be
  // pure bookkeeping: set a flag for a blocked waiter's predicate to read —
  // no clock, no RNG, no calls back into the index.
  void set_wake_callback(std::function<void()> wake) { wake_ = std::move(wake); }

  net::Network* net() const { return net_; }

 private:
  IndexEntry* FindMutable(std::string_view host);
  void SetLoad(IndexEntry& e, int load);
  void SetDown(IndexEntry& e, bool down);
  void SetReachable(IndexEntry& e, bool reachable);
  void Survey(IndexEntry& e, sim::Nanos now);
  void OnFaultRecorded(std::string_view host);
  // Fires the wake callback iff the epoch moved past `epoch_before`.
  void NotifyIfChanged(uint64_t epoch_before);

  net::Network* net_;
  std::string local_;
  ClusterIndexOptions opts_;
  std::vector<IndexEntry> entries_;
  std::map<std::string, size_t, std::less<>> by_name_;
  // Loads of entries not marked down, plus their running sum: the O(1) feed
  // for LoadSpread()/TotalLoad().
  std::multiset<int> live_loads_;
  int64_t live_total_ = 0;
  // Orders of entries currently marked unreachable (the heal watch set).
  std::set<size_t> unreachable_orders_;
  uint64_t epoch_ = 0;
  std::function<void()> wake_;
  uint64_t load_observer_id_ = 0;
  uint64_t fault_observer_id_ = 0;
};

}  // namespace pmig::apps

#endif  // PMIG_SRC_APPS_CLUSTER_INDEX_H_
