// Load balancing (Section 8, second application).
//
// "CPU bound jobs can be moved from busy nodes of the network to others that are
// idle... Candidates for migration can be best selected from the processes that
// have been running for more than a certain amount of time. This will ensure that
// there is a high probability that the candidate program will keep running for
// some time, and that it is worth paying the overhead of moving it."
//
// The balancer is a native program on one machine. It surveys per-host load the
// way rwhod/load daemons would (reading each kernel's run queue), picks the oldest
// eligible CPU-bound process on the busiest machine, and hands target selection to
// the PlacementEngine (the default kLoadOnly policy reproduces the historical
// idlest-host choice; cost- and fault-aware policies use the richer signals). As
// the paper notes, migrate-over-rsh "may be too slow in terms of real time
// response" for this use — so the balancer defaults to the migration daemon.

#ifndef PMIG_SRC_APPS_LOAD_BALANCER_H_
#define PMIG_SRC_APPS_LOAD_BALANCER_H_

#include <string>
#include <vector>

#include "src/apps/cluster_index.h"
#include "src/apps/placement.h"
#include "src/core/tools.h"
#include "src/kernel/kernel.h"
#include "src/net/network.h"

namespace pmig::apps {

struct LoadBalancerOptions {
  sim::Nanos poll_interval = sim::Seconds(5);
  // Minimum runtime before a process is worth moving.
  sim::Nanos min_age = sim::Seconds(5);
  // Migrate only when busiest - idlest runnable count is at least this.
  int imbalance_threshold = 2;
  bool use_daemon = true;  // rsh is too slow for load balancing (Section 8)
  int max_rounds = 100;    // survey rounds before giving up
  // Target selection. kLoadOnly is decision-identical to the pre-engine
  // balancer on a fault-free cluster.
  PlacementPolicy policy = PlacementPolicy::kLoadOnly;
  // Per-migration behaviour, passed through to core::Migrate. The default is
  // the paper's one-shot command; pass core::MigrateOptions::Robust() to make
  // every balancer migration a never-lose-a-process transaction.
  core::MigrateOptions migrate;
  // The cluster-scale path: maintain an apps::ClusterIndex across rounds.
  // Loads come from the index (kept current by migrate-outcome deltas, sampler
  // snapshots, and a per-round Refresh that re-surveys only entries older than
  // index_ttl), and candidates this coordinator cannot reach are filtered
  // before any migrate leg. Off by default: the classic survey-every-round
  // balancer, bit-identical to before. With use_index on and index_ttl = 0
  // every round re-surveys, so decisions match the full scan exactly (the
  // equivalence gate).
  bool use_index = false;
  sim::Nanos index_ttl = sim::Seconds(10);
  // Victims migrated per imbalanced round (>= 1). A batch is placed in one
  // PlaceBatch call — one survey (or the index view) with lookahead bumps —
  // instead of one survey per victim.
  int batch_per_round = 1;
  // Event-driven rounds: instead of sleeping poll_interval between rounds, the
  // balancer arms a wake condition on its ClusterIndex (event_driven implies
  // use_index) and blocks until an observation — a sampler snapshot, a migrate
  // delta, a fault/health change, a reachability heal — flips the round's
  // predicate: indexed LoadSpread() crossing imbalance_threshold after a
  // balanced round, any index epoch movement after a round that saw work but
  // could not act. A silent cluster still gets a liveness round every max_idle
  // (the heartbeat), which also covers what the indexed view cannot see — a
  // host that died unobserved, a partition heal with no traffic. Off by
  // default: the classic fixed-interval poller, bit-identical to before.
  bool event_driven = false;
  sim::Nanos max_idle = sim::Seconds(60);
  // Virtual-time budget: stop once this much time has elapsed since the run
  // started (checked at round boundaries; waits never overshoot it). -1 =
  // unbounded, the classic max_rounds-only exit. Gives polling and
  // event-driven runs a common window so their round counts compare.
  sim::Nanos run_for = -1;
};

struct LoadBalancerStats {
  int migrations = 0;         // processes that actually moved (migrate exit 0)
  int rounds = 0;
  int failed_migrations = 0;  // migrate failed outright (nonzero, not a fallback)
  int fallback_restarts = 0;  // transactional migrate restarted on the source
  int no_target_rounds = 0;   // imbalance seen but no eligible target existed
  int attempts_to_down = 0;   // chosen target was down at migrate time (bug if >0)
  // Chosen target was unreachable from the coordinator at migrate time. The
  // index path filters these before picking, so it must stay 0 there; the
  // classic path counts each wasted leg it was about to pay for.
  int attempts_to_unreachable = 0;
  int index_refreshes = 0;    // hosts re-surveyed by staleness-driven Refresh
  // Rounds that attempted no migration (balanced, no eligible victim, or no
  // target) — the idle polls event-driven mode exists to eliminate.
  int idle_rounds = 0;
  // Event-driven waits released by a wake event vs by the max_idle heartbeat.
  int event_wakeups = 0;
  int heartbeats = 0;
};

// The balancer's victim choice on `host`, exposed for tests: up to `max_victims`
// eligible processes (runnable VM, older than min_age, and Movable), oldest
// first. Reads the host's process table once (one survey message). A down host
// has no candidates.
std::vector<int32_t> PickVictims(kernel::Kernel& host, sim::Nanos now,
                                 sim::Nanos min_age, int max_victims);

// Runs until the cluster's VM load is balanced (or max_rounds elapsed).
LoadBalancerStats RunLoadBalancer(kernel::SyscallApi& api, net::Network& net,
                                  const LoadBalancerOptions& options);

}  // namespace pmig::apps

#endif  // PMIG_SRC_APPS_LOAD_BALANCER_H_
