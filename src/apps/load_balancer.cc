#include "src/apps/load_balancer.h"

#include <algorithm>
#include <memory>
#include <optional>

#include "src/core/tools.h"

namespace pmig::apps {

std::vector<int32_t> PickVictims(kernel::Kernel& host, sim::Nanos now,
                                 sim::Nanos min_age, int max_victims) {
  std::vector<int32_t> victims;
  if (host.down() || max_victims <= 0) return victims;
  NoteSurveyMessage(host);  // one proc-table read serves the whole batch
  std::vector<kernel::Proc*> eligible;
  for (kernel::Proc* p : host.ListProcs()) {
    // Runnable VM work, old enough to be worth moving (Section 8), and movable
    // at all (Section 7).
    if (p->kind == kernel::ProcKind::kVm && p->state == kernel::ProcState::kRunnable &&
        now - p->start_time >= min_age && Movable(host, *p)) {
      eligible.push_back(p);
    }
  }
  // Oldest-first is the paper's proxy for "will keep running". A stable sort
  // keeps the process-table order on ties, so the single-victim default picks
  // exactly what the pre-batch balancer picked.
  std::stable_sort(eligible.begin(), eligible.end(),
                   [](const kernel::Proc* a, const kernel::Proc* b) {
                     return a->start_time < b->start_time;
                   });
  for (kernel::Proc* p : eligible) {
    victims.push_back(p->pid);
    if (static_cast<int>(victims.size()) >= max_victims) break;
  }
  return victims;
}

namespace {

// The armed wake condition, shared between the balancer's blocked wait and the
// index's wake callback (which runs inside observation delivery — pure
// bookkeeping, so it only latches `fired`).
struct WakeCondition {
  bool armed = false;
  bool fired = false;
  // false: release on the imbalance predicate (spread >= threshold, or no VM
  // work left). true: the round saw the imbalance but could not act — release
  // on *any* index movement past epoch0 (or a reachability heal, which
  // generates no event and is polled by the wait predicate instead).
  bool any_change = false;
  int threshold = 0;
  uint64_t epoch0 = 0;
};

}  // namespace

LoadBalancerStats RunLoadBalancer(kernel::SyscallApi& api, net::Network& net,
                                  const LoadBalancerOptions& options) {
  LoadBalancerStats stats;
  const PlacementEngine engine(&net, options.policy);
  const std::string local = api.GetHostname();
  sim::MetricsRegistry& metrics = api.kernel().metrics();
  const sim::Nanos deadline =
      options.run_for >= 0 ? api.Now() + options.run_for : -1;
  // The index lives across rounds: migrate outcomes and sampler snapshots keep
  // it current between the staleness-driven refreshes.
  std::optional<ClusterIndex> index;
  if (options.use_index || options.event_driven) {
    ClusterIndexOptions iopts;
    iopts.ttl = options.index_ttl;
    index.emplace(&net, local, iopts);
  }
  auto cond = std::make_shared<WakeCondition>();
  if (options.event_driven) {
    ClusterIndex* idx = &*index;
    index->set_wake_callback([cond, idx] {
      if (!cond->armed || cond->fired) return;
      if (cond->any_change || idx->LoadSpread() >= cond->threshold ||
          idx->TotalLoad() == 0) {
        cond->fired = true;
      }
    });
  }
  // The between-rounds wait. Returns false when the balancer should exit now
  // instead of waiting: the last allowed round just ran (exit paths pay no
  // trailing poll_interval) or the virtual-time budget is spent. Polling mode
  // sleeps the fixed interval; event-driven mode blocks until the armed
  // condition releases it, with max_idle as the heartbeat bound. Waits never
  // overshoot the run_for deadline.
  const auto wait_for_next_round = [&](int round, bool any_change) -> bool {
    if (round + 1 >= options.max_rounds) return false;
    sim::Nanos budget = -1;
    if (deadline >= 0) {
      budget = deadline - api.Now();
      if (budget <= 0) return false;
    }
    if (!options.event_driven) {
      api.Sleep(budget >= 0 ? std::min(options.poll_interval, budget)
                            : options.poll_interval);
      return true;
    }
    ClusterIndex* idx = &*index;
    cond->fired = false;
    cond->any_change = any_change;
    cond->threshold = options.imbalance_threshold;
    cond->armed = true;
    const sim::Nanos timeout =
        budget >= 0 ? std::min(options.max_idle, budget) : options.max_idle;
    // The predicate re-evaluates the armed condition directly (O(1) aggregate
    // reads), so an event that slipped in before arming — or a heal, which
    // generates no event at all — still releases the wait immediately.
    const bool woke = api.BlockUntilFor(
        [cond, idx] {
          if (cond->fired) return true;
          if (cond->any_change) {
            return idx->epoch() != cond->epoch0 ||
                   idx->AnyMarkedUnreachableHealed();
          }
          return idx->LoadSpread() >= cond->threshold || idx->TotalLoad() == 0;
        },
        timeout);
    cond->armed = false;
    if (woke) {
      ++stats.event_wakeups;
    } else {
      ++stats.heartbeats;
    }
    return true;
  };
  for (int round = 0; round < options.max_rounds; ++round) {
    if (deadline >= 0 && api.Now() >= deadline) break;
    ++stats.rounds;
    metrics.Inc("balancer.rounds");
    // Any index movement during this round (a migrate delta, a sampler edge
    // that landed mid-migration) releases the next any_change wait instantly.
    if (index.has_value()) cond->epoch0 = index->epoch();
    std::vector<std::pair<std::string, int>> loads;
    if (index.has_value()) {
      stats.index_refreshes += index->Refresh(api.Now());
      loads = index->Loads();
    } else {
      loads = SurveyLoad(net);  // live hosts only
    }
    auto busiest = std::max_element(loads.begin(), loads.end(),
                                    [](const auto& a, const auto& b) { return a.second < b.second; });
    auto idlest = std::min_element(loads.begin(), loads.end(),
                                   [](const auto& a, const auto& b) { return a.second < b.second; });
    if (busiest == loads.end() || idlest == loads.end()) break;
    if (busiest->second - idlest->second < options.imbalance_threshold) {
      // Balanced. If no VM work remains at all, we are done; otherwise keep
      // watching until the jobs drain.
      int total = 0;
      for (const auto& [host, n] : loads) total += n;
      ++stats.idle_rounds;
      metrics.Inc("balancer.idle_rounds");
      if (total == 0) break;
      if (!wait_for_next_round(round, /*any_change=*/false)) break;
      continue;
    }
    kernel::Kernel* from = net.FindHost(busiest->first);
    const std::vector<int32_t> victims =
        PickVictims(*from, api.Now(), options.min_age,
                    std::max(1, options.batch_per_round));
    if (victims.empty()) {
      // Imbalanced but nothing is old enough (or eligible) to move yet.
      // Eligibility ripens with time, not with observations, so the wait here
      // takes any index movement or the heartbeat — whichever is first.
      ++stats.idle_rounds;
      metrics.Inc("balancer.idle_rounds");
      if (!wait_for_next_round(round, /*any_change=*/true)) break;
      continue;
    }
    PlacementQuery query;
    query.from_host = busiest->first;
    query.context = "balancer";
    if (index.has_value()) {
      query.index = &*index;
      // Partitioned-away candidates are filtered before any leg is aimed.
      query.reachable_from = local;
    }
    // The whole batch is placed from one survey (or the index view) with
    // lookahead bumps.
    const std::vector<std::string> placed = engine.PlaceBatch(query, victims);
    bool attempted = false;
    for (size_t i = 0; i < victims.size(); ++i) {
      const int32_t victim = victims[i];
      const std::string& target = placed[i];
      if (target.empty()) continue;
      attempted = true;
      if (kernel::Kernel* t = net.FindHost(target); t != nullptr && t->down()) {
        ++stats.attempts_to_down;  // the engine never does this; count it if it ever did
      }
      if (target != local && !net.Reachable(local, target)) {
        ++stats.attempts_to_unreachable;  // the index path filters these out
        if (index.has_value()) index->NoteReachable(target, false);
      }
      const int rc = core::Migrate(api, net, victim, busiest->first, target,
                                   options.use_daemon, options.migrate);
      net.context().decision_log.AttachOutcome(victim, busiest->first, target, rc,
                                               api.proc().trace_id);
      if (rc == 0) {
        ++stats.migrations;
        if (index.has_value()) index->NoteMigrated(busiest->first, target);
      } else if (rc == core::kMigrateFellBack) {
        ++stats.fallback_restarts;
      } else {
        ++stats.failed_migrations;
      }
    }
    if (!attempted) {
      // Imbalanced, but every other host is down, fault-excluded, or
      // unreachable. Wait for one to come back (or a score to lapse).
      ++stats.no_target_rounds;
      ++stats.idle_rounds;
      metrics.Inc("balancer.idle_rounds");
    }
    // After a round that acted, wait on the imbalance predicate itself: if the
    // migrate deltas left the spread across the threshold the wait releases
    // immediately (the next batch runs back-to-back); if the cluster is
    // balanced now, the balancer sleeps through the steady state without the
    // trailing idle round a poller would pay. A round that could not act
    // waits for the cluster to change under it.
    if (!wait_for_next_round(round, /*any_change=*/!attempted)) break;
  }
  return stats;
}

}  // namespace pmig::apps
