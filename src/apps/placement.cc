#include "src/apps/placement.h"

#include <cmath>

#include "src/apps/cluster_index.h"
#include "src/core/dump_format.h"
#include "src/sim/blob.h"
#include "src/vm/cpu.h"

namespace pmig::apps {

std::string_view PlacementPolicyName(PlacementPolicy policy) {
  switch (policy) {
    case PlacementPolicy::kLoadOnly:
      return "load-only";
    case PlacementPolicy::kCostAware:
      return "cost-aware";
    case PlacementPolicy::kFaultAware:
      return "fault-aware";
    case PlacementPolicy::kCombined:
      return "combined";
  }
  return "?";
}

int HostLoad(kernel::Kernel& host) {
  int runnable = 0;
  for (kernel::Proc* p : host.ListProcs()) {
    if (p->kind == kernel::ProcKind::kVm && p->state == kernel::ProcState::kRunnable) {
      ++runnable;
    }
  }
  return runnable;
}

std::vector<std::pair<std::string, int>> SurveyLoad(net::Network& net) {
  std::vector<std::pair<std::string, int>> loads;
  for (kernel::Kernel* host : net.hosts()) {
    if (host->down()) continue;  // a crashed machine is not an idle machine
    NoteSurveyMessage(*host);
    loads.emplace_back(host->hostname(), HostLoad(*host));
  }
  return loads;
}

void NoteSurveyMessage(kernel::Kernel& surveyed) {
  surveyed.metrics().Inc("placement.survey_msgs");
}

namespace {

// Does `host`'s /var/segcache hold the blob for `digest`? A survey-style read
// of the host's own disk (the balancer already reads run queues this way).
bool HasCachedSegment(kernel::Kernel& host, uint64_t digest) {
  return host.vfs()
      .Resolve(host.vfs().RootState(), core::SegCachePath(digest), vfs::Follow::kAll,
               nullptr)
      .ok();
}

// Bytes a dump of `pid` would put on the wire toward `to`: segments the target
// already caches travel by digest (free); an armed dirty-tracked process whose
// base is cached ships only its dirty pages; everything else ships in full.
int64_t EstimatedBytes(kernel::Kernel& from, kernel::Kernel& to, int32_t pid) {
  kernel::Proc* p = from.FindProc(pid);
  if (p == nullptr || p->kind != kernel::ProcKind::kVm || p->vm == nullptr) return 0;
  const vm::VmContext& ctx = *p->vm;
  int64_t bytes = 0;
  if (!HasCachedSegment(to, ctx.text().Digest())) {
    bytes += static_cast<int64_t>(ctx.text().size());
  }
  const bool delta_ok = ctx.dirty.armed && ctx.data.size() == ctx.dirty.base.size();
  if (delta_ok && HasCachedSegment(to, ctx.dirty.base.Digest())) {
    bytes += ctx.dirty.CountDataDirty() * static_cast<int64_t>(vm::kDirtyPageBytes);
  } else {
    bytes += static_cast<int64_t>(ctx.data.size());
  }
  return bytes;
}

// Total observed net.bytes between the pair, both directions, across every
// host's registry (each end books the legs it received). Zero with metrics off.
int64_t WireHistory(net::Network& net, const std::string& a, const std::string& b) {
  const std::string ab = "net.bytes." + a + "->" + b;
  const std::string ba = "net.bytes." + b + "->" + a;
  int64_t total = 0;
  for (kernel::Kernel* host : net.hosts()) {
    total += host->metrics().Counter(ab) + host->metrics().Counter(ba);
  }
  return total;
}

}  // namespace

int HostOccupancy(kernel::Kernel& host) {
  int alive = 0;
  for (kernel::Proc* p : host.ListProcs()) {
    if (p->kind == kernel::ProcKind::kVm && p->Alive()) ++alive;
  }
  return alive;
}

bool Movable(kernel::Kernel& host, const kernel::Proc& p) {
  for (const kernel::OpenFilePtr& f : p.fds) {
    if (f != nullptr && f->kind != kernel::FileKind::kInode) return false;
  }
  for (kernel::Proc* q : host.ListProcs()) {
    if (q->ppid == p.pid) return false;
  }
  return true;
}

// The per-query candidate filters shared by every path: never the source,
// never an excluded host, and — when the query names a coordinator — never a
// host it cannot currently reach (a free read of the partition model; the
// wasted migrate leg is the whole point of filtering here).
bool PlacementEngine::PassesQueryFilters(const PlacementQuery& query,
                                         std::string_view host) const {
  if (host == query.from_host) return false;
  for (const std::string& name : query.exclude) {
    if (name == host) return false;
  }
  if (!query.reachable_from.empty() && host != query.reachable_from &&
      !net_->Reachable(query.reachable_from, host)) {
    return false;
  }
  return true;
}

// Fills every signal except load (the caller knows whether load came from a
// survey or the index). The fault/health reads are coordinator-local memory
// and cost no messages; the cost probes only fire under the cost policies.
void PlacementEngine::FillSignals(const PlacementQuery& query, kernel::Kernel* from,
                                  kernel::Kernel& host, CandidateScore* s) const {
  if (UsesCostSignal() && from != nullptr && query.pid >= 0) {
    s->est_bytes = EstimatedBytes(*from, host, query.pid);
    s->wire_history = WireHistory(*net_, query.from_host, s->host);
    const sim::Histogram* restarts = host.metrics().FindHistogram("migration.restart_ns");
    if (restarts != nullptr) s->est_restart_ns = restarts->Percentile(50);
  }
  s->fault_score = net_->context().fault_history.Score(s->host);
  s->fault_excluded = UsesFaultSignal() && s->fault_score >= kFaultThreshold;
  s->health_score = net_->context().health_monitor.HealthScore(s->host);
  s->health_excluded = UsesFaultSignal() && s->health_score >= query.health_threshold;
}

std::vector<CandidateScore> PlacementEngine::Score(const PlacementQuery& query) const {
  if (query.index != nullptr) return ScoreFromIndex(query);
  std::vector<CandidateScore> scores;
  kernel::Kernel* from = net_->FindHost(query.from_host);
  for (kernel::Kernel* host : net_->hosts()) {
    if (host->down() || !PassesQueryFilters(query, host->hostname())) continue;
    CandidateScore s;
    s.host = host->hostname();
    NoteSurveyMessage(*host);
    s.load = query.occupancy ? HostOccupancy(*host) : HostLoad(*host);
    FillSignals(query, from, *host, &s);
    scores.push_back(std::move(s));
  }
  return scores;
}

// The index-backed Score: loads come from the maintained entries (zero survey
// messages); liveness, reachability, and fault/health are re-read live — all
// free. On a fresh index the list is element-for-element what the full scan
// would have produced.
std::vector<CandidateScore> PlacementEngine::ScoreFromIndex(
    const PlacementQuery& query) const {
  std::vector<CandidateScore> scores;
  kernel::Kernel* from = net_->FindHost(query.from_host);
  for (const IndexEntry& e : query.index->entries()) {
    if (!PassesQueryFilters(query, e.host)) continue;
    kernel::Kernel* host = net_->FindHost(e.host);
    if (host == nullptr || host->down()) continue;
    CandidateScore s;
    s.host = e.host;
    s.load = query.occupancy ? e.occupancy : e.load;
    FillSignals(query, from, *host, &s);
    scores.push_back(std::move(s));
  }
  return scores;
}

bool PlacementEngine::Beats(const CandidateScore& better,
                            const CandidateScore& incumbent) const {
  if (better.load != incumbent.load) return better.load < incumbent.load;
  if (UsesCostSignal() && better.est_bytes != incumbent.est_bytes) {
    return better.est_bytes < incumbent.est_bytes;
  }
  if (UsesFaultSignal() && better.fault_score != incumbent.fault_score) {
    return better.fault_score < incumbent.fault_score;
  }
  // Below-threshold health still orders candidates: a host with one anomalous
  // series loses to a clean one. Zero everywhere (monitor off) changes nothing.
  if (UsesFaultSignal() && better.health_score != incumbent.health_score) {
    return better.health_score < incumbent.health_score;
  }
  if (UsesCostSignal() && better.wire_history != incumbent.wire_history) {
    return better.wire_history > incumbent.wire_history;  // prefer the warm path
  }
  // Last resort: the histogram-backed restart-latency record. Deliberately the
  // weakest signal — it only decides when every structural signal ties.
  if (UsesCostSignal() && better.est_restart_ns != incumbent.est_restart_ns) {
    return better.est_restart_ns < incumbent.est_restart_ns;
  }
  return false;  // equal: the incumbent (earlier in network order) keeps the slot
}

// The full audit record for one pick. Everything here is a free read or pure
// bookkeeping: the candidate signals were already computed for the decision,
// the exclusion walk touches only down()/Reachable()/the query's own lists,
// and the runner-up re-ranks the in-memory scores — so recording can never
// move a virtual time or consume RNG, and an armed-but-unread log replays
// bit-identically (the decision_diff gate pins this).
void PlacementEngine::RecordDecision(const PlacementQuery& query, bool from_index,
                                     const std::vector<CandidateScore>& scores,
                                     const std::string& chosen) const {
  sim::DecisionLog& log = net_->context().decision_log;
  if (!log.enabled()) return;
  sim::DecisionRecord r;
  r.context = query.context;
  r.policy = std::string(PlacementPolicyName(policy_));
  r.source = from_index ? "index" : "scan";
  r.from_host = query.from_host;
  r.pid = query.pid;
  r.chosen = chosen;
  for (const CandidateScore& s : scores) {
    r.candidates.push_back({s.host, s.load, s.est_bytes, s.wire_history,
                            s.est_restart_ns, s.fault_score, s.health_score});
  }
  // Exclusions, in network order. A scored-but-threshold-excluded host keeps
  // its candidate row (pwhy shows the scores that damned it) *and* gets an
  // exclusion naming the tripping factor; hosts the filters dropped before
  // scoring get a structural reason, checked in the filters' own precedence:
  // liveness, then the caller's exclude list, then reachability.
  for (kernel::Kernel* host : net_->hosts()) {
    const std::string& name = host->hostname();
    if (name == query.from_host) continue;  // the source is never a candidate
    const CandidateScore* s = nullptr;
    for (const CandidateScore& cs : scores) {
      if (cs.host == name) {
        s = &cs;
        break;
      }
    }
    if (s != nullptr) {
      if (s->fault_excluded) {
        r.exclusions.push_back({name, "fault-threshold", s->fault_score});
      } else if (s->health_excluded) {
        r.exclusions.push_back({name, "health-threshold", s->health_score});
      }
      continue;
    }
    if (host->down()) {
      r.exclusions.push_back({name, "down", 0});
      continue;
    }
    bool listed = false;
    for (const std::string& ex : query.exclude) {
      if (ex == name) {
        listed = true;
        break;
      }
    }
    if (listed) {
      r.exclusions.push_back({name, "lease-contended", 0});
      continue;
    }
    if (!query.reachable_from.empty() && name != query.reachable_from &&
        !net_->Reachable(query.reachable_from, name)) {
      r.exclusions.push_back({name, "partitioned-from-source", 0});
    }
    // A live, reachable, unlisted host absent from the scores can only be a
    // host the index has not met yet; it was invisible, not excluded.
  }
  // Runner-up: the best eligible candidate that is not the winner, ranked by
  // the same Beats order the pick used. The margin names the first factor
  // where they differ; a dead tie ("order" — decided only by network
  // position) is the near-tie an operator should know about.
  const CandidateScore* chosen_s = nullptr;
  const CandidateScore* ru = nullptr;
  for (const CandidateScore& s : scores) {
    if (!chosen.empty() && s.host == chosen) {
      chosen_s = &s;
      continue;
    }
    if (s.fault_excluded || s.health_excluded) continue;
    if (ru == nullptr || Beats(s, *ru)) ru = &s;
  }
  if (chosen_s == nullptr) {
    r.margin_factor = "none";
  } else if (ru == nullptr) {
    r.margin_factor = "only";
  } else {
    r.runner_up = ru->host;
    if (chosen_s->load != ru->load) {
      r.margin_factor = "load";
      r.margin = std::abs(static_cast<double>(ru->load - chosen_s->load));
    } else if (UsesCostSignal() && chosen_s->est_bytes != ru->est_bytes) {
      r.margin_factor = "est_bytes";
      r.margin = std::abs(static_cast<double>(ru->est_bytes - chosen_s->est_bytes));
    } else if (UsesFaultSignal() && chosen_s->fault_score != ru->fault_score) {
      r.margin_factor = "fault";
      r.margin = std::abs(ru->fault_score - chosen_s->fault_score);
    } else if (UsesFaultSignal() && chosen_s->health_score != ru->health_score) {
      r.margin_factor = "health";
      r.margin = std::abs(ru->health_score - chosen_s->health_score);
    } else if (UsesCostSignal() && chosen_s->wire_history != ru->wire_history) {
      r.margin_factor = "wire";
      r.margin =
          std::abs(static_cast<double>(ru->wire_history - chosen_s->wire_history));
    } else if (UsesCostSignal() && chosen_s->est_restart_ns != ru->est_restart_ns) {
      r.margin_factor = "restart_ns";
      r.margin = std::abs(
          static_cast<double>(ru->est_restart_ns - chosen_s->est_restart_ns));
    } else {
      r.margin_factor = "order";
      r.near_tie = true;
    }
  }
  log.Record(std::move(r));
}

std::string PlacementEngine::PickTarget(const PlacementQuery& query) const {
  if (query.index != nullptr) return PickFromIndex(query);
  const std::vector<CandidateScore> scores = Score(query);
  const CandidateScore* best = nullptr;
  for (const CandidateScore& s : scores) {
    if (s.fault_excluded || s.health_excluded) continue;
    if (best == nullptr || Beats(s, *best)) best = &s;
  }
  const std::string chosen = best != nullptr ? best->host : std::string();
  RecordDecision(query, /*from_index=*/false, scores, chosen);
  return chosen;
}

// The maintained-order pick. The rank multiset is (load, network order)
// ascending, so the first eligible entry already has minimal load; under
// kLoadOnly it wins outright, and the richer policies score only the
// minimal-load group for their secondary signals — never the whole cluster.
// Occupancy queries rank on a different load, so they fall back to a linear
// walk of the index entries (still zero survey messages).
std::string PlacementEngine::PickFromIndex(const PlacementQuery& query) const {
  const ClusterIndex& index = *query.index;
  const sim::ClusterContext& ctx = net_->context();
  if (query.occupancy) {
    const std::vector<CandidateScore> scores = ScoreFromIndex(query);
    const CandidateScore* best = nullptr;
    for (const CandidateScore& s : scores) {
      if (s.fault_excluded || s.health_excluded) continue;
      if (best == nullptr || Beats(s, *best)) best = &s;
    }
    const std::string chosen = best != nullptr ? best->host : std::string();
    RecordDecision(query, /*from_index=*/true, scores, chosen);
    return chosen;
  }
  kernel::Kernel* from = net_->FindHost(query.from_host);
  std::vector<CandidateScore> group;  // eligible entries at the minimal load
  int group_load = 0;
  std::string picked;
  for (const auto& [load, order] : index.rank()) {
    if (!group.empty() && load != group_load) break;  // past the minimal group
    const IndexEntry& e = index.entry(order);
    if (!PassesQueryFilters(query, e.host)) continue;
    kernel::Kernel* host = net_->FindHost(e.host);
    if (host == nullptr || host->down()) continue;
    if (UsesFaultSignal()) {
      if (ctx.fault_history.Score(e.host) >= kFaultThreshold) continue;
      if (ctx.health_monitor.HealthScore(e.host) >= query.health_threshold) continue;
    }
    if (group.empty() && policy_ == PlacementPolicy::kLoadOnly) {
      picked = e.host;  // load is the only signal; first eligible wins
      break;
    }
    CandidateScore s;
    s.host = e.host;
    s.load = load;
    FillSignals(query, from, *host, &s);
    group_load = load;
    group.push_back(std::move(s));
  }
  if (picked.empty()) {
    const CandidateScore* best = nullptr;
    for (const CandidateScore& s : group) {  // network order within equal load
      if (best == nullptr || Beats(s, *best)) best = &s;
    }
    if (best != nullptr) picked = best->host;
  }
  // Audit with the full index view, not just the minimal-load group the fast
  // path touched: load dominates Beats, so re-ranking the complete candidate
  // list provably picks the same winner, and the record gains the runner-up the
  // walk never materialised. ScoreFromIndex is survey-free, so the armed log
  // still books zero messages — recording cannot perturb what it observes.
  if (ctx.decision_log.enabled()) {
    RecordDecision(query, /*from_index=*/true, ScoreFromIndex(query), picked);
  }
  return picked;
}

std::vector<std::string> PlacementEngine::PlaceBatch(
    const PlacementQuery& query, const std::vector<int32_t>& pids) const {
  std::vector<std::string> targets(pids.size());
  if (pids.empty()) return targets;
  // One survey (or the index view) up front; after that every pick is pure
  // bookkeeping. Each assignment bumps its target's working load — the
  // occupancy-style lookahead evacuation gets by re-surveying after every
  // migration, here for free.
  PlacementQuery base = query;
  base.pid = pids.front();
  std::vector<CandidateScore> scores = Score(base);
  kernel::Kernel* from = net_->FindHost(query.from_host);
  for (size_t i = 0; i < pids.size(); ++i) {
    if (UsesCostSignal() && from != nullptr && pids[i] >= 0) {
      // The cost signal is per-process; re-probe it for this pid. Loads (and
      // their lookahead bumps) carry over untouched.
      for (CandidateScore& s : scores) {
        if (kernel::Kernel* host = net_->FindHost(s.host); host != nullptr) {
          s.est_bytes = EstimatedBytes(*from, *host, pids[i]);
        }
      }
    }
    const CandidateScore* best = nullptr;
    for (const CandidateScore& s : scores) {
      if (s.fault_excluded || s.health_excluded) continue;
      if (best == nullptr || Beats(s, *best)) best = &s;
    }
    if (net_->context().decision_log.enabled()) {
      // One record per pid, captured before the lookahead bump below mutates
      // the working loads the next pid will see.
      PlacementQuery audit = query;
      audit.pid = pids[i];
      RecordDecision(audit, query.index != nullptr, scores,
                     best != nullptr ? best->host : std::string());
    }
    if (best == nullptr) continue;  // this pid stays unplaced ("")
    targets[i] = best->host;
    for (CandidateScore& s : scores) {
      if (s.host == targets[i]) {
        ++s.load;
        break;
      }
    }
  }
  return targets;
}

}  // namespace pmig::apps
