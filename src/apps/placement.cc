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
// Zero when there is no such process on `from` (or no `from`).
int64_t EstimatedBytes(kernel::Kernel* from, kernel::Kernel& to, int32_t pid) {
  kernel::Proc* p = from != nullptr ? from->FindProc(pid) : nullptr;
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

// The candidate filter, in its one precedence: liveness, then the caller's
// exclude list, then — when the query names a coordinator — reachability (a
// free read of the partition model; the wasted migrate leg is the whole point
// of filtering here).
const char* PlacementEngine::Filtered(const PlacementQuery& query,
                                      kernel::Kernel& host) const {
  if (host.down()) return "down";
  const std::string& name = host.hostname();
  for (const std::string& ex : query.exclude) {
    if (ex == name) return "lease-contended";
  }
  if (!query.reachable_from.empty() && name != query.reachable_from &&
      !net_->Reachable(query.reachable_from, name)) {
    return "partitioned-from-source";
  }
  return nullptr;
}

// Load comes from the index's entries when the query has one (zero survey
// messages) and from the process table otherwise (one survey message per
// candidate). Everything else is a free read: liveness, reachability and the
// fault/health scores are coordinator-local, and the cost probe reads the
// candidate's disk without charging time.
std::vector<CandidateScore> PlacementEngine::Score(
    const PlacementQuery& query, std::vector<sim::DecisionExclusion>* exclusions) const {
  std::vector<CandidateScore> scores;
  kernel::Kernel* from = net_->FindHost(query.from_host);
  const sim::ClusterContext& ctx = net_->context();
  for (kernel::Kernel* host : net_->hosts()) {
    const std::string& name = host->hostname();
    if (name == query.from_host) continue;  // the source is never a candidate
    if (const char* why = Filtered(query, *host); why != nullptr) {
      if (exclusions != nullptr) exclusions->push_back({name, why, 0});
      continue;
    }
    CandidateScore s;
    if (query.index != nullptr) {
      const IndexEntry* e = query.index->Find(name);
      if (e == nullptr) continue;  // not met yet: invisible, not excluded
      s.load = query.occupancy ? e->occupancy : e->load;
    } else {
      NoteSurveyMessage(*host);
      s.load = query.occupancy ? HostOccupancy(*host) : HostLoad(*host);
    }
    s.host = name;
    if (UsesCostSignal()) s.est_bytes = EstimatedBytes(from, *host, query.pid);
    s.fault_score = ctx.fault_history.Score(name);
    s.fault_excluded = UsesFaultSignal() && s.fault_score >= kFaultThreshold;
    s.health_score = ctx.health_monitor.HealthScore(name);
    s.health_excluded = UsesFaultSignal() && s.health_score >= query.health_threshold;
    if (exclusions != nullptr && s.fault_excluded) {
      exclusions->push_back({name, "fault-threshold", s.fault_score});
    } else if (exclusions != nullptr && s.health_excluded) {
      exclusions->push_back({name, "health-threshold", s.health_score});
    }
    scores.push_back(std::move(s));
  }
  return scores;
}

PlacementEngine::Margin PlacementEngine::Compare(const CandidateScore& a,
                                                 const CandidateScore& b) const {
  // Below-threshold health still orders candidates: a host with one anomalous
  // series loses to a clean one. Zero everywhere (monitor off) changes nothing.
  const struct {
    const char* name;
    bool weighed;
    double a, b;
  } factors[] = {
      {"load", true, static_cast<double>(a.load), static_cast<double>(b.load)},
      {"est_bytes", UsesCostSignal(), static_cast<double>(a.est_bytes),
       static_cast<double>(b.est_bytes)},
      {"fault", UsesFaultSignal(), a.fault_score, b.fault_score},
      {"health", UsesFaultSignal(), a.health_score, b.health_score},
  };
  for (const auto& f : factors) {
    if (f.weighed && f.a != f.b) return {f.name, f.a < f.b, std::abs(f.a - f.b)};
  }
  return {};
}

const CandidateScore* PlacementEngine::Best(const std::vector<CandidateScore>& scores,
                                            std::string_view except) const {
  const CandidateScore* best = nullptr;
  for (const CandidateScore& s : scores) {
    if (s.fault_excluded || s.health_excluded || s.host == except) continue;
    if (best == nullptr || Compare(s, *best).first_wins) best = &s;
  }
  return best;
}

// The runner-up is the best eligible candidate but the winner, ranked by the
// same Compare the pick used, and the margin names the first factor where they
// differ; a dead tie ("order" — decided only by network position) is the
// near-tie an operator should know about.
void PlacementEngine::RecordDecision(const PlacementQuery& query, int32_t pid,
                                     const std::vector<CandidateScore>& scores,
                                     const std::vector<sim::DecisionExclusion>& exclusions,
                                     const CandidateScore* chosen) const {
  sim::DecisionRecord r;
  r.context = query.context;
  r.policy = std::string(PlacementPolicyName(policy_));
  r.source = query.index != nullptr ? "index" : "scan";
  r.from_host = query.from_host;
  r.pid = pid;
  r.candidates.assign(scores.begin(), scores.end());
  r.exclusions = exclusions;
  r.margin_factor = "none";  // nothing was eligible
  if (chosen != nullptr) {
    r.chosen = chosen->host;
    r.margin_factor = "only";  // unless a runner-up exists
    if (const CandidateScore* ru = Best(scores, chosen->host); ru != nullptr) {
      const Margin m = Compare(*chosen, *ru);
      r.runner_up = ru->host;
      r.margin_factor = m.factor;
      r.margin = m.by;
      r.near_tie = r.margin_factor == "order";
    }
  }
  net_->context().decision_log.Record(std::move(r));
}

std::vector<std::string> PlacementEngine::PlaceBatch(
    const PlacementQuery& query, const std::vector<int32_t>& pids) const {
  std::vector<std::string> targets(pids.size());
  if (pids.empty()) return targets;
  // One survey (or the index view) up front; after that every pick is pure
  // bookkeeping. Each assignment bumps its target's working load — the
  // occupancy-style lookahead evacuation gets by re-surveying after every
  // migration, here for free.
  const bool audit = net_->context().decision_log.enabled();
  std::vector<sim::DecisionExclusion> exclusions;
  PlacementQuery first = query;
  first.pid = pids.front();
  std::vector<CandidateScore> scores = Score(first, audit ? &exclusions : nullptr);
  kernel::Kernel* from = net_->FindHost(query.from_host);
  for (size_t i = 0; i < pids.size(); ++i) {
    if (i > 0 && UsesCostSignal()) {
      // The cost signal is per-process; Score probed the first pid, so re-probe
      // it for this one. Loads (and their lookahead bumps) carry over untouched.
      for (CandidateScore& s : scores) {
        s.est_bytes = EstimatedBytes(from, *net_->FindHost(s.host), pids[i]);
      }
    }
    const CandidateScore* best = Best(scores);
    // One record per pid, captured before the lookahead bump below mutates the
    // working loads the next pid will see.
    if (audit) RecordDecision(query, pids[i], scores, exclusions, best);
    if (best == nullptr) continue;  // this pid stays unplaced ("")
    targets[i] = best->host;
    ++scores[static_cast<size_t>(best - scores.data())].load;
  }
  return targets;
}

}  // namespace pmig::apps
