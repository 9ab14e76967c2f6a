#include "src/apps/cluster_index.h"

#include "src/apps/placement.h"

namespace pmig::apps {

ClusterIndex::ClusterIndex(net::Network* net, std::string local_host,
                           ClusterIndexOptions opts)
    : net_(net), local_(std::move(local_host)), opts_(opts) {
  for (kernel::Kernel* host : net_->hosts()) {
    IndexEntry e;
    e.host = host->hostname();
    e.order = entries_.size();
    by_name_[e.host] = e.order;
    live_loads_.insert(e.load);
    entries_.push_back(std::move(e));
  }
  load_observer_id_ = net_->load_observers().Add(
      [this](const net::LoadObservation& obs) { NoteObservation(obs); });
  fault_observer_id_ = net_->context().fault_history.observers().Add(
      [this](std::string_view host) { OnFaultRecorded(host); });
}

ClusterIndex::~ClusterIndex() {
  net_->load_observers().Remove(load_observer_id_);
  net_->context().fault_history.observers().Remove(fault_observer_id_);
}

IndexEntry* ClusterIndex::FindMutable(std::string_view host) {
  const auto it = by_name_.find(host);
  return it == by_name_.end() ? nullptr : &entries_[it->second];
}

const IndexEntry* ClusterIndex::Find(std::string_view host) const {
  const auto it = by_name_.find(host);
  return it == by_name_.end() ? nullptr : &entries_[it->second];
}

void ClusterIndex::NotifyIfChanged(uint64_t epoch_before) {
  if (epoch_ != epoch_before && wake_) wake_();
}

void ClusterIndex::SetLoad(IndexEntry& e, int load) {
  if (e.load == load) return;
  if (!e.down) {
    live_loads_.erase(live_loads_.find(e.load));
    live_loads_.insert(load);
    live_total_ += load - e.load;
  }
  e.load = load;
  ++epoch_;
}

void ClusterIndex::SetDown(IndexEntry& e, bool down) {
  if (e.down == down) return;
  if (down) {
    live_loads_.erase(live_loads_.find(e.load));
    live_total_ -= e.load;
  } else {
    live_loads_.insert(e.load);
    live_total_ += e.load;
  }
  e.down = down;
  ++epoch_;
}

void ClusterIndex::SetReachable(IndexEntry& e, bool reachable) {
  if (e.reachable == reachable) return;
  e.reachable = reachable;
  if (reachable) {
    unreachable_orders_.erase(e.order);
  } else {
    unreachable_orders_.insert(e.order);
  }
  ++epoch_;
}

int ClusterIndex::LoadSpread() const {
  if (live_loads_.size() < 2) return 0;
  return *live_loads_.rbegin() - *live_loads_.begin();
}

int ClusterIndex::TotalLoad() const { return static_cast<int>(live_total_); }

bool ClusterIndex::AnyMarkedUnreachableHealed() const {
  for (size_t order : unreachable_orders_) {
    const IndexEntry& e = entries_[order];
    if (e.host == local_) continue;
    if (net_->Reachable(local_, e.host)) return true;
  }
  return false;
}

void ClusterIndex::NoteMigrated(std::string_view from, std::string_view to) {
  const uint64_t before = epoch_;
  if (IndexEntry* e = FindMutable(from); e != nullptr) {
    SetLoad(*e, e->load > 0 ? e->load - 1 : 0);
    if (e->occupancy > 0) {
      --e->occupancy;
      ++epoch_;
    }
  }
  if (IndexEntry* e = FindMutable(to); e != nullptr) {
    SetLoad(*e, e->load + 1);
    ++e->occupancy;
    ++epoch_;
    SetReachable(*e, true);  // the leg just landed there
  }
  NotifyIfChanged(before);
}

void ClusterIndex::NoteReachable(std::string_view host, bool reachable) {
  const uint64_t before = epoch_;
  if (IndexEntry* e = FindMutable(host); e != nullptr) SetReachable(*e, reachable);
  NotifyIfChanged(before);
}

void ClusterIndex::NoteObservation(const net::LoadObservation& obs) {
  IndexEntry* e = FindMutable(obs.host);
  if (e == nullptr) return;
  const uint64_t before = epoch_;
  SetDown(*e, obs.down);
  if (!obs.down) {
    SetLoad(*e, obs.runnable);
    if (e->occupancy != obs.alive_vm) {
      e->occupancy = obs.alive_vm;
      ++epoch_;
    }
  }
  e->updated_at = obs.at;  // freshness renewal alone is not an event
  NotifyIfChanged(before);
}

void ClusterIndex::OnFaultRecorded(std::string_view host) {
  IndexEntry* e = FindMutable(host);
  if (e == nullptr) return;
  const double score = net_->context().fault_history.Score(host);
  if (score == e->fault_score) return;
  e->fault_score = score;
  ++epoch_;
  if (wake_) wake_();
}

void ClusterIndex::Survey(IndexEntry& e, sim::Nanos now) {
  kernel::Kernel* host = net_->FindHost(e.host);
  if (host == nullptr) return;
  SetDown(e, host->down());
  if (!e.down) {
    NoteSurveyMessage(*host);
    SetLoad(e, HostLoad(*host));
    if (const int occ = HostOccupancy(*host); occ != e.occupancy) {
      e.occupancy = occ;
      ++epoch_;
    }
  }
  // The free signals ride along: the history/monitor are coordinator-local
  // reads and reachability is a pure function — no extra messages.
  const sim::ClusterContext& ctx = net_->context();
  if (const double score = ctx.fault_history.Score(e.host); score != e.fault_score) {
    e.fault_score = score;
    ++epoch_;
  }
  if (const double score = ctx.health_monitor.HealthScore(e.host); score != e.health_score) {
    e.health_score = score;
    ++epoch_;
  }
  SetReachable(e, e.host == local_ || net_->Reachable(local_, e.host));
  e.updated_at = now;
}

int ClusterIndex::Refresh(sim::Nanos now) {
  const uint64_t before = epoch_;
  int surveyed = 0;
  for (IndexEntry& e : entries_) {
    if (e.updated_at >= 0 && now - e.updated_at <= opts_.ttl) continue;
    Survey(e, now);
    ++surveyed;
  }
  NotifyIfChanged(before);
  return surveyed;
}

bool ClusterIndex::RefreshHost(std::string_view host, sim::Nanos now) {
  IndexEntry* e = FindMutable(host);
  if (e == nullptr) return false;
  const uint64_t before = epoch_;
  Survey(*e, now);
  NotifyIfChanged(before);
  return true;
}

std::vector<std::pair<std::string, int>> ClusterIndex::Loads() const {
  std::vector<std::pair<std::string, int>> loads;
  for (const IndexEntry& e : entries_) {
    kernel::Kernel* host = net_->FindHost(e.host);
    if (host == nullptr || host->down()) continue;  // liveness is free: read live
    loads.emplace_back(e.host, e.load);
  }
  return loads;
}

}  // namespace pmig::apps
