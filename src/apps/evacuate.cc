#include "src/apps/evacuate.h"

#include "src/apps/cluster_index.h"
#include "src/apps/recovery.h"
#include "src/core/tools.h"

namespace pmig::apps {

EvacuationReport EvacuateHost(kernel::SyscallApi& api, net::Network& net,
                              std::string_view from_host, std::string_view to_host,
                              bool use_daemon, const core::MigrateOptions& opts,
                              PlacementPolicy policy, double health_threshold,
                              bool lease_targets, ClusterIndex* index) {
  EvacuationReport report;
  kernel::Kernel* from = net.FindHost(from_host);
  if (from == nullptr) return report;
  const PlacementEngine engine(&net, policy);

  // Snapshot the pids first; the list changes as processes move away.
  std::vector<int32_t> candidates;
  for (kernel::Proc* p : from->ListProcs()) {
    if (p->kind == kernel::ProcKind::kVm && p->Alive()) candidates.push_back(p->pid);
  }
  for (const int32_t pid : candidates) {
    kernel::Proc* p = from->FindProc(pid);
    if (p == nullptr || !p->Alive()) continue;  // exited meanwhile
    if (!Movable(*from, *p)) {
      report.unmovable.push_back(pid);
      continue;
    }
    std::string target(to_host);
    PlacementLease lease;
    bool have_lease = false;
    if (target.empty()) {
      PlacementQuery query;
      query.from_host = std::string(from_host);
      query.pid = pid;
      query.health_threshold = health_threshold;
      query.occupancy = true;  // count earlier evacuees even before they reschedule
      query.context = "evacuation";
      if (index != nullptr) {
        query.index = index;  // survey-free picks from the maintained view
        query.reachable_from = api.GetHostname();  // never aim across a partition
      }
      // With leasing on, a pick must also be won. Contended targets are
      // excluded and the query re-run, so a concurrent coordinator cannot
      // receive the same flood of evacuees.
      for (size_t tries = 0; tries <= net.hosts().size(); ++tries) {
        target = engine.PickTarget(query);
        if (target.empty() || !lease_targets) break;
        const Result<PlacementLease> acquired = AcquirePlacementLease(api, net, target);
        if (acquired.ok() && acquired->held) {
          lease = *acquired;
          have_lease = true;
          break;
        }
        ++report.lease_conflicts;
        query.exclude.push_back(target);
        target.clear();
      }
      if (target.empty()) {
        report.unplaced.push_back(pid);
        api.kernel().metrics().Inc("evacuate.unplaced");
        continue;
      }
    }
    const int rc = core::Migrate(api, net, pid, std::string(from_host), target,
                                 use_daemon, opts);
    if (have_lease) ReleasePlacementLease(api, lease);
    net.context().decision_log.AttachOutcome(pid, from_host, target, rc,
                                             api.proc().trace_id);
    if (rc == 0) {
      report.moved.push_back(pid);
      if (index != nullptr) index->NoteMigrated(std::string(from_host), target);
    } else {
      report.failed.push_back(pid);
      api.kernel().metrics().Inc("evacuate.failed");
    }
  }
  return report;
}

}  // namespace pmig::apps
