// Host evacuation — the paper's introductory use case: "moving a process from a
// machine that is about to go down, to another."
//
// EvacuateHost migrates every live VM process off a machine (skipping the ones
// Section 7 says cannot move: socket holders and parents with children — those
// are reported, not silently dropped). Run it as root before taking the machine
// down for maintenance.

#ifndef PMIG_SRC_APPS_EVACUATE_H_
#define PMIG_SRC_APPS_EVACUATE_H_

#include <string>
#include <vector>

#include "src/apps/placement.h"
#include "src/core/tools.h"
#include "src/kernel/kernel.h"
#include "src/net/network.h"

namespace pmig::apps {

// Distinct overall exit statuses (see EvacuationReport::Status). kUnplaced is
// deliberately outside the tool exit-code range (0..5): an evacuation that
// left processes stranded on the host with no target is not a success and not
// an ordinary failure — the caller must re-drive placement (retry later, relax
// thresholds, or hand the survivors to the reaper).
constexpr int kEvacuateOk = 0;
constexpr int kEvacuateFailed = 1;
constexpr int kEvacuateUnplaced = 6;

struct EvacuationReport {
  std::vector<int32_t> moved;        // migrated successfully
  std::vector<int32_t> unmovable;    // skipped: sockets / children (Section 7)
  std::vector<int32_t> failed;       // migration attempted but failed
  std::vector<int32_t> unplaced;     // engine found no eligible target (not attempted)
  int lease_conflicts = 0;           // target re-picked because its lease was held

  // kEvacuateUnplaced when anything was left with no target (dominates: those
  // processes are still on the dying host), else kEvacuateFailed when any
  // migration failed, else kEvacuateOk.
  int Status() const {
    if (!unplaced.empty()) return kEvacuateUnplaced;
    if (!failed.empty()) return kEvacuateFailed;
    return kEvacuateOk;
  }
};

// Moves every eligible VM process from `from_host` to `to_host`. The caller must
// be root (it migrates other users' processes). Pass MigrateOptions::Robust()
// as `opts` to evacuate through a flaky network: each migration then retries
// transient failures and falls back to restarting on the source rather than
// losing the process (counted as failed, since it did not move).
//
// An empty `to_host` asks the PlacementEngine to pick a target per process under
// `policy` — spreading the evacuees across the cluster instead of dumping them
// all on one machine, and never picking a host that is down (or, under the
// fault-aware policies, one whose fault score is at or above kFaultThreshold
// or whose health-monitor score is at or above `health_threshold`). Processes
// with no eligible target are reported as `unplaced` and receive no migrate
// attempt.
//
// With `lease_targets`, each auto-placed pick is held under the target's
// placement lease for the duration of its migration (contended targets are
// excluded and the pick re-run), so two evacuations, or an evacuation and a
// reaper pass, cannot dog-pile one receiving host.
//
// With `index` (a coordinator-maintained apps::ClusterIndex), each auto-placed
// pick reads the index instead of re-surveying the cluster per evacuee, and
// targets the coordinator cannot currently reach are filtered before any
// migrate leg. Each committed move is noted back into the index, so
// consecutive picks see the occupancy the re-survey used to provide. Null
// (the default) keeps the classic per-process survey.
//
// The returned report's Status() is the command-style verdict: unplaced
// processes make the whole evacuation kEvacuateUnplaced (nonzero), never a
// silent success. Per-host `evacuate.unplaced` / `evacuate.failed` counters
// surface the same facts in the cluster run report.
EvacuationReport EvacuateHost(kernel::SyscallApi& api, net::Network& net,
                              std::string_view from_host, std::string_view to_host,
                              bool use_daemon = true,
                              const core::MigrateOptions& opts = {},
                              PlacementPolicy policy = PlacementPolicy::kLoadOnly,
                              double health_threshold = 1.0,
                              bool lease_targets = false,
                              ClusterIndex* index = nullptr);

}  // namespace pmig::apps

#endif  // PMIG_SRC_APPS_EVACUATE_H_
