#include "src/apps/night_shift.h"

#include "src/apps/placement.h"
#include "src/core/tools.h"

namespace pmig::apps {

std::vector<int32_t> BatchJobsOn(kernel::Kernel& host, int32_t batch_uid) {
  std::vector<int32_t> pids;
  for (kernel::Proc* p : host.ListProcs()) {
    if (p->kind == kernel::ProcKind::kVm && p->Alive() && p->creds.uid == batch_uid) {
      pids.push_back(p->pid);
    }
  }
  return pids;
}

NightShiftStats RunNightShift(kernel::SyscallApi& api, net::Network& net,
                              const NightShiftOptions& options) {
  NightShiftStats stats;
  std::string day_host = options.day_host;
  if (day_host.empty()) {
    // No hardcoded day machine: ask the engine. Occupancy is the right load —
    // the day host will hold every hog, runnable or not.
    PlacementQuery query;
    query.occupancy = true;
    query.context = "night-shift";
    day_host = PlacementEngine(&net).PickTarget(query);
    if (day_host.empty()) return stats;  // nothing eligible; nothing to run
  }
  stats.day_host = day_host;
  for (int night = 0; night < options.nights; ++night) {
    // Dusk: spread the day machine's hogs across the other machines, leaving a
    // fair share at home, walking the live hosts round-robin.
    kernel::Kernel* day = net.FindHost(day_host);
    if (day == nullptr) break;
    std::vector<int32_t> jobs = BatchJobsOn(*day, options.batch_uid);
    const auto& hosts = net.hosts();
    std::vector<kernel::Kernel*> eligible;  // spread targets, in network order
    for (kernel::Kernel* host : hosts) {
      if (host->hostname() != day_host && !host->down()) eligible.push_back(host);
    }
    // The fair share counts the day machine itself as one of the workers.
    const size_t machines = eligible.size() + 1;
    const size_t share = (jobs.size() + machines - 1) / machines;
    size_t target_index = 0;
    size_t moved_to_target = 0;
    for (size_t i = share; i < jobs.size(); ++i) {
      // Advance past filled shares, and drop any target that crashed since
      // dusk began — a dead machine must receive zero migration attempts.
      while (!eligible.empty()) {
        if (eligible[target_index]->down()) {
          eligible.erase(eligible.begin() + static_cast<ptrdiff_t>(target_index));
          if (eligible.empty()) break;
          target_index %= eligible.size();
          moved_to_target = 0;
          continue;
        }
        if (moved_to_target >= share) {
          target_index = (target_index + 1) % eligible.size();
          moved_to_target = 0;
          continue;
        }
        break;
      }
      if (eligible.empty()) break;  // nowhere left to spread; jobs stay home
      const int rc = core::Migrate(api, net, jobs[i], day_host,
                                   eligible[target_index]->hostname(),
                                   /*use_daemon=*/true);
      if (rc == 0) {
        ++stats.spread_migrations;
        ++moved_to_target;
      } else {
        ++stats.failed_spread;
      }
    }

    // Night: let them compute.
    api.Sleep(options.night_length);

    // Dawn: gather every surviving hog back onto the day machine. A night host
    // that is down holds its jobs frozen — they are counted as failed gathers
    // (visible, not silently stranded) and receive no doomed migrate attempts.
    for (kernel::Kernel* host : hosts) {
      if (host->hostname() == day_host) continue;
      const std::vector<int32_t> strays = BatchJobsOn(*host, options.batch_uid);
      if (host->down()) {
        stats.failed_gather += static_cast<int>(strays.size());
        continue;
      }
      for (const int32_t pid : strays) {
        const int rc = core::Migrate(api, net, pid, host->hostname(), day_host,
                                     /*use_daemon=*/true);
        if (rc == 0) {
          ++stats.gather_migrations;
        } else {
          ++stats.failed_gather;
        }
      }
    }
    ++stats.nights_run;
  }
  return stats;
}

}  // namespace pmig::apps
