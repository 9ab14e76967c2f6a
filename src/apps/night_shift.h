// The "CPU hogs at night" application (Section 8, third application).
//
// "These jobs can be run in one machine during the day ..., when users want to use
// the majority of the machines in the network. At night, when the load on most
// machines is low, these jobs can be distributed evenly throughout the system."
//
// NightShiftController is a native program: at nightfall it spreads every hog
// process from the day machine across the cluster; at dawn it gathers them back
// onto the day machine. Hogs are recognised by ownership (a dedicated batch uid),
// not by name — migration renames processes. The dusk spread walks the live
// hosts round-robin, a fair share each, skipping crashed machines; every move
// is a one-shot migrate through the migration daemon.

#ifndef PMIG_SRC_APPS_NIGHT_SHIFT_H_
#define PMIG_SRC_APPS_NIGHT_SHIFT_H_

#include <string>
#include <vector>

#include "src/kernel/kernel.h"
#include "src/net/network.h"

namespace pmig::apps {

struct NightShiftOptions {
  // Where the hogs live during the day. Empty = let the placement engine pick
  // the least occupied live host instead of the caller hardcoding a machine;
  // the choice is made once at startup and reported in
  // NightShiftStats::day_host.
  std::string day_host;
  int32_t batch_uid = 999;     // uid that marks batch (hog) jobs
  sim::Nanos night_length = sim::Seconds(60);
  int nights = 1;
};

struct NightShiftStats {
  int spread_migrations = 0;   // dusk: day host -> others
  int gather_migrations = 0;   // dawn: others -> day host
  int nights_run = 0;
  int failed_spread = 0;       // dusk migrations that failed (job stayed home)
  // Dawn gathers that failed or could not be attempted — each is a job visibly
  // stranded on a night host instead of silently uncounted.
  int failed_gather = 0;
  // The day host actually used: options.day_host, or the engine's pick when
  // that was empty ("" when nothing was eligible and the run did nothing).
  std::string day_host;
};

// Pids of live batch-uid VM processes on `host`.
std::vector<int32_t> BatchJobsOn(kernel::Kernel& host, int32_t batch_uid);

NightShiftStats RunNightShift(kernel::SyscallApi& api, net::Network& net,
                              const NightShiftOptions& options);

}  // namespace pmig::apps

#endif  // PMIG_SRC_APPS_NIGHT_SHIFT_H_
