// Partition-tolerant recovery: placement leases and the orphan dump-set reaper.
//
// Two coordination protocols, both built on nothing but O_EXCL file creation
// over NFS (the same primitive as the dump claim files), virtual-time
// timestamps written into the files (inodes carry no mtime), and the
// reachability model — so they need no new kernel machinery and degrade to
// ordinary Errno failures across a partition.
//
//   Placement lease — /var/lease/placement on the *target* host. A coordinator
//   (the reaper, and an evacuation run with lease_targets) acquires it before
//   aiming a migration at the target and releases it afterwards; a second coordinator
//   finds the file, reads the holder, and picks somewhere else. Expiry makes a
//   crashed or partitioned holder's lease breakable instead of a permanent
//   denial of service.
//
//   Orphan reaper — scans every reachable host's /usr/tmp for dump sets whose
//   coordinator is gone: claimed by a host that died mid-restart, completed
//   (readyXXXXX) but never consumed, or half-written debris. Depending on what
//   it finds it revives the process on a placement-engine-chosen host, GCs the
//   set, or — crucially — leaves it alone. The exactly-once rule, one function
//   shared with core::Migrate (core::ClaimHolderReachable): NOBODY sweeps or
//   resurrects a claimed dump set while its claim holder is unreachable,
//   because the holder may be running the process on the far side of the
//   partition. Only after the heal, when the holder (and any survivor
//   process) is observable again, does the set get settled — as a GC if the
//   restart committed, as a revival if the claimant died first.
//
// Determinism: everything here is surveys, file ops, and virtual-time sleeps —
// no RNG, no wall clock — so recovery passes replay bit-identically.

#ifndef PMIG_SRC_APPS_RECOVERY_H_
#define PMIG_SRC_APPS_RECOVERY_H_

#include <map>
#include <string>
#include <vector>

#include "src/core/tools.h"
#include "src/kernel/kernel.h"
#include "src/net/network.h"

namespace pmig::apps {

// Every host's lease directory (created world-writable at boot, like /usr/tmp).
inline constexpr char kLeaseDir[] = "/var/lease";

// How long a placement lease holds before another coordinator may break it: a
// crashed or partitioned holder's lease lapses instead of denying the target
// forever.
inline constexpr sim::Nanos kLeaseTtl = sim::Seconds(30);

struct PlacementLease {
  std::string target;
  std::string holder;      // us when held; the contending holder otherwise
  sim::Nanos expires = 0;
  bool held = false;
};

// Tries to acquire `target`'s placement lease for the calling host (O_EXCL
// create of /n/<target>/var/lease/placement, stamped "holder <h> expires <ns>"
// with expiry now + kLeaseTtl). A present-but-expired lease is broken and the
// acquisition retried once. Returns held=false carrying the current holder on
// contention, at once (the caller picks somewhere else); an Errno when the
// target cannot be reached at all (down, partitioned) — a coordinator cut off
// from its target must abandon cleanly, not wedge.
Result<PlacementLease> AcquirePlacementLease(kernel::SyscallApi& api,
                                             net::Network& net,
                                             const std::string& target);

// Releases a held lease (verifying it is still ours before unlinking, so a
// broken-and-reacquired lease is never released out from under its new
// holder). No-op on a lease that was never held.
void ReleasePlacementLease(kernel::SyscallApi& api, const PlacementLease& lease);

// --- Orphan dump-set reaper ---------------------------------------------------

// A pass always leases the host it revives onto (and the dump host while it
// breaks a stale claim), bounds each remote restart by core::kAttemptTimeout,
// and picks revival targets by load alone (PlacementPolicy::kLoadOnly) among
// the hosts it can reach.
struct ReaperOptions {
  // Minimum marker age before a dump set is considered abandoned. Must
  // comfortably exceed migrate's fallback persistence window
  // (core::kAttemptTimeout) so the reaper and a still-running coordinator
  // don't race over a live transaction.
  sim::Nanos grace = sim::Seconds(60);
  bool use_daemon = true;  // transport for remote restarts
  // Periodic pass (ReaperDaemonMain) cadence and bound; rounds 0 = forever.
  sim::Nanos poll_interval = sim::Seconds(30);
  int rounds = 0;
  // Scan only these hosts' /usr/tmp (empty = every host, the classic serial
  // cluster pass). Per-host reaper daemons on a big cluster each take a
  // shard of the host list so the scan splits instead of serialising; the
  // decision ladder and the exactly-once rule are unchanged, and restart
  // --claim's O_EXCL still arbitrates any overlap between shards.
  std::vector<std::string> hosts;
};

// Caller-owned first-seen times for marker-less (incomplete) dump sets, keyed
// "host:pid". A set with no readyXXXXX has no timestamp to age it by, so the
// reaper only collects it after seeing it across a full grace period. One-shot
// passes without state leave incomplete sets alone.
using ReaperState = std::map<std::string, sim::Nanos>;

struct ReaperReport {
  int scanned = 0;
  std::vector<int32_t> revived;    // restart re-driven on a healthy host
  std::vector<int32_t> collected;  // dump set GCed (consumed or debris)
  std::vector<int32_t> skipped;    // left alone (young, holder unreachable, ...)
  std::string log;                 // "pid@host:action;" per decision, for tests
};

// One reaper pass over every reachable host's /usr/tmp.
ReaperReport ReapOrphans(kernel::SyscallApi& api, net::Network& net,
                         const ReaperOptions& opts = {},
                         ReaperState* state = nullptr);

// preap [-g grace_seconds] [-H host ...] [--rsh]: one reaper pass from this
// host; prints "preap: scanned N revived N collected N skipped N".
int PreapMain(kernel::SyscallApi& api, net::Network& net,
              const std::vector<std::string>& args);

// The periodic cluster pass: ReapOrphans every poll_interval (with first-seen
// state carried across passes), opts.rounds times (0 = forever).
int ReaperDaemonMain(kernel::SyscallApi& api, net::Network& net,
                     const ReaperOptions& opts = {});

}  // namespace pmig::apps

#endif  // PMIG_SRC_APPS_RECOVERY_H_
