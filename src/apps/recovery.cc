#include "src/apps/recovery.h"

#include <algorithm>
#include <set>

#include "src/apps/placement.h"
#include "src/core/dump_format.h"

namespace pmig::apps {

namespace {

using vm::abi::OpenFlags;

std::string LeasePath(const std::string& local, const std::string& target) {
  const std::string dir =
      target == local ? std::string(kLeaseDir) : "/n/" + target + kLeaseDir;
  return dir + "/placement";
}

std::string LeaseBody(const std::string& holder, sim::Nanos expires) {
  return "holder " + holder + " expires " + std::to_string(expires) + "\n";
}

}  // namespace

Result<PlacementLease> AcquirePlacementLease(kernel::SyscallApi& api,
                                             net::Network& net,
                                             const std::string& target) {
  const std::string local = api.GetHostname();
  const std::string path = LeasePath(local, target);
  sim::MetricsRegistry& metrics = api.kernel().metrics();
  // A target that is down or on the far side of a partition must fail the
  // acquisition outright (EHOSTUNREACH from the NFS walk), never wedge.
  kernel::Kernel* remote = net.FindHost(target);
  if (remote == nullptr || remote->down()) return Errno::kHostUnreach;
  for (int attempt = 0; attempt < 2; ++attempt) {
    const Result<int> fd = api.Open(
        path, OpenFlags::kOWrOnly | OpenFlags::kOCreat | OpenFlags::kOExcl, 0600);
    if (fd.ok()) {
      PlacementLease lease;
      lease.target = target;
      lease.holder = local;
      lease.expires = api.Now() + kLeaseTtl;
      lease.held = true;
      const Result<int64_t> wrote = api.Write(*fd, LeaseBody(local, lease.expires));
      const Status closed = api.Close(*fd);
      (void)closed;
      if (!wrote.ok()) {
        // A lease file we cannot stamp is worse than none: break it.
        const Status st = api.Unlink(path);
        (void)st;
        return wrote.error();
      }
      metrics.Inc("lease.acquired");
      return lease;
    }
    if (fd.error() != Errno::kExist) return fd.error();
    const Result<std::string> bytes = core::ReadWholeFile(api, path);
    if (!bytes.ok()) {
      // Unlinked between our create and read: go around and try again.
      if (bytes.error() == Errno::kNoEnt) continue;
      return bytes.error();
    }
    const core::DumpMarker rec = core::ParseDumpMarker(*bytes);
    if (rec.at >= 0 && api.Now() >= rec.at) {
      // The holder sat on an expired lease (crashed, partitioned, or just
      // slow): break it and retry the exclusive create once.
      const Status st = api.Unlink(path);
      (void)st;
      metrics.Inc("lease.broken");
      continue;
    }
    PlacementLease lease;
    lease.target = target;
    lease.holder = rec.host;
    lease.expires = rec.at;
    lease.held = false;
    metrics.Inc("lease.contended");
    return lease;
  }
  // Lost the post-break race twice: report contention, not an error.
  PlacementLease lease;
  lease.target = target;
  metrics.Inc("lease.contended");
  return lease;
}

void ReleasePlacementLease(kernel::SyscallApi& api, const PlacementLease& lease) {
  if (!lease.held) return;
  const std::string local = api.GetHostname();
  const std::string path = LeasePath(local, lease.target);
  const Result<std::string> bytes = core::ReadWholeFile(api, path);
  if (!bytes.ok() || core::ParseDumpMarker(*bytes).host != local) return;
  const Status st = api.Unlink(path);
  (void)st;
  api.kernel().metrics().Inc("lease.released");
}

// --- Orphan dump-set reaper ---------------------------------------------------

namespace {

bool PathExists(kernel::SyscallApi& api, const std::string& path) {
  return api.Stat(path).ok();
}

// A live migrated process anywhere (reachable) whose pre-migration identity is
// (pid, dump_host): the dump set was consumed; the process survives elsewhere.
bool SurvivorExists(net::Network& net, const std::string& local,
                    const std::string& dump_host, int32_t pid) {
  for (kernel::Kernel* h : net.hosts()) {
    if (h->down() || !net.Reachable(local, h->hostname())) continue;
    for (kernel::Proc* p : h->ListProcs()) {
      if (p->kind != kernel::ProcKind::kVm || !p->Alive()) continue;
      if (p->old_pid == pid && p->old_host == dump_host) return true;
    }
  }
  return false;
}

// All pids with any dump-set file ("a.out"/"files"/"stack"/"ready"/"claim" +
// digits) in `dir`, in ascending order — the scan is deterministic because
// directory entries iterate sorted.
std::set<int32_t> DumpSetPids(kernel::SyscallApi& api, const std::string& dir) {
  std::set<int32_t> pids;
  const Result<std::vector<std::string>> names = api.ReadDir(dir);
  if (!names.ok()) return pids;
  for (const std::string& name : *names) {
    for (const char* prefix : {"a.out", "files", "stack", "ready", "claim"}) {
      const size_t len = std::string(prefix).size();
      if (name.size() <= len || name.compare(0, len, prefix) != 0) continue;
      bool digits = true;
      for (size_t i = len; i < name.size(); ++i) {
        if (name[i] < '0' || name[i] > '9') {
          digits = false;
          break;
        }
      }
      if (!digits) continue;
      pids.insert(static_cast<int32_t>(std::atoi(name.c_str() + len)));
      break;
    }
  }
  return pids;
}

struct ReapContext {
  kernel::SyscallApi& api;
  net::Network& net;
  const ReaperOptions& opts;
  ReaperState* state;
  ReaperReport* report;
  std::string local;
};

// Files `pid` under one of the report's outcomes and logs the decision.
void Note(ReapContext& ctx, std::vector<int32_t>& outcome, int32_t pid,
          const std::string& host, const char* action) {
  outcome.push_back(pid);
  ctx.report->log += std::to_string(pid) + "@" + host + ":" + action + ";";
}

// Re-drives the restart of a stale, unclaimed (or just-unclaimed) dump set on
// a placement-chosen reachable host, holding the target's lease while the
// restart runs. restart --claim's O_EXCL is the actual mutex against every
// other concurrent consumer — a racing coordinator's restart loses the claim
// and bows out.
void Revive(ReapContext& ctx, const std::string& host, int32_t pid,
            const core::DumpPaths& paths) {
  PlacementEngine engine(&ctx.net, PlacementPolicy::kLoadOnly);
  PlacementQuery query;
  query.from_host = host;
  query.occupancy = true;
  query.reachable_from = ctx.local;  // the restart runs from here
  query.context = "reaper";
  const size_t max_tries = ctx.net.hosts().size();
  for (size_t i = 0; i < max_tries; ++i) {
    std::string target = engine.PickTarget(query);
    if (target.empty()) {
      // No other host qualifies; the dump host itself (alive — we just read
      // its disk) is the fallback, as with migrate's source restart, if it is
      // still reachable.
      target = host;
      if (target != ctx.local && !ctx.net.Reachable(ctx.local, target)) break;
    }
    const Result<PlacementLease> lease = AcquirePlacementLease(ctx.api, ctx.net, target);
    if (!lease.ok() || !lease->held) {
      if (target == host) break;  // nowhere left to go this pass
      query.exclude.push_back(target);
      continue;
    }
    const Result<int> rc =
        core::RunTool(ctx.api, ctx.net, target, "restart",
                      {"-p", std::to_string(pid), "-h", host, "--claim"},
                      ctx.opts.use_daemon, core::kAttemptTimeout);
    ReleasePlacementLease(ctx.api, *lease);
    if (rc.ok() && *rc == 0) {
      ctx.api.kernel().metrics().Inc("reaper.revived");
      core::RemoveDumpSet(ctx.api, paths);
      Note(ctx, ctx.report->revived, pid, host, "revived");
      return;
    }
    if (rc.ok() && *rc == core::kToolClaimed) {
      // A concurrent consumer won the claim mid-pass; the process is in
      // better-informed hands. Leave the sweep to the winner.
      Note(ctx, ctx.report->skipped, pid, host, "lost-claim");
      return;
    }
    // Transient or hard failure: keep the set for the next pass rather than
    // guessing. (A hard restart failure with a valid-looking set usually
    // means the set is unconsumable; the next pass's survivor/age checks
    // keep it from living forever.)
    Note(ctx, ctx.report->skipped, pid, host, "revive-failed");
    return;
  }
  Note(ctx, ctx.report->skipped, pid, host, "no-target");
}

void ReapOne(ReapContext& ctx, const std::string& host, const std::string& dir,
             int32_t pid) {
  ++ctx.report->scanned;
  const core::DumpPaths paths = core::DumpPaths::For(pid, dir);
  const sim::Nanos now = ctx.api.Now();

  // The origin process still running means there is no orphan here — the dump
  // is mid-flight (dumpproc polling) or already resumed after an abort.
  kernel::Kernel* owner = ctx.net.FindHost(host);
  if (owner != nullptr) {
    kernel::Proc* p = owner->FindProc(pid);
    if (p != nullptr && p->Alive()) {
      Note(ctx, ctx.report->skipped, pid, host, "origin-alive");
      return;
    }
  }

  // A survivor elsewhere means the set was consumed and only its GC was cut
  // short (e.g. the consumer lost the source's disk to a partition right
  // after committing): collect it.
  if (SurvivorExists(ctx.net, ctx.local, host, pid)) {
    core::RemoveDumpSet(ctx.api, paths);
    ctx.api.kernel().metrics().Inc("reaper.collected");
    Note(ctx, ctx.report->collected, pid, host, "consumed");
    return;
  }

  // Incomplete set (no ready marker): no timestamp to age it by, so it is
  // only debris once it has sat unchanged across a full grace period of
  // passes. One-shot runs (no state) must leave it alone — it may be a dump
  // landing right now.
  if (!PathExists(ctx.api, paths.ready)) {
    if (ctx.state == nullptr) {
      Note(ctx, ctx.report->skipped, pid, host, "incomplete");
      return;
    }
    const std::string key = host + ":" + std::to_string(pid);
    auto it = ctx.state->find(key);
    if (it == ctx.state->end()) {
      (*ctx.state)[key] = now;
      Note(ctx, ctx.report->skipped, pid, host, "incomplete-first-seen");
      return;
    }
    if (now - it->second < ctx.opts.grace) {
      Note(ctx, ctx.report->skipped, pid, host, "incomplete-young");
      return;
    }
    ctx.state->erase(it);
    core::RemoveDumpSet(ctx.api, paths);
    ctx.api.kernel().metrics().Inc("reaper.collected");
    Note(ctx, ctx.report->collected, pid, host, "debris");
    return;
  }

  // Complete set. Too young to touch?
  const core::DumpMarker ready = core::ReadDumpMarker(ctx.api, paths.ready);
  if (ready.at >= 0 && now - ready.at < ctx.opts.grace) {
    Note(ctx, ctx.report->skipped, pid, host, "young");
    return;
  }

  if (PathExists(ctx.api, paths.claim)) {
    const core::DumpMarker claim = core::ReadDumpMarker(ctx.api, paths.claim);
    // THE exactly-once rule: the holder may be running this process on the
    // far side of a partition. Hands off until it is observable. (No metrics
    // registry: only migrate's decision points count fault.injected.partition.)
    if (!core::ClaimHolderReachable(ctx.net, ctx.local, claim, nullptr)) {
      Note(ctx, ctx.report->skipped, pid, host, "holder-unreachable");
      return;
    }
    if (!claim.host.empty() && claim.at >= 0 && now - claim.at < ctx.opts.grace) {
      Note(ctx, ctx.report->skipped, pid, host, "claim-fresh");
      return;
    }
    // The holder is reachable, no survivor exists anywhere we can see, and
    // the claim has gone stale: the claimant died between claiming and
    // committing. Break the claim under the dump host's lease (serialising
    // concurrent reapers over this host's sets) and re-drive the restart.
    const Result<PlacementLease> breaker = AcquirePlacementLease(ctx.api, ctx.net, host);
    if (!breaker.ok() || !breaker->held) {
      Note(ctx, ctx.report->skipped, pid, host, "break-contended");
      return;
    }
    const Status st = ctx.api.Unlink(paths.claim);
    (void)st;
    ctx.api.kernel().metrics().Inc("reaper.claims_broken");
    // With the stale claim gone, restart --claim's O_EXCL is the mutex again;
    // release the serialising lease before reviving so the revive may lease
    // the dump host itself as a target.
    ReleasePlacementLease(ctx.api, *breaker);
    Revive(ctx, host, pid, paths);
    return;
  }

  // Ready, unclaimed, stale, no survivor: a completed dump whose coordinator
  // never came back for it. Revive it.
  Revive(ctx, host, pid, paths);
}

}  // namespace

ReaperReport ReapOrphans(kernel::SyscallApi& api, net::Network& net,
                         const ReaperOptions& opts, ReaperState* state) {
  ReaperReport report;
  ReapContext ctx{api, net, opts, state, &report, api.GetHostname()};
  for (kernel::Kernel* host : net.hosts()) {
    if (host->down()) continue;
    const std::string hname = host->hostname();
    if (!opts.hosts.empty() &&
        std::find(opts.hosts.begin(), opts.hosts.end(), hname) == opts.hosts.end()) {
      continue;  // another shard's host
    }
    // Both directions must flow to scan and settle a host's sets; a one-way
    // view is how split brains happen.
    if (hname != ctx.local && (!net.Reachable(ctx.local, hname) ||
                               !net.Reachable(hname, ctx.local))) {
      continue;
    }
    const std::string dir =
        hname == ctx.local ? std::string("/usr/tmp") : "/n/" + hname + "/usr/tmp";
    for (int32_t pid : DumpSetPids(api, dir)) {
      ReapOne(ctx, hname, dir, pid);
    }
  }
  return report;
}

int PreapMain(kernel::SyscallApi& api, net::Network& net,
              const std::vector<std::string>& args) {
  ReaperOptions opts;
  for (size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "-g" && i + 1 < args.size()) {
      opts.grace = sim::Seconds(std::atoi(args[++i].c_str()));
    } else if (args[i] == "--rsh") {
      opts.use_daemon = false;
    } else if (args[i] == "-H" && i + 1 < args.size()) {
      opts.hosts.push_back(args[++i]);  // repeatable: this pass's shard
    } else {
      const Result<int64_t> n = api.Write(
          2, "usage: preap [-g grace_seconds] [-H host ...] [--rsh]\n");
      (void)n;
      return core::kToolUsage;
    }
  }
  const ReaperReport report = ReapOrphans(api, net, opts);
  const Result<int64_t> n = api.Write(
      1, "preap: scanned " + std::to_string(report.scanned) + " revived " +
             std::to_string(report.revived.size()) + " collected " +
             std::to_string(report.collected.size()) + " skipped " +
             std::to_string(report.skipped.size()) + "\n");
  (void)n;
  return core::kToolOk;
}

int ReaperDaemonMain(kernel::SyscallApi& api, net::Network& net,
                     const ReaperOptions& opts) {
  ReaperState state;
  for (int round = 0; opts.rounds <= 0 || round < opts.rounds; ++round) {
    const ReaperReport report = ReapOrphans(api, net, opts, &state);
    (void)report;
    api.Sleep(opts.poll_interval);
  }
  return 0;
}

}  // namespace pmig::apps
