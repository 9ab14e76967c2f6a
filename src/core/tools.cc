#include "src/core/tools.h"

#include <array>
#include <cstdio>
#include <deque>

#include "src/core/dump_format.h"
#include "src/kernel/core_file.h"
#include "src/net/migration_daemon.h"
#include "src/net/rsh.h"
#include "src/vfs/path.h"
#include "src/vm/aout.h"

namespace pmig::core {

namespace {

using vm::abi::OpenFlags;

void Complain(kernel::SyscallApi& api, const std::string& message) {
  const Result<int64_t> n = api.Write(2, message + "\n");
  (void)n;
}

// Reads and parses one dump file.
template <typename T>
Result<T> LoadDumpFile(kernel::SyscallApi& api, const std::string& path) {
  PMIG_TRY(std::string bytes, ReadWholeFile(api, path));
  return T::Parse(bytes);
}

}  // namespace

Result<std::string> ReadWholeFile(kernel::SyscallApi& api, const std::string& path) {
  PMIG_TRY(int fd, api.Open(path, OpenFlags::kORdOnly));
  Result<std::string> bytes = api.ReadAll(fd);
  const Status closed = api.Close(fd);
  (void)closed;
  return bytes;
}

Status WriteWholeFile(kernel::SyscallApi& api, const std::string& path,
                      const std::string& contents, uint16_t mode) {
  PMIG_TRY(int fd, api.Creat(path, mode));
  const Result<int64_t> n = api.Write(fd, contents);
  const Status closed = api.Close(fd);
  (void)closed;
  if (!n.ok()) return n.error();
  return Status::Ok();
}

Result<std::string> Realpath(kernel::SyscallApi& api, const std::string& path) {
  std::string start = path;
  if (!vfs::IsAbsolute(start)) {
    PMIG_TRY(std::string cwd, api.GetCwd());
    start = vfs::Combine(cwd, start);
  }
  std::deque<std::string> pending;
  for (std::string& c : vfs::SplitPath(start)) pending.push_back(std::move(c));

  std::vector<std::string> resolved;
  int expansions = 0;
  while (!pending.empty()) {
    const std::string comp = std::move(pending.front());
    pending.pop_front();
    if (comp == ".") continue;
    if (comp == "..") {
      if (!resolved.empty()) resolved.pop_back();
      continue;
    }
    resolved.push_back(comp);
    const std::string candidate = vfs::JoinAbsolute(resolved);
    const Result<kernel::StatInfo> info = api.LStat(candidate);
    if (!info.ok()) {
      if (info.error() == Errno::kNoEnt && pending.empty()) {
        return candidate;  // nonexistent leaf is fine (e.g. a file to be created)
      }
      return info.error();
    }
    if (info->type == vfs::InodeType::kSymlink) {
      if (++expansions > 4 * vfs::kMaxSymlinkExpansions) return Errno::kLoop;
      PMIG_TRY(std::string target, api.Readlink(candidate));
      resolved.pop_back();
      std::vector<std::string> target_comps = vfs::SplitPath(target);
      for (auto it = target_comps.rbegin(); it != target_comps.rend(); ++it) {
        pending.push_front(std::move(*it));
      }
      if (vfs::IsAbsolute(target)) resolved.clear();
    }
  }
  return vfs::JoinAbsolute(resolved);
}

// --- dumpproc ----------------------------------------------------------------------

namespace {

// The Section 4.4 path rewriting: resolve symlinks; terminals become /dev/tty;
// local paths get /n/<host> prepended so any machine can reopen them.
std::string RewritePathForMigration(kernel::SyscallApi& api, const std::string& host,
                                    const std::string& path, bool may_be_tty) {
  const Result<std::string> real = Realpath(api, path);
  std::string p = real.ok() ? *real : path;
  if (may_be_tty) {
    const Result<kernel::StatInfo> info = api.Stat(p);
    if (info.ok() && info->is_tty) return "/dev/tty";
  }
  if (!(p.size() >= 3 && p.compare(0, 3, "/n/") == 0)) {
    p = vfs::NormalizeAbsolute("/n/" + host + p);
  }
  return p;
}

}  // namespace

void RewriteFilesForMigration(kernel::SyscallApi& api, FilesFile* files) {
  const std::string host = api.GetHostname();
  files->cwd = RewritePathForMigration(api, host, files->cwd, /*may_be_tty=*/false);
  for (FilesEntry& entry : files->entries) {
    if (entry.kind != FilesEntry::Kind::kFile) continue;
    entry.path = RewritePathForMigration(api, host, entry.path, /*may_be_tty=*/true);
  }
}

namespace {

bool FileExists(kernel::SyscallApi& api, const std::string& path) {
  const Result<int> fd = api.Open(path, OpenFlags::kORdOnly);
  if (!fd.ok()) return false;
  const Status closed = api.Close(*fd);
  (void)closed;
  return true;
}

}  // namespace

DumpMarker ReadDumpMarker(kernel::SyscallApi& api, const std::string& path) {
  const Result<std::string> bytes = ReadWholeFile(api, path);
  if (!bytes.ok()) return {};
  return ParseDumpMarker(*bytes);
}

bool ClaimHolderReachable(net::Network& net, const std::string& local,
                          const DumpMarker& claim, sim::MetricsRegistry* metrics) {
  if (claim.host.empty()) return true;  // no metadata: assume a live claimant
  kernel::Kernel* holder = net.FindHost(claim.host);
  if (holder == nullptr || holder->down()) return false;
  return net.Reachable(local, claim.host, metrics);
}

Result<int> RunTool(kernel::SyscallApi& api, net::Network& net, const std::string& host,
                    const std::string& program, std::vector<std::string> args,
                    bool use_daemon, sim::Nanos timeout) {
  if (host == api.GetHostname()) {
    PMIG_TRY(int32_t child, api.SpawnProgram(program, std::move(args)));
    (void)child;
    PMIG_TRY(kernel::WaitResult wr, api.Wait());
    return wr.overlaid ? 0 : wr.info.exit_code;
  }
  net::RemoteExecOptions remote;
  remote.timeout = timeout;
  return use_daemon ? net::DaemonExec(api, net, host, program, std::move(args), remote)
                    : net::Rsh(api, net, host, program, std::move(args), remote);
}

void RemoveDumpSet(kernel::SyscallApi& api, const DumpPaths& paths) {
  for (const std::string* p : {&paths.aout, &paths.files, &paths.stack,
                               &paths.ready, &paths.claim}) {
    const Status st = api.Unlink(*p);
    (void)st;
  }
}

bool IsTransientErrno(Errno e) {
  return e == Errno::kTimedOut || e == Errno::kHostUnreach || e == Errno::kIo ||
         e == Errno::kNoSpc;
}

MigrateOptions MigrateOptions::Robust() {
  MigrateOptions o;
  o.attempts = 3;
  o.transactional = true;
  return o;
}

int Dumpproc(kernel::SyscallApi& api, int32_t pid, bool tx, bool incremental) {
  // Signal phase: kill the process with SIGDUMP (kill() itself enforces that
  // only the superuser or the owner may do this), then poll for a.outXXXXX —
  // the dying process creates the dump files — sleeping one second after each
  // unsuccessful attempt (aborting after ten). The kernel's own "dump" span
  // nests inside this one, so the signal phase's self time is the kill plus the
  // retry-sleep slack.
  kernel::Proc& self = api.proc();
  if (self.trace_id == 0) {
    // Invoked by hand rather than by migrate: start a trace of our own.
    self.trace_id = api.kernel().context().spans.MintTraceId();
  }
  const DumpPaths paths = DumpPaths::For(pid);
  if (tx && FileExists(api, paths.ready)) return kToolOk;  // rerun after success
  if (incremental) {
    // Arm the delta dump. A kernel without dirty tracking (or a target that is
    // not a VM process) refuses with ENOEXEC; proceed with a full dump — the
    // incremental path is an optimisation, never a requirement.
    const Status armed = api.SetDumpMode(pid, true);
    if (!armed.ok() && armed.error() == Errno::kNoExec) {
      Complain(api, "dumpproc: process " + std::to_string(pid) +
                        " cannot dump incrementally; dumping in full");
    }
  }
  bool appeared = false;
  {
    kernel::TraceSpan signal_phase(api.kernel(), self, "signal");
    const Status killed = api.Kill(pid, vm::abi::kSigDump);
    if (!killed.ok()) {
      // In a retried transaction the process may have dumped already (an
      // earlier dumpproc signalled it, then timed out before finishing the
      // rewrite): ESRCH with the dump files present means resume, not fail.
      if (!(tx && killed.error() == Errno::kSrch && FileExists(api, paths.aout))) {
        Complain(api, "dumpproc: cannot signal process " + std::to_string(pid) + ": " +
                          std::string(ErrnoName(killed.error())));
        return kToolFail;
      }
      appeared = true;
    } else {
      for (int attempt = 0; attempt < 10; ++attempt) {
        if (FileExists(api, paths.aout)) {
          appeared = true;
          break;
        }
        // A dump the kernel aborted (disk full, corruption) resumed the
        // process and will never produce files: stop waiting for them. ESRCH
        // means the process is gone — the files may still be about to land, so
        // keep polling for them.
        const Result<bool> failed = api.DumpFailed(pid);
        if (failed.ok() && *failed) {
          Complain(api, "dumpproc: dump of " + std::to_string(pid) +
                            " aborted by the kernel");
          RemoveDumpSet(api, paths);
          return tx ? kToolTransient : kToolFail;
        }
        api.Sleep(sim::Seconds(1));
      }
    }
  }
  if (!appeared) {
    // The dump may be mid-write (an injected fault resumed the process, or the
    // kernel is slow): leave nothing behind and let the caller retry.
    RemoveDumpSet(api, paths);
    Complain(api, "dumpproc: dump files for " + std::to_string(pid) + " never appeared");
    return tx ? kToolTransient : kToolFail;
  }

  Result<FilesFile> files = LoadDumpFile<FilesFile>(api, paths.files);
  if (!files.ok()) {
    RemoveDumpSet(api, paths);
    Complain(api, "dumpproc: bad " + paths.files + " (" +
                      std::string(ErrnoName(files.error())) + ")");
    return kToolFail;
  }

  RewriteFilesForMigration(api, &files.value());

  if (tx) {
    // Commit the rewrite atomically (write-to-temp + rename) and only then
    // publish the ready marker: a reader that sees readyXXXXX sees a complete,
    // rewritten dump set.
    const std::string tmp = paths.files + ".tmp";
    Status wrote = WriteWholeFile(api, tmp, files->Serialize(), 0600);
    if (wrote.ok()) wrote = api.Rename(tmp, paths.files);
    if (wrote.ok()) {
      // The marker carries when and where the set was completed so the orphan
      // reaper can age it later (inodes have no mtime). One whose creat landed
      // but whose write failed goes again: an empty readyXXXXX would pass for
      // a finished set (a retry returns at once) with no time to age it by.
      const std::string marker = FormatReadyMarker(api.GetHostname(), api.Now());
      const Result<int> fd = api.Creat(paths.ready, 0600);
      if (fd.ok()) {
        const Result<int64_t> n = api.Write(*fd, marker);
        const Status closed = api.Close(*fd);
        (void)closed;
        if (!n.ok()) {
          wrote = n.error();
          const Status st = api.Unlink(paths.ready);
          (void)st;
        }
      } else {
        wrote = fd.error();
      }
    }
    if (!wrote.ok()) {
      const Status st = api.Unlink(tmp);
      (void)st;
      Complain(api, "dumpproc: cannot rewrite " + paths.files + " (" +
                        std::string(ErrnoName(wrote.error())) + ")");
      if (IsTransientErrno(wrote.error())) {
        // The write-to-temp scheme left the kernel's original filesXXXXX
        // intact, and the process may already be dead — the dump set IS the
        // process now. Keep it; a retried dumpproc resumes from it (the ESRCH
        // + files-present path above) and redoes the idempotent rewrite.
        return kToolTransient;
      }
      RemoveDumpSet(api, paths);
      return kToolFail;
    }
    return kToolOk;
  }

  if (const Status wrote = WriteWholeFile(api, paths.files, files->Serialize(), 0600);
      !wrote.ok()) {
    // A half-rewritten filesXXXXX is poison for restart; take the whole dump
    // set down with it rather than leaving a trap (and an orphan) behind.
    RemoveDumpSet(api, paths);
    Complain(api, "dumpproc: cannot rewrite " + paths.files + " (" +
                      std::string(ErrnoName(wrote.error())) + ")");
    return kToolFail;
  }
  return kToolOk;
}

// --- restart -----------------------------------------------------------------------

bool ReopenFileTable(kernel::SyscallApi& api, const FilesFile& files, int slots) {
  std::array<bool, kernel::kNoFile> placeholder{};
  for (int i = 0; i < slots; ++i) {
    const FilesEntry& entry = files.entries[static_cast<size_t>(i)];
    int got = -1;
    if (entry.kind == FilesEntry::Kind::kFile) {
      // Correct access modes; never truncate or create on reopen.
      const int32_t flags =
          entry.flags & (vm::abi::kAccMode | OpenFlags::kOAppend);
      const Result<int> fd = api.Open(entry.path, flags);
      if (fd.ok()) {
        got = *fd;
        const Result<int64_t> pos = api.Lseek(got, entry.offset, vm::abi::kSeekSet);
        (void)pos;  // pipes-turned-files etc. may refuse; offset is best effort
      } else if (i < 3) {
        // Stdio that cannot be reopened: the terminal, "so that the user may have
        // some control over the restarted program".
        const Result<int> tty = api.Open("/dev/tty", OpenFlags::kORdWr);
        if (tty.ok()) got = *tty;
      }
    }
    if (got < 0) {
      // Unused slots, sockets, and unreopenable files: the null device, "so that
      // the restarted process can find an open file where it expects one, and to
      // preserve the order of open file numbers."
      const Result<int> null_fd = api.Open("/dev/null", OpenFlags::kORdWr);
      if (!null_fd.ok()) return false;
      got = *null_fd;
      if (entry.kind == FilesEntry::Kind::kUnused) {
        placeholder[static_cast<size_t>(i)] = true;
      }
    }
    if (got != i) return false;  // fd-table invariant broken; bail out
  }
  for (int i = 0; i < slots; ++i) {
    if (placeholder[static_cast<size_t>(i)]) {
      const Status st = api.Close(i);
      (void)st;
    }
  }

  // The old terminal flags, applied to the current terminal — impossible under
  // rsh (no controlling tty), which is exactly the visual-program limitation.
  if (files.had_tty) {
    const Result<int> tty = api.Open("/dev/tty", OpenFlags::kORdWr);
    if (tty.ok()) {
      const Status st = api.TtySetFlags(*tty, files.tty_flags);
      (void)st;
      const Status closed = api.Close(*tty);
      (void)closed;
    }
  }
  return true;
}

int Restart(kernel::SyscallApi& api, int32_t pid, const std::string& dump_host,
            bool claim) {
  kernel::Proc& self = api.proc();
  if (self.trace_id == 0) {
    // Invoked by hand (not through migrate, which threads its context in via
    // the spawn): start a trace of our own. rest_proc() still adopts the
    // dump's stamped id when ours is 0 — i.e. when spans are disabled.
    self.trace_id = api.kernel().context().spans.MintTraceId();
  }
  std::string dir = "/usr/tmp";
  if (!dump_host.empty() && dump_host != api.GetHostname()) {
    dir = "/n/" + dump_host + "/usr/tmp";
  }
  const DumpPaths paths = DumpPaths::For(pid, dir);

  // Reading the dump files (over NFS on a remote-source restart) is the transfer
  // leg of a migration; span it so the run report can attribute it.
  Result<StackFile> stack = Errno::kNoEnt;
  Result<FilesFile> files = Errno::kNoEnt;
  {
    kernel::TraceSpan transfer_phase(api.kernel(), self, "transfer");

    // Verify that the three files exist and have the correct format.
    const Result<int> fd = api.Open(paths.aout, OpenFlags::kORdOnly);
    if (!fd.ok()) {
      Complain(api, "restart: no " + paths.aout);
      return 1;
    }
    const Result<std::string> head = api.Read(*fd, 4);
    const Status closed = api.Close(*fd);
    (void)closed;
    const uint32_t magic =
        !head.ok() || head->size() < 4
            ? 0
            : static_cast<uint32_t>(static_cast<uint8_t>((*head)[0]) |
                                    (static_cast<uint8_t>((*head)[1]) << 8));
    if (magic != vm::kAoutMagic && magic != kIncrAoutMagic) {
      Complain(api, "restart: bad executable magic in " + paths.aout);
      return 1;
    }
    stack = LoadDumpFile<StackFile>(api, paths.stack);
    files = LoadDumpFile<FilesFile>(api, paths.files);
  }
  if (!stack.ok()) {
    Complain(api, "restart: bad or missing " + paths.stack);
    return 1;
  }
  if (!files.ok()) {
    Complain(api, "restart: bad or missing " + paths.files);
    return 1;
  }

  // Establish the old credentials as our own (the only thing read from
  // stackXXXXX at user level).
  const Status creds = api.SetReUid(stack->creds.uid, stack->creds.euid);
  if (!creds.ok()) {
    Complain(api, "restart: cannot assume uid " + std::to_string(stack->creds.uid));
    return 1;
  }

  // The old current working directory.
  if (!api.Chdir(files->cwd).ok()) {
    const Status st = api.Chdir("/");
    (void)st;
  }

  // The claim: created exclusively next to the dump, immediately before the
  // irreversible part (tearing down our fd table and overlaying ourselves).
  // When several restart attempts race for one dump — a retried migrate whose
  // earlier attempt only *looked* dead — exactly one creation succeeds; the
  // rest learn the process is already being restarted and bow out.
  if (claim) {
    const Result<int> cfd =
        api.Open(paths.claim, OpenFlags::kOWrOnly | OpenFlags::kOCreat | OpenFlags::kOExcl, 0600);
    if (!cfd.ok()) {
      if (cfd.error() == Errno::kExist) return kToolClaimed;
      Complain(api, "restart: cannot claim " + paths.claim + " (" +
                        std::string(ErrnoName(cfd.error())) + ")");
      // The dump set is fine; the claim just cannot land right now (the dump
      // host's disk may be full — the very fault that strands dumps there).
      // Report transient so the migrate retries instead of giving the process
      // up for lost.
      return IsTransientErrno(cfd.error()) ? kToolTransient : kToolFail;
    }
    // Stamp who holds the claim and since when: if we die or get partitioned
    // away mid-restart, the source's migrate and the orphan reaper read this
    // back to decide between waiting, resurrecting, and collecting. Best
    // effort — an unwritable claim body degrades to the pre-metadata format.
    const Result<int64_t> n = api.Write(
        *cfd, FormatClaimMarker(api.GetHostname(), api.Now()));
    (void)n;
    const Status closed = api.Close(*cfd);
    (void)closed;
  }
  // Failures past the claim must release it, or the dump set becomes
  // unconsumable: no later attempt could ever win the claim again.
  auto fail = [&api, &paths, claim](int rc) {
    if (claim) {
      const Status st = api.Unlink(paths.claim);
      (void)st;
    }
    return rc;
  };

  // Rebuild the fd table: close everything (including our own stdio), then reopen
  // slot by slot so each file lands on its original descriptor number.
  for (int fd = 0; fd < kernel::kNoFile; ++fd) {
    const Status st = api.Close(fd);
    (void)st;
  }
  if (!ReopenFileTable(api, *files, kernel::kNoFile)) return fail(kToolFail);

  // rest_proc() — no return on success.
  const Status st = api.RestProc(paths.aout, paths.stack);
  (void)st;
  return fail(kToolFail);
}

// --- migrate -----------------------------------------------------------------------

namespace {

// Every attempt's outcome feeds the health monitor and, for a remote host, the
// cluster's per-host fault history: placement policies read the decayed
// scores back to steer the next migration away from hosts that have been
// failing. Recording is bookkeeping only — it never consumes virtual time, so
// runs that never read the history are bit-identical with or without it.
void RecordOutcome(net::Network& net, const std::string& local, const std::string& host,
                   const Result<int>& rc) {
  const bool bad = !rc.ok() || *rc == kToolTransient;
  // The health monitor sees every leg, local ones included: a host whose
  // dumps start failing should trip its error-rate series no matter where
  // the migrate command happens to run.
  net.context().health_monitor.ObserveOutcome(host, "migrate.errors", bad);
  if (host == local) return;
  sim::FaultHistory& history = net.context().fault_history;
  if (!rc.ok()) {
    history.RecordFailure(host, rc.error());
  } else if (*rc == kToolTransient) {
    history.RecordTransient(host);
  } else {
    history.RecordSuccess(host);  // the tool ran: the host is reachable
  }
}

std::string Describe(const Result<int>& rc) {
  if (!rc.ok()) return std::string(ErrnoName(rc.error()));
  return "exit " + std::to_string(*rc);
}

}  // namespace

int Migrate(kernel::SyscallApi& api, net::Network& net, int32_t pid, std::string from_host,
            std::string to_host, bool use_daemon, const MigrateOptions& opts) {
  const std::string local = api.GetHostname();
  if (from_host.empty()) from_host = local;
  if (to_host.empty()) to_host = local;
  sim::MetricsRegistry& metrics = api.kernel().metrics();
  const sim::Nanos timeout =
      opts.transactional ? kAttemptTimeout : net::RemoteExecOptions{}.timeout;

  // Every pause between tries: sleep (outside a transaction there is nothing
  // to sleep), then double, up to kMaxBackoff.
  auto pause = [&](sim::Nanos* backoff) {
    if (*backoff > 0) api.Sleep(*backoff);
    *backoff *= 2;
    if (*backoff > kMaxBackoff) {
      *backoff = kMaxBackoff;
      metrics.Inc("migrate.backoff_capped");
    }
  };
  // One leg of the transaction: up to opts.attempts tries, retrying only
  // failures a later attempt might not see again, with a doubling pause
  // between tries so a recovering host gets a moment to come back.
  auto run_leg = [&](const std::string& host, const std::string& program,
                     const std::vector<std::string>& args) -> Result<int> {
    sim::Nanos backoff = opts.transactional ? kFirstBackoff : 0;
    for (int attempt = 0;; ++attempt) {
      Result<int> rc = RunTool(api, net, host, program, args, use_daemon, timeout);
      RecordOutcome(net, local, host, rc);
      const bool transient =
          rc.ok() ? *rc == kToolTransient : IsTransientErrno(rc.error());
      if (!transient || attempt + 1 >= opts.attempts) return rc;
      metrics.Inc("migrate.retries");
      pause(&backoff);
    }
  };
  // The never-lose loops: while a leg keeps failing transiently and
  // `keep_going` holds, run it again, for up to kAttemptTimeout. The dump set
  // may be the process by now, and walking away from it over a condition that
  // will pass turns a stuck disk into a lost process.
  auto persist = [&](Result<int>& rc, const std::string& host, const std::string& program,
                     const std::vector<std::string>& args, const auto& keep_going) {
    sim::Nanos backoff = kFirstBackoff;
    const sim::Nanos give_up = api.kernel().clock().now() + kAttemptTimeout;
    while (rc.ok() && *rc == kToolTransient && api.kernel().clock().now() < give_up &&
           keep_going()) {
      pause(&backoff);
      rc = run_leg(host, program, args);
    }
  };

  const std::string pid_str = std::to_string(pid);
  const std::string dump_dir =
      from_host == local ? std::string("/usr/tmp") : "/n/" + from_host + "/usr/tmp";
  const DumpPaths dump_paths = DumpPaths::For(pid, dump_dir);
  kernel::Proc& self = api.proc();
  if (self.trace_id == 0) {
    // Every migrate is one distributed trace: the id travels with every remote
    // command (rsh/daemon spawn options), onto the SIGDUMP victim, and into
    // the dump metadata, so spans on every host reassemble into one tree.
    self.trace_id = api.kernel().context().spans.MintTraceId();
  }
  // Failures and fallbacks leave a complaint tagged with the trace id and the
  // failing phase, and a post-mortem carrying the same pair, so a complaint
  // greps straight to its post-mortem. The complaint is the post-mortem's
  // reason unless `reason` says otherwise.
  sim::FlightRecorder& recorder = api.kernel().context().flight_recorder;
  auto postmortem = [&](const char* phase, const std::string& reason) {
    if (recorder.enabled()) recorder.Dump(local, self.trace_id, reason + " phase=" + phase);
  };
  auto report = [&](const char* phase, const std::string& complaint,
                    const std::string& reason = {}) {
    Complain(api, "migrate: " + complaint + " [trace=" + std::to_string(self.trace_id) +
                      " phase=" + phase + "]");
    postmortem(phase, reason.empty() ? complaint : reason);
  };
  // Root span for the whole command; its self time (network round trips, waits on
  // the remote tools) is reported as "other" in the run report.
  kernel::TraceSpan total(api.kernel(), self, "migrate");
  // End-to-end latency feed for the health monitor: successful migrations are
  // attributed to the host the process landed on, so a destination that gets
  // slow at receiving processes shows up on its own series.
  const sim::Nanos e2e_start = api.kernel().clock().now();
  // The process runs at its destination (the target, or a verified remote
  // winner of its claim), so the dump set is garbage.
  auto landed = [&] {
    if (opts.transactional) RemoveDumpSet(api, dump_paths);
    net.context().health_monitor.Observe(
        to_host, "migrate.e2e_ns",
        static_cast<double>(api.kernel().clock().now() - e2e_start));
    return kToolOk;
  };
  auto source_proc_alive = [&]() -> bool {
    kernel::Kernel* src = net.FindHost(from_host);
    if (src == nullptr || src->down()) return false;
    kernel::Proc* p = src->FindAnyProc(pid);
    return p != nullptr && p->Alive();
  };
  auto dump_set_intact = [&] {
    return FileExists(api, dump_paths.aout) && FileExists(api, dump_paths.files) &&
           FileExists(api, dump_paths.stack);
  };

  std::vector<std::string> dump_args = {"-p", pid_str};
  if (opts.transactional) dump_args.push_back("--tx");
  if (opts.cached) dump_args.push_back("--incremental");
  Result<int> rc = Errno::kIo;
  {
    kernel::TraceSpan phase(api.kernel(), self, "dump");
    rc = run_leg(from_host, "dumpproc", dump_args);
  }
  // A transient dump failure can leave the process already dead with the dump
  // set as its only copy: the kernel's asynchronous dump may complete (and
  // terminate the process) in the instant dumpproc gives up, or the rewrite
  // may hit a full disk after the kill. dumpproc's resume path makes a retry
  // idempotent — ESRCH with the files present picks the set back up and
  // finishes the rewrite — so when the process is gone, persist like the
  // fallback restart does rather than walking away (or worse, sweeping up the
  // process itself). A transient failure with the process still alive keeps
  // failing fast: the process is unharmed and the caller's own retry policy
  // (e.g. an evacuation sweeping round-robin) stays in charge.
  if (opts.transactional && rc.ok() && *rc == kToolTransient && !source_proc_alive()) {
    kernel::TraceSpan phase(api.kernel(), self, "dump");
    persist(rc, from_host, "dumpproc", dump_args, [&] { return !source_proc_alive(); });
  }
  if (!rc.ok() || *rc != 0) {
    report("dump", "dumpproc on " + from_host + " failed (" + Describe(rc) + ")");
    if (opts.transactional) {
      // GC the partial set — unless the process is no longer alive and the
      // files are: then the set IS the process, and deleting it is the loss
      // this whole protocol exists to prevent. Leave it for a later migrate
      // or the orphan reaper.
      if (!source_proc_alive() && FileExists(api, dump_paths.aout)) {
        report("dump", pid_str + " is gone but its dump set remains; leaving the set",
               "dump set for " + pid_str + " kept: it is the process now");
        return kToolTransient;
      }
      RemoveDumpSet(api, dump_paths);
    }
    return rc.ok() ? *rc : kTransportFailure;
  }

  std::vector<std::string> restart_args = {"-p", pid_str, "-h", from_host};
  if (opts.transactional) restart_args.push_back("--claim");
  {
    kernel::TraceSpan phase(api.kernel(), self, "restart");
    rc = run_leg(to_host, "restart", restart_args);
  }
  if (rc.ok() && *rc == 0) return landed();

  // Whether the claim holder actually committed: a live process on the holder
  // carrying this dump's identity. A reachable holder with no such process is
  // a stale claim — a restart that claimed and then died mid-copy when a flap
  // cut the link, whose release (an unlink over that same dead link) failed
  // too. Sweeping on the claim alone would destroy the only copy.
  auto claim_consumed = [&]() -> bool {
    const DumpMarker claim = ReadDumpMarker(api, dump_paths.claim);
    const std::string holder_host = claim.host.empty() ? to_host : claim.host;
    kernel::Kernel* holder = net.FindHost(holder_host);
    if (holder == nullptr || holder->down()) return false;
    for (kernel::Proc* p : holder->ListProcs()) {
      if (p->Alive() && p->old_pid == pid && p->old_host == from_host) return true;
    }
    return false;
  };
  // kToolClaimed normally means "somebody's restart won the claim and the
  // process is running", but the claimant may have died between claiming and
  // committing. So a claim that beat us settles one of three ways. Its holder
  // is down or cut off: hands off, keep the files, and let the orphan reaper
  // settle them after the heal (the holder may be running the process on the
  // far side). A live copy runs behind it: consumed. Or, after giving an
  // in-flight winner a beat to finish reading the files, nothing runs behind
  // it: the debris of a restart that died mid-copy, whose claim is broken.
  enum class Claim { kHolderUnreachable, kConsumed, kBroken };
  auto settle_claim = [&](const char* phase, const char* unreachable) -> Claim {
    if (!ClaimHolderReachable(net, local, ReadDumpMarker(api, dump_paths.claim), &metrics)) {
      report(phase, "dump of " + pid_str + " is claimed by an unreachable host; " + unreachable,
             "claim holder for " + pid_str + " unreachable");
      return Claim::kHolderUnreachable;
    }
    api.Sleep(sim::Seconds(1));
    if (claim_consumed()) return Claim::kConsumed;
    report(phase, "stale claim on " + pid_str + " (holder has no such process); breaking it",
           "stale claim on " + pid_str + " broken");
    metrics.Inc("migrate.stale_claims_broken");
    const Status broke = api.Unlink(dump_paths.claim);
    (void)broke;
    return Claim::kBroken;
  };
  auto claimed = [](const Result<int>& r) { return r.ok() && *r == kToolClaimed; };
  if (!opts.transactional) {
    report("restart", "restart on " + to_host + " failed (" + Describe(rc) + ")");
    return rc.ok() ? *rc : kTransportFailure;
  }
  if (claimed(rc)) {
    const Claim settled = settle_claim("restart", "leaving the set");
    if (settled == Claim::kHolderUnreachable) return kToolTransient;
    if (settled == Claim::kConsumed) return landed();
    // Broken: the fallback restart below can now win the claim.
  }

  // Every remote attempt failed. The process must not be lost: as long as the
  // dump set is intact the process is exactly its dump files, so restart it on
  // the host it came from — a migration that merely fails to move beats one
  // that loses its subject. Only after a fallback restart is alive may the
  // dump files be declared garbage.
  report("restart",
         "restart on " + to_host + " failed (" + Describe(rc) + "); restarting on " + from_host,
         "restart on " + to_host + " failed (" + Describe(rc) + "); falling back to " +
             from_host);
  if (!dump_set_intact()) {
    report("fallback", "dump files for " + pid_str + " are gone; cannot fall back");
    return kToolFail;
  }
  kernel::TraceSpan phase(api.kernel(), self, "restart");
  rc = run_leg(from_host, "restart", restart_args);
  // E.g. the source disk is still inside a full window, so nobody can write
  // the claim file next to the dump.
  persist(rc, from_host, "restart", restart_args, dump_set_intact);
  if (claimed(rc)) {
    // An unreachable holder is the target that claimed the dump before the
    // link went away: it may be running the process on the far side, and a
    // fallback restart here would be the double resurrection this protocol
    // exists to prevent.
    const Claim settled = settle_claim("fallback", "not falling back");
    if (settled == Claim::kHolderUnreachable) return kToolTransient;
    if (settled == Claim::kBroken) {
      rc = run_leg(from_host, "restart", restart_args);
      if (claimed(rc) && !claim_consumed()) {
        // Claimed again and still no copy anywhere — stop second-guessing and
        // leave the set for the orphan reaper to settle.
        postmortem("fallback", "claim on " + pid_str + " contended; leaving the set");
        return kToolTransient;
      }
    }
  }
  if (rc.ok() && (*rc == 0 || *rc == kToolClaimed)) {
    if (*rc == kToolClaimed) {
      // A verified remote winner means the restart committed and only its
      // reply was lost. That is a successful migration, not a fallback.
      const DumpMarker claim = ReadDumpMarker(api, dump_paths.claim);
      if (!claim.host.empty() && claim.host != from_host) return landed();
    }
    metrics.Inc("migrate.fallback_restarts");
    postmortem("fallback", "migrate of " + pid_str + " fell back; process restarted on " +
                               from_host);
    RemoveDumpSet(api, dump_paths);
    return kMigrateFellBack;
  }
  report("fallback", "fallback restart on " + from_host + " failed (" + Describe(rc) + ")");
  if (rc.ok() && *rc != kToolTransient) {
    // The tool ran and rejected the dump set — it is unconsumable (corrupted,
    // truncated), so keeping it helps nobody; sweep it up.
    RemoveDumpSet(api, dump_paths);
    return kToolFail;
  }
  // On a transport failure or a still-transient refusal the files stay: they
  // are the process now, and a later restart (or the next migrate of the same
  // pid) can still recover it.
  return rc.ok() ? kToolTransient : kToolFail;
}

// --- undump ------------------------------------------------------------------------

int Undump(kernel::SyscallApi& api, const std::string& aout_path,
           const std::string& core_path, const std::string& output_path) {
  const Result<int> afd = api.Open(aout_path, OpenFlags::kORdOnly);
  if (!afd.ok()) {
    Complain(api, "undump: cannot open " + aout_path);
    return 1;
  }
  const Result<std::string> aout_bytes = api.ReadAll(*afd);
  const Status ac = api.Close(*afd);
  (void)ac;
  if (!aout_bytes.ok()) return 1;
  if (IsIncrAout(*aout_bytes)) {
    // An incremental dump is not self-contained; only restart (which can reach
    // the segment caches) can consume it.
    Complain(api, "undump: " + aout_path + " is an incremental dump; use restart");
    return 1;
  }
  Result<vm::AoutImage> image = vm::AoutImage::Parse(*aout_bytes);
  if (!image.ok()) {
    Complain(api, "undump: " + aout_path + " is not an executable");
    return 1;
  }

  const Result<int> cfd = api.Open(core_path, OpenFlags::kORdOnly);
  if (!cfd.ok()) {
    Complain(api, "undump: cannot open " + core_path);
    return 1;
  }
  const Result<std::string> core_bytes = api.ReadAll(*cfd);
  const Status cc = api.Close(*cfd);
  (void)cc;
  if (!core_bytes.ok()) return 1;
  const Result<kernel::CoreFile> core = kernel::CoreFile::Parse(*core_bytes);
  if (!core.ok()) {
    Complain(api, "undump: " + core_path + " is not a core dump");
    return 1;
  }

  image->data = core->data;  // statics take their values at the time of death
  if (!WriteWholeFile(api, output_path, image->Serialize(), 0755).ok()) {
    Complain(api, "undump: cannot write " + output_path);
    return 1;
  }
  return 0;
}

// --- ps ----------------------------------------------------------------------------

int PsMain(kernel::SyscallApi& api, const std::vector<std::string>& args) {
  const bool all = !args.empty() && args[0] == "-a";
  std::string out = "  PID STAT KIND TIME(ms) COMMAND\n";
  for (kernel::Proc* p : api.kernel().ListProcs()) {
    if (!all && p->creds.uid == 0) continue;
    const char* state = "?";
    switch (p->state) {
      case kernel::ProcState::kRunnable:
        state = "R";
        break;
      case kernel::ProcState::kSleeping:
        state = "S";
        break;
      case kernel::ProcState::kBlocked:
        state = "B";
        break;
      case kernel::ProcState::kZombie:
        state = "Z";
        break;
      case kernel::ProcState::kDead:
        continue;
    }
    char line[160];
    std::snprintf(line, sizeof(line), "%5d %4s %4s %8lld %s\n", p->pid, state,
                  p->kind == kernel::ProcKind::kVm ? "vm" : "sys",
                  static_cast<long long>(sim::ToMillis(p->utime + p->stime)),
                  p->command.c_str());
    out += line;
  }
  const Result<int64_t> n = api.Write(1, out);
  return n.ok() ? 0 : 1;
}

// --- argv wrappers -----------------------------------------------------------------

namespace {

struct ParsedArgs {
  int32_t pid = -1;
  std::string h_host;
  std::string f_host;
  std::string t_host;
  bool daemon = false;
  bool tx = false;
  bool claim = false;
  bool robust = false;
  bool incremental = false;
  bool cached = false;
  std::vector<std::string> positional;
  bool ok = true;
};

ParsedArgs ParseArgs(const std::vector<std::string>& args) {
  ParsedArgs out;
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    auto next = [&]() -> const std::string* {
      if (i + 1 >= args.size()) {
        out.ok = false;
        return nullptr;
      }
      return &args[++i];
    };
    if (a == "-p") {
      if (const std::string* v = next()) out.pid = static_cast<int32_t>(std::atoi(v->c_str()));
    } else if (a == "-h") {
      if (const std::string* v = next()) out.h_host = *v;
    } else if (a == "-f") {
      if (const std::string* v = next()) out.f_host = *v;
    } else if (a == "-t") {
      if (const std::string* v = next()) out.t_host = *v;
    } else if (a == "--daemon") {
      out.daemon = true;
    } else if (a == "--tx") {
      out.tx = true;
    } else if (a == "--claim") {
      out.claim = true;
    } else if (a == "--robust") {
      out.robust = true;
    } else if (a == "--incremental") {
      out.incremental = true;
    } else if (a == "--cached") {
      out.cached = true;
    } else {
      out.positional.push_back(a);
    }
  }
  return out;
}

}  // namespace

int DumpprocMain(kernel::SyscallApi& api, const std::vector<std::string>& args) {
  const ParsedArgs parsed = ParseArgs(args);
  if (!parsed.ok || parsed.pid < 0) {
    Complain(api, "usage: dumpproc -p pid [--tx] [--incremental]");
    return kToolUsage;
  }
  return Dumpproc(api, parsed.pid, parsed.tx, parsed.incremental);
}

int RestartMain(kernel::SyscallApi& api, const std::vector<std::string>& args) {
  const ParsedArgs parsed = ParseArgs(args);
  if (!parsed.ok || parsed.pid < 0) {
    Complain(api, "usage: restart -p pid [-h host] [--claim]");
    return kToolUsage;
  }
  return Restart(api, parsed.pid, parsed.h_host, parsed.claim);
}

int MigrateMain(kernel::SyscallApi& api, net::Network& net,
                const std::vector<std::string>& args) {
  const ParsedArgs parsed = ParseArgs(args);
  if (!parsed.ok || parsed.pid < 0) {
    Complain(api,
             "usage: migrate -p pid [-f host] [-t host] [--daemon] [--robust] [--cached]");
    return kToolUsage;
  }
  MigrateOptions opts = parsed.robust ? MigrateOptions::Robust() : MigrateOptions{};
  opts.cached = parsed.cached;
  return Migrate(api, net, parsed.pid, parsed.f_host, parsed.t_host, parsed.daemon, opts);
}

int UndumpMain(kernel::SyscallApi& api, const std::vector<std::string>& args) {
  const ParsedArgs parsed = ParseArgs(args);
  if (!parsed.ok || parsed.positional.size() != 3) {
    Complain(api, "usage: undump a.out core output");
    return 2;
  }
  return Undump(api, parsed.positional[0], parsed.positional[1], parsed.positional[2]);
}

}  // namespace pmig::core
