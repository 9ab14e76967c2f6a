// The user-level migration commands (Section 4): dumpproc, restart, migrate — plus
// the undump utility the dump format gives "for free".
//
// Each is an ordinary native program built only on SyscallApi (the public syscall
// surface), exactly as the paper implements them on top of SIGDUMP + rest_proc().
// The *Main wrappers parse command-line style arguments so the tools can be
// launched by name through rsh and the migration daemon.

#ifndef PMIG_SRC_CORE_TOOLS_H_
#define PMIG_SRC_CORE_TOOLS_H_

#include <string>
#include <vector>

#include "src/core/dump_format.h"
#include "src/kernel/kernel.h"
#include "src/net/network.h"

namespace pmig::core {

// Exit codes shared by the migration tools. The interesting ones drive the
// migrate transaction: kToolTransient marks a failure worth retrying (a poll
// that timed out, a host that was briefly unreachable), kToolClaimed means a
// concurrent restart already won the dump's claim file (the process IS running
// — the caller lost a race, not the process), and kMigrateFellBack reports
// that after every remote attempt failed the process was restarted on its
// source host. kTransportFailure is the historical rsh-style 127.
constexpr int kToolOk = 0;
constexpr int kToolFail = 1;
constexpr int kToolUsage = 2;
constexpr int kToolTransient = 3;
constexpr int kToolClaimed = 4;
constexpr int kMigrateFellBack = 5;
constexpr int kTransportFailure = 127;

// Errors that a later attempt might not see again: lost messages, crashed-but-
// rebooting hosts, NFS flakes, a disk-full window.
bool IsTransientErrno(Errno e);

// The migrate transaction's pacing (migrate --robust and the orphan reaper):
// the pause before a leg's second try, which doubles up to kMaxBackoff, and
// the bound on each remote command and on each persistence loop.
inline constexpr sim::Nanos kFirstBackoff = sim::Millis(500);
inline constexpr sim::Nanos kMaxBackoff = sim::Seconds(8);
inline constexpr sim::Nanos kAttemptTimeout = sim::Seconds(30);

// How hard migrate tries. The default is the paper's one-shot behavior; the
// transaction (retries, timeouts, claim files, fallback restart on the source)
// is opt-in so default-config runs are unchanged.
struct MigrateOptions {
  int attempts = 1;  // total tries per leg (dump, restart)
  // dumpproc --tx / restart --claim / GC / fallback, paced by the constants
  // above. Off, remote commands keep the transport's default timeout and
  // retries do not pause.
  bool transactional = false;
  // migrate --cached: dump incrementally (dumpproc --incremental), so text and
  // the data base travel by content digest and hosts that have seen them serve
  // them from /var/segcache instead of the wire. Needs a kernel booted with
  // track_dirty_pages; degrades to a full dump otherwise.
  bool cached = false;
  static MigrateOptions Robust();
};

// Whole-file I/O on the syscall surface: open, read to EOF, close; and creat
// with `mode`, one write of `contents`, close.
Result<std::string> ReadWholeFile(kernel::SyscallApi& api, const std::string& path);
Status WriteWholeFile(kernel::SyscallApi& api, const std::string& path,
                      const std::string& contents, uint16_t mode = 0600);

// Reads the transaction marker at `path` (a dump set's ready or claim file).
// Empty host and at = -1 when the file is missing or unreadable (e.g. across a
// partition), or from a pre-metadata writer.
DumpMarker ReadDumpMarker(kernel::SyscallApi& api, const std::string& path);

// The exactly-once rule, shared by migrate and the orphan reaper: nobody
// sweeps or resurrects a claimed dump set while its claim holder is
// unobservable (down, or cut off from `local` by a partition), because the
// holder may be running the process on the far side. A claim without holder
// metadata counts as reachable. `metrics` (may be null) counts an injected
// partition that hides the holder.
bool ClaimHolderReachable(net::Network& net, const std::string& local,
                          const DumpMarker& claim, sim::MetricsRegistry* metrics);

// Runs `program args...` on `host` and returns its exit status: here (spawn +
// wait) when `host` is this machine, otherwise through its migration daemon
// (`use_daemon`) or rsh, waiting at most `timeout` for the remote side.
Result<int> RunTool(kernel::SyscallApi& api, net::Network& net, const std::string& host,
                    const std::string& program, std::vector<std::string> args,
                    bool use_daemon, sim::Nanos timeout);

// Removes every file of a dump set (a.out, files, stack, ready, claim, in that
// order), ignoring ones that are not there.
void RemoveDumpSet(kernel::SyscallApi& api, const DumpPaths& paths);

// Userland realpath: resolves every symbolic link in `path` with readlink(),
// iteratively, as Section 4.3 prescribes for dump-file rewriting. Does not require
// the final component to exist if the parent chain does.
Result<std::string> Realpath(kernel::SyscallApi& api, const std::string& path);

// The Section 4.4 rewriting dumpproc applies to a filesXXXXX image: resolve every
// symbolic link, turn terminals into /dev/tty, and prepend /n/<thishost> to local
// paths so they can be reopened from any machine. Runs on the machine the process
// was dumped on. Exposed for alternative migration transports (see precopy.h).
void RewriteFilesForMigration(kernel::SyscallApi& api, FilesFile* files);

// dumpproc -p <pid> [--tx] [--incremental]: SIGDUMPs the process, then rewrites
// filesXXXXX —
// resolving symlinks, turning terminals into /dev/tty, and prepending
// /n/<thishost> to local paths so the files can be reopened from any machine.
// Returns 0 on success; a mid-flight failure unlinks whatever partial dump
// files exist so a half-written dump never survives. In --tx mode the command
// is additionally idempotent (a rerun after the process already dumped resumes
// the rewrite), reports a poll timeout as kToolTransient, and marks a complete
// dump set with a readyXXXXX file. With `incremental`, setdumpmode() arms a
// delta dump first (falling back to a full dump if the kernel cannot).
int Dumpproc(kernel::SyscallApi& api, int32_t pid, bool tx = false,
             bool incremental = false);

// Rebuilds a restored process's fd table from `files` over slots [0, slots),
// which the caller must have closed, so each file lands on its original
// descriptor number: files reopen with their access mode and append flag
// (never truncated or created) at their saved offset; stdio that cannot be
// reopened becomes the terminal; unused, socket, and unreopenable slots get
// /dev/null, and the unused ones are closed again once every slot is placed.
// Then the old terminal flags are applied to the current terminal. False when
// a slot cannot be filled with its own number.
bool ReopenFileTable(kernel::SyscallApi& api, const FilesFile& files, int slots);

// restart -p <pid> [-h <host>] [--claim]: restores a dumped process on this
// machine, at this terminal. `dump_host` empty means the dump is local. Does
// not return on success (the calling process is overlaid); returns nonzero on
// failure. With `claim`, creates claimXXXXX next to the dump (O_EXCL) before
// committing, so at most one of several racing restart attempts consumes the
// dump; the losers exit kToolClaimed.
int Restart(kernel::SyscallApi& api, int32_t pid, const std::string& dump_host,
            bool claim = false);

// migrate -p <pid> [-f host] [-t host] [--daemon] [--robust]: dumpproc +
// restart, via rsh when either end is remote. With `use_daemon`, remote ends go
// through the migration daemon (the Section 6.4 improvement) instead of rsh.
// `opts` turns the command into a transaction: transient failures are retried
// with backoff, each remote command is bounded by a timeout, and when every
// attempt to restart on the target fails the process is restarted on its
// source host instead (kMigrateFellBack) — the process is never lost, and the
// dump files are unlinked on success and on every failure path.
int Migrate(kernel::SyscallApi& api, net::Network& net, int32_t pid, std::string from_host,
            std::string to_host, bool use_daemon = false,
            const MigrateOptions& opts = {});

// undump <a.out> <core> <output>: combines an executable and a core dump into a new
// executable whose static data is the core's.
int Undump(kernel::SyscallApi& api, const std::string& aout_path,
           const std::string& core_path, const std::string& output_path);

// ps: lists processes on this machine (pid, state, times, command). Takes an
// optional "-a" to include system (root) processes.
int PsMain(kernel::SyscallApi& api, const std::vector<std::string>& args);

// Argument-parsing entry points for the program registry ("/usr/local/bin").
int DumpprocMain(kernel::SyscallApi& api, const std::vector<std::string>& args);
int RestartMain(kernel::SyscallApi& api, const std::vector<std::string>& args);
// MigrateMain needs the network; bound at registration time (see setup.h).
int MigrateMain(kernel::SyscallApi& api, net::Network& net,
                const std::vector<std::string>& args);
int UndumpMain(kernel::SyscallApi& api, const std::vector<std::string>& args);

}  // namespace pmig::core

#endif  // PMIG_SRC_CORE_TOOLS_H_
