// Process and user structures.
//
// Proc merges what Unix splits into `struct proc` (always resident) and the `user`
// structure (swappable, per-process): identity, credentials, fd table, signal
// state, and — per Section 5.1 — the textual current-working-directory string that
// the modified kernel maintains ("a character string of fixed size was added to
// this structure, which contains the full path name of the current directory").
//
// Two process kinds exist:
//   * kVm: runs machine code on the simulated CPU; fully migratable.
//   * kNative: a C++ callable run as a coroutine (the dumpproc/restart/migrate
//     tools, shells, daemons). Scheduled and time-charged like any process, but its
//     state lives in a C++ stack, so SIGDUMP cannot dump it (the paper's tools are
//     not themselves migratable either).

#ifndef PMIG_SRC_KERNEL_PROC_H_
#define PMIG_SRC_KERNEL_PROC_H_

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "src/kernel/file.h"
#include "src/kernel/tty.h"
#include "src/sim/time.h"
#include "src/vfs/vfs.h"
#include "src/vm/abi.h"
#include "src/vm/cpu.h"

namespace pmig::kernel {

class NativeTask;
class SyscallApi;

struct Credentials {
  int32_t uid = 0;   // real uid
  int32_t gid = 0;
  int32_t euid = 0;  // effective uid
  int32_t egid = 0;

  bool IsSuperuser() const { return euid == 0; }
  bool operator==(const Credentials&) const = default;
};

enum class ProcState : uint8_t {
  kRunnable,
  kSleeping,  // waiting for a timer (sleep(), disk/net completion, dump finishing)
  kBlocked,   // waiting for a condition (tty input, pipe data, child exit)
  kZombie,    // exited, wait()able
  kDead,      // reaped; slot free
};

enum class ProcKind : uint8_t { kVm, kNative };

// Why a process exited, for wait() status and tests.
struct ExitInfo {
  int exit_code = 0;
  int killed_by_signal = 0;  // 0 if normal exit
  bool core_dumped = false;  // SIGQUIT-style core
  bool migration_dumped = false;  // terminated by SIGDUMP with a successful dump
};

struct SignalDisposition {
  enum class Action : uint8_t { kDefault, kIgnore, kCatch } action = Action::kDefault;
  uint32_t handler = 0;  // VM text address when kCatch

  bool operator==(const SignalDisposition&) const = default;
};

struct Proc {
  int32_t pid = 0;
  int32_t ppid = 0;
  std::string command;  // for traces and ps-like listings
  ProcKind kind = ProcKind::kVm;
  ProcState state = ProcState::kRunnable;
  Credentials creds;

  // Physical knowledge of the cwd (inode chain) — what the unmodified kernel has.
  vfs::WalkState cwd;
  // Section 5.1: the textual cwd in the user structure, maintained by the modified
  // kernel. Empty string == "not yet initialised" (the paper initialises it on the
  // first absolute chdir(), done at boot, and children inherit it).
  std::string u_cwd_path;

  // Per-process fd table: indexes into the system file table (shared OpenFiles).
  std::array<OpenFilePtr, kNoFile> fds;

  // Signal state (dumped to stackXXXXX and restored by rest_proc()).
  std::array<SignalDisposition, vm::abi::kNSig> sig_dispositions;
  uint64_t sig_pending = 0;

  Tty* controlling_tty = nullptr;  // null for rsh-spawned and daemon processes

  // Accounting.
  sim::Nanos utime = 0;  // user CPU
  sim::Nanos stime = 0;  // system CPU
  sim::Nanos start_time = 0;

  // kVm state.
  std::unique_ptr<vm::VmContext> vm;

  // kNative state.
  std::unique_ptr<NativeTask> native;

  // The process's system-call interface (the native program's handle on the
  // kernel), and the vfs::CostSink the kernel charges VFS work to for either
  // kind. Made at spawn, kept as long as the Proc.
  std::unique_ptr<SyscallApi> api;

  // Blocking: when kBlocked, the scheduler re-runs this predicate each quantum and
  // wakes the process when it yields true. Cleared on wake.
  std::function<bool()> unblock_check;
  // When kSleeping, id of the wake timer (so kill can cancel it).
  uint64_t wake_timer = 0;

  // Real-time cost (disk latency, NFS round trips) accumulated during the current
  // syscall; converted into a kSleeping period when the syscall completes.
  sim::Nanos pending_wait = 0;

  ExitInfo exit_info;

  // True once a native process successfully called rest_proc(): the process was
  // overlaid with a restarted VM image. Parents waiting on it treat this as
  // successful completion (the process itself lives on, reparented to the kernel).
  bool overlaid = false;

  // --- Migration bookkeeping ---
  // Set by rest_proc() on the restarted process. With the kernel's
  // virtualize_identity option (the Section 7 proposal), getpid()/gethostname()
  // report these instead of the real values.
  bool migrated = false;
  int32_t old_pid = 0;
  std::string old_host;

  // Set by setdumpmode(): the next SIGDUMP emits a delta dump (dirty pages against
  // the exec-time image) instead of a full one. Cleared by execve().
  bool dump_incremental = false;

  // The last SIGDUMP attempt aborted (disk full, corruption, verification) and
  // the process was resumed. Cleared when a new dump starts; read via the
  // dumpfailed() syscall so dumpproc can bail out immediately instead of
  // polling its full timeout for dump files that will never appear.
  bool dump_failed = false;

  // Distributed-trace context (see sim::SpanLog): the trace this process
  // participates in, and its innermost open span — the parent for spans it
  // opens and for processes it spawns. Inherited via SpawnOptions, copied onto
  // a SIGDUMP victim by PostSignal, and stamped into / adopted from dump
  // metadata so one migration's spans on every host share a trace id.
  uint64_t trace_id = 0;
  uint64_t trace_parent_span = 0;

  bool Alive() const { return state != ProcState::kZombie && state != ProcState::kDead; }

  int FreeFdSlot() const {
    for (int i = 0; i < kNoFile; ++i) {
      if (fds[static_cast<size_t>(i)] == nullptr) return i;
    }
    return -1;
  }
};

}  // namespace pmig::kernel

#endif  // PMIG_SRC_KERNEL_PROC_H_
