// The per-machine kernel: proc table, file table, syscalls, signals, scheduler.
//
// One Kernel is one workstation running the (modified or unmodified) operating
// system. A Cluster owns several kernels plus the shared virtual clock and the
// network. The paper's kernel work maps here as follows:
//
//   Section 5.1 (modifications)  -> KernelConfig::track_names and the name
//       bookkeeping in SysOpen/SysCreat/SysClose/SysChdir; the u_cwd_path field in
//       Proc; name-allocation counters in KernelStats (for the Figure 1 bench and
//       the name-storage ablation).
//   Section 5.2 (additions)      -> SIGDUMP delivery (signals.cc) and the
//       rest_proc() syscall, both delegated through MigrationHooks to src/core so
//       the kernel substrate stays mechanism-agnostic; the modified execve() with
//       its "global flag + stack size" protocol appears literally as
//       restproc_flag_ / restproc_stack_size_.
//   Section 6.3's in-kernel timing -> KernelTimers, filled by SysExecve/RestProc.

#ifndef PMIG_SRC_KERNEL_KERNEL_H_
#define PMIG_SRC_KERNEL_KERNEL_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/kernel/file.h"
#include "src/kernel/native.h"
#include "src/kernel/proc.h"
#include "src/kernel/tty.h"
#include "src/sim/blob.h"
#include "src/sim/clock.h"
#include "src/sim/context.h"
#include "src/sim/cost_model.h"
#include "src/sim/metrics.h"
#include "src/sim/result.h"
#include "src/vfs/vfs.h"
#include "src/vm/aout.h"
#include "src/vm/cpu.h"

namespace pmig::kernel {

class Kernel;
class SyscallApi;

struct KernelConfig {
  // The Section 5.1 modifications: track path names of the cwd and open files.
  // false == the unmodified Sun 3.0 kernel (baseline for Figure 1).
  bool track_names = true;

  // How the open-file name strings are stored (Section 5.1 discusses why dynamic
  // allocation was chosen; the ablation bench compares).
  enum class NameStorage { kDynamic, kFixed } name_storage = NameStorage::kDynamic;
  int fixed_name_bytes = 128;

  // The Section 7 proposal: getpid()/gethostname() report pre-migration values on
  // migrated processes; getpid_real()/gethostname_real() report the truth.
  bool virtualize_identity = false;

  // Incremental migration data path: arm page-granular dirty tracking on VM
  // data/stack segments at exec time, so SIGDUMP can emit delta dumps against the
  // loaded image. Off == the paper's kernel; dumps are always full images.
  bool track_dirty_pages = false;

  // CPU of this machine (Sun-2 = kIsa10, Sun-3 = kIsa20).
  vm::IsaLevel isa = vm::IsaLevel::kIsa20;
};

struct KernelStats {
  int64_t syscalls = 0;
  int64_t context_switches = 0;
  // Kernel memory held by file-name strings (the 5.1 augmentation).
  int64_t name_bytes_current = 0;
  int64_t name_bytes_peak = 0;
  int64_t name_allocs = 0;
  int64_t signals_posted = 0;
  int64_t procs_spawned = 0;
};

// "The performance of the system calls was obtained by adding timing code inside
// the kernel" (Section 6.3). CPU is system time charged during the call; real adds
// the I/O waits it incurred.
struct InKernelTiming {
  sim::Nanos cpu = 0;
  sim::Nanos real = 0;
  bool valid = false;
};
struct KernelTimers {
  InKernelTiming execve;
  InKernelTiming rest_proc;
};

// A dump prepared by the SIGDUMP hook: files to appear when the dump completes,
// plus its cost. (The dying process pays the cost; the files become visible only
// when the dump finishes — which is why dumpproc must poll for a.outXXXXX.)
struct PreparedDump {
  std::vector<std::pair<std::string, sim::Blob>> files;  // absolute path -> bytes
  sim::Nanos cpu = 0;
  sim::Nanos wait = 0;
};

// The migration mechanism plugs into the kernel here (implemented in src/core).
struct MigrationHooks {
  // Builds the three dump files for `proc` (must be a VM process).
  std::function<Result<PreparedDump>(Kernel&, Proc&)> sigdump;
  // rest_proc(): overlays `proc` with the dumped process. On success the proc has
  // become a running VM process and, for native callers, the hook does not return
  // (BecameVm unwinds the native task). Returns an errno on failure.
  std::function<Status(Kernel&, Proc&, const std::string& aout_path,
                       const std::string& stack_path)>
      rest_proc;
  // Optional parse-back check of freshly written dump bytes (path -> bytes).
  // Returns false when any file fails to parse — the kernel then aborts the
  // dump, removes the partial files, and resumes the process instead of
  // terminating it against an unusable dump.
  std::function<bool(const std::vector<std::pair<std::string, sim::Blob>>&)>
      verify_dump;
};

struct StatInfo {
  vfs::InodeType type = vfs::InodeType::kRegular;
  uint32_t ino = 0;
  int32_t uid = 0;
  uint16_t mode = 0;
  int64_t size = 0;
  bool is_tty = false;
  bool remote = false;  // lives on another machine's disk (reached via NFS)
};

struct WaitResult {
  int32_t pid = 0;
  ExitInfo info;
  bool overlaid = false;  // child became a VM process via rest_proc (not reaped)
};

struct SpawnOptions {
  Credentials creds;
  Tty* tty = nullptr;
  std::string cwd = "/";
  int32_t ppid = 0;
  // Attach fds 0/1/2 to `tty` (like login would). fork() copies the parent's fd
  // table instead and disables this.
  bool stdio_on_tty = true;
  // Distributed-trace context the new process starts in (see sim::SpanLog).
  // rsh and the migration daemon thread the requester's context through here so
  // spans opened by remote tools join the originating migrate's trace.
  uint64_t trace_id = 0;
  uint64_t trace_parent_span = 0;
};

// A registered native program: name -> entry. The registry models /usr/local/bin
// for native tools so rsh and SpawnProgram can start them by name on any host.
using ProgramEntry = std::function<int(SyscallApi&, const std::vector<std::string>& args)>;
using ProgramRegistry = std::map<std::string, ProgramEntry, std::less<>>;

class Kernel {
 public:
  // `context` is the cluster-wide clock, recorders and fault sources; it must
  // outlive the kernel.
  Kernel(std::string hostname, sim::ClusterContext& context, const sim::CostModel* costs,
         KernelConfig config);
  ~Kernel();

  // Unwinds every native process's stack. A task unwinding runs its
  // destructors, which may still reach the network or other hosts, so the
  // cluster calls this on every host before it destroys any of them.
  void UnwindNativeTasks();

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  const std::string& hostname() const { return hostname_; }
  // Machine power state: a downed machine schedules nothing and its disk is
  // unreachable over NFS (see Cluster::SetHostDown).
  bool down() const { return down_; }
  void set_down(bool down) { down_ = down; }
  vfs::Vfs& vfs() { return *vfs_; }
  vfs::Filesystem& fs() { return *fs_; }
  sim::VirtualClock& clock() { return ctx_.clock; }
  sim::ClusterContext& context() { return ctx_; }
  const sim::CostModel& costs() const { return *costs_; }
  const KernelConfig& config() const { return config_; }
  // For experiment setup (e.g. switching name-storage policy between runs).
  KernelConfig& mutable_config() { return config_; }
  KernelStats& stats() { return stats_; }
  KernelTimers& timers() { return timers_; }
  // Per-machine metrics (armed by the context's RecordingOptions::metrics).
  // Observation only — recording a metric never charges cost or changes
  // scheduling.
  sim::MetricsRegistry& metrics() { return metrics_; }
  const sim::MetricsRegistry& metrics() const { return metrics_; }
  void set_migration_hooks(MigrationHooks hooks) { hooks_ = std::move(hooks); }
  // First pid this kernel hands out. The cluster gives each machine a distinct
  // range so cross-host pid collisions don't confuse tests and dump-file names.
  // Only before the first spawn: a pid indexes the proc table from this base.
  void set_pid_base(int32_t base);
  void set_program_registry(const ProgramRegistry* registry) { programs_ = registry; }
  const ProgramRegistry* program_registry() const { return programs_; }

  // --- Devices ---
  // Creates a terminal /dev/<name> (e.g. "console", "ttyp0"). Kernel owns it.
  Tty* CreateTty(const std::string& name);
  Tty* FindTty(std::string_view name);

  // --- Process lifecycle ---
  // Starts a registered native program (by name) as a new process.
  Result<int32_t> SpawnProgram(const std::string& program, std::vector<std::string> args,
                               const SpawnOptions& opts);
  // Starts a native process from an arbitrary entry point (for tests/daemons).
  // Throws std::system_error, and spawns nothing, if the host cannot map a stack
  // for it.
  int32_t SpawnNative(std::string command_name, NativeTask::Entry entry,
                      const SpawnOptions& opts);
  // Loads an executable file and starts it as a VM process.
  Result<int32_t> SpawnVm(const std::string& aout_path, std::vector<std::string> args,
                          const SpawnOptions& opts);

  Proc* FindProc(int32_t pid);
  const Proc* FindProc(int32_t pid) const;
  // Like FindProc but also returns reaped (kDead) processes, whose ExitInfo is
  // still readable. Proc storage is never recycled within a simulation.
  Proc* FindAnyProc(int32_t pid);
  // Live process listing in pid order (used by ps-like tools and the load
  // balancer).
  std::vector<Proc*> ListProcs();

  // Posts a signal (no permission check; syscall-level checks are in SysKill).
  Status PostSignal(int32_t pid, int signo, Proc* sender);

  // --- Scheduler ---
  // Runs one quantum of this machine's CPU at the current virtual time. Returns
  // true if any process ran.
  bool RunQuantum();
  // Re-evaluates blocked processes' conditions, waking satisfied ones. The cluster
  // loop calls this before deciding the machine is idle.
  void WakeBlockedProcs();
  // True if any process is runnable or sleeping-on-a-timer (blocked-forever
  // daemons do not count).
  bool HasTimedWork() const;
  bool HasRunnableProc() const;

  // --- System calls (Proc& is the caller). Shared by the VM trap dispatcher and
  // by SyscallApi (native processes). ---
  Result<int> SysOpen(Proc& p, std::string_view path, int32_t flags, uint16_t mode = 0644);
  Result<int> SysCreat(Proc& p, std::string_view path, uint16_t mode);
  Status SysClose(Proc& p, int fd);
  // Attempts a read. If it would block, returns kAgain and the caller (VM
  // dispatcher or SyscallApi) arranges blocking per its kind.
  Result<std::string> SysRead(Proc& p, int fd, int64_t max);
  Result<int64_t> SysWrite(Proc& p, int fd, std::string_view data);
  Result<int64_t> SysLseek(Proc& p, int fd, int64_t offset, int whence);
  Result<int> SysDup(Proc& p, int fd);
  Result<std::pair<int, int>> SysPipe(Proc& p);
  Result<std::pair<int, int>> SysSocket(Proc& p);  // degenerate socketpair
  Status SysChdir(Proc& p, std::string_view path);
  Result<std::string> SysGetCwd(Proc& p);
  Result<std::string> SysReadlink(Proc& p, std::string_view path);
  Result<StatInfo> SysStat(Proc& p, std::string_view path, bool follow);
  Result<std::vector<std::string>> SysReadDir(Proc& p, std::string_view path);
  Status SysUnlink(Proc& p, std::string_view path);
  Status SysLink(Proc& p, std::string_view oldpath, std::string_view newpath);
  Status SysMkdir(Proc& p, std::string_view path, uint16_t mode);
  Status SysRmdir(Proc& p, std::string_view path);
  // 4.3BSD rename(): atomic within one machine, EXDEV across machines.
  Status SysRename(Proc& p, std::string_view oldpath, std::string_view newpath);
  Status SysKill(Proc& p, int32_t pid, int signo);
  // Marks `pid`'s next SIGDUMP as incremental (delta against the segments loaded
  // at exec). Same permission rule as kill(); ENOEXEC when the target's kernel
  // was built without dirty tracking or the target is not a VM process.
  Status SysSetDumpMode(Proc& p, int32_t pid, bool incremental);
  Result<bool> SysDumpFailed(Proc& p, int32_t pid);
  Status SysSetReUid(Proc& p, int32_t ruid, int32_t euid);
  Status SysSignal(Proc& p, int signo, SignalDisposition disposition);
  Result<uint16_t> SysTtyGet(Proc& p, int fd);
  Status SysTtySet(Proc& p, int fd, uint16_t flags);
  Result<int32_t> SysFork(Proc& p);  // VM processes only
  Status SysExecve(Proc& p, std::string_view path, const std::vector<std::string>& args);
  Status SysRestProc(Proc& p, std::string_view aout_path, std::string_view stack_path);

  // The modified execve() of Section 5.2: when restproc_flag_ is set, the initial
  // stack is allocated with restproc_stack_size_ bytes instead of being built from
  // arguments and environment. Only SysRestProc (via the hook) sets these.
  void SetRestProcExec(uint32_t stack_size) {
    restproc_flag_ = true;
    restproc_stack_size_ = stack_size;
  }
  void ClearRestProcExec() { restproc_flag_ = false; }

  // --- Cost charging (per calling process) ---
  void ChargeCpu(Proc& p, sim::Nanos amount);
  // User-mode CPU (utime) — the tools' own computation between syscalls. Kept
  // separate because Figure 1 measures *system* CPU time only.
  void ChargeUser(Proc& p, sim::Nanos amount) {
    p.utime += amount;
    quantum_left_ -= amount;
  }
  void ChargeWait(Proc& p, sim::Nanos amount) { p.pending_wait += amount; }
  // Converts pending_wait into a sleep. Returns true if the proc went to sleep.
  bool SettlePendingWait(Proc& p);

  // Puts `p` to sleep for `duration` (plus any pending wait).
  void SleepProc(Proc& p, sim::Nanos duration);
  // Blocks `p` until `check` returns true (polled each quantum).
  void BlockProc(Proc& p, std::function<bool()> check);

  // Terminates `p` (closing fds, waking waiters, reparenting children).
  void TerminateProc(Proc& p, ExitInfo info);

  // Used by the rest_proc hook: loads `image` into `p` as its new VM program,
  // using the modified-execve stack protocol if armed. Charges I/O-free CPU only
  // (file reads are charged by the caller). Fails on ISA mismatch. With
  // track_dirty_pages it arms tracking once: against `restored` (a restored
  // delta's original base) when given, else against the image's data.
  // The image is taken by value: callers move it in, and its data becomes the
  // process's data segment without another copy.
  Status OverlayVmImage(Proc& p, vm::AoutImage image, const std::vector<std::string>& args,
                        const vm::DeltaBase* restored = nullptr);

  // vm::RequiredLevel of a loaded program's text, scanned once per text buffer
  // (see text_ below).
  vm::IsaLevel TextLevel(const vm::VmContext& ctx);

  // --- Fd plumbing for spawn-time stdio setup (boot, rsh, daemons) ---
  // An OpenFile on a terminal's device node (O_RDWR), for wiring fds 0/1/2.
  OpenFilePtr OpenTtyFile(Tty* tty);
  static OpenFilePtr MakeChannelFile(std::shared_ptr<Channel> channel, bool write_end,
                                     FileKind kind);
  void InstallFd(Proc& p, int fd, OpenFilePtr file);

  // Predicate that is true when a read() on `fd` would no longer block.
  std::function<bool()> MakeReadCheck(Proc& p, int fd);
  // Non-blocking wait: kAgain when children exist but none has exited yet.
  Result<WaitResult> TryWait(Proc& p);
  // True when a wait() by `parent_pid` would complete now (ready or no children).
  bool WaitReady(int32_t parent_pid) const;

  // Appends a migration or signal event to this host's flight-recorder ring,
  // tagged with the process's trace id. No-op while the recorder is off.
  void NoteEvent(int32_t pid, std::string text);

  // Total CPU (user+system) consumed by all processes ever run on this machine.
  sim::Nanos TotalCpu() const;

  // What getpid() and gethostname() report to `p`, in both ABIs. Under the
  // Section 7 proposal (virtualize_identity) a migrated process keeps seeing
  // the pid and host it was dumped from; getpid_real()/gethostname_real() and
  // everything outside the process always see the truth.
  struct Identity {
    int32_t pid;
    std::string_view host;
  };
  Identity ReportedIdentity(const Proc& p) const;

 private:
  friend class SyscallApi;

  void BootFilesystem();
  Proc& NewProc(std::string command, ProcKind kind, const SpawnOptions& opts);
  void InitProcCwd(Proc& p, const std::string& cwd);

  // Scheduler internals.
  Proc* PickNext();
  void RunVmProc(Proc& p);
  void RunNativeProc(Proc& p);
  void HandleNativeFinish(Proc& p);
  void DeliverPendingSignals();
  void DeliverSignal(Proc& p, int signo);
  void StartMigrationDump(Proc& p);
  void StartCoreDump(Proc& p, int signo);

  // Runs the trap table's entry for syscall `number`; returns false if the proc
  // blocked/slept/terminated and the run loop must stop.
  bool DispatchVmSyscall(Proc& p, int32_t number);
  void VmFault(Proc& p, vm::Fault fault);
  // Makes `text` text_, forgetting the level of the text it replaces.
  void RememberText(const std::shared_ptr<vm::DecodedText>& text);

  // Name-tracking helpers (the Section 5.1 bookkeeping + its costs).
  void TrackOpenName(Proc& p, OpenFile& file, std::string_view user_path);
  void ReleaseOpenName(Proc& p, OpenFile& file);
  // Stores `name` as the file's tracked name and books the kernel memory it
  // holds: its bytes and NUL, or a whole slot under NameStorage::kFixed.
  void HoldOpenName(OpenFile& file, std::string name);
  void TrackChdirName(Proc& p, std::string_view user_path);

  Result<OpenFilePtr> FdGet(Proc& p, int fd);

  std::string hostname_;
  bool down_ = false;
  sim::ClusterContext& ctx_;
  const sim::CostModel* costs_;
  KernelConfig config_;
  KernelStats stats_;
  KernelTimers timers_;
  sim::MetricsRegistry metrics_;
  // Pre-resolved handles for per-quantum/per-instruction-batch paths; everything
  // cooler keeps the dotted-name API.
  sim::CounterHandle instructions_metric_;
  sim::CounterHandle native_syscall_metric_;
  sim::CounterHandle context_switch_metric_;
  sim::CounterHandle runnable_vm_metric_;
  // kernel.syscall.<n>, one per vm::abi::kSyscalls entry in its order. Made on
  // the first trap with metrics on, so a run that records nothing builds no
  // names at boot.
  std::vector<sim::CounterHandle> syscall_metrics_;
  MigrationHooks hooks_;
  const ProgramRegistry* programs_ = nullptr;

  std::unique_ptr<vfs::Filesystem> fs_;
  std::unique_ptr<vfs::Vfs> vfs_;
  std::unique_ptr<NullDevice> null_device_;
  std::vector<std::unique_ptr<Tty>> ttys_;
  std::map<const Tty*, vfs::InodePtr> tty_nodes_;

  // Stacks for the native tasks. Declared before procs_ so that it outlives
  // every task: the destructor's UnwindNativeTasks gives each stack back, then
  // the pool unmaps them all.
  StackPool stacks_;
  // Every proc this kernel ever spawned, in pid order: pids are handed out
  // sequentially from first_pid_ and storage is never recycled, so the proc
  // with pid p is procs_[p - first_pid_].
  int32_t first_pid_ = 100;
  std::vector<std::unique_ptr<Proc>> procs_;
  // The unreaped procs, in pid order. Spawns append; RunQuantum drops the reaped
  // ones before each quantum, so loops over it still skip kDead entries.
  std::vector<Proc*> live_;
  // Round-robin position: the procs_ index PickNext scans from.
  size_t rr_cursor_ = 0;
  int32_t last_run_pid_ = -1;
  sim::Nanos quantum_left_ = 0;

  // The Section 5.2 "global flag" protocol between rest_proc() and execve().
  bool restproc_flag_ = false;
  uint32_t restproc_stack_size_ = 0;

  // The last text buffer this kernel loaded or scanned, as its decoded slots,
  // and its level once TextLevel has scanned it. Text is immutable, so while
  // the same buffer comes back (a process dumped and restored hop after hop
  // shares one text blob through the segment cache) OverlayVmImage hands its
  // slots to the new context, which then allocates and decodes nothing, and
  // TextLevel answers without a scan. The table holds the blob, which keeps its
  // buffer alive, so an equal data() and size() mean the same bytes. A digest
  // match would not do: equal digests do not prove equal bytes.
  std::shared_ptr<vm::DecodedText> text_;
  std::optional<vm::IsaLevel> text_level_;
};

// RAII phase span opened in a process's distributed-trace context: the span
// begins as a child of the proc's innermost open span (proc.trace_parent_span)
// and becomes the proc's context until the scope closes, so nested scopes and
// remote children spawned inside the scope chain into one causal tree. A
// disabled span log makes the scope a no-op.
class TraceSpan {
 public:
  TraceSpan(Kernel& kernel, Proc& p, std::string phase);
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  uint64_t id() const { return id_; }

 private:
  sim::SpanLog& log_;
  Proc* proc_ = nullptr;
  uint64_t id_ = 0;
  uint64_t saved_parent_ = 0;
};

// The system-call interface used by native programs. One per process (Proc::api);
// also the CostSink the kernel passes to the VFS on that process's behalf.
class SyscallApi : public vfs::CostSink {
 public:
  SyscallApi(Kernel* kernel, int32_t pid) : kernel_(kernel), pid_(pid) {}
  virtual ~SyscallApi() = default;

  // vfs::CostSink:
  void ChargeCpu(sim::Nanos amount) override;
  void ChargeWait(sim::Nanos amount) override;

  Kernel& kernel() { return *kernel_; }
  Proc& proc();
  int32_t pid() const { return pid_; }

  // --- System calls. Each charges syscall entry + the operation's work, and
  // converts accumulated I/O waits into virtual-time sleeps. Blocking calls yield
  // to the scheduler until they can complete. ---
  Result<int> Open(std::string_view path, int32_t flags, uint16_t mode = 0644);
  Result<int> Creat(std::string_view path, uint16_t mode = 0644);
  Status Close(int fd);
  Result<std::string> Read(int fd, int64_t max);       // "" means EOF
  Result<std::string> ReadLine(int fd);                // convenience: reads to '\n'
  Result<std::string> ReadAll(int fd);                 // convenience: reads to EOF
  Result<int64_t> Write(int fd, std::string_view data);
  Result<int64_t> Lseek(int fd, int64_t offset, int whence);
  Result<int> Dup(int fd);
  Status Chdir(std::string_view path);
  Result<std::string> GetCwd();
  Result<std::string> Readlink(std::string_view path);
  Result<StatInfo> Stat(std::string_view path);
  Result<StatInfo> LStat(std::string_view path);
  // Directory listing (sorted entry names, no "."/".."). The recovery tools
  // use this to scan /usr/tmp for orphaned dump sets.
  Result<std::vector<std::string>> ReadDir(std::string_view path);
  Status Unlink(std::string_view path);
  Status Link(std::string_view oldpath, std::string_view newpath);
  Status Mkdir(std::string_view path, uint16_t mode = 0755);
  Status Rmdir(std::string_view path);
  Status Rename(std::string_view oldpath, std::string_view newpath);
  Status Kill(int32_t target_pid, int signo);
  // setdumpmode(): arms (or disarms) incremental dumping for the target's next
  // SIGDUMP. Owner-or-superuser, like kill().
  Status SetDumpMode(int32_t target_pid, bool incremental);
  // True when `target_pid`'s most recent SIGDUMP attempt aborted (disk full,
  // corruption) and the process was resumed instead of dumped. Lets dumpproc
  // fail fast rather than waiting out its whole dump-file poll.
  Result<bool> DumpFailed(int32_t target_pid);
  Status SetReUid(int32_t ruid, int32_t euid);
  int32_t GetPid();
  int32_t GetUid();
  int32_t GetEuid();
  std::string GetHostname();
  Result<uint16_t> TtyGetFlags(int fd);
  Status TtySetFlags(int fd, uint16_t flags);
  void Sleep(sim::Nanos duration);
  Result<WaitResult> Wait();  // blocks for any child (zombie or overlaid)
  Result<int32_t> SpawnProgram(const std::string& program, std::vector<std::string> args);
  Result<int32_t> SpawnVm(const std::string& aout_path, std::vector<std::string> args);
  // rest_proc(): on success does not return (the process is overlaid).
  Status RestProc(std::string_view aout_path, std::string_view stack_path);
  [[noreturn]] void Exit(int code);

  // For the net layer: block until `check` passes, charging nothing.
  void BlockUntil(std::function<bool()> check);
  // Like BlockUntil but gives up after `timeout` of virtual time. Returns the
  // final value of `check` — false means the wait expired. timeout <= 0 waits
  // forever (and returns true).
  bool BlockUntilFor(std::function<bool()> check, sim::Nanos timeout);

  sim::Nanos Now() const;

 private:
  friend class Kernel;

  // Common syscall prologue/epilogue for native processes.
  void EnterSyscall();
  void FinishSyscall();
  void YieldIfPreempted();
  // EnterSyscall, then `sys` on this process, then FinishSyscall.
  template <typename R, typename... Params, typename... Args>
  R Call(R (Kernel::*sys)(Proc&, Params...), Args&&... args);

  Kernel* kernel_;
  int32_t pid_;
};

}  // namespace pmig::kernel

#endif  // PMIG_SRC_KERNEL_KERNEL_H_
