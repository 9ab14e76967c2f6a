#include "src/kernel/kernel.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "src/vfs/path.h"

namespace pmig::kernel {

Kernel::Kernel(std::string hostname, sim::ClusterContext& context,
               const sim::CostModel* costs, KernelConfig config)
    : hostname_(std::move(hostname)), ctx_(context), costs_(costs), config_(config) {
  fs_ = std::make_unique<vfs::Filesystem>(hostname_);
  vfs_ = std::make_unique<vfs::Vfs>(fs_.get(), costs_);
  vfs_->set_metrics(&metrics_);
  vfs_->set_fault_injector(&ctx_.faults, hostname_);
  instructions_metric_ = metrics_.MakeCounter("kernel.instructions");
  native_syscall_metric_ = metrics_.MakeCounter("kernel.syscall.native");
  context_switch_metric_ = metrics_.MakeCounter("sched.context_switches");
  runnable_vm_metric_ = metrics_.MakeCounter("sched.runnable_vm", /*gauge=*/true);
  null_device_ = std::make_unique<NullDevice>();
  BootFilesystem();
  metrics_.set_enabled(ctx_.recording.metrics);
}

Kernel::~Kernel() {
  // Unwind native tasks before anything they might reference is destroyed.
  UnwindNativeTasks();
}

void Kernel::UnwindNativeTasks() {
  for (auto& proc : procs_) proc->native.reset();
}

void Kernel::set_pid_base(int32_t base) {
  assert(procs_.empty() && "a pid indexes the proc table from its base");
  first_pid_ = base;
}

void Kernel::BootFilesystem() {
  vfs_->SetupMkdirAll("/dev");
  vfs_->SetupMkdirAll("/usr/tmp")->mode = 0777;  // sticky temp dirs, world-writable
  vfs_->SetupMkdirAll("/tmp")->mode = 0777;
  vfs_->SetupMkdirAll("/etc");
  vfs_->SetupMkdirAll("/bin");
  vfs_->SetupMkdirAll("/u");
  vfs_->SetupMkdirAll("/n");

  // /dev/null.
  auto dev = vfs_->Resolve(vfs_->RootState(), "/dev", vfs::Follow::kAll, nullptr);
  assert(dev.ok());
  vfs::InodePtr null_node = fs_->NewCharDevice(null_device_.get(), 0);
  const Status st = fs_->Link(dev->inode, "null", null_node);
  assert(st.ok());
  (void)st;
}

Tty* Kernel::CreateTty(const std::string& name) {
  auto tty = std::make_unique<Tty>(name);
  Tty* raw = tty.get();
  ttys_.push_back(std::move(tty));
  auto dev = vfs_->Resolve(vfs_->RootState(), "/dev", vfs::Follow::kAll, nullptr);
  assert(dev.ok());
  vfs::InodePtr node = fs_->NewCharDevice(raw, 0, 0622);
  const Status st = fs_->Link(dev->inode, name, node);
  assert(st.ok());
  (void)st;
  tty_nodes_[raw] = std::move(node);
  return raw;
}

Tty* Kernel::FindTty(std::string_view name) {
  for (auto& tty : ttys_) {
    if (tty->DeviceName() == name) return tty.get();
  }
  return nullptr;
}

// --- Process lifecycle --------------------------------------------------------

Proc& Kernel::NewProc(std::string command, ProcKind kind, const SpawnOptions& opts) {
  auto owned = std::make_unique<Proc>();
  Proc& p = *owned;
  p.pid = first_pid_ + static_cast<int32_t>(procs_.size());
  p.ppid = opts.ppid;
  p.command = std::move(command);
  p.kind = kind;
  p.creds = opts.creds;
  p.controlling_tty = opts.tty;
  p.start_time = ctx_.clock.now();
  p.trace_id = opts.trace_id;
  p.trace_parent_span = opts.trace_parent_span;
  InitProcCwd(p, opts.cwd);
  procs_.push_back(std::move(owned));
  live_.push_back(&p);
  apis_[p.pid] = std::make_unique<SyscallApi>(this, p.pid);
  ++stats_.procs_spawned;
  metrics_.Inc("kernel.procs_spawned");
  if (opts.tty != nullptr && opts.stdio_on_tty) {
    OpenFilePtr stdio = OpenTtyFile(opts.tty);
    for (int fd = 0; fd < 3; ++fd) InstallFd(p, fd, stdio);
  }
  Trace(sim::TraceCategory::kSched, p.pid, "spawn " + p.command);
  return p;
}

bool Kernel::WaitReady(int32_t parent_pid) const {
  bool any = false;
  for (const Proc* q : live_) {
    if (q->ppid != parent_pid || q->state == ProcState::kDead) continue;
    if (q->state == ProcState::kZombie) return true;
    if (q->overlaid) return true;
    any = true;
  }
  return !any;  // no children left -> wait() returns ECHILD immediately
}

void Kernel::InitProcCwd(Proc& p, const std::string& cwd) {
  auto resolved = vfs_->Resolve(vfs_->RootState(), cwd, vfs::Follow::kAll, nullptr);
  if (resolved.ok() && resolved->inode->IsDir()) {
    p.cwd = resolved->state;
  } else {
    p.cwd = vfs_->RootState();
  }
  // The textual cwd is "inherited from the parent"; spawn options carry it. As at
  // boot, the field only exists on the modified kernel.
  if (config_.track_names) {
    p.u_cwd_path = vfs::Combine("/", cwd);
  }
}

Result<int32_t> Kernel::SpawnProgram(const std::string& program, std::vector<std::string> args,
                                     const SpawnOptions& opts) {
  if (programs_ == nullptr) return Errno::kNoEnt;
  auto it = programs_->find(program);
  if (it == programs_->end()) return Errno::kNoEnt;
  const ProgramEntry& entry = it->second;
  const int32_t pid = SpawnNative(program,
                                  [entry, args = std::move(args)](SyscallApi& api) {
                                    return entry(api, args);
                                  },
                                  opts);
  // A registered program is a real binary: it pays fork + exec + runtime startup
  // before its first instruction runs.
  if (Proc* p = FindProc(pid); p != nullptr) {
    ChargeCpu(*p, costs_->tool_spawn_cpu);
    ChargeWait(*p, costs_->tool_spawn_wait);
    SettlePendingWait(*p);
  }
  return pid;
}

int32_t Kernel::SpawnNative(std::string command_name, NativeTask::Entry entry,
                            const SpawnOptions& opts) {
  // The stack first: a host that cannot map one throws before any proc exists.
  TaskStack stack = stacks_.Take();
  Proc& p = NewProc(std::move(command_name), ProcKind::kNative, opts);
  p.native = std::make_unique<NativeTask>(std::move(stack), std::move(entry),
                                          apis_[p.pid].get());
  return p.pid;
}

Result<int32_t> Kernel::SpawnVm(const std::string& aout_path, std::vector<std::string> args,
                                const SpawnOptions& opts) {
  Proc& p = NewProc(vfs::Basename(aout_path), ProcKind::kVm, opts);
  p.vm = std::make_unique<vm::VmContext>();
  const Status st = SysExecve(p, aout_path, args);
  if (!st.ok()) {
    TerminateProc(p, ExitInfo{.exit_code = 127});
    return st.error();
  }
  return p.pid;
}

Proc* Kernel::FindProc(int32_t pid) {
  Proc* p = FindAnyProc(pid);
  return p != nullptr && p->state != ProcState::kDead ? p : nullptr;
}

const Proc* Kernel::FindProc(int32_t pid) const {
  return const_cast<Kernel*>(this)->FindProc(pid);
}

Proc* Kernel::FindAnyProc(int32_t pid) {
  const int64_t index = int64_t{pid} - first_pid_;
  if (index < 0 || index >= static_cast<int64_t>(procs_.size())) return nullptr;
  return procs_[static_cast<size_t>(index)].get();
}

std::vector<Proc*> Kernel::ListProcs() {
  std::vector<Proc*> out;
  for (Proc* p : live_) {
    if (p->Alive()) out.push_back(p);
  }
  return out;
}

int Kernel::RunnableCount() const {
  int n = 0;
  for (const Proc* p : live_) {
    if (p->state == ProcState::kRunnable) ++n;
  }
  return n;
}

SyscallApi* Kernel::ApiFor(int32_t pid) {
  auto it = apis_.find(pid);
  return it == apis_.end() ? nullptr : it->second.get();
}

sim::Nanos Kernel::TotalCpu() const {
  sim::Nanos total = 0;
  for (const auto& p : procs_) total += p->utime + p->stime;
  return total;
}

// --- Fd plumbing ----------------------------------------------------------------

OpenFilePtr Kernel::OpenTtyFile(Tty* tty) {
  auto file = std::make_shared<OpenFile>();
  file->kind = FileKind::kInode;
  file->inode = tty_nodes_.at(tty);
  file->flags = vm::abi::kORdWr;
  if (config_.track_names) {
    // Held name storage, same as TrackOpenName — ReleaseOpenName gives these
    // bytes back on close, so skipping the add here would drive
    // name_bytes_current negative.
    file->name = "/dev/" + std::string(tty->DeviceName());
    const int64_t held = config_.name_storage == KernelConfig::NameStorage::kFixed
                             ? config_.fixed_name_bytes
                             : static_cast<int64_t>(file->name->size()) + 1;
    ++stats_.name_allocs;
    stats_.name_bytes_current += held;
    stats_.name_bytes_peak = std::max(stats_.name_bytes_peak, stats_.name_bytes_current);
  }
  return file;
}

OpenFilePtr Kernel::MakeChannelFile(std::shared_ptr<Channel> channel, bool write_end,
                                    FileKind kind) {
  auto file = std::make_shared<OpenFile>();
  file->kind = kind;
  file->channel = std::move(channel);
  file->write_end = write_end;
  file->flags = write_end ? vm::abi::kOWrOnly : vm::abi::kORdOnly;
  return file;
}

void Kernel::InstallFd(Proc& p, int fd, OpenFilePtr file) {
  assert(fd >= 0 && fd < kNoFile);
  assert(p.fds[static_cast<size_t>(fd)] == nullptr);
  ++file->refcount;
  p.fds[static_cast<size_t>(fd)] = std::move(file);
}

Result<OpenFilePtr> Kernel::FdGet(Proc& p, int fd) {
  if (fd < 0 || fd >= kNoFile || p.fds[static_cast<size_t>(fd)] == nullptr) {
    return Errno::kBadF;
  }
  return p.fds[static_cast<size_t>(fd)];
}

// --- Charging ---------------------------------------------------------------------

void Kernel::ChargeCpu(Proc& p, sim::Nanos amount) {
  p.stime += amount;
  quantum_left_ -= amount;
}

bool Kernel::SettlePendingWait(Proc& p) {
  if (p.pending_wait <= 0 || !p.Alive()) {
    p.pending_wait = 0;
    return false;
  }
  SleepProc(p, 0);
  return true;
}

void Kernel::SleepProc(Proc& p, sim::Nanos duration) {
  const sim::Nanos total = duration + p.pending_wait;
  p.pending_wait = 0;
  if (total <= 0) return;
  p.state = ProcState::kSleeping;
  const int32_t pid = p.pid;
  p.wake_timer = ctx_.clock.CallAfter(total, [this, pid] {
    Proc* proc = FindProc(pid);
    if (proc != nullptr && proc->state == ProcState::kSleeping) {
      proc->state = ProcState::kRunnable;
      proc->wake_timer = 0;
    }
  });
}

void Kernel::BlockProc(Proc& p, std::function<bool()> check) {
  p.state = ProcState::kBlocked;
  p.unblock_check = std::move(check);
}

// --- Scheduler ---------------------------------------------------------------------

bool Kernel::HasWork() const {
  for (const Proc* p : live_) {
    switch (p->state) {
      case ProcState::kRunnable:
      case ProcState::kSleeping:
      case ProcState::kBlocked:
        return true;
      default:
        break;
    }
  }
  return false;
}

bool Kernel::HasTimedWork() const {
  if (down_) return false;
  for (const Proc* p : live_) {
    if (p->state == ProcState::kRunnable || p->state == ProcState::kSleeping) return true;
  }
  return false;
}

bool Kernel::HasRunnableProc() const {
  if (down_) return false;
  for (const Proc* p : live_) {
    if (p->state == ProcState::kRunnable) return true;
  }
  return false;
}

void Kernel::WakeBlockedProcs() {
  for (Proc* p : live_) {
    if (p->state == ProcState::kBlocked && p->unblock_check && p->unblock_check()) {
      p->state = ProcState::kRunnable;
      p->unblock_check = nullptr;
    }
  }
}

Proc* Kernel::PickNext() {
  // The first runnable proc at or after rr_cursor_ in procs_, wrapping around.
  // Reaped procs are never runnable, so scanning live_ (also in pid order)
  // picks the same proc.
  Proc* wrapped = nullptr;  // the first runnable proc before the cursor
  for (Proc* p : live_) {
    if (p->state != ProcState::kRunnable) continue;
    const size_t index = static_cast<size_t>(p->pid - first_pid_);
    if (index >= rr_cursor_) {
      rr_cursor_ = (index + 1) % procs_.size();
      return p;
    }
    if (wrapped == nullptr) wrapped = p;
  }
  if (wrapped != nullptr) {
    rr_cursor_ = (static_cast<size_t>(wrapped->pid - first_pid_) + 1) % procs_.size();
  }
  return wrapped;
}

bool Kernel::RunQuantum() {
  std::erase_if(live_, [](const Proc* p) { return p->state == ProcState::kDead; });
  if (down_) return false;  // the machine is powered off / crashed
  DeliverPendingSignals();
  WakeBlockedProcs();
  if (metrics_.enabled()) {
    int64_t runnable_vm = 0;
    for (const Proc* q : live_) {
      if (q->kind == ProcKind::kVm && q->state == ProcState::kRunnable) ++runnable_vm;
    }
    runnable_vm_metric_.Set(runnable_vm);
  }
  Proc* p = PickNext();
  if (p == nullptr) return false;

  quantum_left_ = costs_->quantum;
  if (p->pid != last_run_pid_) {
    ++stats_.context_switches;
    context_switch_metric_.Inc();
    ChargeCpu(*p, costs_->context_switch);
  }
  last_run_pid_ = p->pid;

  if (p->kind == ProcKind::kVm) {
    RunVmProc(*p);
  } else {
    RunNativeProc(*p);
  }
  return true;
}

void Kernel::RunNativeProc(Proc& p) {
  NativeTask* task = p.native.get();
  assert(task != nullptr);
  task->Resume();
  if (task->finished()) {
    HandleNativeFinish(p);
  }
}

void Kernel::HandleNativeFinish(Proc& p) {
  NativeTask* task = p.native.get();
  if (task->became_vm()) {
    // rest_proc() succeeded: the process was overlaid with the restarted program.
    // Only the native task ends; the process (now kVm) keeps running.
    p.native.reset();
    Trace(sim::TraceCategory::kMigration, p.pid, "native task overlaid by rest_proc");
    return;
  }
  ExitInfo info;
  if (task->was_killed()) {
    info = p.exit_info;  // filled in by signal delivery
    if (info.killed_by_signal == 0) info.killed_by_signal = vm::abi::kSigKill;
  } else {
    info.exit_code = task->exit_code();
  }
  p.native.reset();
  TerminateProc(p, info);
}

void Kernel::TerminateProc(Proc& p, ExitInfo info) {
  if (!p.Alive()) return;
  if (p.wake_timer != 0) {
    ctx_.clock.CancelTimer(p.wake_timer);
    p.wake_timer = 0;
  }
  // Release the fd table.
  for (int fd = 0; fd < kNoFile; ++fd) {
    const Status st = SysClose(p, fd);
    (void)st;  // EBADF on empty slots is fine
  }
  p.exit_info = info;
  p.unblock_check = nullptr;
  p.pending_wait = 0;
  p.sig_pending = 0;

  // Children are reparented to the kernel ("init"): live ones are autoreaped when
  // they exit, and init reaps the ones that already exited.
  for (Proc* q : live_) {
    if (q->ppid != p.pid) continue;
    if (q->Alive()) {
      q->ppid = 0;
    } else {
      q->state = ProcState::kDead;
    }
  }

  if (p.kind == ProcKind::kNative && p.native != nullptr) {
    // Termination initiated outside the task (e.g. kernel shutdown): unwind it.
    p.native->RequestKill();
    p.state = ProcState::kZombie;
    p.native.reset();
  } else {
    p.state = ProcState::kZombie;
  }
  p.vm.reset();

  Trace(sim::TraceCategory::kSched, p.pid,
        "exit code=" + std::to_string(info.exit_code) +
            " sig=" + std::to_string(info.killed_by_signal) +
            (info.migration_dumped ? " (migration dump)" : "") +
            (info.core_dumped ? " (core dumped)" : ""));

  // Orphans (and processes whose parent already died) are reaped immediately.
  const Proc* parent = FindProc(p.ppid);
  if (p.ppid == 0 || parent == nullptr || !parent->Alive()) {
    p.state = ProcState::kDead;
  }
}

Status Kernel::OverlayVmImage(Proc& p, const vm::AoutImage& image,
                              const std::vector<std::string>& args,
                              const vm::DeltaBase* restored) {
  if (!vm::IsaCompatible(image.isa_level(), config_.isa)) {
    return Errno::kNoExec;  // 68020 binary on a 68010 machine
  }
  if (p.vm == nullptr) p.vm = std::make_unique<vm::VmContext>();
  p.vm->LoadImage(image);
  p.dump_incremental = false;  // a new image invalidates any pending delta mode
  if (config_.track_dirty_pages) p.vm->ArmDirtyTracking(restored);
  ChargeCpu(p, costs_->exec_overhead);
  ChargeCpu(p, static_cast<sim::Nanos>(image.text.size() + image.data.size()) *
                   costs_->buffer_copy_per_byte);

  vm::VmContext& ctx = *p.vm;
  if (restproc_flag_) {
    // The Section 5.2 modification: "instead of calculating how much initial stack
    // to allocate ... it simply allocates as many bytes as are indicated in another
    // global variable".
    const uint32_t size = std::min(restproc_stack_size_, vm::kStackMax);
    ctx.cpu.sp = vm::kStackTop - size;
    return Status::Ok();
  }

  // Normal execve(): build argc/argv on the initial stack.
  uint32_t cursor = vm::kStackTop;
  std::vector<uint32_t> arg_addrs;
  for (auto it = args.rbegin(); it != args.rend(); ++it) {
    cursor -= static_cast<uint32_t>(it->size()) + 1;
    ctx.cpu.sp = cursor;  // keep sp <= cursor so writes are in-range
    if (!ctx.WriteCString(cursor, *it)) return Errno::kFault;
    arg_addrs.push_back(cursor);
  }
  std::reverse(arg_addrs.begin(), arg_addrs.end());
  cursor &= ~uint32_t{7};  // align
  cursor -= 8;             // NULL terminator
  ctx.cpu.sp = cursor;
  if (!ctx.WriteU64(cursor, 0)) return Errno::kFault;
  for (auto it = arg_addrs.rbegin(); it != arg_addrs.rend(); ++it) {
    cursor -= 8;
    ctx.cpu.sp = cursor;
    if (!ctx.WriteU64(cursor, *it)) return Errno::kFault;
  }
  const uint32_t argv_addr = cursor;
  cursor -= 8;
  ctx.cpu.sp = cursor;
  if (!ctx.WriteU64(cursor, static_cast<int64_t>(args.size()))) return Errno::kFault;
  ctx.cpu.regs[0] = static_cast<int64_t>(args.size());
  ctx.cpu.regs[1] = argv_addr;
  return Status::Ok();
}

void Kernel::Trace(sim::TraceCategory cat, int32_t pid, std::string text) {
  // Migration/signal events mirror into the flight recorder's per-host ring
  // even while the textual trace log is off: the recorder exists precisely
  // for runs too long to keep a full trace.
  if (ctx_.flight_recorder.enabled() &&
      (cat == sim::TraceCategory::kMigration || cat == sim::TraceCategory::kSignal)) {
    const Proc* p = FindProc(pid);
    ctx_.flight_recorder.Note(hostname_, pid, p != nullptr ? p->trace_id : 0, text);
  }
  if (!ctx_.trace.enabled()) return;
  ctx_.trace.Add(sim::TraceEvent{ctx_.clock.now(), cat, hostname_, pid, std::move(text)});
}

TraceSpan::TraceSpan(Kernel& kernel, Proc& p, std::string phase)
    : log_(kernel.context().spans), proc_(&p) {
  id_ = log_.Begin(std::move(phase), kernel.hostname(), p.pid, p.trace_id,
                   p.trace_parent_span);
  if (id_ != 0) {
    saved_parent_ = p.trace_parent_span;
    p.trace_parent_span = id_;
  }
}

TraceSpan::~TraceSpan() {
  if (id_ == 0) return;
  log_.End(id_);
  proc_->trace_parent_span = saved_parent_;
}

}  // namespace pmig::kernel
