// Signal posting and delivery, including the two dumping terminations:
// SIGQUIT-style core dumps and the paper's SIGDUMP migration dump.

#include <cassert>

#include "src/kernel/core_file.h"
#include "src/kernel/kernel.h"

namespace pmig::kernel {

namespace {

using vm::abi::Sig;

bool DefaultActionDumpsCore(int signo) {
  return signo == Sig::kSigQuit || signo == Sig::kSigIll || signo == Sig::kSigFpe ||
         signo == Sig::kSigSegv;
}

bool DefaultActionIgnores(int signo) { return signo == Sig::kSigChld; }

// SIGKILL and SIGDUMP always take their default action (SIGDUMP must be reliable
// for the migration tools, so like SIGKILL it cannot be caught or ignored).
bool Unblockable(int signo) { return signo == Sig::kSigKill || signo == Sig::kSigDump; }

}  // namespace

Status Kernel::PostSignal(int32_t pid, int signo, Proc* sender) {
  if (signo <= 0 || signo >= vm::abi::kNSig) return Errno::kInval;
  Proc* target = FindProc(pid);
  if (target == nullptr || !target->Alive()) return Errno::kSrch;
  ++stats_.signals_posted;
  // SIGDUMP is always sent by the migration machinery; hand the sender's
  // distributed-trace context to the victim so the kernel dump span (and the
  // dump metadata) join the originating migrate's trace.
  if (signo == Sig::kSigDump) {
    // A fresh dump request supersedes the previous attempt's failure flag.
    // Cleared here at post time — not at delivery — so a dumpproc that kills
    // and immediately polls dumpfailed() cannot read an earlier attempt's
    // abort as its own and walk away from a dump that is about to succeed.
    target->dump_failed = false;
    if (sender != nullptr && sender->trace_id != 0) {
      target->trace_id = sender->trace_id;
      target->trace_parent_span = sender->trace_parent_span;
    }
  }
  target->sig_pending |= (uint64_t{1} << signo);
  Trace(sim::TraceCategory::kSignal, pid,
        "signal " + std::to_string(signo) + " posted" +
            (sender != nullptr ? " by pid " + std::to_string(sender->pid) : ""));
  return Status::Ok();
}

void Kernel::DeliverPendingSignals() {
  for (size_t i = 0; i < live_.size(); ++i) {
    Proc& p = *live_[i];
    if (!p.Alive() || p.sig_pending == 0) continue;
    for (int signo = 1; signo < vm::abi::kNSig && p.Alive(); ++signo) {
      const uint64_t bit = uint64_t{1} << signo;
      if ((p.sig_pending & bit) == 0) continue;
      SignalDisposition d = p.sig_dispositions[static_cast<size_t>(signo)];
      if (Unblockable(signo)) d.action = SignalDisposition::Action::kDefault;
      switch (d.action) {
        case SignalDisposition::Action::kIgnore:
          p.sig_pending &= ~bit;
          break;
        case SignalDisposition::Action::kCatch:
          if (p.kind == ProcKind::kVm) {
            // Left pending; RunVmProc delivers to the user handler. A blocked
            // process is woken so the handler runs now — its pc was rewound onto
            // the SYS instruction when it blocked, so the interrupted call
            // restarts afterwards (BSD restartable-syscall semantics).
            if (p.state == ProcState::kBlocked) {
              p.state = ProcState::kRunnable;
              p.unblock_check = nullptr;
            }
          } else {
            // Native (tool) processes have no user-mode handlers.
            p.sig_pending &= ~bit;
          }
          break;
        case SignalDisposition::Action::kDefault:
          if (DefaultActionIgnores(signo)) {
            p.sig_pending &= ~bit;
          } else {
            p.sig_pending &= ~bit;
            DeliverSignal(p, signo);
          }
          break;
      }
    }
  }
}

void Kernel::DeliverSignal(Proc& p, int signo) {
  Trace(sim::TraceCategory::kSignal, p.pid, "delivering fatal signal " + std::to_string(signo));
  metrics_.Inc("kernel.signals_delivered");
  if (p.kind == ProcKind::kNative) {
    p.exit_info = ExitInfo{};
    p.exit_info.killed_by_signal = signo;
    p.sig_pending = 0;
    if (p.wake_timer != 0) {
      ctx_.clock.CancelTimer(p.wake_timer);
      p.wake_timer = 0;
    }
    if (p.native != nullptr) {
      p.native->RequestKill();
      // Make it runnable so the scheduler resumes (and thereby unwinds) it.
      p.state = ProcState::kRunnable;
      p.unblock_check = nullptr;
    } else {
      ExitInfo info = p.exit_info;
      TerminateProc(p, info);
    }
    return;
  }
  // VM processes.
  if (signo == Sig::kSigDump) {
    StartMigrationDump(p);
  } else if (DefaultActionDumpsCore(signo)) {
    StartCoreDump(p, signo);
  } else {
    ExitInfo info;
    info.killed_by_signal = signo;
    TerminateProc(p, info);
  }
}

void Kernel::StartMigrationDump(Proc& p) {
  assert(p.kind == ProcKind::kVm);
  p.sig_pending = 0;
  p.dump_failed = false;  // a fresh attempt; set again only if this one aborts
  if (!hooks_.sigdump) {
    // Kernel without the migration additions: SIGDUMP just kills.
    ExitInfo info;
    info.killed_by_signal = Sig::kSigDump;
    TerminateProc(p, info);
    return;
  }
  Result<PreparedDump> prepared = hooks_.sigdump(*this, p);
  if (!prepared.ok()) {
    Trace(sim::TraceCategory::kMigration, p.pid,
          std::string("SIGDUMP failed: ") + std::string(ErrnoName(prepared.error())));
    ExitInfo info;
    info.killed_by_signal = Sig::kSigDump;
    TerminateProc(p, info);
    return;
  }
  ChargeCpu(p, prepared->cpu);
  metrics_.Inc("migration.dumps_started");
  metrics_.Observe("migration.dump_ns", prepared->cpu + prepared->wait);
  if (sim::HealthMonitor& monitor = ctx_.health_monitor; monitor.enabled()) {
    int64_t dump_bytes = 0;
    for (const auto& [path, contents] : prepared->files) {
      dump_bytes += static_cast<int64_t>(contents.size());
    }
    monitor.Observe(hostname_, "migration.dump_ns",
                    static_cast<double>(prepared->cpu + prepared->wait));
    monitor.Observe(hostname_, "migration.dump_bytes", static_cast<double>(dump_bytes));
  }
  // The dying process spends (cpu + wait) producing the three files; they become
  // visible — and the process exits — when the dump completes. This is why
  // dumpproc has to poll for a.outXXXXX (Section 6.2).
  if (p.wake_timer != 0) ctx_.clock.CancelTimer(p.wake_timer);
  p.state = ProcState::kSleeping;
  p.unblock_check = nullptr;
  const int32_t pid = p.pid;
  Trace(sim::TraceCategory::kMigration, pid, "SIGDUMP: dumping process state");
  // The dump is asynchronous (the process sleeps while the files are written), so
  // the span cannot be a scope on this stack — it closes inside the timer.
  const uint64_t span_id =
      ctx_.spans.Begin("dump", hostname_, pid, p.trace_id, p.trace_parent_span);
  p.wake_timer = ctx_.clock.CallAfter(
      prepared->cpu + prepared->wait,
      [this, pid, span_id, files = std::move(prepared->files)] {
        Proc* proc = FindProc(pid);
        if (proc == nullptr || proc->state != ProcState::kSleeping) return;  // killed
        proc->wake_timer = 0;
        // Write the dump, subject to injected disk-full and corruption faults.
        // On any failure the partial files are removed and the process resumes
        // — a dump that cannot land intact must never kill its process.
        bool aborted = false;
        std::vector<std::pair<std::string, std::string>> written;
        for (const auto& [path, contents] : files) {
          if (ctx_.faults.DiskFull(hostname_, &metrics_)) {
            Trace(sim::TraceCategory::kMigration, pid,
                  "dump aborted: disk full writing " + path);
            aborted = true;
            break;
          }
          std::string bytes = contents;
          if (ctx_.faults.CorruptsDump(&metrics_)) {
            ctx_.faults.CorruptBytes(&bytes);
            Trace(sim::TraceCategory::kMigration, pid, "dump file corrupted " + path);
          }
          vfs_->SetupCreateFile(path, bytes, proc->creds.uid, 0600);  // owner-only: the
          // restart permission model rests on dump-file access
          written.emplace_back(path, std::move(bytes));
          Trace(sim::TraceCategory::kMigration, pid, "dump file " + path);
        }
        if (!aborted && hooks_.verify_dump && !hooks_.verify_dump(written)) {
          Trace(sim::TraceCategory::kMigration, pid,
                "dump aborted: verification failed");
          aborted = true;
        }
        if (aborted) {
          for (const auto& wf : written) vfs_->SetupUnlink(wf.first);
          metrics_.Inc("migration.dump_aborts");
          ctx_.spans.End(span_id);
          ctx_.flight_recorder.Dump(
              hostname_, proc->trace_id,
              "dump aborted for pid " + std::to_string(pid) + " phase=dump");
          proc->state = ProcState::kRunnable;  // resume; the process is not lost
          proc->unblock_check = nullptr;
          // Nothing can be written to disk to announce the failure (the disk
          // may be the problem), so record it on the proc where dumpfailed()
          // finds it.
          proc->dump_failed = true;
          return;
        }
        ctx_.spans.End(span_id);
        ExitInfo info;
        info.killed_by_signal = Sig::kSigDump;
        info.migration_dumped = true;
        TerminateProc(*proc, info);
      });
}

void Kernel::StartCoreDump(Proc& p, int signo) {
  assert(p.kind == ProcKind::kVm);
  p.sig_pending = 0;
  CoreFile core;
  core.cpu = p.vm->cpu;
  core.data = p.vm->data;
  core.stack = p.vm->StackContents();
  std::string bytes = core.Serialize();

  const auto io = costs_->DiskIo(static_cast<int64_t>(bytes.size()));
  const sim::Nanos cpu_cost =
      io.cpu + costs_->file_table_slot + costs_->namei_component + costs_->syscall_entry;
  ChargeCpu(p, cpu_cost);

  // Write "core" in the process's current directory when the I/O completes.
  vfs::InodePtr dir = p.cwd.empty() ? fs_->root() : p.cwd.dir();
  if (p.wake_timer != 0) ctx_.clock.CancelTimer(p.wake_timer);
  p.state = ProcState::kSleeping;
  p.unblock_check = nullptr;
  const int32_t pid = p.pid;
  p.wake_timer = ctx_.clock.CallAfter(
      cpu_cost + io.wait, [this, pid, signo, dir, bytes = std::move(bytes)] {
        Proc* proc = FindProc(pid);
        if (proc == nullptr || proc->state != ProcState::kSleeping) return;
        proc->wake_timer = 0;
        dir->entries.erase("core");
        vfs::Filesystem* owner = dir->fs;
        vfs::InodePtr file = owner->NewRegular(proc->creds.uid, 0600);
        file->data = bytes;
        const Status st = owner->Link(dir, "core", file);
        (void)st;
        ExitInfo info;
        info.killed_by_signal = signo;
        info.core_dumped = true;
        TerminateProc(*proc, info);
      });
  Trace(sim::TraceCategory::kSignal, pid, "dumping core (signal " + std::to_string(signo) + ")");
}

void Kernel::VmFault(Proc& p, vm::Fault fault) {
  int signo;
  switch (fault) {
    case vm::Fault::kIllegalInstruction:
    case vm::Fault::kIsaViolation:
      signo = Sig::kSigIll;
      break;
    case vm::Fault::kDivideByZero:
      signo = Sig::kSigFpe;
      break;
    default:
      signo = Sig::kSigSegv;
      break;
  }
  Trace(sim::TraceCategory::kSignal, p.pid,
        std::string("fault: ") + std::string(vm::FaultName(fault)));
  StartCoreDump(p, signo);
}

}  // namespace pmig::kernel
