#include "src/core/precopy.h"

#include <algorithm>

#include "src/core/dump_format.h"
#include "src/core/sigdump.h"
#include "src/core/tools.h"

namespace pmig::core {

namespace {

struct Snapshot {
  std::vector<uint8_t> data;
  std::vector<uint8_t> stack;

  static Snapshot Of(const kernel::Proc& p) {
    Snapshot s;
    s.data = p.vm->data;
    s.stack = p.vm->StackContents();
    return s;
  }

  int64_t TotalBytes() const {
    return static_cast<int64_t>(data.size() + stack.size());
  }
};

// Bytes that differ between two snapshots (size changes count as dirty bytes).
int64_t DirtyBytes(const Snapshot& a, const Snapshot& b) {
  auto diff = [](const std::vector<uint8_t>& x, const std::vector<uint8_t>& y) {
    const size_t common = std::min(x.size(), y.size());
    int64_t n = 0;
    for (size_t i = 0; i < common; ++i) {
      if (x[i] != y[i]) ++n;
    }
    n += static_cast<int64_t>(std::max(x.size(), y.size()) - common);
    return n;
  };
  return diff(a.data, b.data) + diff(a.stack, b.stack);
}

}  // namespace

Result<PrecopyStats> PrecopyMigrate(kernel::SyscallApi& api, net::Network& net,
                                    int32_t pid, std::string_view to_host,
                                    const PrecopyOptions& options) {
  kernel::Kernel& source = api.kernel();
  kernel::Kernel* target = net.FindHost(to_host);
  if (target == nullptr) return Errno::kHostUnreach;
  if (!api.proc().creds.IsSuperuser()) return Errno::kPerm;

  kernel::Proc* src = source.FindProc(pid);
  if (src == nullptr || !src->Alive() || src->kind != kernel::ProcKind::kVm) {
    return Errno::kSrch;
  }

  PrecopyStats stats;
  const sim::Nanos t0 = api.Now();

  // Ships `bytes` to the target; the source process keeps running meanwhile.
  auto ship = [&](int64_t bytes) {
    api.ChargeCpu(bytes * 150);  // packetising copy cost
    api.Sleep(net.TransferTime(bytes));
  };

  // Round 1: the whole address space (text ships once; it cannot change).
  Snapshot shipped = Snapshot::Of(*src);
  stats.rounds = 1;
  const int64_t first = static_cast<int64_t>(src->vm->text().size()) + shipped.TotalBytes();
  stats.bytes_precopied += first;
  ship(first);

  // Further rounds: only what changed since the last shipment.
  for (int round = 2; round <= options.max_rounds; ++round) {
    src = source.FindProc(pid);
    if (src == nullptr || !src->Alive()) return Errno::kSrch;  // exited mid-copy
    Snapshot live = Snapshot::Of(*src);
    api.ChargeCpu(live.TotalBytes() * 150);  // dirty scan
    const int64_t dirty = DirtyBytes(live, shipped);
    if (dirty <= options.freeze_threshold) break;
    shipped = std::move(live);
    stats.rounds = round;
    stats.bytes_precopied += dirty;
    ship(dirty);
  }

  // Freeze: suspend the process, ship the final dirty set + the kernel state,
  // destroy the original, restart the copy. The process makes no progress from
  // here until the destination continues it — that window is the freeze time.
  src = source.FindProc(pid);
  if (src == nullptr || !src->Alive()) return Errno::kSrch;
  const sim::Nanos freeze_start = api.Now();
  src->state = kernel::ProcState::kBlocked;
  src->unblock_check = [] { return false; };  // suspended
  if (src->wake_timer != 0) {
    source.clock().CancelTimer(src->wake_timer);
    src->wake_timer = 0;
  }

  const Snapshot final_state = Snapshot::Of(*src);
  const int64_t final_dirty = DirtyBytes(final_state, shipped);

  // Build the three dump images from the frozen process (same code as SIGDUMP),
  // rewrite the file names for cross-machine reopening, and stage them in the
  // target's /usr/tmp. Only the final dirty bytes plus the two small state files
  // cross the wire — the rest is already at the destination.
  PMIG_TRY(kernel::PreparedDump dump, BuildSigdump(source, *src));
  PMIG_TRY(FilesFile files, FilesFile::Parse(dump.files[1].second.view()));
  RewriteFilesForMigration(api, &files);
  dump.files[1].second = sim::Blob(files.Serialize());

  stats.bytes_frozen = final_dirty +
                       static_cast<int64_t>(dump.files[1].second.size()) +
                       static_cast<int64_t>(dump.files[2].second.size());
  ship(stats.bytes_frozen);

  const kernel::Credentials owner = src->creds;
  const DumpPaths paths = DumpPaths::For(pid);
  for (const auto& [path, contents] : dump.files) {
    target->vfs().SetupCreateFile(path, contents, owner.uid, 0600);
  }
  kernel::ExitInfo info;
  info.killed_by_signal = vm::abi::kSigDump;
  info.migration_dumped = true;
  source.TerminateProc(*src, info);

  // Reconstruct on the destination. Unlike the paper's user-level restart, the
  // V-style transport rebuilds the process from a resident kernel server: no tool
  // binary to load, no dump-file re-verification, and only the slots that were
  // actually open get reopened — this is what keeps the freeze short.
  kernel::SpawnOptions opts;
  opts.creds = owner;
  opts.tty = options.target_tty;
  opts.stdio_on_tty = false;  // the reconstruction sets up the fd table itself
  const DumpPaths target_paths = paths;
  const int32_t restart_pid = target->SpawnNative(
      "precopy-reconstruct",
      [files, target_paths](kernel::SyscallApi& tapi) {
        const Status cd = tapi.Chdir(files.cwd);
        if (!cd.ok()) {
          const Status root_cd = tapi.Chdir("/");
          (void)root_cd;
        }
        // The table starts empty; only slots up to the highest one in use
        // are rebuilt.
        int slots = 0;
        for (int i = 0; i < kernel::kNoFile; ++i) {
          if (files.entries[static_cast<size_t>(i)].kind != FilesEntry::Kind::kUnused) {
            slots = i + 1;
          }
        }
        if (!ReopenFileTable(tapi, files, slots)) return 1;
        const Status st = tapi.RestProc(target_paths.aout, target_paths.stack);
        (void)st;
        return 1;  // only reached on failure
      },
      opts);
  api.BlockUntil([target, restart_pid] {
    const kernel::Proc* p = target->FindAnyProc(restart_pid);
    if (p == nullptr) return true;
    if (!p->Alive()) return true;  // restart failed
    return p->kind == kernel::ProcKind::kVm &&
           p->state != kernel::ProcState::kSleeping;
  });
  kernel::Proc* restarted = target->FindAnyProc(restart_pid);
  if (restarted == nullptr || !restarted->Alive() ||
      restarted->kind != kernel::ProcKind::kVm) {
    return Errno::kNoExec;
  }
  stats.new_pid = restart_pid;
  stats.freeze_time = api.Now() - freeze_start;
  stats.total_time = api.Now() - t0;
  return stats;
}

}  // namespace pmig::core
