#include "src/core/sigdump.h"

#include "src/core/dump_format.h"
#include "src/vm/aout.h"

namespace pmig::core {

Result<kernel::PreparedDump> BuildSigdump(kernel::Kernel& k, kernel::Proc& p) {
  if (p.kind != kernel::ProcKind::kVm || p.vm == nullptr) {
    // Tool processes keep their state on a C++ stack; like the paper's own
    // commands, they are not migratable.
    return Errno::kInval;
  }
  const vm::VmContext& ctx = *p.vm;
  const uint32_t machtype = k.TextLevel(ctx) == vm::IsaLevel::kIsa20 ? 20 : 10;

  // --- a.outXXXXX. Full dump: text + data behind an ordinary exec header
  // (running it from scratch is the `undump` behaviour: fresh start, dumped
  // statics). Incremental dump (setdumpmode): text by content digest, data as
  // dirty pages against the exec-time base; the cache blobs the restore side
  // will need are written alongside if this host does not have them yet.
  // A delta can only express a data segment the same size as its armed base
  // (ReconstructIncrAout rejects anything else), so a process that grew or
  // shrank its heap via sbrk() gets a full dump instead — still restorable
  // anywhere. The restart re-arms tracking at the new size, so the *next*
  // dump of the restored process is a delta again.
  const bool delta_ok = ctx.dirty.armed && ctx.data.size() == ctx.dirty.base.size();
  const bool incremental = p.dump_incremental && delta_ok;
  if (p.dump_incremental && ctx.dirty.armed && !delta_ok) {
    k.metrics().Inc("dump.full_fallback");
  }
  std::string aout_bytes;
  std::vector<std::pair<std::string, sim::Blob>> cache_blobs;
  int64_t full_equivalent = 0;
  if (incremental) {
    const IncrAout incr = BuildIncrAout(ctx, machtype);
    aout_bytes = incr.Serialize();
    full_equivalent = incr.FullEquivalentBytes();
    // Each segment is named by its blob's kept digest, and a cache file holds
    // the blob itself: shipping it copies no bytes.
    for (const sim::Blob& segment : {ctx.text(), ctx.dirty.base}) {
      const std::string path = SegCachePath(segment.Digest());
      if (k.vfs().Resolve(k.vfs().RootState(), path, vfs::Follow::kAll, nullptr).ok()) {
        k.metrics().Inc("cache.seg.dump_hits");
        continue;  // the blob is already on this host's disk: nothing to ship
      }
      k.metrics().Inc("cache.seg.dump_misses");
      cache_blobs.emplace_back(path, segment);
    }
    k.metrics().Set("vm.dirty_pages.data", ctx.dirty.CountDataDirty());
    k.metrics().Set("vm.dirty_pages.stack", ctx.dirty.CountStackDirty());
  } else {
    vm::AoutImage image;
    image.text = ctx.text();
    image.data = ctx.data;
    image.header.entry = 0;  // entry is only used when executed as a fresh program
    image.header.machtype = machtype;
    aout_bytes = image.Serialize();
  }

  // --- filesXXXXX: user-level restart information.
  FilesFile files;
  files.host = k.hostname();
  files.cwd = p.u_cwd_path.empty() ? "/" : p.u_cwd_path;
  for (int fd = 0; fd < kernel::kNoFile; ++fd) {
    const kernel::OpenFilePtr& file = p.fds[static_cast<size_t>(fd)];
    FilesEntry& entry = files.entries[static_cast<size_t>(fd)];
    if (file == nullptr) {
      entry.kind = FilesEntry::Kind::kUnused;
    } else if (file->kind != kernel::FileKind::kInode) {
      // Pipes and sockets cannot be redirected to a migrated process (Section 7);
      // the dump records only that a socket-class descriptor was there.
      entry.kind = FilesEntry::Kind::kSocket;
    } else if (!file->name.has_value()) {
      // Without the 5.1 name tracking the kernel cannot say what this file is.
      entry.kind = FilesEntry::Kind::kUnused;
    } else {
      entry.kind = FilesEntry::Kind::kFile;
      entry.path = *file->name;
      entry.flags = file->flags;
      entry.offset = file->offset;
    }
  }
  if (p.controlling_tty != nullptr) {
    files.had_tty = true;
    files.tty_flags = p.controlling_tty->flags();
  }
  const std::string files_bytes = files.Serialize();

  // --- stackXXXXX: kernel-level restart information.
  StackFile stack;
  stack.creds = p.creds;
  stack.stack = ctx.StackContents();
  stack.cpu = ctx.cpu;
  stack.sig_dispositions = p.sig_dispositions;
  stack.sig_pending = p.sig_pending;
  stack.old_pid = p.pid;
  stack.old_host = k.hostname();
  stack.trace_id = p.trace_id;
  stack.command = p.command;
  const std::string stack_bytes = stack.Serialize();

  const DumpPaths paths = DumpPaths::For(p.pid);
  kernel::PreparedDump dump;
  dump.files.emplace_back(paths.aout, sim::Blob(std::move(aout_bytes)));
  dump.files.emplace_back(paths.files, sim::Blob(files_bytes));
  dump.files.emplace_back(paths.stack, sim::Blob(stack_bytes));
  for (auto& blob : cache_blobs) dump.files.push_back(std::move(blob));

  // Cost: like the SIGQUIT core-dump path but for each written file — assemble
  // the bytes, create a directory entry, push the blocks out. An incremental
  // dump's savings appear here as fewer bytes through DiskIo, nowhere else.
  const sim::CostModel& costs = k.costs();
  int64_t total_bytes = 0;
  for (const auto& [path, contents] : dump.files) {
    total_bytes += static_cast<int64_t>(contents.size());
    dump.cpu += 2 * costs.namei_component + costs.file_table_slot + costs.syscall_entry;
  }
  const auto io = costs.DiskIo(total_bytes);
  dump.cpu += io.cpu;
  dump.wait = io.wait;
  if (incremental) {
    // What a full dump of the same image would have written, minus what this
    // one actually writes (cache blobs included) — observation only.
    const int64_t full_total = full_equivalent +
                               static_cast<int64_t>(files_bytes.size()) +
                               static_cast<int64_t>(stack_bytes.size());
    if (full_total > total_bytes) {
      k.metrics().Inc("migration.bytes_saved", full_total - total_bytes);
    }
  }
  return dump;
}

}  // namespace pmig::core
