#include "src/apps/checkpoint.h"

#include "src/core/dump_format.h"
#include "src/core/tools.h"
#include "src/sim/bytes.h"
#include "src/sim/hash.h"

namespace pmig::apps {

namespace {

using core::DumpPaths;
using core::FilesEntry;
using core::FilesFile;
using core::ReadWholeFile;
using core::WriteWholeFile;

// The manifest format: the pid, then per slot {state, hash, source}. LoadMeta
// refuses any other magic with ENOEXEC.
constexpr uint32_t kMetaMagicV2 = 0776;

// Where a checkpointed open file's copy lives. State 1 = this checkpoint wrote
// the copy (at `source` == its own index); state 2 = content was identical to an
// earlier checkpoint's copy, so `source` names the checkpoint that holds it.
struct SlotRecord {
  uint8_t state = 0;  // 0 unused, 1 saved, 2 reused
  uint64_t hash = 0;
  int32_t source = 0;
};
using SlotArray = std::array<SlotRecord, kernel::kNoFile>;

Status CopyFile(kernel::SyscallApi& api, const std::string& src, const std::string& dst,
                uint16_t mode = 0600) {
  PMIG_TRY(std::string bytes, ReadWholeFile(api, src));
  return WriteWholeFile(api, dst, bytes, mode);
}

std::string CkptName(const std::string& dir, int index, const std::string& what) {
  return dir + "/" + std::to_string(index) + "." + what;
}

// Parses <dir>/<index>.meta: the content hash of each saved slot and where its
// copy actually lives.
Result<SlotArray> LoadMeta(kernel::SyscallApi& api, const std::string& dir, int index,
                           int32_t* pid_out) {
  const Result<std::string> meta_bytes = ReadWholeFile(api, CkptName(dir, index, "meta"));
  if (!meta_bytes.ok()) return meta_bytes.error();
  sim::ByteReader meta(*meta_bytes);
  if (meta.U32() != kMetaMagicV2) return Errno::kNoExec;
  const int32_t pid = meta.I32();
  SlotArray slots{};
  for (SlotRecord& rec : slots) {
    rec.state = meta.U8();
    rec.hash = meta.U64();
    rec.source = meta.I32();
  }
  if (!meta.ok()) return Errno::kNoExec;
  if (pid_out != nullptr) *pid_out = pid;
  return slots;
}

// The digests of the content-addressed segment blobs an a.out references: an
// incremental dump's text and its delta base. None for a full a.out.
Result<std::vector<uint64_t>> ReferencedSegments(const std::string& aout_bytes) {
  if (!core::IsIncrAout(aout_bytes)) return std::vector<uint64_t>{};
  PMIG_TRY(core::IncrAout incr, core::IncrAout::Parse(aout_bytes));
  return std::vector<uint64_t>{incr.text_digest, incr.base_digest};
}

// Archives the segment blobs an incremental dump references from
// /var/segcache into <dir>/seg.<hex>, so the checkpoint directory can be
// restored even after the cache is purged. Blobs are immutable and shared
// across checkpoints, so an existing copy is kept as-is.
Status ArchiveSegments(kernel::SyscallApi& api, const std::string& aout_bytes,
                       const std::string& dir) {
  PMIG_TRY(const std::vector<uint64_t> digests, ReferencedSegments(aout_bytes));
  for (uint64_t digest : digests) {
    const std::string dst = dir + "/seg." + sim::HexDigest(digest);
    if (api.Stat(dst).ok()) continue;
    PMIG_RETURN_IF_ERROR(CopyFile(api, core::SegCachePath(digest), dst));
  }
  return Status::Ok();
}

// The inverse: puts archived segment blobs back into /var/segcache so restart can
// reconstruct the incremental dump. Blobs already cached locally are left alone.
Status RestoreSegments(kernel::SyscallApi& api, const std::string& aout_bytes,
                       const std::string& dir) {
  PMIG_TRY(const std::vector<uint64_t> digests, ReferencedSegments(aout_bytes));
  for (uint64_t digest : digests) {
    const std::string cached = core::SegCachePath(digest);
    if (api.Stat(cached).ok()) continue;
    PMIG_RETURN_IF_ERROR(CopyFile(api, dir + "/seg." + sim::HexDigest(digest), cached, 0644));
  }
  return Status::Ok();
}

// Restarts the locally staged dump for `pid` and reports the restarted process's
// new pid (restart is overlaid by the program it restores).
Result<int32_t> RestartStagedDump(kernel::SyscallApi& api, int32_t pid) {
  PMIG_TRY(int32_t child,
           api.SpawnProgram("restart", {"-p", std::to_string(pid)}));
  PMIG_TRY(kernel::WaitResult wr, api.Wait());
  if (!wr.overlaid) return Errno::kNoExec;  // restart failed and exited
  (void)child;
  return wr.pid;
}

}  // namespace

Result<CheckpointResult> TakeCheckpoint(kernel::SyscallApi& api, int32_t pid,
                                        const std::string& dir, int index,
                                        bool incremental) {
  // Checkpointing runs under a distributed trace too: the checkpointer mints
  // an id on its first checkpoint and every dump span joins it.
  kernel::Proc& self = api.proc();
  if (self.trace_id == 0) self.trace_id = api.kernel().context().spans.MintTraceId();
  if (core::Dumpproc(api, pid, /*tx=*/false, incremental) != 0) return Errno::kSrch;
  const DumpPaths paths = DumpPaths::For(pid);

  PMIG_TRY(std::string files_bytes, ReadWholeFile(api, paths.files));
  PMIG_TRY(FilesFile files, FilesFile::Parse(files_bytes));

  // The previous checkpoint's manifest, if any: open files whose content has not
  // changed since then are recorded as reuses instead of being copied again.
  SlotArray prev{};
  if (index > 0) {
    const Result<SlotArray> loaded = LoadMeta(api, dir, index - 1, nullptr);
    if (loaded.ok()) prev = *loaded;
  }

  // Copy every open regular file so the checkpoint sees consistent file state
  // even if the live files change afterwards — except files bit-identical to the
  // previous checkpoint's copy, which only get a manifest entry.
  SlotArray slots{};
  for (int i = 0; i < kernel::kNoFile; ++i) {
    const FilesEntry& entry = files.entries[static_cast<size_t>(i)];
    if (entry.kind != FilesEntry::Kind::kFile) continue;
    const Result<kernel::StatInfo> info = api.Stat(entry.path);
    if (!info.ok() || info->type != vfs::InodeType::kRegular) continue;
    const Result<std::string> bytes = ReadWholeFile(api, entry.path);
    if (!bytes.ok()) continue;
    const uint64_t hash = sim::HashBytes(*bytes);
    SlotRecord& rec = slots[static_cast<size_t>(i)];
    const SlotRecord& was = prev[static_cast<size_t>(i)];
    if (was.state != 0 && was.hash == hash) {
      // Digest equality is a hint, not proof of identity: the digest is not
      // cryptographic (see hash.h), and the restore-time digest cannot catch a
      // collision either (colliding contents hash alike by definition).
      // Confirm against the prior copy's bytes.
      const Result<std::string> prior =
          ReadWholeFile(api, CkptName(dir, was.source, "open" + std::to_string(i)));
      if (prior.ok() && *prior == *bytes) {
        rec = {2, hash, was.source};
        continue;
      }
    }
    if (WriteWholeFile(api, CkptName(dir, index, "open" + std::to_string(i)), *bytes).ok()) {
      rec = {1, hash, index};
    }
  }

  // Move the three dump files into the managed directory (as copies, since the
  // staged originals are still needed to restart the process right away).
  PMIG_RETURN_IF_ERROR(WriteWholeFile(api, CkptName(dir, index, "files"), files_bytes));
  PMIG_TRY(std::string aout_bytes, ReadWholeFile(api, paths.aout));
  PMIG_RETURN_IF_ERROR(WriteWholeFile(api, CkptName(dir, index, "aout"), aout_bytes));
  PMIG_TRY(std::string stack_bytes, ReadWholeFile(api, paths.stack));
  PMIG_RETURN_IF_ERROR(WriteWholeFile(api, CkptName(dir, index, "stack"), stack_bytes));
  PMIG_RETURN_IF_ERROR(ArchiveSegments(api, aout_bytes, dir));

  sim::ByteWriter meta;
  meta.U32(kMetaMagicV2);
  meta.I32(pid);
  for (int i = 0; i < kernel::kNoFile; ++i) {
    const SlotRecord& rec = slots[static_cast<size_t>(i)];
    meta.U8(rec.state);
    meta.U64(rec.hash);
    meta.I32(rec.source);
  }
  PMIG_RETURN_IF_ERROR(WriteWholeFile(api, CkptName(dir, index, "meta"), meta.Take()));

  // The snapshot killed the process; bring it back on this machine.
  PMIG_TRY(int32_t new_pid, RestartStagedDump(api, pid));

  // Tidy the staging area.
  for (const std::string& p : {paths.aout, paths.files, paths.stack}) {
    const Status st = api.Unlink(p);
    (void)st;
  }
  CheckpointResult result;
  result.new_pid = new_pid;
  return result;
}

Result<int32_t> RestoreCheckpoint(kernel::SyscallApi& api, const std::string& dir, int index) {
  int32_t pid = 0;
  PMIG_TRY(SlotArray slots, LoadMeta(api, dir, index, &pid));

  PMIG_TRY(std::string files_bytes, ReadWholeFile(api, CkptName(dir, index, "files")));
  PMIG_TRY(FilesFile files, FilesFile::Parse(files_bytes));

  // Put the saved open-file copies back so the restored program sees the file
  // state as of the checkpoint. A reused slot's copy lives in the checkpoint that
  // originally wrote it.
  for (int i = 0; i < kernel::kNoFile; ++i) {
    const SlotRecord& rec = slots[static_cast<size_t>(i)];
    if (rec.state == 0) continue;
    const FilesEntry& entry = files.entries[static_cast<size_t>(i)];
    PMIG_RETURN_IF_ERROR(
        CopyFile(api, CkptName(dir, rec.source, "open" + std::to_string(i)), entry.path));
  }

  // Re-stage the dump files under the original pid and restart. A root-driven
  // restore stages them world-readable: restart drops to the owner's uid before
  // rest_proc() reads them. An incremental dump's segment blobs go back into
  // /var/segcache first so rest_proc() can reconstruct the image.
  const DumpPaths paths = DumpPaths::For(pid);
  PMIG_TRY(std::string aout_bytes, ReadWholeFile(api, CkptName(dir, index, "aout")));
  PMIG_RETURN_IF_ERROR(RestoreSegments(api, aout_bytes, dir));
  PMIG_RETURN_IF_ERROR(WriteWholeFile(api, paths.aout, aout_bytes, 0644));
  PMIG_RETURN_IF_ERROR(WriteWholeFile(api, paths.files, files_bytes, 0644));
  PMIG_RETURN_IF_ERROR(CopyFile(api, CkptName(dir, index, "stack"), paths.stack, 0644));
  return RestartStagedDump(api, pid);
}

int CheckpointDaemon(kernel::SyscallApi& api, const CheckpointdOptions& options) {
  int32_t current = options.pid;
  int taken = 0;
  for (int i = 0; i < options.count; ++i) {
    api.Sleep(options.interval);
    const Result<CheckpointResult> r =
        TakeCheckpoint(api, current, options.dir, i, options.incremental);
    if (!r.ok()) break;  // target exited (or checkpointing failed): stop
    current = r->new_pid;
    ++taken;
  }
  return taken;
}

}  // namespace pmig::apps
