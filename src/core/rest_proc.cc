#include "src/core/rest_proc.h"

#include <algorithm>

#include "src/core/dump_format.h"
#include "src/sim/blob.h"
#include "src/vfs/path.h"
#include "src/vm/aout.h"

namespace pmig::core {

namespace {

// Reads a whole dump file on behalf of `p`, enforcing read permission with the
// caller's (pre-restore) credentials — this is what makes only the owner or the
// superuser able to restart a process.
Result<std::string> ReadDumpFile(kernel::Kernel& k, kernel::Proc& p,
                                 const std::string& path) {
  vfs::CostSink* sink = p.api.get();
  PMIG_TRY(vfs::Vfs::Resolved r, k.vfs().Resolve(p.cwd, path, vfs::Follow::kAll, sink));
  if (!r.inode->IsRegular()) return Errno::kNoExec;
  if (!vfs::CheckAccess(*r.inode, p.creds.euid, vfs::kWantRead)) return Errno::kAcces;
  std::string bytes;
  k.vfs().ReadAt(*r.inode, 0, r.inode->size(), &bytes, sink);
  return bytes;
}

// Reads the a.out the way the modified execve() does: demand-paged, so only the
// header + first pages are charged synchronously.
Result<std::string> ReadAoutDemandPaged(kernel::Kernel& k, kernel::Proc& p,
                                        const std::string& path) {
  PMIG_TRY(vfs::Vfs::Resolved r,
           k.vfs().Resolve(p.cwd, path, vfs::Follow::kAll, p.api.get()));
  if (!r.inode->IsRegular()) return Errno::kNoExec;
  if (!vfs::CheckAccess(*r.inode, p.creds.euid, vfs::kWantRead)) return Errno::kAcces;
  std::string bytes;
  k.vfs().ReadAt(*r.inode, 0, r.inode->size(), &bytes, nullptr);
  const sim::CostModel& costs = k.costs();
  const int64_t prefetch = std::min<int64_t>(r.inode->size(), costs.exec_prefetch_bytes);
  const bool remote = k.vfs().InodeIsRemote(*r.inode);
  const auto io = remote ? costs.NetIo(prefetch) : costs.DiskIo(prefetch);
  k.ChargeCpu(p, io.cpu);
  k.ChargeWait(p, io.wait + (remote ? costs.nfs_rpc : costs.inode_fetch));
  return bytes;
}

// "/n/<host>" when `path` reaches through the NFS namespace, else "".
std::string NfsPrefixOf(const std::string& path) {
  if (path.rfind("/n/", 0) != 0) return "";
  const size_t slash = path.find('/', 3);
  return slash == std::string::npos ? path : path.substr(0, slash);
}

// Resolves a content-addressed segment: local cache first (demand-paged, like
// any local executable), then the dump host's cache over NFS (full transfer,
// write-through into the local cache). `kind` is "text" or "data" for the
// hit/miss counters; `nfs_prefix` is where the dump came from. The returned
// blob is the cache file's own, so an NFS fetch, its write-through and every
// later local hit share one set of bytes and hash them at most once.
Result<sim::Blob> FetchSegment(kernel::Kernel& k, kernel::Proc& p, uint64_t digest,
                               uint32_t expected_size, const std::string& nfs_prefix,
                               const char* kind) {
  vfs::CostSink* sink = p.api.get();
  const sim::CostModel& costs = k.costs();
  sim::MetricsRegistry& metrics = k.metrics();
  const std::string hit_name = std::string("cache.") + kind + ".hits";
  const std::string miss_name = std::string("cache.") + kind + ".misses";

  // 1. The local cache. A valid entry is mapped like an executable: only the
  // first pages are charged synchronously (the full-dump path reads its whole
  // a.out the same demand-paged way).
  const std::string local_path = SegCachePath(digest);
  auto local = k.vfs().Resolve(k.vfs().RootState(), local_path, vfs::Follow::kAll, nullptr);
  if (local.ok() && local->inode->IsRegular()) {
    sim::Blob bytes = k.vfs().ReadBlob(*local->inode, nullptr);
    if (bytes.size() == expected_size && bytes.Digest() == digest) {
      const int64_t prefetch =
          std::min<int64_t>(static_cast<int64_t>(bytes.size()), costs.exec_prefetch_bytes);
      const auto io = costs.DiskIo(prefetch);
      k.ChargeCpu(p, io.cpu);
      k.ChargeWait(p, io.wait + costs.inode_fetch);
      metrics.Inc(hit_name);
      return bytes;
    }
    // A blob that no longer hashes to its name is useless: drop it and refetch.
    k.vfs().SetupUnlink(local_path);
    metrics.Inc("cache.seg.corrupt");
  }
  metrics.Inc(miss_name);

  // 2. The dump host's cache over NFS. The whole blob crosses the wire (it must
  // be complete to validate and to populate the local cache).
  if (nfs_prefix.empty()) return Errno::kNoEnt;
  const std::string remote_path = SegCachePath(digest, nfs_prefix);
  PMIG_TRY(vfs::Vfs::Resolved remote,
           k.vfs().Resolve(p.cwd, remote_path, vfs::Follow::kAll, sink));
  if (!remote.inode->IsRegular()) return Errno::kNoEnt;
  if (!vfs::CheckAccess(*remote.inode, p.creds.euid, vfs::kWantRead)) return Errno::kAcces;
  PMIG_RETURN_IF_ERROR(k.vfs().InjectedIoFault(*remote.inode, /*write=*/false));
  sim::Blob bytes = k.vfs().ReadBlob(*remote.inode, sink);
  if (bytes.size() != expected_size || bytes.Digest() != digest) {
    return Errno::kNoExec;  // corrupted in the source cache: refuse, never guess
  }

  // 3. Write-through so the *next* restore of this segment hits locally. Pays
  // the full local disk cost; skipped (non-fatally) when the disk-full fault
  // window is open — the cache is an optimisation, not a correctness need.
  if (k.context().faults.DiskFull(k.hostname(), &metrics)) {
    metrics.Inc("cache.writethrough_failed");
  } else {
    k.vfs().SetupCreateFile(local_path, bytes, 0, 0644);
    const auto io = costs.DiskIo(static_cast<int64_t>(bytes.size()));
    k.ChargeCpu(p, io.cpu);
    k.ChargeWait(p, io.wait);
  }
  return bytes;
}

}  // namespace

Status RestProcImpl(kernel::Kernel& k, kernel::Proc& p, const std::string& aout_path,
                    const std::string& stack_path) {
  // 1. Open the stackXXXXX file, checking access permissions and the magic number.
  PMIG_TRY(std::string stack_bytes, ReadDumpFile(k, p, stack_path));
  PMIG_TRY(StackFile stack, StackFile::Parse(stack_bytes));
  if (stack.stack.size() > vm::kStackMax) return Errno::kNoExec;

  // 2. The executable (validated before we touch the caller's image). Loaded via
  // the modified execve(), i.e. demand-paged. An incremental dump references its
  // segments by digest; they are resolved from the local cache or the dump
  // host's cache, and the reconstruction is digest-checked end to end.
  PMIG_TRY(std::string aout_bytes, ReadAoutDemandPaged(k, p, aout_path));
  ReconstructedImage recon;
  if (IsIncrAout(aout_bytes)) {
    PMIG_TRY(IncrAout incr, IncrAout::Parse(aout_bytes));
    const std::string nfs_prefix = NfsPrefixOf(aout_path);
    PMIG_TRY(sim::Blob text,
             FetchSegment(k, p, incr.text_digest, incr.text_size, nfs_prefix, "text"));
    PMIG_TRY(sim::Blob base,
             FetchSegment(k, p, incr.base_digest, incr.full_size, nfs_prefix, "data"));
    PMIG_TRY(recon, ReconstructIncrAout(incr, std::move(text), std::move(base)));
  } else {
    PMIG_TRY(recon.image, vm::AoutImage::Parse(aout_bytes));
  }

  // 3. Set the global flag indicating process migration and the stack-size
  // variable, then 4. call execve() with a null environment. ("As the environment
  // of the old process was stored in its stack, it will be automatically restored
  // when the stack is read in.")
  k.SetRestProcExec(stack.stack_size());
  const kernel::ProcKind previous_kind = p.kind;
  p.kind = kernel::ProcKind::kVm;
  // A restored delta keeps its delta base stable across migrations: tracking
  // re-arms against the *original* base (already in every involved host's
  // cache) with the restored pages pre-marked dirty, so the next dump is again
  // a cumulative delta and never has to ship a new full-size base blob.
  const Status exec_status =
      k.OverlayVmImage(p, std::move(recon.image), {}, recon.delta ? &*recon.delta : nullptr);
  // 5. Reset the flag so that further calls to execve() work properly.
  k.ClearRestProcExec();
  if (!exec_status.ok()) {
    p.kind = previous_kind;
    if (previous_kind == kernel::ProcKind::kNative) p.vm.reset();
    return exec_status;
  }

  // 6. Set the user credentials to those already read.
  p.creds = stack.creds;

  // 7. Read in the contents of the stack and registers.
  p.vm->SetStackContents(stack.stack);
  p.vm->cpu = stack.cpu;
  k.ChargeCpu(p, static_cast<sim::Nanos>(stack.stack.size()) * k.costs().buffer_copy_per_byte);

  // 8. Read in the information on the disposition of signals.
  p.sig_dispositions = stack.sig_dispositions;
  p.sig_pending = stack.sig_pending;

  // 9. At this point, the process running is a copy of the old process.
  p.migrated = true;
  p.old_pid = stack.old_pid;
  p.old_host = stack.old_host;
  // Rejoin the trace the dump was taken under (a restart tool invoked outside
  // any trace — e.g. undump by hand — adopts the dump's id).
  if (p.trace_id == 0) p.trace_id = stack.trace_id;
  // A v4 dump carries the original command, so the migrant keeps its name; a
  // process that hops repeatedly stays e.g. "worker (migrated)", not a chain of
  // suffixes. Older dumps fall back to the dump-file basename.
  constexpr std::string_view kMigratedSuffix = " (migrated)";
  std::string base = stack.command.empty() ? vfs::Basename(aout_path) : stack.command;
  if (base.size() < kMigratedSuffix.size() ||
      base.compare(base.size() - kMigratedSuffix.size(), kMigratedSuffix.size(),
                   kMigratedSuffix) != 0) {
    base += kMigratedSuffix;
  }
  p.command = std::move(base);
  return Status::Ok();
}

}  // namespace pmig::core
