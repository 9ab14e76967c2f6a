// System-call implementations, the VM trap table, and the native SyscallApi.
//
// Layout: Kernel::Sys*() hold the semantics and cost charging, shared by both
// process kinds. The trap table (kVmSyscalls, one entry per vm::abi::kSyscalls
// entry) decodes the register convention for VM processes, and
// DispatchVmSyscall() does what every trap shares: the number check, the path
// copy-in, r0 and the epilogue. Blocking calls rewind and block — the 4.2BSD
// restartable-syscall behaviour that lets SIGDUMP hit a process blocked at its
// input prompt and still produce a restartable image. SyscallApi wraps the same
// calls for native (tool) processes, adding the yield/block handshake.

#include <algorithm>
#include <array>
#include <cassert>
#include <limits>

#include "src/kernel/kernel.h"
#include "src/vfs/path.h"

namespace pmig::kernel {

namespace {

using vm::abi::OpenFlags;

// Sun UNIX 3.0's off_t is 32 bits: no file grows past 2^31 - 1 bytes.
constexpr int64_t kMaxFileSize = std::numeric_limits<int32_t>::max();

Tty* AsTty(const vfs::Inode& inode) {
  if (!inode.IsDevice()) return nullptr;
  return dynamic_cast<Tty*>(inode.device);
}

bool IsNullDevice(const vfs::Inode& inode) {
  return inode.IsDevice() && dynamic_cast<NullDevice*>(inode.device) != nullptr;
}

// Kernel memory a tracked name holds: its bytes and NUL, or a whole slot.
int64_t NameBytesHeld(const KernelConfig& config, const std::string& name) {
  return config.name_storage == KernelConfig::NameStorage::kFixed
             ? config.fixed_name_bytes
             : static_cast<int64_t>(name.size()) + 1;
}

}  // namespace

// --- Name tracking (Section 5.1) -------------------------------------------------

void Kernel::TrackOpenName(Proc& p, OpenFile& file, std::string_view user_path) {
  if (!config_.track_names || file.kind != FileKind::kInode) return;
  std::string abs;
  if (vfs::IsAbsolute(user_path)) {
    abs = vfs::NormalizeAbsolute(user_path);
  } else {
    // "If the file name is a relative path name, its name is combined with the
    // name of the current working directory in the user structure."
    const std::string& cwd = p.u_cwd_path.empty() ? "/" : p.u_cwd_path;
    abs = vfs::Combine(cwd, user_path);
    ChargeCpu(p, costs_->name_combine);
  }
  // A fixed slot lives inside the file structure: nothing to allocate (or
  // free on close), only the copy into it.
  const bool fixed = config_.name_storage == KernelConfig::NameStorage::kFixed;
  if (!fixed) {
    ChargeCpu(p, costs_->kmem_alloc);
    metrics_.Inc("kernel.kmem_allocs");
  }
  ChargeCpu(p, static_cast<sim::Nanos>(abs.size() + 1) * costs_->name_copy_per_byte);
  metrics_.Inc("vfs.name_bytes_copied", static_cast<int64_t>(abs.size()) + 1);
  if (fixed && static_cast<int>(abs.size()) >= config_.fixed_name_bytes) {
    abs.resize(static_cast<size_t>(config_.fixed_name_bytes - 1));  // truncated!
  }
  HoldOpenName(file, std::move(abs));
}

void Kernel::ReleaseOpenName(Proc& p, OpenFile& file) {
  if (!file.name.has_value()) return;
  if (config_.track_names && config_.name_storage != KernelConfig::NameStorage::kFixed) {
    ChargeCpu(p, costs_->kmem_free);
  }
  stats_.name_bytes_current -= NameBytesHeld(config_, *file.name);
  file.name.reset();
}

void Kernel::HoldOpenName(OpenFile& file, std::string name) {
  ++stats_.name_allocs;
  stats_.name_bytes_current += NameBytesHeld(config_, name);
  stats_.name_bytes_peak = std::max(stats_.name_bytes_peak, stats_.name_bytes_current);
  file.name = std::move(name);
}

void Kernel::TrackChdirName(Proc& p, std::string_view user_path) {
  if (!config_.track_names) return;
  if (vfs::IsAbsolute(user_path)) {
    // "if the argument ... is an absolute path name, it is simply copied" (with
    // "." / ".." references resolved when path names are constructed).
    p.u_cwd_path = vfs::NormalizeAbsolute(user_path);
    ChargeCpu(p, static_cast<sim::Nanos>(user_path.size() + 1) * costs_->name_copy_per_byte);
    return;
  }
  // "the updating procedure being skipped if the field has not been yet
  // initialised" — initialisation happens via the first absolute chdir() at boot.
  if (p.u_cwd_path.empty()) return;
  p.u_cwd_path = vfs::Combine(p.u_cwd_path, user_path);
  ChargeCpu(p, costs_->name_combine);
  ChargeCpu(p, static_cast<sim::Nanos>(p.u_cwd_path.size() + 1) * costs_->name_copy_per_byte);
  metrics_.Inc("vfs.name_bytes_copied", static_cast<int64_t>(p.u_cwd_path.size()) + 1);
}

// --- File syscalls ----------------------------------------------------------------

Result<int> Kernel::SysOpen(Proc& p, std::string_view path, int32_t flags, uint16_t mode) {
  vfs::CostSink* sink = p.api.get();
  const int fd = p.FreeFdSlot();
  if (fd < 0) return Errno::kMFile;

  // "/dev/tty" names the controlling terminal of the caller.
  if (path == "/dev/tty") {
    if (p.controlling_tty == nullptr) return Errno::kNoDev;
    auto file = std::make_shared<OpenFile>();
    file->kind = FileKind::kInode;
    file->inode = tty_nodes_.at(p.controlling_tty);
    file->flags = flags;
    ChargeCpu(p, costs_->file_table_slot);
    TrackOpenName(p, *file, path);
    InstallFd(p, fd, file);
    return fd;
  }

  vfs::InodePtr inode;
  if ((flags & OpenFlags::kOCreat) != 0) {
    PMIG_TRY(vfs::Vfs::ResolvedParent rp, vfs_->ResolveParent(p.cwd, path, sink));
    if (rp.existing != nullptr && !rp.existing->IsSymlink()) {
      if ((flags & OpenFlags::kOExcl) != 0) return Errno::kExist;
      inode = rp.existing;
    } else if (rp.existing != nullptr) {
      // Existing symlink: open its target (creating it if absent is not
      // supported; follow and require existence like 4.2BSD namei did).
      PMIG_TRY(vfs::Vfs::Resolved r, vfs_->Resolve(p.cwd, path, vfs::Follow::kAll, sink));
      inode = r.inode;
    } else {
      if (!vfs::CheckAccess(*rp.dir, p.creds.euid, vfs::kWantWrite)) return Errno::kAcces;
      PMIG_RETURN_IF_ERROR(vfs_->InjectedIoFault(*rp.dir, /*write=*/true));
      vfs::Filesystem* owner = rp.dir->fs;
      inode = owner->NewRegular(p.creds.euid, mode);
      PMIG_RETURN_IF_ERROR(owner->Link(rp.dir, rp.name, inode));
      ChargeCpu(p, costs_->file_table_slot);
    }
  } else {
    PMIG_TRY(vfs::Vfs::Resolved r, vfs_->Resolve(p.cwd, path, vfs::Follow::kAll, sink));
    inode = r.inode;
  }

  auto file = std::make_shared<OpenFile>();
  file->kind = FileKind::kInode;
  file->inode = inode;
  file->flags = flags;

  if (inode->IsDir() && file->writable()) return Errno::kIsDir;
  if (file->readable() && !vfs::CheckAccess(*inode, p.creds.euid, vfs::kWantRead)) {
    return Errno::kAcces;
  }
  if (file->writable() && !vfs::CheckAccess(*inode, p.creds.euid, vfs::kWantWrite)) {
    return Errno::kAcces;
  }
  if ((flags & OpenFlags::kOTrunc) != 0 && inode->IsRegular() && file->writable()) {
    PMIG_RETURN_IF_ERROR(vfs_->Truncate(*inode, 0, sink));
  }
  ChargeCpu(p, costs_->file_table_slot);
  // Cold in-core inode fetch: a disk read locally, an NFS RPC remotely. (No inode
  // cache is modelled; every successful open pays.)
  ChargeWait(p, vfs_->InodeIsRemote(*inode) ? costs_->nfs_rpc : costs_->inode_fetch);
  TrackOpenName(p, *file, path);
  InstallFd(p, fd, std::move(file));
  return fd;
}

Result<int> Kernel::SysCreat(Proc& p, std::string_view path, uint16_t mode) {
  // "the creat() system call simply calls the same internal routine that open()
  // calls, with slightly different arguments" (Section 6.1).
  return SysOpen(p, path, OpenFlags::kOWrOnly | OpenFlags::kOCreat | OpenFlags::kOTrunc, mode);
}

Status Kernel::SysClose(Proc& p, int fd) {
  PMIG_TRY(OpenFilePtr file, FdGet(p, fd));
  p.fds[static_cast<size_t>(fd)] = nullptr;
  if (--file->refcount == 0) {
    ReleaseOpenName(p, *file);
    if (file->channel != nullptr) {
      if (file->write_end) {
        file->channel->write_open = false;
      } else {
        file->channel->read_open = false;
      }
    }
  }
  return Status::Ok();
}

Result<std::string> Kernel::SysRead(Proc& p, int fd, int64_t max) {
  PMIG_TRY(OpenFilePtr file, FdGet(p, fd));
  if (!file->readable()) return Errno::kBadF;

  if (file->kind == FileKind::kPipe || file->kind == FileKind::kSocket) {
    Channel& ch = *file->channel;
    if (ch.buffer.empty()) {
      if (ch.write_open) return Errno::kAgain;  // caller blocks
      return std::string();                     // EOF
    }
    // A count <= 0 takes nothing, like the file and tty branches.
    const int64_t n = std::clamp<int64_t>(max, 0, static_cast<int64_t>(ch.buffer.size()));
    std::string out = ch.buffer.substr(0, static_cast<size_t>(n));
    ch.buffer.erase(0, static_cast<size_t>(n));
    ChargeCpu(p, n * costs_->buffer_copy_per_byte);
    return out;
  }

  vfs::Inode& inode = *file->inode;
  if (inode.IsDir()) return Errno::kIsDir;
  if (inode.IsRegular()) {
    PMIG_RETURN_IF_ERROR(vfs_->InjectedIoFault(inode, /*write=*/false));
    std::string out;
    const int64_t n = vfs_->ReadAt(inode, file->offset, max, &out, p.api.get());
    file->offset += n;
    return out;
  }
  if (IsNullDevice(inode)) return std::string();  // EOF
  if (Tty* tty = AsTty(inode); tty != nullptr) {
    if (!tty->InputReady()) return Errno::kAgain;  // caller blocks
    std::string out = tty->ConsumeInput(max);
    ChargeCpu(p, static_cast<sim::Nanos>(out.size()) * costs_->buffer_copy_per_byte);
    return out;
  }
  return Errno::kIo;
}

Result<int64_t> Kernel::SysWrite(Proc& p, int fd, std::string_view data) {
  PMIG_TRY(OpenFilePtr file, FdGet(p, fd));
  if (!file->writable()) return Errno::kBadF;

  if (file->kind == FileKind::kPipe || file->kind == FileKind::kSocket) {
    Channel& ch = *file->channel;
    if (!ch.read_open) {
      const Status st = PostSignal(p.pid, vm::abi::kSigPipe, &p);
      (void)st;
      return Errno::kPipe;
    }
    ch.buffer.append(data);
    ChargeCpu(p, static_cast<sim::Nanos>(data.size()) * costs_->buffer_copy_per_byte);
    return static_cast<int64_t>(data.size());
  }

  vfs::Inode& inode = *file->inode;
  if (inode.IsDir()) return Errno::kIsDir;
  if (inode.IsRegular()) {
    PMIG_RETURN_IF_ERROR(vfs_->InjectedIoFault(inode, /*write=*/true));
    if ((file->flags & OpenFlags::kOAppend) != 0) file->offset = inode.size();
    if (file->offset > kMaxFileSize - static_cast<int64_t>(data.size())) return Errno::kFBig;
    const int64_t n = vfs_->WriteAt(inode, file->offset, data, p.api.get());
    file->offset += n;
    return n;
  }
  if (IsNullDevice(inode)) return static_cast<int64_t>(data.size());
  if (Tty* tty = AsTty(inode); tty != nullptr) {
    tty->AppendOutput(data);
    ChargeCpu(p, static_cast<sim::Nanos>(data.size()) * costs_->buffer_copy_per_byte);
    return static_cast<int64_t>(data.size());
  }
  return Errno::kIo;
}

Result<int64_t> Kernel::SysLseek(Proc& p, int fd, int64_t offset, int whence) {
  PMIG_TRY(OpenFilePtr file, FdGet(p, fd));
  if (file->kind != FileKind::kInode || !file->inode->IsRegular()) return Errno::kSPipe;
  int64_t base = 0;
  switch (whence) {
    case vm::abi::kSeekSet:
      base = 0;
      break;
    case vm::abi::kSeekCur:
      base = file->offset;
      break;
    case vm::abi::kSeekEnd:
      base = file->inode->size();
      break;
    default:
      return Errno::kInval;
  }
  // base >= 0, so only a positive offset can overflow.
  if (offset > std::numeric_limits<int64_t>::max() - base) return Errno::kInval;
  const int64_t pos = base + offset;
  if (pos < 0) return Errno::kInval;
  file->offset = pos;
  return pos;
}

Result<int> Kernel::SysDup(Proc& p, int fd) {
  PMIG_TRY(OpenFilePtr file, FdGet(p, fd));
  const int nfd = p.FreeFdSlot();
  if (nfd < 0) return Errno::kMFile;
  ChargeCpu(p, costs_->file_table_slot);
  InstallFd(p, nfd, std::move(file));
  return nfd;
}

Result<std::pair<int, int>> Kernel::SysPipe(Proc& p) {
  auto channel = std::make_shared<Channel>();
  const int rfd = p.FreeFdSlot();
  if (rfd < 0) return Errno::kMFile;
  InstallFd(p, rfd, MakeChannelFile(channel, /*write_end=*/false, FileKind::kPipe));
  const int wfd = p.FreeFdSlot();
  if (wfd < 0) {
    const Status st = SysClose(p, rfd);
    (void)st;
    return Errno::kMFile;
  }
  InstallFd(p, wfd, MakeChannelFile(channel, /*write_end=*/true, FileKind::kPipe));
  ChargeCpu(p, 2 * costs_->file_table_slot);
  return std::make_pair(rfd, wfd);
}

Result<std::pair<int, int>> Kernel::SysSocket(Proc& p) {
  // A connected local socket pair — just enough for a process to *have* sockets in
  // its open-file table, which is what the migration limitation is about.
  auto channel = std::make_shared<Channel>();
  const int afd = p.FreeFdSlot();
  if (afd < 0) return Errno::kMFile;
  InstallFd(p, afd, MakeChannelFile(channel, /*write_end=*/false, FileKind::kSocket));
  const int bfd = p.FreeFdSlot();
  if (bfd < 0) {
    const Status st = SysClose(p, afd);
    (void)st;
    return Errno::kMFile;
  }
  InstallFd(p, bfd, MakeChannelFile(channel, /*write_end=*/true, FileKind::kSocket));
  ChargeCpu(p, 2 * costs_->file_table_slot);
  return std::make_pair(afd, bfd);
}

// --- Directory / name syscalls ---------------------------------------------------

Status Kernel::SysChdir(Proc& p, std::string_view path) {
  PMIG_TRY(vfs::Vfs::Resolved r, vfs_->Resolve(p.cwd, path, vfs::Follow::kAll, p.api.get()));
  if (!r.inode->IsDir()) return Errno::kNotDir;
  if (!vfs::CheckAccess(*r.inode, p.creds.euid, vfs::kWantExec)) return Errno::kAcces;
  p.cwd = r.state;
  TrackChdirName(p, path);
  return Status::Ok();
}

Result<std::string> Kernel::SysGetCwd(Proc& p) {
  // Only the modified kernel can answer this directly (Section 5.1); the stock
  // kernel's getwd() was a user-level library crawl we do not model.
  if (!config_.track_names) return Errno::kInval;
  ChargeCpu(p, static_cast<sim::Nanos>(p.u_cwd_path.size() + 1) * costs_->buffer_copy_per_byte);
  return p.u_cwd_path.empty() ? std::string("/") : p.u_cwd_path;
}

Result<std::string> Kernel::SysReadlink(Proc& p, std::string_view path) {
  return vfs_->Readlink(p.cwd, path, p.api.get());
}

Result<StatInfo> Kernel::SysStat(Proc& p, std::string_view path, bool follow) {
  PMIG_TRY(vfs::Vfs::Resolved r,
           vfs_->Resolve(p.cwd, path, follow ? vfs::Follow::kAll : vfs::Follow::kNotLast,
                         p.api.get()));
  StatInfo info;
  info.type = r.inode->type;
  info.ino = r.inode->ino;
  info.uid = r.inode->uid;
  info.mode = r.inode->mode;
  info.size = r.inode->size();
  info.is_tty = AsTty(*r.inode) != nullptr;
  info.remote = vfs_->InodeIsRemote(*r.inode);
  return info;
}

Result<std::vector<std::string>> Kernel::SysReadDir(Proc& p,
                                                    std::string_view path) {
  PMIG_TRY(vfs::Vfs::Resolved r,
           vfs_->Resolve(p.cwd, path, vfs::Follow::kAll, p.api.get()));
  if (!r.inode->IsDir()) return Errno::kNotDir;
  if (!vfs::CheckAccess(*r.inode, p.creds.euid, vfs::kWantRead)) {
    return Errno::kAcces;
  }
  std::vector<std::string> names;
  names.reserve(r.inode->entries.size());
  size_t bytes = 0;
  for (const auto& [name, child] : r.inode->entries) {
    names.push_back(name);
    bytes += name.size() + 1;
  }
  ChargeCpu(p, static_cast<sim::Nanos>(bytes) * costs_->buffer_copy_per_byte);
  return names;
}

Status Kernel::SysUnlink(Proc& p, std::string_view path) {
  PMIG_TRY(vfs::Vfs::ResolvedParent rp, vfs_->ResolveParent(p.cwd, path, p.api.get()));
  if (rp.existing == nullptr) return Errno::kNoEnt;
  if (rp.existing->IsDir()) return Errno::kIsDir;  // directories go through rmdir()
  if (!vfs::CheckAccess(*rp.dir, p.creds.euid, vfs::kWantWrite)) return Errno::kAcces;
  ChargeCpu(p, costs_->file_table_slot);
  return rp.dir->fs->Unlink(rp.dir, rp.name);
}

Status Kernel::SysLink(Proc& p, std::string_view oldpath, std::string_view newpath) {
  vfs::CostSink* sink = p.api.get();
  PMIG_TRY(vfs::Vfs::Resolved old, vfs_->Resolve(p.cwd, oldpath, vfs::Follow::kAll, sink));
  if (old.inode->IsDir()) return Errno::kIsDir;
  PMIG_TRY(vfs::Vfs::ResolvedParent rp, vfs_->ResolveParent(p.cwd, newpath, sink));
  if (rp.existing != nullptr) return Errno::kExist;
  if (!vfs::CheckAccess(*rp.dir, p.creds.euid, vfs::kWantWrite)) return Errno::kAcces;
  if (old.inode->fs != rp.dir->fs) return Errno::kXDev;  // NFS: no cross-machine links
  ChargeCpu(p, costs_->file_table_slot);
  return rp.dir->fs->Link(rp.dir, rp.name, old.inode);
}

Status Kernel::SysMkdir(Proc& p, std::string_view path, uint16_t mode) {
  PMIG_TRY(vfs::Vfs::ResolvedParent rp, vfs_->ResolveParent(p.cwd, path, p.api.get()));
  if (rp.existing != nullptr) return Errno::kExist;
  if (!vfs::CheckAccess(*rp.dir, p.creds.euid, vfs::kWantWrite)) return Errno::kAcces;
  vfs::Filesystem* owner = rp.dir->fs;
  vfs::InodePtr dir = owner->NewDirectory(p.creds.euid, mode);
  ChargeCpu(p, costs_->file_table_slot);
  return owner->Link(rp.dir, rp.name, dir);
}

Status Kernel::SysRmdir(Proc& p, std::string_view path) {
  PMIG_TRY(vfs::Vfs::ResolvedParent rp, vfs_->ResolveParent(p.cwd, path, p.api.get()));
  if (rp.existing == nullptr) return Errno::kNoEnt;
  // Mount points must be tested on the covering (local) inode — `existing` has
  // already been substituted with the mounted-on root.
  if (auto raw = rp.dir->entries.find(rp.name);
      raw != rp.dir->entries.end() && vfs_->IsMountPoint(*raw->second)) {
    return Errno::kPerm;
  }
  if (!rp.existing->IsDir()) return Errno::kNotDir;
  if (!rp.existing->entries.empty()) return Errno::kExist;  // 4.3BSD: ENOTEMPTY≈EEXIST
  if (!vfs::CheckAccess(*rp.dir, p.creds.euid, vfs::kWantWrite)) return Errno::kAcces;
  ChargeCpu(p, costs_->file_table_slot);
  return rp.dir->fs->Unlink(rp.dir, rp.name);
}

Status Kernel::SysRename(Proc& p, std::string_view oldpath, std::string_view newpath) {
  vfs::CostSink* sink = p.api.get();
  PMIG_TRY(vfs::Vfs::ResolvedParent from, vfs_->ResolveParent(p.cwd, oldpath, sink));
  if (from.existing == nullptr) return Errno::kNoEnt;
  PMIG_TRY(vfs::Vfs::ResolvedParent to, vfs_->ResolveParent(p.cwd, newpath, sink));
  if (!vfs::CheckAccess(*from.dir, p.creds.euid, vfs::kWantWrite)) return Errno::kAcces;
  if (!vfs::CheckAccess(*to.dir, p.creds.euid, vfs::kWantWrite)) return Errno::kAcces;
  if (from.dir->fs != to.dir->fs) return Errno::kXDev;
  if (to.existing == from.existing) return Status::Ok();
  if (to.existing != nullptr) {
    // Replace: the target must be removable (directories only over empty dirs).
    if (to.existing->IsDir() && !from.existing->IsDir()) return Errno::kIsDir;
    if (!to.existing->IsDir() && from.existing->IsDir()) return Errno::kNotDir;
    if (to.existing->IsDir() && !to.existing->entries.empty()) return Errno::kExist;
    PMIG_RETURN_IF_ERROR(to.dir->fs->Unlink(to.dir, to.name));
  }
  PMIG_RETURN_IF_ERROR(to.dir->fs->Link(to.dir, to.name, from.existing));
  ChargeCpu(p, 2 * costs_->file_table_slot);
  return from.dir->fs->Unlink(from.dir, from.name);
}

// --- Process syscalls ------------------------------------------------------------

Status Kernel::SysKill(Proc& p, int32_t pid, int signo) {
  Proc* target = FindProc(pid);
  if (target == nullptr || !target->Alive()) return Errno::kSrch;
  // "only the superuser or the owner of the process" may signal it.
  if (!p.creds.IsSuperuser() && p.creds.uid != target->creds.uid &&
      p.creds.euid != target->creds.uid) {
    return Errno::kPerm;
  }
  ChargeCpu(p, costs_->signal_post);
  return PostSignal(pid, signo, &p);
}

Status Kernel::SysSetDumpMode(Proc& p, int32_t pid, bool incremental) {
  Proc* target = FindProc(pid);
  if (target == nullptr || !target->Alive()) return Errno::kSrch;
  // Same rule as kill(): only the superuser or the owner may change dump mode.
  if (!p.creds.IsSuperuser() && p.creds.uid != target->creds.uid &&
      p.creds.euid != target->creds.uid) {
    return Errno::kPerm;
  }
  if (incremental) {
    // An incremental dump needs the dirty bitmaps armed at exec time.
    if (target->kind != ProcKind::kVm || target->vm == nullptr ||
        !target->vm->dirty.armed) {
      return Errno::kNoExec;
    }
  }
  target->dump_incremental = incremental;
  return Status::Ok();
}

Result<bool> Kernel::SysDumpFailed(Proc& p, int32_t pid) {
  Proc* target = FindProc(pid);
  if (target == nullptr || !target->Alive()) return Errno::kSrch;
  // Same visibility rule as setdumpmode(): superuser or owner only.
  if (!p.creds.IsSuperuser() && p.creds.uid != target->creds.uid &&
      p.creds.euid != target->creds.uid) {
    return Errno::kPerm;
  }
  return target->dump_failed;
}

Status Kernel::SysSetReUid(Proc& p, int32_t ruid, int32_t euid) {
  if (!p.creds.IsSuperuser()) {
    const bool ruid_ok = ruid == -1 || ruid == p.creds.uid || ruid == p.creds.euid;
    const bool euid_ok = euid == -1 || euid == p.creds.uid || euid == p.creds.euid;
    if (!ruid_ok || !euid_ok) return Errno::kPerm;
  }
  if (ruid != -1) p.creds.uid = ruid;
  if (euid != -1) p.creds.euid = euid;
  return Status::Ok();
}

Status Kernel::SysSignal(Proc& p, int signo, SignalDisposition disposition) {
  if (signo <= 0 || signo >= vm::abi::kNSig) return Errno::kInval;
  if (signo == vm::abi::kSigKill || signo == vm::abi::kSigDump) return Errno::kInval;
  p.sig_dispositions[static_cast<size_t>(signo)] = disposition;
  return Status::Ok();
}

Result<uint16_t> Kernel::SysTtyGet(Proc& p, int fd) {
  PMIG_TRY(OpenFilePtr file, FdGet(p, fd));
  if (file->kind != FileKind::kInode) return Errno::kNoTty;
  Tty* tty = AsTty(*file->inode);
  if (tty == nullptr) return Errno::kNoTty;
  ChargeCpu(p, costs_->tty_ioctl);
  return tty->flags();
}

Status Kernel::SysTtySet(Proc& p, int fd, uint16_t flags) {
  PMIG_TRY(OpenFilePtr file, FdGet(p, fd));
  if (file->kind != FileKind::kInode) return Errno::kNoTty;
  Tty* tty = AsTty(*file->inode);
  if (tty == nullptr) return Errno::kNoTty;
  ChargeCpu(p, costs_->tty_ioctl);
  tty->set_flags(flags);
  return Status::Ok();
}

Result<int32_t> Kernel::SysFork(Proc& p) {
  if (p.kind != ProcKind::kVm) return Errno::kInval;  // tools spawn, they don't fork
  SpawnOptions opts;
  opts.creds = p.creds;
  opts.tty = p.controlling_tty;
  opts.ppid = p.pid;
  opts.stdio_on_tty = false;  // fds are copied from the parent below
  Proc& child = NewProc(p.command, ProcKind::kVm, opts);
  child.cwd = p.cwd;
  child.u_cwd_path = p.u_cwd_path;
  child.sig_dispositions = p.sig_dispositions;
  for (int fd = 0; fd < kNoFile; ++fd) {
    OpenFilePtr file = p.fds[static_cast<size_t>(fd)];
    if (file != nullptr) InstallFd(child, fd, file);
  }
  child.vm = std::make_unique<vm::VmContext>(*p.vm);
  child.vm->cpu.regs[0] = 0;  // fork() returns 0 in the child

  ChargeCpu(p, costs_->fork_overhead);
  ChargeCpu(p, static_cast<sim::Nanos>(p.vm->data.size() + p.vm->StackSize()) *
                   costs_->buffer_copy_per_byte);
  return child.pid;
}

Status Kernel::SysExecve(Proc& p, std::string_view path, const std::vector<std::string>& args) {
  if (p.kind != ProcKind::kVm) return Errno::kInval;
  const sim::Nanos cpu0 = p.stime + p.utime;
  const sim::Nanos wait0 = p.pending_wait;

  PMIG_TRY(vfs::Vfs::Resolved r, vfs_->Resolve(p.cwd, path, vfs::Follow::kAll, p.api.get()));
  if (!r.inode->IsRegular()) return Errno::kAcces;
  if (!vfs::CheckAccess(*r.inode, p.creds.euid, vfs::kWantRead)) return Errno::kAcces;
  // exec() demand-pages the image: only the header + first pages are read
  // synchronously; the rest faults in as the program runs (not modelled as cost).
  std::string bytes;
  vfs_->ReadAt(*r.inode, 0, r.inode->size(), &bytes, nullptr);
  const int64_t prefetch = std::min<int64_t>(r.inode->size(), costs_->exec_prefetch_bytes);
  const bool remote = vfs_->InodeIsRemote(*r.inode);
  const auto io = remote ? costs_->NetIo(prefetch) : costs_->DiskIo(prefetch);
  ChargeCpu(p, io.cpu);
  ChargeWait(p, io.wait + (remote ? costs_->nfs_rpc : costs_->inode_fetch));
  PMIG_TRY(vm::AoutImage image, vm::AoutImage::Parse(bytes));
  PMIG_RETURN_IF_ERROR(OverlayVmImage(p, std::move(image), args));
  p.command = vfs::Basename(path);

  timers_.execve.cpu = (p.stime + p.utime) - cpu0;
  timers_.execve.real = timers_.execve.cpu + (p.pending_wait - wait0);
  timers_.execve.valid = true;
  return Status::Ok();
}

Status Kernel::SysRestProc(Proc& p, std::string_view aout_path, std::string_view stack_path) {
  if (!hooks_.rest_proc) return Errno::kInval;
  const sim::Nanos cpu0 = p.stime + p.utime;
  const sim::Nanos wait0 = p.pending_wait;
  const Status st = hooks_.rest_proc(*this, p, std::string(aout_path), std::string(stack_path));
  if (st.ok()) {
    timers_.rest_proc.cpu = (p.stime + p.utime) - cpu0;
    timers_.rest_proc.real = timers_.rest_proc.cpu + (p.pending_wait - wait0);
    timers_.rest_proc.valid = true;
    metrics_.Inc("migration.restarts");
    metrics_.Observe("migration.restart_ns", timers_.rest_proc.real);
    ctx_.health_monitor.Observe(hostname_, "migration.restart_ns",
                                static_cast<double>(timers_.rest_proc.real));
    NoteEvent(p.pid, "rest_proc restored image from " + std::string(aout_path));
    // Let the I/O wait of reading the dump files elapse before the restored
    // program runs.
    SettlePendingWait(p);
  }
  return st;
}

// --- Wait / reaping ---------------------------------------------------------------

Result<WaitResult> Kernel::TryWait(Proc& p) {
  bool any_child = false;
  for (Proc* q : live_) {
    if (q->ppid != p.pid || q->state == ProcState::kDead) continue;
    if (q->state == ProcState::kZombie) {
      q->state = ProcState::kDead;
      WaitResult wr;
      wr.pid = q->pid;
      wr.info = q->exit_info;
      return wr;
    }
    if (q->overlaid) {
      // rest_proc() overlaid this child; for the waiting parent it "completed".
      q->ppid = 0;
      q->overlaid = false;
      WaitResult wr;
      wr.pid = q->pid;
      wr.overlaid = true;
      return wr;
    }
    any_child = true;
  }
  if (!any_child) return Errno::kChild;
  return Errno::kAgain;
}

std::function<bool()> Kernel::MakeReadCheck(Proc& p, int fd) {
  auto file_or = FdGet(p, fd);
  if (!file_or.ok()) {
    return [] { return true; };
  }
  OpenFilePtr file = *file_or;
  if (file->kind == FileKind::kPipe || file->kind == FileKind::kSocket) {
    std::shared_ptr<Channel> ch = file->channel;
    return [ch] { return !ch->buffer.empty() || !ch->write_open; };
  }
  if (file->kind == FileKind::kInode) {
    if (Tty* tty = AsTty(*file->inode); tty != nullptr) {
      return [tty] { return tty->InputReady(); };
    }
  }
  return [] { return true; };
}

// --- VM trap dispatch --------------------------------------------------------------

void Kernel::RunVmProc(Proc& p) {
  while (p.state == ProcState::kRunnable && quantum_left_ > 0) {
    // Deliver pending caught signals to the user handler: push the resume pc and
    // jump. The handler returns with RET.
    if (p.sig_pending != 0) {
      for (int signo = 1; signo < vm::abi::kNSig; ++signo) {
        const uint64_t bit = uint64_t{1} << signo;
        if ((p.sig_pending & bit) == 0) continue;
        const SignalDisposition& d = p.sig_dispositions[static_cast<size_t>(signo)];
        if (d.action != SignalDisposition::Action::kCatch) continue;
        p.sig_pending &= ~bit;
        vm::CpuState& cpu = p.vm->cpu;
        if (cpu.sp < vm::kStackBase + 8) {
          VmFault(p, vm::Fault::kStackOverflow);
          return;
        }
        cpu.sp -= 8;
        if (!p.vm->WriteU64(cpu.sp, cpu.pc)) {
          VmFault(p, vm::Fault::kBadAddress);
          return;
        }
        cpu.pc = d.handler;
        ChargeCpu(p, costs_->signal_post);
      }
    }
    const int64_t steps = quantum_left_ / costs_->instruction;
    if (steps <= 0) break;
    vm::Cpu cpu(config_.isa);
    const vm::StopReason reason = cpu.Run(*p.vm, steps);
    const sim::Nanos used = cpu.steps_executed() * costs_->instruction;
    p.utime += used;
    quantum_left_ -= used;
    instructions_metric_.Inc(cpu.steps_executed());
    if (reason == vm::StopReason::kSyscall) {
      ++stats_.syscalls;
      ChargeCpu(p, costs_->syscall_entry);
      if (!DispatchVmSyscall(p, cpu.last_syscall())) break;
    } else if (reason == vm::StopReason::kFault) {
      VmFault(p, cpu.last_fault());
      break;
    }
  }
}

namespace {

// A trap as its handler sees it: the caller, its registers, and the path
// arguments the dispatcher copied in.
struct Trap {
  Proc& p;
  vm::VmContext& ctx;
  int64_t* r;  // r0..r3: the arguments; the dispatcher sets r0 from the handler
  std::string path[2];

  int Int(int i) const { return static_cast<int>(r[i]); }
  uint32_t Addr(int i) const { return static_cast<uint32_t>(r[i]); }
};

// A handler returns r0 (a value, or -errno) or one of these.
// The call loaded a new image, whose registers r0 belongs to.
constexpr int64_t kNewImage = std::numeric_limits<int64_t>::min();
// The process exited, blocked or went to sleep: stop running it, settle nothing.
constexpr int64_t kOffCpu = kNewImage + 1;

int64_t R0(Errno e) { return -static_cast<int64_t>(e); }
int64_t R0(const Status& st) { return st.ok() ? 0 : R0(st.error()); }
template <typename T>
int64_t R0(const Result<T>& result) {
  return result.ok() ? static_cast<int64_t>(*result) : R0(result.error());
}

// Rewinds the pc onto the SYS instruction and blocks until `ready`: the call
// runs again from the start when the process wakes (a restartable syscall).
int64_t Block(Kernel& k, Trap& t, std::function<bool()> ready) {
  t.ctx.cpu.pc -= vm::kInstrBytes;
  k.BlockProc(t.p, std::move(ready));
  return kOffCpu;
}

// pipe() and socket() return their two fds in r0 and r1.
int64_t FdPair(Trap& t, const Result<std::pair<int, int>>& fds) {
  if (!fds.ok()) return R0(fds.error());
  t.r[1] = fds->second;
  return fds->first;
}

// Copies `s` and a NUL into the buffer of r1 bytes at r0.
int64_t CopyOutCString(Trap& t, std::string_view s) {
  const bool fits = static_cast<int64_t>(s.size()) + 1 <= t.r[1];
  return fits && t.ctx.WriteCString(t.Addr(0), s) ? 0 : R0(Errno::kFault);
}

struct VmSyscall {
  std::string_view name;  // its vm::abi::kSyscalls entry
  int paths;              // r0 .. r(paths-1) are path strings, copied in first
  int64_t (*fn)(Kernel&, Trap&);
};

constexpr VmSyscall kVmSyscalls[] = {
    {"exit", 0,
     [](Kernel& k, Trap& t) {
       k.TerminateProc(t.p, ExitInfo{.exit_code = t.Int(0)});
       return kOffCpu;
     }},
    {"fork", 0, [](Kernel& k, Trap& t) { return R0(k.SysFork(t.p)); }},
    {"read", 0,
     [](Kernel& k, Trap& t) {
       // The buffer is checked before SysRead consumes anything, so a bad one
       // cannot drain a pipe or move the offset. Text is unmapped, so the
       // readable range is the writable one.
       const int64_t count = std::max<int64_t>(t.r[2], 0);
       if (!t.ctx.Readable(t.Addr(1), static_cast<uint64_t>(count))) return R0(Errno::kFault);
       const Result<std::string> out = k.SysRead(t.p, t.Int(0), t.r[2]);
       if (out.error() == Errno::kAgain) return Block(k, t, k.MakeReadCheck(t.p, t.Int(0)));
       if (!out.ok()) return R0(out.error());
       const auto n = static_cast<uint32_t>(out->size());
       if (!t.ctx.WriteBytes(t.Addr(1), n, reinterpret_cast<const uint8_t*>(out->data()))) {
         return R0(Errno::kFault);
       }
       return int64_t{n};
     }},
    {"write", 0,
     [](Kernel& k, Trap& t) {
       // The range is checked before a buffer is sized by the guest's count.
       const int64_t count = std::max<int64_t>(t.r[2], 0);
       if (!t.ctx.Readable(t.Addr(1), static_cast<uint64_t>(count))) return R0(Errno::kFault);
       std::string data(static_cast<size_t>(count), '\0');
       t.ctx.ReadBytes(t.Addr(1), static_cast<uint32_t>(count),
                       reinterpret_cast<uint8_t*>(data.data()));
       return R0(k.SysWrite(t.p, t.Int(0), data));
     }},
    {"open", 1,
     [](Kernel& k, Trap& t) {
       return R0(k.SysOpen(t.p, t.path[0], static_cast<int32_t>(t.r[1]),
                           static_cast<uint16_t>(t.r[2])));
     }},
    {"close", 0, [](Kernel& k, Trap& t) { return R0(k.SysClose(t.p, t.Int(0))); }},
    {"wait", 0,
     [](Kernel& k, Trap& t) {
       const Result<WaitResult> wr = k.TryWait(t.p);
       if (wr.error() == Errno::kAgain) {
         return Block(k, t, [kernel = &k, pid = t.p.pid] { return kernel->WaitReady(pid); });
       }
       if (!wr.ok()) return R0(wr.error());
       t.r[1] = wr->overlaid ? 0
                             : (wr->info.exit_code | (wr->info.killed_by_signal << 8) |
                                (wr->info.core_dumped ? 1 << 16 : 0));
       return int64_t{wr->pid};
     }},
    {"creat", 1,
     [](Kernel& k, Trap& t) {
       return R0(k.SysCreat(t.p, t.path[0], static_cast<uint16_t>(t.r[1])));
     }},
    {"link", 2, [](Kernel& k, Trap& t) { return R0(k.SysLink(t.p, t.path[0], t.path[1])); }},
    {"unlink", 1, [](Kernel& k, Trap& t) { return R0(k.SysUnlink(t.p, t.path[0])); }},
    {"chdir", 1, [](Kernel& k, Trap& t) { return R0(k.SysChdir(t.p, t.path[0])); }},
    {"time", 0, [](Kernel& k, Trap&) { return k.clock().now() / sim::kSecond; }},
    {"brk", 0,
     [](Kernel& k, Trap& t) {
       // sbrk(): grow or shrink the data segment. The dump formats carry the whole
       // (possibly grown) segment, so heap state migrates like everything else.
       constexpr int64_t kMaxData = 1 << 20;  // the segment's 1 MB window
       const int64_t old_size = static_cast<int64_t>(t.ctx.data.size());
       const int64_t increment = t.r[0];
       if (increment < -old_size || increment > kMaxData - old_size) return R0(Errno::kNoMem);
       const int64_t new_size = old_size + increment;
       t.ctx.data.resize(static_cast<size_t>(new_size), 0);
       t.ctx.NoteDataResize(static_cast<size_t>(old_size), static_cast<size_t>(new_size));
       if (increment > 0) k.ChargeCpu(t.p, increment * 50);  // page zeroing
       return vm::kDataBase + old_size;
     }},
    {"lseek", 0,
     [](Kernel& k, Trap& t) { return R0(k.SysLseek(t.p, t.Int(0), t.r[1], t.Int(2))); }},
    {"getpid", 0, [](Kernel& k, Trap& t) { return int64_t{k.ReportedIdentity(t.p).pid}; }},
    {"kill", 0,
     [](Kernel& k, Trap& t) {
       return R0(k.SysKill(t.p, static_cast<int32_t>(t.r[0]), t.Int(1)));
     }},
    {"stat", 1,
     [](Kernel& k, Trap& t) {
       const Result<StatInfo> info = k.SysStat(t.p, t.path[0], /*follow=*/true);
       if (!info.ok()) return R0(info.error());
       const uint32_t buf = t.Addr(1);
       const bool copied = t.ctx.WriteU64(buf, static_cast<int64_t>(info->type)) &&
                           t.ctx.WriteU64(buf + 8, info->size) &&
                           t.ctx.WriteU64(buf + 16, info->uid) &&
                           t.ctx.WriteU64(buf + 24, info->mode);
       return copied ? 0 : R0(Errno::kFault);
     }},
    {"dup", 0, [](Kernel& k, Trap& t) { return R0(k.SysDup(t.p, t.Int(0))); }},
    {"pipe", 0, [](Kernel& k, Trap& t) { return FdPair(t, k.SysPipe(t.p)); }},
    {"signal", 0,
     [](Kernel& k, Trap& t) {
       SignalDisposition d;  // SIG_DFL
       if (t.r[1] == vm::abi::kSigIgn) {
         d.action = SignalDisposition::Action::kIgnore;
       } else if (t.r[1] != vm::abi::kSigDfl) {
         d = {SignalDisposition::Action::kCatch, t.Addr(1)};
       }
       return R0(k.SysSignal(t.p, t.Int(0), d));
     }},
    {"ioctl", 0,
     [](Kernel& k, Trap& t) {
       if (t.r[1] == vm::abi::kTiocGetP) {
         const Result<uint16_t> flags = k.SysTtyGet(t.p, t.Int(0));
         if (!flags.ok()) return R0(flags.error());
         return t.ctx.WriteU16(t.Addr(2), *flags) ? 0 : R0(Errno::kFault);
       }
       if (t.r[1] != vm::abi::kTiocSetP) return R0(Errno::kInval);
       uint16_t flags = 0;
       if (!t.ctx.ReadU16(t.Addr(2), &flags)) return R0(Errno::kFault);
       return R0(k.SysTtySet(t.p, t.Int(0), flags));
     }},
    {"readlink", 1,
     [](Kernel& k, Trap& t) {
       const Result<std::string> target = k.SysReadlink(t.p, t.path[0]);
       if (!target.ok()) return R0(target.error());
       const int64_t n = std::min<int64_t>(static_cast<int64_t>(target->size()), t.r[2]);
       const bool copied = t.ctx.WriteBytes(t.Addr(1), static_cast<uint32_t>(n),
                                            reinterpret_cast<const uint8_t*>(target->data()));
       return copied ? n : R0(Errno::kFault);
     }},
    {"execve", 1,
     [](Kernel& k, Trap& t) {
       const Status st = k.SysExecve(t.p, t.path[0], {});
       return st.ok() ? kNewImage : R0(st.error());
     }},
    {"gethostname", 0,
     [](Kernel& k, Trap& t) { return CopyOutCString(t, k.ReportedIdentity(t.p).host); }},
    {"setreuid", 0,
     [](Kernel& k, Trap& t) {
       return R0(k.SysSetReUid(t.p, static_cast<int32_t>(t.r[0]), static_cast<int32_t>(t.r[1])));
     }},
    {"getuid", 0, [](Kernel&, Trap& t) { return int64_t{t.p.creds.uid}; }},
    {"getppid", 0, [](Kernel&, Trap& t) { return int64_t{t.p.ppid}; }},
    {"sleep", 0,
     [](Kernel& k, Trap& t) {
       const int64_t seconds = t.r[0];
       if (seconds < 0 || seconds > std::numeric_limits<int32_t>::max()) {
         return R0(Errno::kInval);
       }
       t.r[0] = 0;
       k.SleepProc(t.p, seconds * sim::kSecond);
       return kOffCpu;
     }},
    {"socket", 0, [](Kernel& k, Trap& t) { return FdPair(t, k.SysSocket(t.p)); }},
    {"getcwd", 0,
     [](Kernel& k, Trap& t) {
       const Result<std::string> cwd = k.SysGetCwd(t.p);
       return cwd.ok() ? CopyOutCString(t, *cwd) : R0(cwd.error());
     }},
    {"rest_proc", 2,
     [](Kernel& k, Trap& t) {
       // On success the process is the restored program, with its dumped registers.
       const Status st = k.SysRestProc(t.p, t.path[0], t.path[1]);
       return st.ok() ? kNewImage : R0(st.error());
     }},
    {"getpid_real", 0, [](Kernel&, Trap& t) { return int64_t{t.p.pid}; }},
    {"gethostname_real", 0,
     [](Kernel& k, Trap& t) { return CopyOutCString(t, k.hostname()); }},
    {"rename", 2,
     [](Kernel& k, Trap& t) { return R0(k.SysRename(t.p, t.path[0], t.path[1])); }},
    {"mkdir", 1,
     [](Kernel& k, Trap& t) {
       return R0(k.SysMkdir(t.p, t.path[0], static_cast<uint16_t>(t.r[1])));
     }},
    {"rmdir", 1, [](Kernel& k, Trap& t) { return R0(k.SysRmdir(t.p, t.path[0])); }},
};

// The trap table: kTraps[n] handles syscall n, or is null where the ABI has no
// call n. The build fails unless kVmSyscalls handles the ABI's calls one to one
// and in its order, and the ABI's numbers are positive and increasing.
constexpr auto kTraps = [] {
  static_assert(std::size(kVmSyscalls) == std::size(vm::abi::kSyscalls));
  std::array<const VmSyscall*, vm::abi::kMaxSyscall + 1> traps{};
  int32_t last = 0;
  for (size_t i = 0; i < std::size(kVmSyscalls); ++i) {
    const vm::abi::Syscall& call = vm::abi::kSyscalls[i];
    if (kVmSyscalls[i].name != call.name) throw "handler out of step with the ABI list";
    if (call.number <= last) throw "ABI numbers must increase";
    traps[static_cast<size_t>(call.number)] = &kVmSyscalls[i];
    last = call.number;
  }
  return traps;
}();

}  // namespace

bool Kernel::DispatchVmSyscall(Proc& p, int32_t number) {
  const VmSyscall* call = number >= 0 && number <= vm::abi::kMaxSyscall
                              ? kTraps[static_cast<size_t>(number)]
                              : nullptr;
  Trap t{p, *p.vm, p.vm->cpu.regs, {}};
  int64_t r0 = R0(Errno::kInval);
  if (call == nullptr) {
    // Counted under kernel.syscall.<n> too; only this rare path builds a name.
    if (metrics_.enabled()) metrics_.Inc("kernel.syscall." + std::to_string(number));
  } else {
    if (metrics_.enabled()) {
      if (syscall_metrics_.empty()) {
        for (const vm::abi::Syscall& abi : vm::abi::kSyscalls) {
          syscall_metrics_.push_back(
              metrics_.MakeCounter("kernel.syscall." + std::to_string(abi.number)));
        }
      }
      syscall_metrics_[static_cast<size_t>(call - kVmSyscalls)].Inc();
    }
    int copied = 0;
    for (; copied < call->paths; ++copied) {
      std::string& path = t.path[copied];
      if (!t.ctx.ReadCString(t.Addr(copied), 1024, &path)) break;
      ChargeCpu(p, static_cast<sim::Nanos>(path.size() + 1) * costs_->buffer_copy_per_byte);
    }
    r0 = copied == call->paths ? call->fn(*this, t) : R0(Errno::kFault);
  }
  if (r0 == kOffCpu) return false;
  if (r0 != kNewImage) t.r[0] = r0;
  // Accumulated I/O waits become a sleep; keep running only a still-runnable proc.
  return !SettlePendingWait(p) && p.state == ProcState::kRunnable;
}

// --- SyscallApi (native processes) -------------------------------------------------

Proc& SyscallApi::proc() {
  Proc* p = kernel_->FindProc(pid_);
  assert(p != nullptr && "syscall from a dead process");
  return *p;
}

void SyscallApi::ChargeCpu(sim::Nanos amount) { kernel_->ChargeCpu(proc(), amount); }
void SyscallApi::ChargeWait(sim::Nanos amount) { kernel_->ChargeWait(proc(), amount); }

sim::Nanos SyscallApi::Now() const { return kernel_->clock().now(); }

void SyscallApi::EnterSyscall() {
  Proc& p = proc();
  ++kernel_->stats_.syscalls;
  kernel_->native_syscall_metric_.Inc();
  kernel_->ChargeCpu(p, kernel_->costs_->syscall_entry);
  kernel_->ChargeUser(p, kernel_->costs_->native_user_work);
  YieldIfPreempted();
}

void SyscallApi::YieldIfPreempted() {
  Proc& p = proc();
  if (kernel_->quantum_left_ <= 0 && p.native != nullptr) {
    p.native->Yield();  // stays runnable; rescheduled next quantum
  }
}

void SyscallApi::FinishSyscall() {
  Proc& p = proc();
  if (kernel_->SettlePendingWait(p) && p.native != nullptr) {
    p.native->Yield();
  }
}

template <typename R, typename... Params, typename... Args>
R SyscallApi::Call(R (Kernel::*sys)(Proc&, Params...), Args&&... args) {
  EnterSyscall();
  R result = (kernel_->*sys)(proc(), std::forward<Args>(args)...);
  FinishSyscall();
  return result;
}

void SyscallApi::BlockUntil(std::function<bool()> check) {
  Proc& p = proc();
  while (!check()) {
    kernel_->BlockProc(p, check);
    p.native->Yield();
  }
}

bool SyscallApi::BlockUntilFor(std::function<bool()> check, sim::Nanos timeout) {
  if (timeout <= 0) {
    BlockUntil(std::move(check));
    return true;
  }
  Proc& p = proc();
  sim::VirtualClock& clock = kernel_->clock();
  const sim::Nanos deadline = clock.now() + timeout;
  auto expired = [&clock, deadline] { return clock.now() >= deadline; };
  while (!check() && !expired()) {
    // A wake-up timer so the blocked-proc poll runs when the deadline passes
    // even if nothing else is happening. CancelTimer must not run after the
    // timer fired (it would corrupt the clock's live-timer count), hence the
    // shared flag; a timer left live after the proc dies degenerates to a
    // no-op when it finds no blocked proc.
    auto fired = std::make_shared<bool>(false);
    Kernel* k = kernel_;
    const int32_t pid = pid_;
    const uint64_t timer = clock.CallAt(deadline, [k, pid, fired] {
      *fired = true;
      Proc* bp = k->FindProc(pid);
      if (bp != nullptr && bp->state == ProcState::kBlocked) {
        bp->state = ProcState::kRunnable;
        bp->unblock_check = nullptr;
      }
    });
    kernel_->BlockProc(p, [check, expired] { return check() || expired(); });
    p.native->Yield();
    if (!*fired) clock.CancelTimer(timer);
  }
  return check();
}

Result<int> SyscallApi::Open(std::string_view path, int32_t flags, uint16_t mode) {
  return Call(&Kernel::SysOpen, path, flags, mode);
}

Result<int> SyscallApi::Creat(std::string_view path, uint16_t mode) {
  return Call(&Kernel::SysCreat, path, mode);
}

Status SyscallApi::Close(int fd) {
  return Call(&Kernel::SysClose, fd);
}

Result<std::string> SyscallApi::Read(int fd, int64_t max) {
  EnterSyscall();
  for (;;) {
    Proc& p = proc();
    const Result<std::string> out = kernel_->SysRead(p, fd, max);
    if (out.error() == Errno::kAgain) {
      kernel_->BlockProc(p, kernel_->MakeReadCheck(p, fd));
      p.native->Yield();
      continue;
    }
    FinishSyscall();
    return out;
  }
}

Result<std::string> SyscallApi::ReadLine(int fd) {
  // Stdio-style line input: read a chunk, seek back past the unconsumed tail for
  // seekable files. Terminals in cooked mode already return exactly one line.
  Result<std::string> chunk = Read(fd, 256);
  if (!chunk.ok()) return chunk;
  std::string& s = *chunk;
  const size_t nl = s.find('\n');
  if (nl == std::string::npos || nl + 1 == s.size()) return chunk;
  const int64_t extra = static_cast<int64_t>(s.size() - (nl + 1));
  const Result<int64_t> pos = Lseek(fd, -extra, vm::abi::kSeekCur);
  if (pos.ok()) {
    s.resize(nl + 1);
  }
  return chunk;
}

Result<std::string> SyscallApi::ReadAll(int fd) {
  std::string all;
  for (;;) {
    Result<std::string> chunk = Read(fd, 4096);
    if (!chunk.ok()) return chunk;
    if (chunk->empty()) return all;
    all += *chunk;
  }
}

Result<int64_t> SyscallApi::Write(int fd, std::string_view data) {
  return Call(&Kernel::SysWrite, fd, data);
}

Result<int64_t> SyscallApi::Lseek(int fd, int64_t offset, int whence) {
  return Call(&Kernel::SysLseek, fd, offset, whence);
}

Result<int> SyscallApi::Dup(int fd) {
  return Call(&Kernel::SysDup, fd);
}

Status SyscallApi::Chdir(std::string_view path) {
  return Call(&Kernel::SysChdir, path);
}

Result<std::string> SyscallApi::GetCwd() {
  return Call(&Kernel::SysGetCwd);
}

Result<std::string> SyscallApi::Readlink(std::string_view path) {
  return Call(&Kernel::SysReadlink, path);
}

Result<StatInfo> SyscallApi::Stat(std::string_view path) {
  return Call(&Kernel::SysStat, path, true);
}

Result<StatInfo> SyscallApi::LStat(std::string_view path) {
  return Call(&Kernel::SysStat, path, false);
}

Result<std::vector<std::string>> SyscallApi::ReadDir(std::string_view path) {
  return Call(&Kernel::SysReadDir, path);
}

Status SyscallApi::Unlink(std::string_view path) {
  return Call(&Kernel::SysUnlink, path);
}

Status SyscallApi::Link(std::string_view oldpath, std::string_view newpath) {
  return Call(&Kernel::SysLink, oldpath, newpath);
}

Status SyscallApi::Mkdir(std::string_view path, uint16_t mode) {
  return Call(&Kernel::SysMkdir, path, mode);
}

Status SyscallApi::Rmdir(std::string_view path) {
  return Call(&Kernel::SysRmdir, path);
}

Status SyscallApi::Rename(std::string_view oldpath, std::string_view newpath) {
  return Call(&Kernel::SysRename, oldpath, newpath);
}

Status SyscallApi::Kill(int32_t target_pid, int signo) {
  return Call(&Kernel::SysKill, target_pid, signo);
}

Status SyscallApi::SetDumpMode(int32_t target_pid, bool incremental) {
  return Call(&Kernel::SysSetDumpMode, target_pid, incremental);
}

Result<bool> SyscallApi::DumpFailed(int32_t target_pid) {
  return Call(&Kernel::SysDumpFailed, target_pid);
}

Status SyscallApi::SetReUid(int32_t ruid, int32_t euid) {
  return Call(&Kernel::SysSetReUid, ruid, euid);
}

int32_t SyscallApi::GetPid() { return kernel_->ReportedIdentity(proc()).pid; }

int32_t SyscallApi::GetUid() { return proc().creds.uid; }
int32_t SyscallApi::GetEuid() { return proc().creds.euid; }

std::string SyscallApi::GetHostname() {
  return std::string(kernel_->ReportedIdentity(proc()).host);
}

Result<uint16_t> SyscallApi::TtyGetFlags(int fd) {
  return Call(&Kernel::SysTtyGet, fd);
}

Status SyscallApi::TtySetFlags(int fd, uint16_t flags) {
  return Call(&Kernel::SysTtySet, fd, flags);
}

void SyscallApi::Sleep(sim::Nanos duration) {
  EnterSyscall();
  Proc& p = proc();
  kernel_->SleepProc(p, duration);
  p.native->Yield();
}

Result<WaitResult> SyscallApi::Wait() {
  EnterSyscall();
  for (;;) {
    Proc& p = proc();
    const Result<WaitResult> wr = kernel_->TryWait(p);
    if (wr.error() != Errno::kAgain) {
      FinishSyscall();
      return wr;
    }
    Kernel* k = kernel_;
    const int32_t pid = pid_;
    kernel_->BlockProc(p, [k, pid] { return k->WaitReady(pid); });
    p.native->Yield();
  }
}

namespace {

// A child of `p` inherits its credentials, terminal and textual cwd.
SpawnOptions ChildOf(const Proc& p) {
  SpawnOptions opts;
  opts.creds = p.creds;
  opts.tty = p.controlling_tty;
  opts.cwd = p.u_cwd_path.empty() ? "/" : p.u_cwd_path;
  opts.ppid = p.pid;
  return opts;
}

}  // namespace

Result<int32_t> SyscallApi::SpawnProgram(const std::string& program,
                                         std::vector<std::string> args) {
  EnterSyscall();
  Proc& p = proc();
  kernel_->ChargeCpu(p, kernel_->costs_->fork_overhead + kernel_->costs_->exec_overhead);
  const Result<int32_t> pid = kernel_->SpawnProgram(program, std::move(args), ChildOf(p));
  FinishSyscall();
  return pid;
}

Result<int32_t> SyscallApi::SpawnVm(const std::string& aout_path,
                                    std::vector<std::string> args) {
  EnterSyscall();
  Proc& p = proc();
  kernel_->ChargeCpu(p, kernel_->costs_->fork_overhead);
  const Result<int32_t> pid = kernel_->SpawnVm(aout_path, std::move(args), ChildOf(p));
  FinishSyscall();
  return pid;
}

Status SyscallApi::RestProc(std::string_view aout_path, std::string_view stack_path) {
  EnterSyscall();
  Proc& p = proc();
  const Status st = kernel_->SysRestProc(p, aout_path, stack_path);
  if (st.ok()) {
    // "Normally, there is no return from this system call." The process has been
    // overlaid; unwind the native task while the (VM) process lives on.
    p.overlaid = true;
    throw BecameVm{};
  }
  FinishSyscall();
  return st;
}

void SyscallApi::Exit(int code) { throw ExitRequest{code}; }

}  // namespace pmig::kernel
