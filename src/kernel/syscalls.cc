// System-call implementations, the VM trap dispatcher, and the native SyscallApi.
//
// Layout: Kernel::Sys*() hold the semantics and cost charging, shared by both
// process kinds. DispatchVmSyscall() decodes the trap register convention for VM
// processes (including the rewind-and-block protocol for interrupted reads — the
// 4.2BSD restartable-syscall behaviour that lets SIGDUMP hit a process blocked at
// its input prompt and still produce a restartable image). SyscallApi wraps the
// same calls for native (tool) processes, adding the yield/block handshake.

#include <algorithm>
#include <cassert>

#include "src/kernel/kernel.h"
#include "src/vfs/path.h"

namespace pmig::kernel {

namespace {

using vm::abi::OpenFlags;
using vm::abi::Sys;

Tty* AsTty(const vfs::Inode& inode) {
  if (!inode.IsDevice()) return nullptr;
  return dynamic_cast<Tty*>(inode.device);
}

bool IsNullDevice(const vfs::Inode& inode) {
  return inode.IsDevice() && dynamic_cast<NullDevice*>(inode.device) != nullptr;
}

}  // namespace

// --- Name tracking (Section 5.1) -------------------------------------------------

void Kernel::TrackOpenName(Proc& p, OpenFile& file, std::string_view user_path) {
  if (!config_.track_names || file.kind != FileKind::kInode) return;
  SyscallApi* sink = ApiFor(p.pid);
  std::string abs;
  if (vfs::IsAbsolute(user_path)) {
    abs = vfs::NormalizeAbsolute(user_path);
  } else {
    // "If the file name is a relative path name, its name is combined with the
    // name of the current working directory in the user structure."
    const std::string& cwd = p.u_cwd_path.empty() ? "/" : p.u_cwd_path;
    abs = vfs::Combine(cwd, user_path);
    if (sink != nullptr) sink->ChargeCpu(costs_->name_combine);
  }
  if (sink != nullptr) {
    sink->ChargeCpu(costs_->kmem_alloc);
    sink->ChargeCpu(static_cast<sim::Nanos>(abs.size() + 1) * costs_->name_copy_per_byte);
  }
  metrics_.Inc("kernel.kmem_allocs");
  metrics_.Inc("vfs.name_bytes_copied", static_cast<int64_t>(abs.size()) + 1);
  const int64_t held = config_.name_storage == KernelConfig::NameStorage::kFixed
                           ? config_.fixed_name_bytes
                           : static_cast<int64_t>(abs.size()) + 1;
  if (config_.name_storage == KernelConfig::NameStorage::kFixed &&
      static_cast<int>(abs.size()) >= config_.fixed_name_bytes) {
    abs.resize(static_cast<size_t>(config_.fixed_name_bytes - 1));  // truncated!
  }
  file.name = std::move(abs);
  ++stats_.name_allocs;
  stats_.name_bytes_current += held;
  stats_.name_bytes_peak = std::max(stats_.name_bytes_peak, stats_.name_bytes_current);
}

void Kernel::ReleaseOpenName(Proc& p, OpenFile& file) {
  if (!file.name.has_value()) return;
  SyscallApi* sink = ApiFor(p.pid);
  if (sink != nullptr && config_.track_names) sink->ChargeCpu(costs_->kmem_free);
  const int64_t held = config_.name_storage == KernelConfig::NameStorage::kFixed
                           ? config_.fixed_name_bytes
                           : static_cast<int64_t>(file.name->size()) + 1;
  stats_.name_bytes_current -= held;
  file.name.reset();
}

void Kernel::TrackChdirName(Proc& p, std::string_view user_path) {
  if (!config_.track_names) return;
  SyscallApi* sink = ApiFor(p.pid);
  if (vfs::IsAbsolute(user_path)) {
    // "if the argument ... is an absolute path name, it is simply copied" (with
    // "." / ".." references resolved when path names are constructed).
    p.u_cwd_path = vfs::NormalizeAbsolute(user_path);
    if (sink != nullptr) {
      sink->ChargeCpu(static_cast<sim::Nanos>(user_path.size() + 1) *
                      costs_->name_copy_per_byte);
    }
    return;
  }
  // "the updating procedure being skipped if the field has not been yet
  // initialised" — initialisation happens via the first absolute chdir() at boot.
  if (p.u_cwd_path.empty()) return;
  p.u_cwd_path = vfs::Combine(p.u_cwd_path, user_path);
  if (sink != nullptr) {
    sink->ChargeCpu(costs_->name_combine);
    sink->ChargeCpu(static_cast<sim::Nanos>(p.u_cwd_path.size() + 1) *
                    costs_->name_copy_per_byte);
  }
  metrics_.Inc("vfs.name_bytes_copied", static_cast<int64_t>(p.u_cwd_path.size()) + 1);
}

// --- File syscalls ----------------------------------------------------------------

Result<int> Kernel::SysOpen(Proc& p, std::string_view path, int32_t flags, uint16_t mode) {
  SyscallApi* sink = ApiFor(p.pid);
  const int fd = p.FreeFdSlot();
  if (fd < 0) return Errno::kMFile;

  // "/dev/tty" names the controlling terminal of the caller.
  if (path == "/dev/tty") {
    if (p.controlling_tty == nullptr) return Errno::kNoDev;
    auto file = std::make_shared<OpenFile>();
    file->kind = FileKind::kInode;
    file->inode = tty_nodes_.at(p.controlling_tty);
    file->flags = flags;
    if (sink != nullptr) sink->ChargeCpu(costs_->file_table_slot);
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
      if (sink != nullptr) sink->ChargeCpu(costs_->file_table_slot);
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
  if (sink != nullptr) {
    sink->ChargeCpu(costs_->file_table_slot);
    // Cold in-core inode fetch: a disk read locally, an NFS RPC remotely. (No
    // inode cache is modelled; every successful open pays.)
    sink->ChargeWait(vfs_->InodeIsRemote(*inode) ? costs_->nfs_rpc : costs_->inode_fetch);
  }
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
  SyscallApi* sink = ApiFor(p.pid);

  if (file->kind == FileKind::kPipe || file->kind == FileKind::kSocket) {
    Channel& ch = *file->channel;
    if (ch.buffer.empty()) {
      if (ch.write_open) return Errno::kAgain;  // caller blocks
      return std::string();                     // EOF
    }
    const int64_t n = std::min<int64_t>(max, static_cast<int64_t>(ch.buffer.size()));
    std::string out = ch.buffer.substr(0, static_cast<size_t>(n));
    ch.buffer.erase(0, static_cast<size_t>(n));
    if (sink != nullptr) sink->ChargeCpu(n * costs_->buffer_copy_per_byte);
    return out;
  }

  vfs::Inode& inode = *file->inode;
  if (inode.IsDir()) return Errno::kIsDir;
  if (inode.IsRegular()) {
    PMIG_RETURN_IF_ERROR(vfs_->InjectedIoFault(inode, /*write=*/false));
    std::string out;
    const int64_t n = vfs_->ReadAt(inode, file->offset, max, &out, sink);
    file->offset += n;
    return out;
  }
  if (IsNullDevice(inode)) return std::string();  // EOF
  if (Tty* tty = AsTty(inode); tty != nullptr) {
    if (!tty->InputReady()) return Errno::kAgain;  // caller blocks
    std::string out = tty->ConsumeInput(max);
    if (sink != nullptr) {
      sink->ChargeCpu(static_cast<sim::Nanos>(out.size()) * costs_->buffer_copy_per_byte);
    }
    return out;
  }
  return Errno::kIo;
}

Result<int64_t> Kernel::SysWrite(Proc& p, int fd, std::string_view data) {
  PMIG_TRY(OpenFilePtr file, FdGet(p, fd));
  if (!file->writable()) return Errno::kBadF;
  SyscallApi* sink = ApiFor(p.pid);

  if (file->kind == FileKind::kPipe || file->kind == FileKind::kSocket) {
    Channel& ch = *file->channel;
    if (!ch.read_open) {
      const Status st = PostSignal(p.pid, vm::abi::kSigPipe, &p);
      (void)st;
      return Errno::kPipe;
    }
    ch.buffer.append(data);
    if (sink != nullptr) {
      sink->ChargeCpu(static_cast<sim::Nanos>(data.size()) * costs_->buffer_copy_per_byte);
    }
    return static_cast<int64_t>(data.size());
  }

  vfs::Inode& inode = *file->inode;
  if (inode.IsDir()) return Errno::kIsDir;
  if (inode.IsRegular()) {
    PMIG_RETURN_IF_ERROR(vfs_->InjectedIoFault(inode, /*write=*/true));
    if ((file->flags & OpenFlags::kOAppend) != 0) file->offset = inode.size();
    const int64_t n = vfs_->WriteAt(inode, file->offset, data, sink);
    file->offset += n;
    return n;
  }
  if (IsNullDevice(inode)) return static_cast<int64_t>(data.size());
  if (Tty* tty = AsTty(inode); tty != nullptr) {
    tty->AppendOutput(data);
    if (sink != nullptr) {
      sink->ChargeCpu(static_cast<sim::Nanos>(data.size()) * costs_->buffer_copy_per_byte);
    }
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
  const int64_t pos = base + offset;
  if (pos < 0) return Errno::kInval;
  file->offset = pos;
  return pos;
}

Result<int> Kernel::SysDup(Proc& p, int fd) {
  PMIG_TRY(OpenFilePtr file, FdGet(p, fd));
  const int nfd = p.FreeFdSlot();
  if (nfd < 0) return Errno::kMFile;
  SyscallApi* sink = ApiFor(p.pid);
  if (sink != nullptr) sink->ChargeCpu(costs_->file_table_slot);
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
  SyscallApi* sink = ApiFor(p.pid);
  if (sink != nullptr) sink->ChargeCpu(2 * costs_->file_table_slot);
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
  SyscallApi* sink = ApiFor(p.pid);
  if (sink != nullptr) sink->ChargeCpu(2 * costs_->file_table_slot);
  return std::make_pair(afd, bfd);
}

// --- Directory / name syscalls ---------------------------------------------------

Status Kernel::SysChdir(Proc& p, std::string_view path) {
  SyscallApi* sink = ApiFor(p.pid);
  PMIG_TRY(vfs::Vfs::Resolved r, vfs_->Resolve(p.cwd, path, vfs::Follow::kAll, sink));
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
  SyscallApi* sink = ApiFor(p.pid);
  if (sink != nullptr) {
    sink->ChargeCpu(static_cast<sim::Nanos>(p.u_cwd_path.size() + 1) *
                    costs_->buffer_copy_per_byte);
  }
  return p.u_cwd_path.empty() ? std::string("/") : p.u_cwd_path;
}

Result<std::string> Kernel::SysReadlink(Proc& p, std::string_view path) {
  return vfs_->Readlink(p.cwd, path, ApiFor(p.pid));
}

Result<StatInfo> Kernel::SysStat(Proc& p, std::string_view path, bool follow) {
  PMIG_TRY(vfs::Vfs::Resolved r,
           vfs_->Resolve(p.cwd, path, follow ? vfs::Follow::kAll : vfs::Follow::kNotLast,
                         ApiFor(p.pid)));
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
  SyscallApi* sink = ApiFor(p.pid);
  PMIG_TRY(vfs::Vfs::Resolved r,
           vfs_->Resolve(p.cwd, path, vfs::Follow::kAll, sink));
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
  if (sink != nullptr) {
    sink->ChargeCpu(static_cast<sim::Nanos>(bytes) * costs_->buffer_copy_per_byte);
  }
  return names;
}

Status Kernel::SysUnlink(Proc& p, std::string_view path) {
  SyscallApi* sink = ApiFor(p.pid);
  PMIG_TRY(vfs::Vfs::ResolvedParent rp, vfs_->ResolveParent(p.cwd, path, sink));
  if (rp.existing == nullptr) return Errno::kNoEnt;
  if (rp.existing->IsDir()) return Errno::kIsDir;  // directories go through rmdir()
  if (!vfs::CheckAccess(*rp.dir, p.creds.euid, vfs::kWantWrite)) return Errno::kAcces;
  if (sink != nullptr) sink->ChargeCpu(costs_->file_table_slot);
  return rp.dir->fs->Unlink(rp.dir, rp.name);
}

Status Kernel::SysLink(Proc& p, std::string_view oldpath, std::string_view newpath) {
  SyscallApi* sink = ApiFor(p.pid);
  PMIG_TRY(vfs::Vfs::Resolved old, vfs_->Resolve(p.cwd, oldpath, vfs::Follow::kAll, sink));
  if (old.inode->IsDir()) return Errno::kIsDir;
  PMIG_TRY(vfs::Vfs::ResolvedParent rp, vfs_->ResolveParent(p.cwd, newpath, sink));
  if (rp.existing != nullptr) return Errno::kExist;
  if (!vfs::CheckAccess(*rp.dir, p.creds.euid, vfs::kWantWrite)) return Errno::kAcces;
  if (old.inode->fs != rp.dir->fs) return Errno::kXDev;  // NFS: no cross-machine links
  if (sink != nullptr) sink->ChargeCpu(costs_->file_table_slot);
  return rp.dir->fs->Link(rp.dir, rp.name, old.inode);
}

Status Kernel::SysMkdir(Proc& p, std::string_view path, uint16_t mode) {
  SyscallApi* sink = ApiFor(p.pid);
  PMIG_TRY(vfs::Vfs::ResolvedParent rp, vfs_->ResolveParent(p.cwd, path, sink));
  if (rp.existing != nullptr) return Errno::kExist;
  if (!vfs::CheckAccess(*rp.dir, p.creds.euid, vfs::kWantWrite)) return Errno::kAcces;
  vfs::Filesystem* owner = rp.dir->fs;
  vfs::InodePtr dir = owner->NewDirectory(p.creds.euid, mode);
  if (sink != nullptr) sink->ChargeCpu(costs_->file_table_slot);
  return owner->Link(rp.dir, rp.name, dir);
}

Status Kernel::SysRmdir(Proc& p, std::string_view path) {
  SyscallApi* sink = ApiFor(p.pid);
  PMIG_TRY(vfs::Vfs::ResolvedParent rp, vfs_->ResolveParent(p.cwd, path, sink));
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
  if (sink != nullptr) sink->ChargeCpu(costs_->file_table_slot);
  return rp.dir->fs->Unlink(rp.dir, rp.name);
}

Status Kernel::SysRename(Proc& p, std::string_view oldpath, std::string_view newpath) {
  SyscallApi* sink = ApiFor(p.pid);
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
  if (sink != nullptr) sink->ChargeCpu(2 * costs_->file_table_slot);
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
  SyscallApi* sink = ApiFor(p.pid);
  if (sink != nullptr) sink->ChargeCpu(costs_->signal_post);
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
  SyscallApi* sink = ApiFor(p.pid);
  if (sink != nullptr) sink->ChargeCpu(costs_->tty_ioctl);
  return tty->flags();
}

Status Kernel::SysTtySet(Proc& p, int fd, uint16_t flags) {
  PMIG_TRY(OpenFilePtr file, FdGet(p, fd));
  if (file->kind != FileKind::kInode) return Errno::kNoTty;
  Tty* tty = AsTty(*file->inode);
  if (tty == nullptr) return Errno::kNoTty;
  SyscallApi* sink = ApiFor(p.pid);
  if (sink != nullptr) sink->ChargeCpu(costs_->tty_ioctl);
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

  SyscallApi* sink = ApiFor(p.pid);
  if (sink != nullptr) {
    sink->ChargeCpu(costs_->fork_overhead);
    sink->ChargeCpu(static_cast<sim::Nanos>(p.vm->data.size() + p.vm->StackSize()) *
                    costs_->buffer_copy_per_byte);
  }
  return child.pid;
}

Status Kernel::SysExecve(Proc& p, std::string_view path, const std::vector<std::string>& args) {
  if (p.kind != ProcKind::kVm) return Errno::kInval;
  SyscallApi* sink = ApiFor(p.pid);
  const sim::Nanos cpu0 = p.stime + p.utime;
  const sim::Nanos wait0 = p.pending_wait;

  PMIG_TRY(vfs::Vfs::Resolved r, vfs_->Resolve(p.cwd, path, vfs::Follow::kAll, sink));
  if (!r.inode->IsRegular()) return Errno::kAcces;
  if (!vfs::CheckAccess(*r.inode, p.creds.euid, vfs::kWantRead)) return Errno::kAcces;
  // exec() demand-pages the image: only the header + first pages are read
  // synchronously; the rest faults in as the program runs (not modelled as cost).
  std::string bytes;
  vfs_->ReadAt(*r.inode, 0, r.inode->size(), &bytes, nullptr);
  if (sink != nullptr) {
    const int64_t prefetch = std::min<int64_t>(r.inode->size(), costs_->exec_prefetch_bytes);
    const auto io = vfs_->InodeIsRemote(*r.inode) ? costs_->NetIo(prefetch)
                                                  : costs_->DiskIo(prefetch);
    sink->ChargeCpu(io.cpu);
    sink->ChargeWait(io.wait + (vfs_->InodeIsRemote(*r.inode) ? costs_->nfs_rpc
                                                              : costs_->inode_fetch));
  }
  PMIG_TRY(vm::AoutImage image, vm::AoutImage::Parse(bytes));
  PMIG_RETURN_IF_ERROR(OverlayVmImage(p, std::move(image), args));
  p.command = vfs::Basename(path);

  timers_.execve.cpu = (p.stime + p.utime) - cpu0;
  timers_.execve.real = timers_.execve.cpu + (p.pending_wait - wait0);
  timers_.execve.valid = true;
  Trace(sim::TraceCategory::kSyscall, p.pid, "execve " + std::string(path));
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
    Trace(sim::TraceCategory::kMigration, p.pid,
          "rest_proc restored image from " + std::string(aout_path));
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
      if (metrics_.enabled()) {
        metrics_.Inc("kernel.syscall." + std::to_string(cpu.last_syscall()));
      }
      ChargeCpu(p, costs_->syscall_entry);
      if (!DispatchVmSyscall(p, cpu.last_syscall())) break;
    } else if (reason == vm::StopReason::kFault) {
      VmFault(p, cpu.last_fault());
      break;
    }
  }
}

bool Kernel::DispatchVmSyscall(Proc& p, int32_t number) {
  vm::VmContext& ctx = *p.vm;
  int64_t* r = ctx.cpu.regs;
  SyscallApi* sink = ApiFor(p.pid);

  auto ret = [&](int64_t v) { r[0] = v; };
  auto fail = [&](Errno e) { r[0] = -static_cast<int64_t>(e); };
  auto ret_or_fail = [&](const auto& result) {
    if (result.ok()) {
      ret(static_cast<int64_t>(*result));
    } else {
      fail(result.error());
    }
  };
  // Reads a NUL-terminated path argument; charges the copyin.
  auto read_str = [&](int64_t addr, std::string* out) {
    if (!ctx.ReadCString(static_cast<uint32_t>(addr), 1024, out)) return false;
    if (sink != nullptr) {
      sink->ChargeCpu(static_cast<sim::Nanos>(out->size() + 1) * costs_->buffer_copy_per_byte);
    }
    return true;
  };
  // Rewinds the pc onto the SYS instruction and blocks (restartable syscall).
  auto block_on = [&](std::function<bool()> check) {
    ctx.cpu.pc -= vm::kInstrBytes;
    BlockProc(p, std::move(check));
  };
  // Epilogue: convert accumulated I/O waits to sleep; tell the run loop whether to
  // keep executing this process.
  auto epilogue = [&]() {
    if (SettlePendingWait(p)) return false;
    return p.state == ProcState::kRunnable;
  };

  switch (number) {
    case Sys::kSysExit: {
      ExitInfo info;
      info.exit_code = static_cast<int>(r[0]);
      TerminateProc(p, info);
      return false;
    }
    case Sys::kSysFork:
      ret_or_fail(SysFork(p));
      return epilogue();
    case Sys::kSysRead: {
      const int fd = static_cast<int>(r[0]);
      const Result<std::string> out = SysRead(p, fd, r[2]);
      if (out.error() == Errno::kAgain) {
        block_on(MakeReadCheck(p, fd));
        return false;
      }
      if (!out.ok()) {
        fail(out.error());
        return epilogue();
      }
      if (!ctx.WriteBytes(static_cast<uint32_t>(r[1]), static_cast<uint32_t>(out->size()),
                          reinterpret_cast<const uint8_t*>(out->data()))) {
        fail(Errno::kFault);
        return epilogue();
      }
      ret(static_cast<int64_t>(out->size()));
      return epilogue();
    }
    case Sys::kSysWrite: {
      std::string data;
      data.resize(static_cast<size_t>(std::max<int64_t>(r[2], 0)));
      if (!ctx.ReadBytes(static_cast<uint32_t>(r[1]), static_cast<uint32_t>(data.size()),
                         reinterpret_cast<uint8_t*>(data.data()))) {
        fail(Errno::kFault);
        return epilogue();
      }
      ret_or_fail(SysWrite(p, static_cast<int>(r[0]), data));
      return epilogue();
    }
    case Sys::kSysOpen: {
      std::string path;
      if (!read_str(r[0], &path)) {
        fail(Errno::kFault);
        return epilogue();
      }
      ret_or_fail(SysOpen(p, path, static_cast<int32_t>(r[1]), static_cast<uint16_t>(r[2])));
      return epilogue();
    }
    case Sys::kSysCreat: {
      std::string path;
      if (!read_str(r[0], &path)) {
        fail(Errno::kFault);
        return epilogue();
      }
      ret_or_fail(SysCreat(p, path, static_cast<uint16_t>(r[1])));
      return epilogue();
    }
    case Sys::kSysClose: {
      const Status st = SysClose(p, static_cast<int>(r[0]));
      st.ok() ? ret(0) : fail(st.error());
      return epilogue();
    }
    case Sys::kSysWait: {
      const Result<WaitResult> wr = TryWait(p);
      if (wr.error() == Errno::kAgain) {
        const int32_t pid = p.pid;
        block_on([this, pid] { return WaitReady(pid); });
        return false;
      }
      if (!wr.ok()) {
        fail(wr.error());
        return epilogue();
      }
      ret(wr->pid);
      r[1] = wr->overlaid ? 0
                          : (wr->info.exit_code | (wr->info.killed_by_signal << 8) |
                             (wr->info.core_dumped ? 1 << 16 : 0));
      return epilogue();
    }
    case Sys::kSysLink: {
      std::string oldp, newp;
      if (!read_str(r[0], &oldp) || !read_str(r[1], &newp)) {
        fail(Errno::kFault);
        return epilogue();
      }
      const Status st = SysLink(p, oldp, newp);
      st.ok() ? ret(0) : fail(st.error());
      return epilogue();
    }
    case Sys::kSysUnlink: {
      std::string path;
      if (!read_str(r[0], &path)) {
        fail(Errno::kFault);
        return epilogue();
      }
      const Status st = SysUnlink(p, path);
      st.ok() ? ret(0) : fail(st.error());
      return epilogue();
    }
    case Sys::kSysMkdir: {
      std::string path;
      if (!read_str(r[0], &path)) {
        fail(Errno::kFault);
        return epilogue();
      }
      const Status st = SysMkdir(p, path, static_cast<uint16_t>(r[1]));
      st.ok() ? ret(0) : fail(st.error());
      return epilogue();
    }
    case Sys::kSysRmdir: {
      std::string path;
      if (!read_str(r[0], &path)) {
        fail(Errno::kFault);
        return epilogue();
      }
      const Status st = SysRmdir(p, path);
      st.ok() ? ret(0) : fail(st.error());
      return epilogue();
    }
    case Sys::kSysRename: {
      std::string from, to;
      if (!read_str(r[0], &from) || !read_str(r[1], &to)) {
        fail(Errno::kFault);
        return epilogue();
      }
      const Status st = SysRename(p, from, to);
      st.ok() ? ret(0) : fail(st.error());
      return epilogue();
    }
    case Sys::kSysStat: {
      std::string path;
      if (!read_str(r[0], &path)) {
        fail(Errno::kFault);
        return epilogue();
      }
      const Result<StatInfo> info = SysStat(p, path, /*follow=*/true);
      if (!info.ok()) {
        fail(info.error());
        return epilogue();
      }
      const uint32_t buf = static_cast<uint32_t>(r[1]);
      if (!ctx.WriteU64(buf, static_cast<int64_t>(info->type)) ||
          !ctx.WriteU64(buf + 8, info->size) || !ctx.WriteU64(buf + 16, info->uid) ||
          !ctx.WriteU64(buf + 24, info->mode)) {
        fail(Errno::kFault);
        return epilogue();
      }
      ret(0);
      return epilogue();
    }
    case Sys::kSysChdir: {
      std::string path;
      if (!read_str(r[0], &path)) {
        fail(Errno::kFault);
        return epilogue();
      }
      const Status st = SysChdir(p, path);
      st.ok() ? ret(0) : fail(st.error());
      return epilogue();
    }
    case Sys::kSysTime:
      ret(ctx_.clock.now() / sim::kSecond);
      return epilogue();
    case Sys::kSysBrk: {
      // sbrk(): grow or shrink the data segment. The dump formats carry the whole
      // (possibly grown) segment, so heap state migrates like everything else.
      constexpr int64_t kMaxData = 1 << 20;  // the segment's 1 MB window
      const int64_t old_size = static_cast<int64_t>(ctx.data.size());
      const int64_t new_size = old_size + r[0];
      if (new_size < 0 || new_size > kMaxData) {
        fail(Errno::kNoMem);
        return epilogue();
      }
      ctx.data.resize(static_cast<size_t>(new_size), 0);
      ctx.NoteDataResize(static_cast<size_t>(old_size), static_cast<size_t>(new_size));
      if (sink != nullptr && r[0] > 0) {
        sink->ChargeCpu(r[0] * 50);  // page zeroing
      }
      ret(vm::kDataBase + old_size);
      return epilogue();
    }
    case Sys::kSysLseek:
      ret_or_fail(SysLseek(p, static_cast<int>(r[0]), r[1], static_cast<int>(r[2])));
      return epilogue();
    case Sys::kSysGetPid:
      if (config_.virtualize_identity && p.migrated) {
        ret(p.old_pid);
      } else {
        ret(p.pid);
      }
      return epilogue();
    case Sys::kSysGetPidReal:
      ret(p.pid);
      return epilogue();
    case Sys::kSysGetPpid:
      ret(p.ppid);
      return epilogue();
    case Sys::kSysGetUid:
      ret(p.creds.uid);
      return epilogue();
    case Sys::kSysKill: {
      const Status st = SysKill(p, static_cast<int32_t>(r[0]), static_cast<int>(r[1]));
      st.ok() ? ret(0) : fail(st.error());
      return epilogue();
    }
    case Sys::kSysDup:
      ret_or_fail(SysDup(p, static_cast<int>(r[0])));
      return epilogue();
    case Sys::kSysPipe: {
      const auto fds = SysPipe(p);
      if (!fds.ok()) {
        fail(fds.error());
      } else {
        r[0] = fds->first;
        r[1] = fds->second;
      }
      return epilogue();
    }
    case Sys::kSysSocket: {
      const auto fds = SysSocket(p);
      if (!fds.ok()) {
        fail(fds.error());
      } else {
        r[0] = fds->first;
        r[1] = fds->second;
      }
      return epilogue();
    }
    case Sys::kSysSignal: {
      SignalDisposition d;
      if (r[1] == vm::abi::kSigDfl) {
        d.action = SignalDisposition::Action::kDefault;
      } else if (r[1] == vm::abi::kSigIgn) {
        d.action = SignalDisposition::Action::kIgnore;
      } else {
        d.action = SignalDisposition::Action::kCatch;
        d.handler = static_cast<uint32_t>(r[1]);
      }
      const Status st = SysSignal(p, static_cast<int>(r[0]), d);
      st.ok() ? ret(0) : fail(st.error());
      return epilogue();
    }
    case Sys::kSysIoctl: {
      const int fd = static_cast<int>(r[0]);
      if (r[1] == vm::abi::kTiocGetP) {
        const Result<uint16_t> flags = SysTtyGet(p, fd);
        if (!flags.ok()) {
          fail(flags.error());
        } else if (!ctx.WriteU16(static_cast<uint32_t>(r[2]), *flags)) {
          fail(Errno::kFault);
        } else {
          ret(0);
        }
      } else if (r[1] == vm::abi::kTiocSetP) {
        uint16_t flags;
        if (!ctx.ReadU16(static_cast<uint32_t>(r[2]), &flags)) {
          fail(Errno::kFault);
        } else {
          const Status st = SysTtySet(p, fd, flags);
          st.ok() ? ret(0) : fail(st.error());
        }
      } else {
        fail(Errno::kInval);
      }
      return epilogue();
    }
    case Sys::kSysReadlink: {
      std::string path;
      if (!read_str(r[0], &path)) {
        fail(Errno::kFault);
        return epilogue();
      }
      const Result<std::string> target = SysReadlink(p, path);
      if (!target.ok()) {
        fail(target.error());
        return epilogue();
      }
      const int64_t n = std::min<int64_t>(static_cast<int64_t>(target->size()), r[2]);
      if (!ctx.WriteBytes(static_cast<uint32_t>(r[1]), static_cast<uint32_t>(n),
                          reinterpret_cast<const uint8_t*>(target->data()))) {
        fail(Errno::kFault);
        return epilogue();
      }
      ret(n);
      return epilogue();
    }
    case Sys::kSysExecve: {
      std::string path;
      if (!read_str(r[0], &path)) {
        fail(Errno::kFault);
        return epilogue();
      }
      const Status st = SysExecve(p, path, {});
      if (!st.ok()) {
        fail(st.error());
        return epilogue();
      }
      // Registers belong to the new image now; do not touch r0.
      return epilogue();
    }
    case Sys::kSysGetHostname:
    case Sys::kSysGetHostnameReal: {
      const std::string& name = (number == Sys::kSysGetHostname &&
                                 config_.virtualize_identity && p.migrated)
                                    ? p.old_host
                                    : hostname_;
      const int64_t cap = r[1];
      if (static_cast<int64_t>(name.size()) + 1 > cap ||
          !ctx.WriteCString(static_cast<uint32_t>(r[0]), name)) {
        fail(Errno::kFault);
      } else {
        ret(0);
      }
      return epilogue();
    }
    case Sys::kSysSetReUid: {
      const Status st =
          SysSetReUid(p, static_cast<int32_t>(r[0]), static_cast<int32_t>(r[1]));
      st.ok() ? ret(0) : fail(st.error());
      return epilogue();
    }
    case Sys::kSysGetCwd: {
      const Result<std::string> cwd = SysGetCwd(p);
      if (!cwd.ok()) {
        fail(cwd.error());
        return epilogue();
      }
      if (static_cast<int64_t>(cwd->size()) + 1 > r[1] ||
          !ctx.WriteCString(static_cast<uint32_t>(r[0]), *cwd)) {
        fail(Errno::kFault);
        return epilogue();
      }
      ret(0);
      return epilogue();
    }
    case Sys::kSysSleep: {
      ret(0);
      SleepProc(p, r[0] * sim::kSecond);
      return false;
    }
    case Sys::kSysRestProc: {
      std::string aout, stack;
      if (!read_str(r[0], &aout) || !read_str(r[1], &stack)) {
        fail(Errno::kFault);
        return epilogue();
      }
      const Status st = SysRestProc(p, aout, stack);
      if (!st.ok()) {
        fail(st.error());
        return epilogue();
      }
      // The process is now the restored program; its registers are the dumped
      // ones. It may have been put to sleep to cover the dump-file I/O.
      return p.state == ProcState::kRunnable;
    }
    default:
      fail(Errno::kInval);
      return epilogue();
  }
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
  EnterSyscall();
  const Result<int> fd = kernel_->SysOpen(proc(), path, flags, mode);
  FinishSyscall();
  return fd;
}

Result<int> SyscallApi::Creat(std::string_view path, uint16_t mode) {
  EnterSyscall();
  const Result<int> fd = kernel_->SysCreat(proc(), path, mode);
  FinishSyscall();
  return fd;
}

Status SyscallApi::Close(int fd) {
  EnterSyscall();
  const Status st = kernel_->SysClose(proc(), fd);
  FinishSyscall();
  return st;
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
  EnterSyscall();
  const Result<int64_t> n = kernel_->SysWrite(proc(), fd, data);
  FinishSyscall();
  return n;
}

Result<int64_t> SyscallApi::Lseek(int fd, int64_t offset, int whence) {
  EnterSyscall();
  const Result<int64_t> n = kernel_->SysLseek(proc(), fd, offset, whence);
  FinishSyscall();
  return n;
}

Result<int> SyscallApi::Dup(int fd) {
  EnterSyscall();
  const Result<int> n = kernel_->SysDup(proc(), fd);
  FinishSyscall();
  return n;
}

Status SyscallApi::Chdir(std::string_view path) {
  EnterSyscall();
  const Status st = kernel_->SysChdir(proc(), path);
  FinishSyscall();
  return st;
}

Result<std::string> SyscallApi::GetCwd() {
  EnterSyscall();
  const Result<std::string> cwd = kernel_->SysGetCwd(proc());
  FinishSyscall();
  return cwd;
}

Result<std::string> SyscallApi::Readlink(std::string_view path) {
  EnterSyscall();
  const Result<std::string> target = kernel_->SysReadlink(proc(), path);
  FinishSyscall();
  return target;
}

Result<StatInfo> SyscallApi::Stat(std::string_view path) {
  EnterSyscall();
  const Result<StatInfo> info = kernel_->SysStat(proc(), path, /*follow=*/true);
  FinishSyscall();
  return info;
}

Result<StatInfo> SyscallApi::LStat(std::string_view path) {
  EnterSyscall();
  const Result<StatInfo> info = kernel_->SysStat(proc(), path, /*follow=*/false);
  FinishSyscall();
  return info;
}

Result<std::vector<std::string>> SyscallApi::ReadDir(std::string_view path) {
  EnterSyscall();
  Result<std::vector<std::string>> names = kernel_->SysReadDir(proc(), path);
  FinishSyscall();
  return names;
}

Status SyscallApi::Unlink(std::string_view path) {
  EnterSyscall();
  const Status st = kernel_->SysUnlink(proc(), path);
  FinishSyscall();
  return st;
}

Status SyscallApi::Link(std::string_view oldpath, std::string_view newpath) {
  EnterSyscall();
  const Status st = kernel_->SysLink(proc(), oldpath, newpath);
  FinishSyscall();
  return st;
}

Status SyscallApi::Mkdir(std::string_view path, uint16_t mode) {
  EnterSyscall();
  const Status st = kernel_->SysMkdir(proc(), path, mode);
  FinishSyscall();
  return st;
}

Status SyscallApi::Rmdir(std::string_view path) {
  EnterSyscall();
  const Status st = kernel_->SysRmdir(proc(), path);
  FinishSyscall();
  return st;
}

Status SyscallApi::Rename(std::string_view oldpath, std::string_view newpath) {
  EnterSyscall();
  const Status st = kernel_->SysRename(proc(), oldpath, newpath);
  FinishSyscall();
  return st;
}

Status SyscallApi::Kill(int32_t target_pid, int signo) {
  EnterSyscall();
  const Status st = kernel_->SysKill(proc(), target_pid, signo);
  FinishSyscall();
  return st;
}

Status SyscallApi::SetDumpMode(int32_t target_pid, bool incremental) {
  EnterSyscall();
  const Status st = kernel_->SysSetDumpMode(proc(), target_pid, incremental);
  FinishSyscall();
  return st;
}

Result<bool> SyscallApi::DumpFailed(int32_t target_pid) {
  EnterSyscall();
  const Result<bool> r = kernel_->SysDumpFailed(proc(), target_pid);
  FinishSyscall();
  return r;
}

Status SyscallApi::SetReUid(int32_t ruid, int32_t euid) {
  EnterSyscall();
  const Status st = kernel_->SysSetReUid(proc(), ruid, euid);
  FinishSyscall();
  return st;
}

int32_t SyscallApi::GetPid() {
  Proc& p = proc();
  if (kernel_->config_.virtualize_identity && p.migrated) return p.old_pid;
  return p.pid;
}

int32_t SyscallApi::GetPpid() { return proc().ppid; }
int32_t SyscallApi::GetUid() { return proc().creds.uid; }
int32_t SyscallApi::GetEuid() { return proc().creds.euid; }

std::string SyscallApi::GetHostname() {
  Proc& p = proc();
  if (kernel_->config_.virtualize_identity && p.migrated) return p.old_host;
  return kernel_->hostname_;
}

Result<uint16_t> SyscallApi::TtyGetFlags(int fd) {
  EnterSyscall();
  const Result<uint16_t> flags = kernel_->SysTtyGet(proc(), fd);
  FinishSyscall();
  return flags;
}

Status SyscallApi::TtySetFlags(int fd, uint16_t flags) {
  EnterSyscall();
  const Status st = kernel_->SysTtySet(proc(), fd, flags);
  FinishSyscall();
  return st;
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

Result<int32_t> SyscallApi::SpawnProgram(const std::string& program,
                                         std::vector<std::string> args) {
  EnterSyscall();
  Proc& p = proc();
  SpawnOptions opts;
  opts.creds = p.creds;
  opts.tty = p.controlling_tty;
  opts.cwd = p.u_cwd_path.empty() ? "/" : p.u_cwd_path;
  opts.ppid = p.pid;
  kernel_->ChargeCpu(p, kernel_->costs_->fork_overhead + kernel_->costs_->exec_overhead);
  const Result<int32_t> pid = kernel_->SpawnProgram(program, std::move(args), opts);
  FinishSyscall();
  return pid;
}

Result<int32_t> SyscallApi::SpawnVm(const std::string& aout_path,
                                    std::vector<std::string> args) {
  EnterSyscall();
  Proc& p = proc();
  SpawnOptions opts;
  opts.creds = p.creds;
  opts.tty = p.controlling_tty;
  opts.cwd = p.u_cwd_path.empty() ? "/" : p.u_cwd_path;
  opts.ppid = p.pid;
  kernel_->ChargeCpu(p, kernel_->costs_->fork_overhead);
  const Result<int32_t> pid = kernel_->SpawnVm(aout_path, std::move(args), opts);
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
