#include "src/vfs/vfs.h"

#include <cassert>
#include <utility>

namespace pmig::vfs {

Vfs::Vfs(Filesystem* local, const sim::CostModel* costs) : local_(local), costs_(costs) {
  assert(local_ != nullptr && costs_ != nullptr);
}

void Vfs::AddMount(const InodePtr& mount_point, InodePtr remote_root) {
  assert(mount_point->IsDir() && remote_root->IsDir());
  mounts_[mount_point.get()] = std::move(remote_root);
}

bool Vfs::IsMountPoint(const Inode& inode) const {
  return mounts_.count(&inode) != 0;
}

WalkState Vfs::RootState() const {
  WalkState state;
  state.stack.push_back(local_->root());
  return state;
}

void Vfs::ChargeLookup(CostSink* sink, bool remote) const {
  if (sink == nullptr) return;
  sink->ChargeCpu(costs_->namei_component);
  if (remote) {
    sink->ChargeWait(costs_->nfs_rpc);
  }
}

Result<Vfs::Resolved> Vfs::Resolve(const WalkState& cwd, std::string_view path, Follow follow,
                                   CostSink* sink) const {
  if (path.empty()) return Errno::kNoEnt;
  WalkState state = IsAbsolute(path) ? RootState() : cwd;
  if (state.empty()) return Errno::kNoEnt;
  std::deque<std::string> pending;
  for (std::string& c : SplitPath(path)) pending.push_back(std::move(c));
  return WalkComponents(std::move(state), std::move(pending), follow, sink);
}

Result<Vfs::Resolved> Vfs::WalkComponents(WalkState state, std::deque<std::string> pending,
                                          Follow follow, CostSink* sink) const {
  int expansions = 0;
  while (!pending.empty()) {
    const std::string comp = std::move(pending.front());
    pending.pop_front();
    // "." and ".." are real directory lookups in namei and cost like any other
    // component (Figure 1's chdir measurement depends on this).
    if (comp == ".") {
      ChargeLookup(sink, InodeIsRemote(*state.dir()));
      continue;
    }
    if (comp == "..") {
      ChargeLookup(sink, InodeIsRemote(*state.dir()));
      if (state.stack.size() > 1) state.stack.pop_back();
      continue;
    }
    const InodePtr& cur = state.dir();
    if (!cur->IsDir()) return Errno::kNotDir;
    ChargeLookup(sink, InodeIsRemote(*cur));
    auto it = cur->entries.find(comp);
    if (it == cur->entries.end()) return Errno::kNoEnt;
    InodePtr child = it->second;
    if (auto mount = mounts_.find(child.get()); mount != mounts_.end()) {
      child = mount->second;
      if (FsUnreachable(child->fs)) return Errno::kHostUnreach;
    }
    if (child->IsSymlink()) {
      const bool is_last = pending.empty();
      if (!(follow == Follow::kNotLast && is_last)) {
        if (++expansions > kMaxSymlinkExpansions) return Errno::kLoop;
        if (sink != nullptr) {
          sink->ChargeCpu(costs_->readlink);
          if (InodeIsRemote(*child)) sink->ChargeWait(costs_->nfs_rpc);
        }
        std::vector<std::string> target = SplitPath(child->symlink_target);
        for (auto rit = target.rbegin(); rit != target.rend(); ++rit) {
          pending.push_front(std::move(*rit));
        }
        if (IsAbsolute(child->symlink_target)) {
          // An absolute target restarts at *this machine's* root. This is the exact
          // behaviour that makes "/n/classic" + a path containing an NFS symlink
          // resolve wrongly (Section 4.3); dumpproc must resolve links first.
          state = RootState();
        }
        continue;
      }
    }
    state.stack.push_back(std::move(child));
  }
  return Resolved{state.stack.back(), std::move(state)};
}

Result<Vfs::ResolvedParent> Vfs::ResolveParent(const WalkState& cwd, std::string_view path,
                                               CostSink* sink) const {
  if (path.empty()) return Errno::kNoEnt;
  std::vector<std::string> comps = SplitPath(path);
  if (comps.empty()) return Errno::kInval;  // "/" has no parent entry
  const std::string name = comps.back();
  if (name == "." || name == "..") return Errno::kInval;
  comps.pop_back();

  WalkState state = IsAbsolute(path) ? RootState() : cwd;
  if (state.empty()) return Errno::kNoEnt;
  std::deque<std::string> pending(comps.begin(), comps.end());
  PMIG_TRY(Resolved parent, WalkComponents(std::move(state), std::move(pending), Follow::kAll, sink));
  if (!parent.inode->IsDir()) return Errno::kNotDir;

  ResolvedParent out;
  out.dir = parent.inode;
  out.name = name;
  ChargeLookup(sink, InodeIsRemote(*parent.inode));
  auto it = parent.inode->entries.find(name);
  if (it != parent.inode->entries.end()) {
    out.existing = it->second;
    if (auto mount = mounts_.find(out.existing.get()); mount != mounts_.end()) {
      out.existing = mount->second;
    }
  }
  return out;
}

Result<std::string> Vfs::Readlink(const WalkState& cwd, std::string_view path,
                                  CostSink* sink) const {
  PMIG_TRY(Resolved r, Resolve(cwd, path, Follow::kNotLast, sink));
  if (!r.inode->IsSymlink()) return Errno::kInval;
  if (sink != nullptr) {
    sink->ChargeCpu(costs_->readlink);
    if (InodeIsRemote(*r.inode)) sink->ChargeWait(costs_->nfs_rpc);
  }
  return r.inode->symlink_target;
}

int64_t Vfs::ReadAt(const Inode& inode, int64_t offset, int64_t len, std::string* out,
                    CostSink* sink) const {
  out->clear();
  const int64_t n = ChargeRead(inode, offset, len, sink);
  if (n > 0) {
    out->assign(inode.contents().substr(static_cast<size_t>(offset), static_cast<size_t>(n)));
  }
  return n;
}

sim::Blob Vfs::ReadBlob(const Inode& inode, CostSink* sink) const {
  if (ChargeRead(inode, 0, inode.size(), sink) == 0) return sim::Blob();
  return inode.ContentsBlob();
}

int64_t Vfs::ChargeRead(const Inode& inode, int64_t offset, int64_t len,
                        CostSink* sink) const {
  if (FsUnreachable(inode.fs)) return 0;  // server gone: reads see nothing
  if (offset >= inode.size() || len <= 0) return 0;
  const int64_t n = std::min(len, inode.size() - offset);
  if (sink != nullptr) {
    const auto io = InodeIsRemote(inode) ? costs_->NetIo(n) : costs_->DiskIo(n);
    sink->ChargeCpu(io.cpu);
    sink->ChargeWait(io.wait);
  }
  if (metrics_ != nullptr && metrics_->enabled()) {
    const bool remote = InodeIsRemote(inode);
    const int64_t blocks = (n + costs_->disk_block_bytes - 1) / costs_->disk_block_bytes;
    (remote ? nfs_bytes_read_metric_ : bytes_read_metric_).Inc(n);
    (remote ? nfs_blocks_read_metric_ : blocks_read_metric_).Inc(blocks);
  }
  return n;
}

int64_t Vfs::WriteAt(Inode& inode, int64_t offset, std::string_view bytes,
                     CostSink* sink) const {
  std::string& data = inode.MutableContents();
  if (offset > inode.size()) {
    data.resize(static_cast<size_t>(offset), '\0');
  }
  if (offset + static_cast<int64_t>(bytes.size()) > inode.size()) {
    data.resize(static_cast<size_t>(offset) + bytes.size());
  }
  data.replace(static_cast<size_t>(offset), bytes.size(), bytes);
  if (sink != nullptr) {
    const int64_t n = static_cast<int64_t>(bytes.size());
    if (InodeIsRemote(inode)) {
      // NFS writes are synchronous through to the server's disk (the era's
      // write-through semantics): wire cost plus the remote disk.
      const auto wire = costs_->NetIo(n);
      const auto disk = costs_->DiskIo(n);
      sink->ChargeCpu(wire.cpu);
      sink->ChargeWait(wire.wait + disk.wait);
    } else {
      const auto io = costs_->DiskIo(n);
      sink->ChargeCpu(io.cpu);
      sink->ChargeWait(io.wait);
    }
  }
  if (metrics_ != nullptr && metrics_->enabled()) {
    const bool remote = InodeIsRemote(inode);
    const int64_t n = static_cast<int64_t>(bytes.size());
    const int64_t blocks = (n + costs_->disk_block_bytes - 1) / costs_->disk_block_bytes;
    (remote ? nfs_bytes_written_metric_ : bytes_written_metric_).Inc(n);
    (remote ? nfs_blocks_written_metric_ : blocks_written_metric_).Inc(blocks);
  }
  return static_cast<int64_t>(bytes.size());
}

Status Vfs::Truncate(Inode& inode, int64_t size, CostSink* sink) const {
  if (!inode.IsRegular()) return Errno::kInval;
  if (size < 0) return Errno::kInval;
  inode.MutableContents().resize(static_cast<size_t>(size), '\0');
  if (sink != nullptr) sink->ChargeCpu(costs_->file_table_slot);
  return Status::Ok();
}

InodePtr Vfs::SetupMkdirAll(std::string_view path) {
  assert(IsAbsolute(path));
  InodePtr cur = local_->root();
  for (const std::string& comp : SplitPath(path)) {
    auto it = cur->entries.find(comp);
    InodePtr child;
    if (it == cur->entries.end()) {
      Filesystem* owner = cur->fs;
      child = owner->NewDirectory(0);
      const Status st = owner->Link(cur, comp, child);
      assert(st.ok());
      (void)st;
    } else {
      child = it->second;
    }
    if (auto mount = mounts_.find(child.get()); mount != mounts_.end()) {
      child = mount->second;
    }
    assert(child->IsDir() && "SetupMkdirAll hit a non-directory");
    cur = std::move(child);
  }
  return cur;
}

InodePtr Vfs::SetupCreateFile(std::string_view path, std::string_view contents, int32_t uid,
                              uint16_t mode) {
  return SetupCreateFile(path, sim::Blob(std::string(contents)), uid, mode);
}

InodePtr Vfs::SetupCreateFile(std::string_view path, sim::Blob contents, int32_t uid,
                              uint16_t mode) {
  InodePtr dir = SetupMkdirAll(Dirname(path));
  const std::string name = Basename(path);
  dir->entries.erase(name);
  Filesystem* owner = dir->fs;
  InodePtr file = owner->NewRegular(uid, mode);
  file->SetContents(std::move(contents));
  const Status st = owner->Link(dir, name, file);
  assert(st.ok());
  (void)st;
  return file;
}

Status Vfs::InjectedIoFault(const Inode& inode, bool write) const {
  if (faults_ == nullptr || !faults_->enabled()) return Status::Ok();
  if (InodeIsRemote(inode)) {
    if (faults_->NfsIoFails(metrics_)) return Errno::kIo;
  } else if (write && faults_->DiskFull(fault_host_, metrics_)) {
    return Errno::kNoSpc;
  }
  return Status::Ok();
}

void Vfs::SetupUnlink(std::string_view path) {
  auto rp = ResolveParent(RootState(), path, nullptr);
  if (!rp.ok()) return;
  rp->dir->entries.erase(rp->name);
}

InodePtr Vfs::SetupSymlink(std::string_view path, std::string_view target) {
  InodePtr dir = SetupMkdirAll(Dirname(path));
  const std::string name = Basename(path);
  dir->entries.erase(name);
  Filesystem* owner = dir->fs;
  InodePtr link = owner->NewSymlink(std::string(target), 0);
  const Status st = owner->Link(dir, name, link);
  assert(st.ok());
  (void)st;
  return link;
}

}  // namespace pmig::vfs
