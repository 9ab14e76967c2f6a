// Per-machine VFS: path resolution, mount table, and cost-accounted file I/O.
//
// Every machine sees its own local disk at "/" and — following the 8th-edition
// convention the paper's site used — every other machine's root mounted at
// /n/<host> (Section 3). A path walk that crosses a mount point continues on the
// remote machine's filesystem and from then on pays NFS RPC costs instead of local
// disk costs. Symbolic links are resolved mid-walk with a 4.2BSD-style expansion
// limit (ELOOP).
//
// ".." is resolved against the walk itself (a stack of inodes), not against parent
// pointers, so a remote root's ".." correctly leads back to the *local* /n — and a
// walk can never escape the root.

#ifndef PMIG_SRC_VFS_VFS_H_
#define PMIG_SRC_VFS_VFS_H_

#include <deque>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/sim/blob.h"
#include "src/sim/cost_model.h"
#include "src/sim/fault.h"
#include "src/sim/metrics.h"
#include "src/sim/result.h"
#include "src/vfs/filesystem.h"
#include "src/vfs/inode.h"
#include "src/vfs/path.h"

namespace pmig::vfs {

// 4.2BSD MAXSYMLINKS.
constexpr int kMaxSymlinkExpansions = 8;

// Receiver for the virtual-time cost of an operation. The kernel passes the calling
// process's accountant; tests may pass nullptr to resolve "for free".
class CostSink {
 public:
  virtual void ChargeCpu(sim::Nanos amount) = 0;
  virtual void ChargeWait(sim::Nanos amount) = 0;

 protected:
  ~CostSink() = default;
};

// A position in the namespace: the chain of inodes from the local root down to (and
// including) a directory. This is the kernel's *physical* knowledge of the current
// directory — the textual path in the user structure is the paper's addition and is
// maintained separately by the kernel.
struct WalkState {
  std::vector<InodePtr> stack;

  const InodePtr& dir() const { return stack.back(); }
  bool empty() const { return stack.empty(); }
};

enum class Follow : uint8_t {
  kAll,        // resolve symlinks everywhere (stat, chdir, open)
  kNotLast,    // resolve symlinks except in the final component (lstat, unlink,
               // readlink, symlink creation)
};

class Vfs {
 public:
  Vfs(Filesystem* local, const sim::CostModel* costs);

  Vfs(const Vfs&) = delete;
  Vfs& operator=(const Vfs&) = delete;

  // Installed by the owning kernel: byte/block counters for ReadAt/WriteAt land
  // here. May stay null (tests construct a bare Vfs); recording never charges cost.
  void set_metrics(sim::MetricsRegistry* metrics) {
    metrics_ = metrics;
    if (metrics == nullptr) return;
    // ReadAt/WriteAt run once per buffer on every file syscall: pre-resolve the
    // counter slots instead of paying a map lookup per call.
    bytes_read_metric_ = metrics->MakeCounter("vfs.bytes_read");
    blocks_read_metric_ = metrics->MakeCounter("vfs.blocks_read");
    nfs_bytes_read_metric_ = metrics->MakeCounter("vfs.nfs_bytes_read");
    nfs_blocks_read_metric_ = metrics->MakeCounter("vfs.nfs_blocks_read");
    bytes_written_metric_ = metrics->MakeCounter("vfs.bytes_written");
    blocks_written_metric_ = metrics->MakeCounter("vfs.blocks_written");
    nfs_bytes_written_metric_ = metrics->MakeCounter("vfs.nfs_bytes_written");
    nfs_blocks_written_metric_ = metrics->MakeCounter("vfs.nfs_blocks_written");
  }

  // Installed by the owning kernel: the cluster-wide fault injector plus this
  // machine's hostname (for disk-full window matching). Stays null in default
  // configs, making InjectedIoFault a dead branch.
  void set_fault_injector(sim::FaultInjector* faults, std::string host) {
    faults_ = faults;
    fault_host_ = std::move(host);
  }

  // Consulted by the kernel's file-I/O syscalls before touching `inode`:
  // remote (NFS) inodes may draw an injected EIO; local writes inside a
  // configured disk-full window fail with ENOSPC. OkStatus when no injector
  // is installed or nothing fires.
  Status InjectedIoFault(const Inode& inode, bool write) const;

  // Grafts `remote_root` over the directory inode `mount_point`: any walk reaching
  // the mount point continues at the remote root.
  void AddMount(const InodePtr& mount_point, InodePtr remote_root);

  // Installed by the cluster: true when the machine owning `fs` is unreachable
  // (down). Walks and I/O that would touch it fail with EHOSTUNREACH — NFS with
  // a dead server (well, the historical NFS would hang; we fail fast).
  void set_unreachable_check(std::function<bool(const Filesystem*)> check) {
    unreachable_ = std::move(check);
  }
  bool FsUnreachable(const Filesystem* fs) const {
    return unreachable_ && fs != local_ && unreachable_(fs);
  }
  bool IsMountPoint(const Inode& inode) const;

  WalkState RootState() const;

  struct Resolved {
    InodePtr inode;
    WalkState state;  // walk ending at `inode` (if a directory) or its parent chain
  };

  // Resolves `path` starting from `cwd` (ignored for absolute paths).
  Result<Resolved> Resolve(const WalkState& cwd, std::string_view path, Follow follow,
                           CostSink* sink) const;

  struct ResolvedParent {
    InodePtr dir;        // existing parent directory
    std::string name;    // final component (may or may not exist in `dir`)
    InodePtr existing;   // the entry if it exists (symlinks NOT followed), else null
  };

  // Resolves all but the final component; for creat/unlink/link/symlink.
  Result<ResolvedParent> ResolveParent(const WalkState& cwd, std::string_view path,
                                       CostSink* sink) const;

  // readlink(): the target string of a symlink, with I/O cost.
  Result<std::string> Readlink(const WalkState& cwd, std::string_view path,
                               CostSink* sink) const;

  // --- Regular-file I/O with disk/NFS cost accounting ---
  // Reads up to `len` bytes at `offset`; returns bytes read (0 at EOF).
  int64_t ReadAt(const Inode& inode, int64_t offset, int64_t len, std::string* out,
                 CostSink* sink) const;
  // Reads the whole file as a blob, sharing the inode's when it holds one.
  // Charges and records exactly what ReadAt(inode, 0, inode.size()) does.
  sim::Blob ReadBlob(const Inode& inode, CostSink* sink) const;
  // Writes `bytes` at `offset`, growing the file as needed; returns bytes written.
  int64_t WriteAt(Inode& inode, int64_t offset, std::string_view bytes, CostSink* sink) const;
  Status Truncate(Inode& inode, int64_t size, CostSink* sink) const;

  // Charges the cost of one component lookup against `sink` (exposed so the kernel
  // can charge its name-tracking work consistently). `remote` selects NFS costs.
  void ChargeLookup(CostSink* sink, bool remote) const;

  bool InodeIsRemote(const Inode& inode) const { return inode.fs != local_; }

  // --- Setup helpers (no cost accounting; for boot code and tests) ---
  // Creates every missing directory along an absolute path; returns the leaf.
  InodePtr SetupMkdirAll(std::string_view path);
  // Creates (or replaces) a regular file with the given contents; returns it.
  // The blob form makes the file hold (share) `contents`.
  InodePtr SetupCreateFile(std::string_view path, std::string_view contents, int32_t uid = 0,
                           uint16_t mode = 0644);
  InodePtr SetupCreateFile(std::string_view path, sim::Blob contents, int32_t uid = 0,
                           uint16_t mode = 0644);
  // Creates a symlink at `path` pointing to `target`.
  InodePtr SetupSymlink(std::string_view path, std::string_view target);
  // Removes the directory entry for an absolute path if it exists (no cost
  // accounting; for cleanup in kernel dump-abort paths and tests).
  void SetupUnlink(std::string_view path);

 private:
  // Charges, and records in the metrics, a read of up to `len` bytes at
  // `offset`; returns how many there are (0 at EOF or with the server gone).
  int64_t ChargeRead(const Inode& inode, int64_t offset, int64_t len, CostSink* sink) const;
  Result<Resolved> WalkComponents(WalkState state, std::deque<std::string> pending,
                                  Follow follow, CostSink* sink) const;

  Filesystem* local_;
  const sim::CostModel* costs_;
  sim::MetricsRegistry* metrics_ = nullptr;
  // mutable: ReadAt/WriteAt are const (they mutate only the inode) but recording
  // a metric updates the handle's cached slot.
  mutable sim::CounterHandle bytes_read_metric_, blocks_read_metric_;
  mutable sim::CounterHandle nfs_bytes_read_metric_, nfs_blocks_read_metric_;
  mutable sim::CounterHandle bytes_written_metric_, blocks_written_metric_;
  mutable sim::CounterHandle nfs_bytes_written_metric_, nfs_blocks_written_metric_;
  sim::FaultInjector* faults_ = nullptr;
  std::string fault_host_;
  std::map<const Inode*, InodePtr> mounts_;
  std::function<bool(const Filesystem*)> unreachable_;
};

}  // namespace pmig::vfs

#endif  // PMIG_SRC_VFS_VFS_H_
