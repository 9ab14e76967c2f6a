// A single machine's local filesystem: an inode tree rooted at "/".
//
// Purely mechanical object management (allocation, linking); path walking, mounts,
// and cost accounting live in Vfs. Direct helpers that take component names (not
// paths) are used by the resolver and by test fixtures that want to build trees
// without going through a kernel.

#ifndef PMIG_SRC_VFS_FILESYSTEM_H_
#define PMIG_SRC_VFS_FILESYSTEM_H_

#include <memory>
#include <string>

#include "src/sim/result.h"
#include "src/vfs/inode.h"

namespace pmig::vfs {

class Filesystem {
 public:
  // `disk_name` identifies the machine whose disk this is (for traces/tests).
  explicit Filesystem(std::string disk_name);

  Filesystem(const Filesystem&) = delete;
  Filesystem& operator=(const Filesystem&) = delete;

  const std::string& disk_name() const { return disk_name_; }
  const InodePtr& root() const { return root_; }

  // --- Inode allocation ---
  InodePtr NewRegular(int32_t uid, uint16_t mode = 0644);
  InodePtr NewDirectory(int32_t uid, uint16_t mode = 0755);
  InodePtr NewSymlink(std::string target, int32_t uid);
  InodePtr NewCharDevice(Device* device, int32_t uid, uint16_t mode = 0666);

  // --- Directory surgery (component names, not paths) ---
  // Fails with kExist / kNotDir as appropriate.
  Status Link(const InodePtr& dir, const std::string& name, const InodePtr& child);
  // Removes a directory entry; directories must be empty (kNotDir semantics follow
  // 4.2BSD: unlink on a directory is refused with kIsDir).
  Status Unlink(const InodePtr& dir, const std::string& name);

 private:
  InodePtr NewInode(InodeType type, int32_t uid, uint16_t mode);

  std::string disk_name_;
  uint32_t next_ino_ = 2;  // 2 is the traditional root ino
  InodePtr root_;
};

}  // namespace pmig::vfs

#endif  // PMIG_SRC_VFS_FILESYSTEM_H_
