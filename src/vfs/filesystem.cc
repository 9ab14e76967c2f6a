#include "src/vfs/filesystem.h"

#include <utility>

namespace pmig::vfs {

Filesystem::Filesystem(std::string disk_name) : disk_name_(std::move(disk_name)) {
  root_ = NewInode(InodeType::kDirectory, 0, 0755);
  root_->ino = 2;
  root_->nlink = 1;
}

InodePtr Filesystem::NewInode(InodeType type, int32_t uid, uint16_t mode) {
  auto inode = std::make_shared<Inode>();
  inode->type = type;
  inode->ino = next_ino_++;
  inode->uid = uid;
  inode->mode = mode;
  inode->fs = this;
  return inode;
}

InodePtr Filesystem::NewRegular(int32_t uid, uint16_t mode) {
  return NewInode(InodeType::kRegular, uid, mode);
}

InodePtr Filesystem::NewDirectory(int32_t uid, uint16_t mode) {
  return NewInode(InodeType::kDirectory, uid, mode);
}

InodePtr Filesystem::NewSymlink(std::string target, int32_t uid) {
  InodePtr inode = NewInode(InodeType::kSymlink, uid, 0777);
  inode->symlink_target = std::move(target);
  return inode;
}

InodePtr Filesystem::NewCharDevice(Device* device, int32_t uid, uint16_t mode) {
  InodePtr inode = NewInode(InodeType::kCharDevice, uid, mode);
  inode->device = device;
  return inode;
}

Status Filesystem::Link(const InodePtr& dir, const std::string& name, const InodePtr& child) {
  if (!dir || !dir->IsDir()) return Errno::kNotDir;
  if (name.empty() || name == "." || name == "..") return Errno::kInval;
  if (dir->entries.count(name) != 0) return Errno::kExist;
  dir->entries[name] = child;
  ++child->nlink;
  return Status::Ok();
}

Status Filesystem::Unlink(const InodePtr& dir, const std::string& name) {
  if (!dir || !dir->IsDir()) return Errno::kNotDir;
  auto it = dir->entries.find(name);
  if (it == dir->entries.end()) return Errno::kNoEnt;
  if (it->second->IsDir() && !it->second->entries.empty()) return Errno::kIsDir;
  --it->second->nlink;
  dir->entries.erase(it);
  return Status::Ok();
}

}  // namespace pmig::vfs
