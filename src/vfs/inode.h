// Inodes: the on-"disk" objects of the simulated filesystem.
//
// As in the real kernel (Section 5.1), an inode records where a file's bytes live
// and its attributes — it does NOT know the file's name. Name information is what
// the paper's kernel modifications add, and they add it to the *file table* and the
// *user structure*, never here. Keeping that separation honest is what makes the
// name-tracking machinery in src/kernel meaningful.

#ifndef PMIG_SRC_VFS_INODE_H_
#define PMIG_SRC_VFS_INODE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "src/sim/blob.h"

namespace pmig::vfs {

class Filesystem;

enum class InodeType : uint8_t {
  kRegular,
  kDirectory,
  kSymlink,
  kCharDevice,
};

// Opaque device hook. The kernel's tty and null devices implement this; the VFS
// only needs identity and a debugging name.
class Device {
 public:
  virtual ~Device() = default;
  virtual std::string_view DeviceName() const = 0;
};

// Permission bits (classic octal).
constexpr uint16_t kModeRUser = 0400, kModeWUser = 0200, kModeXUser = 0100;
constexpr uint16_t kModeROther = 0004, kModeWOther = 0002, kModeXOther = 0001;

struct Inode {
  InodeType type = InodeType::kRegular;
  uint32_t ino = 0;
  uint16_t mode = 0644;
  int32_t uid = 0;
  int32_t gid = 0;
  int32_t nlink = 0;

  // Back-pointer to the owning filesystem; lets callers detect when a path walk
  // has crossed onto another machine's disk (NFS accounting).
  Filesystem* fs = nullptr;

  // kDirectory: name -> inode. (No "." / ".." entries; the resolver handles those.)
  std::map<std::string, std::shared_ptr<Inode>> entries;

  // kSymlink: link target (may be relative or absolute).
  std::string symlink_target;

  // kCharDevice: non-owning device hook (the kernel owns its devices).
  Device* device = nullptr;

  // kRegular: file contents, in one of two states. A file set in one piece
  // holds the blob it was given, so every whole-file reader shares its bytes
  // and kept digest. The first partial write copies the blob, once, into a
  // string that later writes grow in place (appends stay amortised O(1)).
  std::string_view contents() const { return blob_.empty() ? data_ : blob_.view(); }
  int64_t size() const { return static_cast<int64_t>(contents().size()); }
  // The whole contents as a blob: the held one, or a copy of the string.
  sim::Blob ContentsBlob() const { return blob_.empty() ? sim::Blob(data_) : blob_; }
  // Replaces the contents with `blob`, sharing it.
  void SetContents(sim::Blob blob) {
    blob_ = std::move(blob);
    data_ = std::string();
  }
  // The contents as a writable string; leaves the blob state for good.
  std::string& MutableContents() {
    if (!blob_.empty()) {
      data_.assign(blob_.view());
      blob_ = sim::Blob();
    }
    return data_;
  }

  bool IsDir() const { return type == InodeType::kDirectory; }
  bool IsRegular() const { return type == InodeType::kRegular; }
  bool IsSymlink() const { return type == InodeType::kSymlink; }
  bool IsDevice() const { return type == InodeType::kCharDevice; }

 private:
  sim::Blob blob_;    // set in one piece (empty otherwise)
  std::string data_;  // after the first partial write
};

using InodePtr = std::shared_ptr<Inode>;

// Access-check wants.
enum AccessWant : uint8_t { kWantRead = 4, kWantWrite = 2, kWantExec = 1 };

// Unix-style owner/other permission check (group is modelled as "other"; groups
// play no role in the paper). uid 0 bypasses everything.
bool CheckAccess(const Inode& inode, int32_t uid, uint8_t want);

}  // namespace pmig::vfs

#endif  // PMIG_SRC_VFS_INODE_H_
