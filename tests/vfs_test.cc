// VFS tests: inode trees, path resolution, symlinks, mounts, NFS remoteness —
// including the exact /n/classic/n/brador aliasing failure from Section 4.3.

#include "src/vfs/vfs.h"

#include <gtest/gtest.h>

#include "src/sim/cost_model.h"

namespace pmig::vfs {
namespace {

class VfsTest : public ::testing::Test {
 protected:
  VfsTest() : fs_("disk"), vfs_(&fs_, &costs_) {}

  Result<InodePtr> ResolveInode(const std::string& path, Follow follow = Follow::kAll) {
    auto r = vfs_.Resolve(vfs_.RootState(), path, follow, nullptr);
    if (!r.ok()) return r.error();
    return r->inode;
  }

  sim::CostModel costs_;
  Filesystem fs_;
  Vfs vfs_;
};

TEST_F(VfsTest, RootResolves) {
  auto r = ResolveInode("/");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, fs_.root());
}

TEST_F(VfsTest, EmptyPathIsNoEnt) {
  EXPECT_EQ(ResolveInode("").error(), Errno::kNoEnt);
}

TEST_F(VfsTest, SetupAndLookup) {
  const InodePtr file = vfs_.SetupCreateFile("/a/b/c.txt", "hello");
  auto r = ResolveInode("/a/b/c.txt");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, file);
  EXPECT_EQ((*r)->contents(), "hello");
}

TEST_F(VfsTest, MissingComponentIsNoEnt) {
  vfs_.SetupMkdirAll("/a");
  EXPECT_EQ(ResolveInode("/a/nope").error(), Errno::kNoEnt);
  EXPECT_EQ(ResolveInode("/nope/deep").error(), Errno::kNoEnt);
}

TEST_F(VfsTest, FileAsDirectoryIsNotDir) {
  vfs_.SetupCreateFile("/f", "");
  EXPECT_EQ(ResolveInode("/f/x").error(), Errno::kNotDir);
}

TEST_F(VfsTest, DotAndDotDot) {
  vfs_.SetupMkdirAll("/a/b");
  auto r = ResolveInode("/a/b/../b/./.");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE((*r)->IsDir());
  // ".." above the root stays at the root.
  auto root = ResolveInode("/../../a/..");
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(*root, fs_.root());
}

TEST_F(VfsTest, RelativeResolutionFromCwd) {
  vfs_.SetupMkdirAll("/a/b");
  vfs_.SetupCreateFile("/a/b/f", "x");
  auto cwd = vfs_.Resolve(vfs_.RootState(), "/a", Follow::kAll, nullptr);
  ASSERT_TRUE(cwd.ok());
  auto r = vfs_.Resolve(cwd->state, "b/f", Follow::kAll, nullptr);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->inode->contents(), "x");
}

TEST_F(VfsTest, SymlinkFollowedInMiddle) {
  vfs_.SetupCreateFile("/real/target", "data");
  vfs_.SetupSymlink("/link", "/real");
  auto r = ResolveInode("/link/target");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->contents(), "data");
}

TEST_F(VfsTest, RelativeSymlinkTarget) {
  vfs_.SetupCreateFile("/a/real", "y");
  vfs_.SetupSymlink("/a/alias", "real");
  auto r = ResolveInode("/a/alias");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->contents(), "y");
}

TEST_F(VfsTest, SymlinkWithDotDotTarget) {
  vfs_.SetupCreateFile("/x/f", "z");
  vfs_.SetupMkdirAll("/a");
  vfs_.SetupSymlink("/a/up", "../x/f");
  auto r = ResolveInode("/a/up");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->contents(), "z");
}

TEST_F(VfsTest, NoFollowStopsAtFinalSymlink) {
  vfs_.SetupCreateFile("/real", "");
  vfs_.SetupSymlink("/link", "/real");
  auto r = ResolveInode("/link", Follow::kNotLast);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE((*r)->IsSymlink());
}

TEST_F(VfsTest, SymlinkChainWithinLimit) {
  vfs_.SetupCreateFile("/end", "ok");
  std::string prev = "/end";
  for (int i = 0; i < kMaxSymlinkExpansions; ++i) {
    const std::string name = "/l" + std::to_string(i);
    vfs_.SetupSymlink(name, prev);
    prev = name;
  }
  auto r = ResolveInode(prev);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->contents(), "ok");
}

TEST_F(VfsTest, SymlinkLoopIsEloop) {
  vfs_.SetupSymlink("/a", "/b");
  vfs_.SetupSymlink("/b", "/a");
  EXPECT_EQ(ResolveInode("/a").error(), Errno::kLoop);
}

TEST_F(VfsTest, SelfLoopIsEloop) {
  vfs_.SetupSymlink("/self", "/self");
  EXPECT_EQ(ResolveInode("/self").error(), Errno::kLoop);
}

TEST_F(VfsTest, ReadlinkReturnsTarget) {
  vfs_.SetupSymlink("/l", "/anywhere");
  auto r = vfs_.Readlink(vfs_.RootState(), "/l", nullptr);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, "/anywhere");
}

TEST_F(VfsTest, ReadlinkOnNonSymlinkIsEinval) {
  vfs_.SetupCreateFile("/f", "");
  EXPECT_EQ(vfs_.Readlink(vfs_.RootState(), "/f", nullptr).error(), Errno::kInval);
}

TEST_F(VfsTest, ResolveParentExisting) {
  vfs_.SetupCreateFile("/d/f", "");
  auto rp = vfs_.ResolveParent(vfs_.RootState(), "/d/f", nullptr);
  ASSERT_TRUE(rp.ok());
  EXPECT_EQ(rp->name, "f");
  EXPECT_NE(rp->existing, nullptr);
}

TEST_F(VfsTest, ResolveParentMissingLeaf) {
  vfs_.SetupMkdirAll("/d");
  auto rp = vfs_.ResolveParent(vfs_.RootState(), "/d/new", nullptr);
  ASSERT_TRUE(rp.ok());
  EXPECT_EQ(rp->existing, nullptr);
}

TEST_F(VfsTest, ResolveParentRejectsDotNames) {
  EXPECT_EQ(vfs_.ResolveParent(vfs_.RootState(), "/d/..", nullptr).error(), Errno::kInval);
  EXPECT_EQ(vfs_.ResolveParent(vfs_.RootState(), "/", nullptr).error(), Errno::kInval);
}

TEST_F(VfsTest, ReadWriteAtOffsets) {
  const InodePtr f = vfs_.SetupCreateFile("/f", "0123456789");
  std::string out;
  EXPECT_EQ(vfs_.ReadAt(*f, 3, 4, &out, nullptr), 4);
  EXPECT_EQ(out, "3456");
  EXPECT_EQ(vfs_.ReadAt(*f, 8, 100, &out, nullptr), 2);
  EXPECT_EQ(out, "89");
  EXPECT_EQ(vfs_.ReadAt(*f, 20, 10, &out, nullptr), 0);  // past EOF

  EXPECT_EQ(vfs_.WriteAt(*f, 10, "AB", nullptr), 2);
  EXPECT_EQ(f->contents(), "0123456789AB");
  EXPECT_EQ(vfs_.WriteAt(*f, 14, "XY", nullptr), 2);  // hole filled with NULs
  EXPECT_EQ(f->contents().size(), 16u);
  EXPECT_EQ(f->contents()[12], '\0');
}

TEST_F(VfsTest, TruncateGrowsAndShrinks) {
  const InodePtr f = vfs_.SetupCreateFile("/f", "abcdef");
  ASSERT_TRUE(vfs_.Truncate(*f, 3, nullptr).ok());
  EXPECT_EQ(f->contents(), "abc");
  ASSERT_TRUE(vfs_.Truncate(*f, 5, nullptr).ok());
  EXPECT_EQ(f->contents().size(), 5u);
  EXPECT_EQ(vfs_.Truncate(*f, -1, nullptr).error(), Errno::kInval);
}

TEST(Filesystem, LinkUnlinkSemantics) {
  Filesystem fs("d");
  const InodePtr dir = fs.root();
  const InodePtr f = fs.NewRegular(0);
  ASSERT_TRUE(fs.Link(dir, "f", f).ok());
  EXPECT_EQ(f->nlink, 1);
  EXPECT_EQ(fs.Link(dir, "f", f).error(), Errno::kExist);
  ASSERT_TRUE(fs.Link(dir, "g", f).ok());  // hard link
  EXPECT_EQ(f->nlink, 2);
  ASSERT_TRUE(fs.Unlink(dir, "f").ok());
  EXPECT_EQ(f->nlink, 1);
  EXPECT_EQ(fs.Unlink(dir, "missing").error(), Errno::kNoEnt);
}

TEST(Filesystem, UnlinkNonEmptyDirRefused) {
  Filesystem fs("d");
  const InodePtr dir = fs.NewDirectory(0);
  ASSERT_TRUE(fs.Link(fs.root(), "dir", dir).ok());
  ASSERT_TRUE(fs.Link(dir, "f", fs.NewRegular(0)).ok());
  EXPECT_EQ(fs.Unlink(fs.root(), "dir").error(), Errno::kIsDir);
}

TEST(Filesystem, BadLinkNames) {
  Filesystem fs("d");
  EXPECT_EQ(fs.Link(fs.root(), ".", fs.NewRegular(0)).error(), Errno::kInval);
  EXPECT_EQ(fs.Link(fs.root(), "..", fs.NewRegular(0)).error(), Errno::kInval);
  EXPECT_EQ(fs.Link(fs.root(), "", fs.NewRegular(0)).error(), Errno::kInval);
}

TEST(CheckAccess, OwnerOtherAndRoot) {
  Inode inode;
  inode.uid = 100;
  inode.mode = 0640;
  EXPECT_TRUE(CheckAccess(inode, 100, kWantRead));
  EXPECT_TRUE(CheckAccess(inode, 100, kWantWrite));
  EXPECT_FALSE(CheckAccess(inode, 100, kWantExec));
  EXPECT_FALSE(CheckAccess(inode, 200, kWantRead));  // "other" bits are 0
  EXPECT_TRUE(CheckAccess(inode, 0, kWantExec));     // root bypasses
}

// --- Mounts and the NFS namespace ---

class MountTest : public ::testing::Test {
 protected:
  MountTest()
      : fs_a_("classic"),
        fs_b_("brador"),
        vfs_a_(&fs_a_, &costs_),
        vfs_b_(&fs_b_, &costs_) {
    // Each machine sees the other's root at /n/<host> (plus a self-loop).
    vfs_a_.AddMount(vfs_a_.SetupMkdirAll("/n/brador"), fs_b_.root());
    vfs_a_.AddMount(vfs_a_.SetupMkdirAll("/n/classic"), fs_a_.root());
    vfs_b_.AddMount(vfs_b_.SetupMkdirAll("/n/classic"), fs_a_.root());
    vfs_b_.AddMount(vfs_b_.SetupMkdirAll("/n/brador"), fs_b_.root());
  }

  sim::CostModel costs_;
  Filesystem fs_a_;  // "classic"
  Filesystem fs_b_;  // "brador" (the file server)
  Vfs vfs_a_;
  Vfs vfs_b_;
};

TEST_F(MountTest, CrossMountResolution) {
  vfs_b_.SetupCreateFile("/usr/foo", "remote bytes");
  auto r = vfs_a_.Resolve(vfs_a_.RootState(), "/n/brador/usr/foo", Follow::kAll, nullptr);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->inode->contents(), "remote bytes");
  EXPECT_TRUE(vfs_a_.InodeIsRemote(*r->inode));
  EXPECT_FALSE(vfs_b_.InodeIsRemote(*r->inode));
}

TEST_F(MountTest, DotDotOutOfMountReturnsToLocalSide) {
  vfs_b_.SetupMkdirAll("/usr");
  vfs_a_.SetupCreateFile("/n/marker", "local");
  auto r = vfs_a_.Resolve(vfs_a_.RootState(), "/n/brador/usr/../../marker", Follow::kAll,
                          nullptr);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->inode->contents(), "local");  // ".." climbed back onto classic's /n
}

// Section 4.3's exact scenario: on classic, /usr is a symlink to /n/brador/usr.
// A program opened /usr/foo; prepending /n/classic textually gives
// /n/classic/usr/foo, whose embedded symlink re-expands *on the resolving
// machine* — "NFS does not allow this syntax" / the alias breaks. Resolving the
// link first (dumpproc's job) gives the stable name /n/brador/usr/foo.
TEST_F(MountTest, PaperSection43SymlinkAliasing) {
  vfs_b_.SetupCreateFile("/usr/foo", "the file");
  vfs_a_.SetupSymlink("/usr", "/n/brador/usr");

  // On classic itself /usr/foo works:
  auto direct = vfs_a_.Resolve(vfs_a_.RootState(), "/usr/foo", Follow::kAll, nullptr);
  ASSERT_TRUE(direct.ok());

  // The naive rewrite /n/classic/usr/foo, resolved on brador, follows classic's
  // /usr symlink whose absolute target restarts at *brador's* root — it only
  // works by accident if brador mounts match, and in the historical NFS it did
  // not work at all. We model the failure by the symlink restarting at the
  // resolving machine's root: /n/brador/usr must exist ON BRADOR'S VIEW for it
  // to resolve. Remove brador's self-mount to show the historical breakage.
  Filesystem fs_c("spare");
  Vfs vfs_c(&fs_c, &costs_);
  vfs_c.AddMount(vfs_c.SetupMkdirAll("/n/classic"), fs_a_.root());
  // vfs_c has no /n/brador: the naive name breaks.
  auto naive = vfs_c.Resolve(vfs_c.RootState(), "/n/classic/usr/foo", Follow::kAll, nullptr);
  EXPECT_FALSE(naive.ok());

  // The resolved name works from anywhere brador is mounted:
  vfs_c.AddMount(vfs_c.SetupMkdirAll("/n/brador"), fs_b_.root());
  auto resolved = vfs_c.Resolve(vfs_c.RootState(), "/n/brador/usr/foo", Follow::kAll, nullptr);
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ(resolved->inode->contents(), "the file");
}

// Cost accounting: remote lookups charge NFS RPC waits; local ones do not.
class RecordingSink final : public CostSink {
 public:
  void ChargeCpu(sim::Nanos amount) override { cpu += amount; }
  void ChargeWait(sim::Nanos amount) override { wait += amount; }
  sim::Nanos cpu = 0;
  sim::Nanos wait = 0;
};

TEST_F(MountTest, RemoteLookupsChargeRpc) {
  vfs_b_.SetupCreateFile("/usr/foo", "x");
  RecordingSink local, remote;
  ASSERT_TRUE(vfs_a_.Resolve(vfs_a_.RootState(), "/n", Follow::kAll, &local).ok());
  ASSERT_TRUE(
      vfs_a_.Resolve(vfs_a_.RootState(), "/n/brador/usr/foo", Follow::kAll, &remote).ok());
  EXPECT_EQ(local.wait, 0);
  EXPECT_GE(remote.wait, 2 * costs_.nfs_rpc);  // "usr" and "foo" looked up remotely
}

TEST_F(MountTest, RemoteWritePaysServerDisk) {
  const InodePtr f = vfs_b_.SetupCreateFile("/usr/foo", "");
  RecordingSink sink;
  vfs_a_.WriteAt(*f, 0, std::string(100, 'x'), &sink);
  EXPECT_GE(sink.wait, costs_.nfs_rpc + costs_.disk_block_latency);
}

TEST_F(MountTest, SelfMountIsLocal) {
  vfs_a_.SetupCreateFile("/tmp/f", "self");
  auto r = vfs_a_.Resolve(vfs_a_.RootState(), "/n/classic/tmp/f", Follow::kAll, nullptr);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(vfs_a_.InodeIsRemote(*r->inode));
}

}  // namespace
}  // namespace pmig::vfs
