// The incremental migration data path: dirty-page delta dumps and the
// content-addressed segment cache.
//
// Three properties: (1) a delta dump restores to exactly the state a full dump
// restores to — bit-for-bit across text, data, stack, and registers; (2) a
// corrupted or mismatched base is rejected with a clean errno, never a silently
// wrong restore; (3) cached migrations under a seeded fault schedule replay
// bit-identically, and no process is ever lost.

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/apps/checkpoint.h"
#include "src/core/dump_format.h"
#include "src/core/test_programs.h"
#include "src/core/tools.h"
#include "src/sim/hash.h"
#include "tests/test_util.h"

namespace pmig {
namespace {

using kernel::SyscallApi;
using test::kUserUid;
using test::World;
using test::WorldOptions;

WorldOptions TrackedOptions(int num_hosts = 2) {
  WorldOptions options;
  options.num_hosts = num_hosts;
  options.dirty_tracking = true;
  return options;
}

// Runs `fn` as root on `host`; returns its exit code.
int RunSystem(World& world, std::string_view host, kernel::NativeTask::Entry fn) {
  kernel::SpawnOptions opts;
  opts.tty = world.console(host);
  opts.cwd = "/";
  const int32_t pid = world.host(host).SpawnNative("system", std::move(fn), opts);
  world.RunUntilExited(host, pid, sim::Seconds(1200));
  return world.ExitInfoOf(host, pid).exit_code;
}

// Starts /bin/counter on brick, feeds it one line, dumps it (full or
// incremental), restarts it on schooner, and returns the restored process.
kernel::Proc* DumpAndRestart(World& world, bool incremental) {
  const int32_t pid = world.StartVm("brick", "/bin/counter");
  EXPECT_GT(pid, 0);
  EXPECT_TRUE(world.RunUntilBlocked("brick", pid));
  world.console("brick")->Type("hello\n");
  EXPECT_TRUE(world.RunUntilBlocked("brick", pid));

  std::vector<std::string> args = {"-p", std::to_string(pid)};
  if (incremental) args.push_back("--incremental");
  const int32_t dp = world.StartTool("brick", "dumpproc", args);
  EXPECT_TRUE(world.RunUntilExited("brick", dp));
  EXPECT_EQ(world.ExitInfoOf("brick", dp).exit_code, 0);

  const int32_t rs = world.StartTool("schooner", "restart",
                                     {"-p", std::to_string(pid), "-h", "brick"},
                                     kUserUid, world.console("schooner"));
  EXPECT_TRUE(world.RunUntilBlocked("schooner", rs));
  return world.host("schooner").FindProc(rs);
}

TEST(Incremental, DeltaRestoreIsBitIdenticalToFullRestore) {
  World full_world(TrackedOptions());
  World delta_world(TrackedOptions());
  kernel::Proc* full = DumpAndRestart(full_world, /*incremental=*/false);
  kernel::Proc* delta = DumpAndRestart(delta_world, /*incremental=*/true);
  ASSERT_NE(full, nullptr);
  ASSERT_NE(delta, nullptr);
  ASSERT_NE(full->vm, nullptr);
  ASSERT_NE(delta->vm, nullptr);

  // The restored memory images and CPU state must match exactly.
  EXPECT_EQ(full->vm->text(), delta->vm->text());
  EXPECT_EQ(full->vm->data, delta->vm->data);
  // The whole stack region as the process sees it, backed in host memory or not.
  auto stack_region = [](const vm::VmContext& ctx) {
    std::vector<uint8_t> bytes(vm::kStackMax);
    EXPECT_TRUE(ctx.ReadBytes(vm::kStackBase, vm::kStackMax, bytes.data()));
    return bytes;
  };
  EXPECT_EQ(stack_region(*full->vm), stack_region(*delta->vm));
  EXPECT_EQ(full->vm->cpu.pc, delta->vm->cpu.pc);
  for (int r = 0; r < vm::kNumRegs; ++r) {
    EXPECT_EQ(full->vm->cpu.regs[r], delta->vm->cpu.regs[r]) << "r" << r;
  }

  // And the delta-restored process keeps running correctly.
  delta_world.console("schooner")->Type("world\n");
  EXPECT_TRUE(delta_world.cluster().RunUntil([&] {
    return delta_world.console("schooner")->PlainOutput().find("r=3 s=3 k=3") !=
           std::string::npos;
  }));
  EXPECT_EQ(delta_world.FileContents("brick", "/u/user/counter.out"), "hello\nworld\n");
}

TEST(Incremental, SegmentBlobsLandInDumpHostCache) {
  World world(TrackedOptions());
  kernel::Proc* p = DumpAndRestart(world, /*incremental=*/true);
  ASSERT_NE(p, nullptr);
  // The dump seeded brick's cache with the text and base blobs; the restore
  // write-through seeded schooner's.
  kernel::Kernel& brick = world.host("brick");
  auto dir = brick.vfs().Resolve(brick.vfs().RootState(), core::kSegCacheDir,
                                 vfs::Follow::kAll, nullptr);
  ASSERT_TRUE(dir.ok());
  int blobs = 0;
  for (const auto& [name, inode] : dir->inode->entries) {
    uint64_t digest = 0;
    EXPECT_TRUE(sim::ParseHexDigest(name, &digest)) << name;
    EXPECT_EQ(sim::HashBytes(inode->contents()), digest) << name;
    ++blobs;
  }
  EXPECT_EQ(blobs, 2);  // text + delta base
  for (const auto& [name, inode] : dir->inode->entries) {
    EXPECT_TRUE(world.FileExists("schooner", std::string(core::kSegCacheDir) + "/" + name))
        << name;
  }
}

TEST(Incremental, CorruptedBaseBlobIsRejectedCleanly) {
  World world(TrackedOptions());
  const int32_t pid = world.StartVm("brick", "/bin/counter");
  ASSERT_TRUE(world.RunUntilBlocked("brick", pid));
  world.console("brick")->Type("hello\n");
  ASSERT_TRUE(world.RunUntilBlocked("brick", pid));

  const int32_t dp =
      world.StartTool("brick", "dumpproc", {"-p", std::to_string(pid), "--incremental"});
  ASSERT_TRUE(world.RunUntilExited("brick", dp));
  ASSERT_EQ(world.ExitInfoOf("brick", dp).exit_code, 0);

  // Flip a byte in every cached blob on the dump host (text and base alike):
  // whatever the restore fetches is now wrong for its digest.
  kernel::Kernel& brick = world.host("brick");
  auto dir = brick.vfs().Resolve(brick.vfs().RootState(), core::kSegCacheDir,
                                 vfs::Follow::kAll, nullptr);
  ASSERT_TRUE(dir.ok());
  ASSERT_FALSE(dir->inode->entries.empty());
  for (auto& [name, inode] : dir->inode->entries) {
    std::string& bytes = inode->MutableContents();
    ASSERT_FALSE(bytes.empty());
    bytes[0] = static_cast<char>(bytes[0] ^ 0xff);
  }

  // The restore must fail with a clean nonzero exit — no half-restored process.
  const int32_t rs = world.StartTool("schooner", "restart",
                                     {"-p", std::to_string(pid), "-h", "brick"},
                                     kUserUid, world.console("schooner"));
  ASSERT_TRUE(world.RunUntilExited("schooner", rs));
  EXPECT_NE(world.ExitInfoOf("schooner", rs).exit_code, 0);
  for (kernel::Proc* p : world.host("schooner").ListProcs()) {
    EXPECT_NE(p->kind, kernel::ProcKind::kVm);
  }
}

TEST(Incremental, MissingBlobsFailTheRestoreNotTheHost) {
  World world(TrackedOptions());
  const int32_t pid = world.StartVm("brick", "/bin/counter");
  ASSERT_TRUE(world.RunUntilBlocked("brick", pid));
  const int32_t dp =
      world.StartTool("brick", "dumpproc", {"-p", std::to_string(pid), "--incremental"});
  ASSERT_TRUE(world.RunUntilExited("brick", dp));
  ASSERT_EQ(world.ExitInfoOf("brick", dp).exit_code, 0);

  // Purge the dump host's cache: the dump now references blobs nobody has.
  kernel::Kernel& brick = world.host("brick");
  auto dir = brick.vfs().Resolve(brick.vfs().RootState(), core::kSegCacheDir,
                                 vfs::Follow::kAll, nullptr);
  ASSERT_TRUE(dir.ok());
  dir->inode->entries.clear();

  const int32_t rs = world.StartTool("schooner", "restart",
                                     {"-p", std::to_string(pid), "-h", "brick"},
                                     kUserUid, world.console("schooner"));
  ASSERT_TRUE(world.RunUntilExited("schooner", rs));
  EXPECT_NE(world.ExitInfoOf("schooner", rs).exit_code, 0);
}

// --- Blobs on the --cached path: hash once, copy never ---

// One hop of a --cached migrate, by hand: an incremental dump of `pid` on
// `from`, then a restart on `to` that reads the dump and any missing segment
// blobs from `from` over NFS. Returns the restart's pid, which is the restored
// process once it succeeds.
int32_t CachedHop(World& world, int32_t pid, const std::string& from, const std::string& to) {
  const int32_t dp =
      world.StartTool(from, "dumpproc", {"-p", std::to_string(pid), "--incremental"});
  EXPECT_TRUE(world.RunUntilExited(from, dp));
  EXPECT_EQ(world.ExitInfoOf(from, dp).exit_code, 0);
  return world.StartTool(to, "restart", {"-p", std::to_string(pid), "-h", from}, kUserUid,
                         world.console(to));
}

vfs::InodePtr CachedSegment(World& world, std::string_view host, uint64_t digest) {
  kernel::Kernel& k = world.host(host);
  auto r = k.vfs().Resolve(k.vfs().RootState(), core::SegCachePath(digest),
                           vfs::Follow::kAll, nullptr);
  return r.ok() ? r->inode : nullptr;
}

// Which byte of a cached segment a corruption test flips: the first, or the
// last (read only by the digest's tail, past the last whole stripe and word).
enum class FlipAt { kFirstByte, kLastByte };

void FlipByte(vfs::Inode& inode, FlipAt at) {
  std::string& bytes = inode.MutableContents();
  ASSERT_FALSE(bytes.empty());
  char& byte = at == FlipAt::kFirstByte ? bytes.front() : bytes.back();
  byte = static_cast<char>(byte ^ 0xff);
}

TEST(Incremental, WarmHopSharesOneBufferPerSegment) {
  World world(TrackedOptions());
  const int32_t pid = world.StartVm("brick", "/bin/counter");
  ASSERT_TRUE(world.RunUntilBlocked("brick", pid));
  const int32_t at_schooner = CachedHop(world, pid, "brick", "schooner");
  ASSERT_TRUE(world.RunUntilBlocked("schooner", at_schooner));
  // Back to brick: a warm hop, both segments hit brick's cache.
  const int32_t at_brick = CachedHop(world, at_schooner, "schooner", "brick");
  ASSERT_TRUE(world.RunUntilBlocked("brick", at_brick));
  kernel::Proc* restored = world.host("brick").FindProc(at_brick);
  ASSERT_NE(restored, nullptr);
  ASSERT_NE(restored->vm, nullptr);

  // The restored text, its delta base, and every host's cache file for each
  // are one buffer: no hop copied a segment.
  const sim::Blob& text = restored->vm->text();
  const sim::Blob& base = restored->vm->dirty.base;
  for (const std::string_view host : {"brick", "schooner"}) {
    const vfs::InodePtr cached_text = CachedSegment(world, host, text.Digest());
    const vfs::InodePtr cached_base = CachedSegment(world, host, base.Digest());
    ASSERT_NE(cached_text, nullptr) << host;
    ASSERT_NE(cached_base, nullptr) << host;
    EXPECT_EQ(cached_text->contents().data(), text.view().data()) << host;
    EXPECT_EQ(cached_base->contents().data(), base.view().data()) << host;
  }
}

// A host decodes a text buffer once: every later restore of that buffer there
// shares the table, down to the pointer, and the process runs on. A text with
// equal bytes in another buffer (a fresh exec of the same file) gets its own.
TEST(Incremental, WarmRestoresShareOneDecodedTable) {
  World world(TrackedOptions());
  const int32_t pid = world.StartVm("brick", "/bin/counter");
  ASSERT_TRUE(world.RunUntilBlocked("brick", pid));
  const std::shared_ptr<vm::DecodedText> exec_table =
      world.host("brick").FindProc(pid)->vm->decoded();

  int32_t at_schooner = CachedHop(world, pid, "brick", "schooner");
  ASSERT_TRUE(world.RunUntilBlocked("schooner", at_schooner));
  const std::shared_ptr<vm::DecodedText> schooner_table =
      world.host("schooner").FindProc(at_schooner)->vm->decoded();
  EXPECT_NE(schooner_table, exec_table);  // another host decodes for itself
  EXPECT_EQ(schooner_table->text.data(), exec_table->text.data());

  const int32_t at_brick = CachedHop(world, at_schooner, "schooner", "brick");
  ASSERT_TRUE(world.RunUntilBlocked("brick", at_brick));
  EXPECT_EQ(world.host("brick").FindProc(at_brick)->vm->decoded(), exec_table);
  at_schooner = CachedHop(world, at_brick, "brick", "schooner");
  ASSERT_TRUE(world.RunUntilBlocked("schooner", at_schooner));
  kernel::Proc* restored = world.host("schooner").FindProc(at_schooner);
  EXPECT_EQ(restored->vm->decoded(), schooner_table);

  const int32_t fresh = world.StartVm("brick", "/bin/counter");
  ASSERT_TRUE(world.RunUntilBlocked("brick", fresh));
  const vm::VmContext& fresh_ctx = *world.host("brick").FindProc(fresh)->vm;
  EXPECT_NE(fresh_ctx.decoded(), exec_table);
  EXPECT_NE(fresh_ctx.text().data(), exec_table->text.data());
  EXPECT_EQ(fresh_ctx.text(), exec_table->text);

  // Three hops in, the counters still count.
  world.console("schooner")->Type("x\n");
  EXPECT_TRUE(world.cluster().RunUntil([&] {
    return world.console("schooner")->PlainOutput().find("r=2 s=2 k=2") != std::string::npos;
  }));
}

// Flips one byte of schooner's cached copy of a segment ("text" or "data", the
// delta base) after a warm hop, when that copy's digest is already kept: the
// next restore there must notice, drop it, fetch the blob again from the dump
// host, and still restore exact bytes. With the dump host's copy flipped as
// well, no good copy is left: the restart fails cleanly and leaves no VM
// process behind.
void ExpectCorruptCachedSegmentRefetched(const std::string& kind, FlipAt at) {
  WorldOptions options = TrackedOptions();
  options.metrics = true;
  World world(options);
  const int32_t pid = world.StartVm("brick", "/bin/counter");
  ASSERT_TRUE(world.RunUntilBlocked("brick", pid));
  const vm::VmContext& live = *world.host("brick").FindProc(pid)->vm;
  const uint64_t digest = kind == "text" ? live.text().Digest() : live.dirty.base.Digest();

  // brick -> schooner fills schooner's cache with the fetched blobs, their
  // digests kept; then back to brick.
  int32_t at_schooner = CachedHop(world, pid, "brick", "schooner");
  ASSERT_TRUE(world.RunUntilBlocked("schooner", at_schooner));
  int32_t at_brick = CachedHop(world, at_schooner, "schooner", "brick");
  ASSERT_TRUE(world.RunUntilBlocked("brick", at_brick));
  vfs::InodePtr cached = CachedSegment(world, "schooner", digest);
  ASSERT_NE(cached, nullptr);
  ASSERT_TRUE(cached->ContentsBlob().digest_kept());

  FlipByte(*cached, at);
  const sim::MetricsRegistry& metrics = world.host("schooner").metrics();
  const int64_t corrupt_before = metrics.Counter("cache.seg.corrupt");
  const int64_t misses_before = metrics.Counter("cache." + kind + ".misses");
  const std::vector<uint8_t> expected = world.host("brick").FindProc(at_brick)->vm->data;
  at_schooner = CachedHop(world, at_brick, "brick", "schooner");
  ASSERT_TRUE(world.RunUntilBlocked("schooner", at_schooner));
  EXPECT_EQ(metrics.Counter("cache.seg.corrupt"), corrupt_before + 1);
  EXPECT_EQ(metrics.Counter("cache." + kind + ".misses"), misses_before + 1);
  kernel::Proc* restored = world.host("schooner").FindProc(at_schooner);
  ASSERT_NE(restored, nullptr);
  ASSERT_NE(restored->vm, nullptr);
  EXPECT_EQ(restored->vm->data, expected);
  cached = CachedSegment(world, "schooner", digest);
  ASSERT_NE(cached, nullptr);
  EXPECT_EQ(sim::HashBytes(cached->contents()), digest);  // written through

  at_brick = CachedHop(world, at_schooner, "schooner", "brick");
  ASSERT_TRUE(world.RunUntilBlocked("brick", at_brick));
  FlipByte(*CachedSegment(world, "schooner", digest), at);
  FlipByte(*CachedSegment(world, "brick", digest), at);
  const int32_t rs = CachedHop(world, at_brick, "brick", "schooner");
  ASSERT_TRUE(world.RunUntilExited("schooner", rs));
  EXPECT_NE(world.ExitInfoOf("schooner", rs).exit_code, 0);
  for (kernel::Proc* p : world.host("schooner").ListProcs()) {
    EXPECT_NE(p->kind, kernel::ProcKind::kVm);
  }
}

TEST(Incremental, KeptDigestNeverHidesLaterCorruption) {
  ExpectCorruptCachedSegmentRefetched("data", FlipAt::kFirstByte);
}

TEST(Incremental, LastByteOfCachedBaseIsCheckedToo) {
  ExpectCorruptCachedSegmentRefetched("data", FlipAt::kLastByte);
}

TEST(Incremental, LastByteOfCachedTextIsCheckedToo) {
  ExpectCorruptCachedSegmentRefetched("text", FlipAt::kLastByte);
}

TEST(Incremental, DumpModeNeedsTrackingArmed) {
  // Without track_dirty_pages, dumpproc --incremental degrades to a full dump
  // (setdumpmode refuses) and still succeeds end to end.
  World world;  // default options: no dirty tracking
  kernel::Proc* p = DumpAndRestart(world, /*incremental=*/true);
  ASSERT_NE(p, nullptr);
  EXPECT_TRUE(p->migrated);
}

// --- sbrk() and dirty tracking ---


TEST(Incremental, MarkDirtyAfterHeapGrowthStaysInsideBitmap) {
  vm::VmContext ctx;
  vm::AoutImage image;
  image.text = sim::Blob(std::vector<uint8_t>(vm::kInstrBytes, 0));
  image.data.assign(100, 7);
  ctx.LoadImage(image);
  ctx.ArmDirtyTracking();
  const size_t tracked = ctx.dirty.data_dirty.size();
  // Grow well past the armed bitmap (as sbrk() does) and write into the new
  // space: the mark must clamp to the bitmap, not index past it.
  const size_t old_size = ctx.data.size();
  ctx.data.resize(old_size + 64 * vm::kDirtyPageBytes, 0);
  ctx.NoteDataResize(old_size, ctx.data.size());
  const uint8_t value = 42;
  EXPECT_TRUE(ctx.WriteBytes(vm::kDataBase + static_cast<uint32_t>(ctx.data.size()) - 1,
                             1, &value));
  EXPECT_EQ(ctx.dirty.data_dirty.size(), tracked);
  EXPECT_EQ(ctx.data.back(), 42);
}

constexpr std::string_view kHeapGrower = R"(
; Grows its heap by two pages, writes into the new space, then blocks reading
; its console (so tests can wait for it to quiesce, like /bin/counter).
        .text
start:  movi r0, 2048
        sys  SYS_brk
        mov  r5, r0             ; r5 = base of the new heap
        movi r4, 42
        stb  r4, r5, 0
        stb  r4, r5, 1024
loop:   movi r0, 0
        movi r1, buf
        movi r2, 1
        sys  SYS_read
        jmp  loop
        .data
seed:   .ascii "seed"
buf:    .space 8
)";

constexpr std::string_view kHeapShrinker = R"(
; Shrinks its heap by four bytes and grows it right back: the tail of the
; data segment is now zeroes, with no store instruction ever touching it.
        .text
start:  movi r0, -4
        sys  SYS_brk
        movi r0, 4
        sys  SYS_brk
loop:   movi r0, 0
        movi r1, buf
        movi r2, 1
        sys  SYS_read
        jmp  loop
        .data
pad:    .space 1012
buf:    .space 8
tail:   .ascii "AAAAAAAA"
)";

TEST(Incremental, SbrkGrownHeapFallsBackToFullDumpAndRestores) {
  World world(TrackedOptions());
  core::InstallProgram(world.host("brick"), "/bin/grower", kHeapGrower);
  const int32_t pid = world.StartVm("brick", "/bin/grower");
  ASSERT_GT(pid, 0);
  ASSERT_TRUE(world.RunUntilBlocked("brick", pid));

  kernel::Proc* src = world.host("brick").FindProc(pid);
  ASSERT_NE(src, nullptr);
  ASSERT_NE(src->vm, nullptr);
  const std::vector<uint8_t> expected = src->vm->data;
  const size_t base_size = src->vm->dirty.base.size();
  ASSERT_EQ(expected.size(), base_size + 2048);
  EXPECT_EQ(expected[base_size], 42);
  EXPECT_EQ(expected[base_size + 1024], 42);

  const int32_t dp =
      world.StartTool("brick", "dumpproc", {"-p", std::to_string(pid), "--incremental"});
  ASSERT_TRUE(world.RunUntilExited("brick", dp));
  ASSERT_EQ(world.ExitInfoOf("brick", dp).exit_code, 0);

  // The grown segment cannot be a delta against the exec-time base: the dump
  // must have fallen back to a restorable full a.out.
  EXPECT_FALSE(core::IsIncrAout(world.FileContents("brick", core::DumpPaths::For(pid).aout)));

  const int32_t rs = world.StartTool("schooner", "restart",
                                     {"-p", std::to_string(pid), "-h", "brick"},
                                     kUserUid, world.console("schooner"));
  ASSERT_TRUE(world.RunUntilBlocked("schooner", rs));
  kernel::Proc* restored = world.host("schooner").FindProc(rs);
  ASSERT_NE(restored, nullptr);
  ASSERT_NE(restored->vm, nullptr);
  EXPECT_EQ(restored->vm->data, expected);
}

TEST(Incremental, SbrkShrinkRegrowStillDeltaDumpsExactly) {
  World world(TrackedOptions());
  core::InstallProgram(world.host("brick"), "/bin/shrinker", kHeapShrinker);
  const int32_t pid = world.StartVm("brick", "/bin/shrinker");
  ASSERT_GT(pid, 0);
  ASSERT_TRUE(world.RunUntilBlocked("brick", pid));

  kernel::Proc* src = world.host("brick").FindProc(pid);
  ASSERT_NE(src, nullptr);
  ASSERT_NE(src->vm, nullptr);
  const std::vector<uint8_t> expected = src->vm->data;
  // The size is back at the base's, but the last four bytes were zeroed by the
  // shrink/regrow without a single tracked store.
  ASSERT_EQ(expected.size(), src->vm->dirty.base.size());
  ASSERT_EQ(expected.size(), 1028u);
  for (size_t i = 1024; i < 1028; ++i) EXPECT_EQ(expected[i], 0u) << i;

  const int32_t dp =
      world.StartTool("brick", "dumpproc", {"-p", std::to_string(pid), "--incremental"});
  ASSERT_TRUE(world.RunUntilExited("brick", dp));
  ASSERT_EQ(world.ExitInfoOf("brick", dp).exit_code, 0);
  // Same size as the base, so this dump really is a delta — and the
  // resize-dirtied page rides along, making it reconstruct bit-exactly.
  ASSERT_TRUE(core::IsIncrAout(world.FileContents("brick", core::DumpPaths::For(pid).aout)));

  const int32_t rs = world.StartTool("schooner", "restart",
                                     {"-p", std::to_string(pid), "-h", "brick"},
                                     kUserUid, world.console("schooner"));
  ASSERT_TRUE(world.RunUntilBlocked("schooner", rs));
  kernel::Proc* restored = world.host("schooner").FindProc(rs);
  ASSERT_NE(restored, nullptr);
  ASSERT_NE(restored->vm, nullptr);
  EXPECT_EQ(restored->vm->data, expected);
}

TEST(Incremental, CachedMigrateOfSbrkProcessNeverLosesIt) {
  World world(TrackedOptions());
  core::InstallProgram(world.host("brick"), "/bin/grower", kHeapGrower);
  const int32_t pid = world.StartVm("brick", "/bin/grower");
  ASSERT_GT(pid, 0);
  ASSERT_TRUE(world.RunUntilBlocked("brick", pid));
  kernel::Proc* src = world.host("brick").FindProc(pid);
  ASSERT_NE(src, nullptr);
  const std::vector<uint8_t> expected = src->vm->data;

  net::Network* net = &world.cluster().network();
  auto rc = std::make_shared<int>(-1);
  kernel::SpawnOptions opts;
  opts.creds = {kUserUid, 10, kUserUid, 10};
  const int32_t mig = world.host("brick").SpawnNative(
      "migrate",
      [rc, net, pid](SyscallApi& api) {
        core::MigrateOptions mo = core::MigrateOptions::Robust();
        mo.cached = true;
        *rc = core::Migrate(api, *net, pid, "brick", "schooner", /*use_daemon=*/false, mo);
        return *rc;
      },
      opts);
  ASSERT_TRUE(world.RunUntilExited("brick", mig, sim::Seconds(600)));
  EXPECT_EQ(*rc, 0);
  const int32_t moved_pid = world.FindPidByCommand("schooner", "migrated");
  ASSERT_GT(moved_pid, 0);
  kernel::Proc* moved = world.host("schooner").FindProc(moved_pid);
  ASSERT_NE(moved, nullptr);
  ASSERT_NE(moved->vm, nullptr);
  EXPECT_EQ(moved->vm->data, expected);
}

// --- Checkpoint dedup + incremental checkpoints ---

TEST(Incremental, CheckpointSkipsUnchangedOpenFileCopies) {
  World world(TrackedOptions(1));
  world.host("brick").vfs().SetupMkdirAll("/ckpt");
  const int32_t pid = world.StartVm("brick", "/bin/counter");
  ASSERT_TRUE(world.RunUntilBlocked("brick", pid));
  world.console("brick")->Type("one\n");
  ASSERT_TRUE(world.RunUntilBlocked("brick", pid));

  auto current = std::make_shared<int32_t>(pid);
  auto take = [&world, current](int index) {
    return RunSystem(world, "brick", [current, index](SyscallApi& api) {
      const auto r = apps::TakeCheckpoint(api, *current, "/ckpt", index,
                                          /*incremental=*/true);
      if (!r.ok()) return 1;
      *current = r->new_pid;
      return 0;
    });
  };
  ASSERT_EQ(take(0), 0);
  ASSERT_TRUE(world.RunUntilBlocked("brick", *current));
  // Nothing written to counter.out between the two snapshots: checkpoint 1 must
  // reuse checkpoint 0's copy instead of writing its own.
  ASSERT_EQ(take(1), 0);
  ASSERT_TRUE(world.RunUntilBlocked("brick", *current));
  EXPECT_TRUE(world.FileExists("brick", "/ckpt/0.open3"));
  EXPECT_FALSE(world.FileExists("brick", "/ckpt/1.open3"));

  // The file changes before checkpoint 2: a fresh copy is taken again.
  world.console("brick")->Type("two\n");
  ASSERT_TRUE(world.RunUntilBlocked("brick", *current));
  ASSERT_EQ(take(2), 0);
  ASSERT_TRUE(world.RunUntilBlocked("brick", *current));
  EXPECT_TRUE(world.FileExists("brick", "/ckpt/2.open3"));

  // Restoring checkpoint 1 replays through the reused copy: counter.out goes
  // back to its checkpoint-1 content and the counters resume from there.
  const int code = RunSystem(world, "brick", [](SyscallApi& api) {
    return apps::RestoreCheckpoint(api, "/ckpt", 1).ok() ? 0 : 1;
  });
  ASSERT_EQ(code, 0);
  EXPECT_EQ(world.FileContents("brick", "/u/user/counter.out"), "one\n");
  const int32_t restored = world.FindPidByCommand("brick", "migrated");
  ASSERT_GT(restored, 0);
  ASSERT_TRUE(world.RunUntilBlocked("brick", restored));
  world.console("brick")->Type("three\n");
  // (the console already shows an old "r=3" from before the rollback, so wait on
  // the file itself)
  EXPECT_TRUE(world.cluster().RunUntil([&] {
    return world.FileContents("brick", "/u/user/counter.out") == "one\nthree\n";
  }));
}

TEST(Incremental, CheckpointDedupDistrustsBareHashMatch) {
  World world(TrackedOptions(1));
  world.host("brick").vfs().SetupMkdirAll("/ckpt");
  const int32_t pid = world.StartVm("brick", "/bin/counter");
  ASSERT_TRUE(world.RunUntilBlocked("brick", pid));
  world.console("brick")->Type("one\n");
  ASSERT_TRUE(world.RunUntilBlocked("brick", pid));

  auto current = std::make_shared<int32_t>(pid);
  auto take = [&world, current](int index) {
    return RunSystem(world, "brick", [current, index](SyscallApi& api) {
      const auto r = apps::TakeCheckpoint(api, *current, "/ckpt", index,
                                          /*incremental=*/true);
      if (!r.ok()) return 1;
      *current = r->new_pid;
      return 0;
    });
  };
  ASSERT_EQ(take(0), 0);
  ASSERT_TRUE(world.RunUntilBlocked("brick", *current));

  // Corrupt checkpoint 0's saved copy without touching its recorded hash. The
  // live file still hashes to the manifest value — exactly what a digest
  // collision would look like — but the stored bytes no longer match, so the
  // dedup must refuse the reuse and write a fresh copy.
  kernel::Kernel& brick = world.host("brick");
  auto copy = brick.vfs().Resolve(brick.vfs().RootState(), "/ckpt/0.open3",
                                  vfs::Follow::kAll, nullptr);
  ASSERT_TRUE(copy.ok());
  std::string& saved = copy->inode->MutableContents();
  ASSERT_FALSE(saved.empty());
  saved[0] = static_cast<char>(saved[0] ^ 0xff);

  ASSERT_EQ(take(1), 0);
  ASSERT_TRUE(world.RunUntilBlocked("brick", *current));
  EXPECT_TRUE(world.FileExists("brick", "/ckpt/1.open3"));
  EXPECT_EQ(world.FileContents("brick", "/ckpt/1.open3"), "one\n");
}

TEST(Incremental, CheckpointDirectoryIsSelfContained) {
  // An incremental checkpoint archives the segment blobs it references, so a
  // restore succeeds even after /var/segcache is purged.
  World world(TrackedOptions(1));
  world.host("brick").vfs().SetupMkdirAll("/ckpt");
  const int32_t pid = world.StartVm("brick", "/bin/counter");
  ASSERT_TRUE(world.RunUntilBlocked("brick", pid));
  world.console("brick")->Type("one\n");
  ASSERT_TRUE(world.RunUntilBlocked("brick", pid));

  auto current = std::make_shared<int32_t>(pid);
  ASSERT_EQ(RunSystem(world, "brick",
                      [current](SyscallApi& api) {
                        const auto r = apps::TakeCheckpoint(api, *current, "/ckpt", 0,
                                                            /*incremental=*/true);
                        if (!r.ok()) return 1;
                        *current = r->new_pid;
                        return 0;
                      }),
            0);

  // Purge the cache, kill the live process, then restore from the directory.
  kernel::Kernel& brick = world.host("brick");
  auto dir = brick.vfs().Resolve(brick.vfs().RootState(), core::kSegCacheDir,
                                 vfs::Follow::kAll, nullptr);
  ASSERT_TRUE(dir.ok());
  ASSERT_FALSE(dir->inode->entries.empty());
  dir->inode->entries.clear();
  const Status killed = brick.PostSignal(*current, vm::abi::kSigKill, nullptr);
  ASSERT_TRUE(killed.ok());
  ASSERT_TRUE(world.RunUntilExited("brick", *current));

  const int code = RunSystem(world, "brick", [](SyscallApi& api) {
    return apps::RestoreCheckpoint(api, "/ckpt", 0).ok() ? 0 : 1;
  });
  ASSERT_EQ(code, 0);
  const int32_t restored = world.FindPidByCommand("brick", "migrated");
  ASSERT_GT(restored, 0);
  ASSERT_TRUE(world.RunUntilBlocked("brick", restored));
  world.console("brick")->Type("two\n");
  ASSERT_TRUE(world.cluster().RunUntil([&] {
    return world.console("brick")->PlainOutput().find("r=3 s=3 k=3") != std::string::npos;
  }));
}

// --- Chaos soak with --cached ---

constexpr std::string_view kTickerSource = R"(
        .text
start:
loop:   movi r0, 2
        sys  SYS_sleep
        jmp  loop
)";

constexpr int kVictims = 6;

std::string RunCachedChaos(uint64_t seed) {
  WorldOptions options;
  options.num_hosts = 3;
  options.metrics = true;
  options.dirty_tracking = true;
  options.faults.enabled = true;
  options.faults.seed = seed;
  options.faults.net_send_failure_rate = 0.25;
  options.faults.dump_corruption_rate = 0.15;
  options.faults.crashes.push_back({"schooner", sim::Seconds(8), sim::Seconds(20)});
  World world(options);

  core::InstallProgram(world.host("brick"), "/bin/ticker", kTickerSource);
  std::vector<int32_t> victims;
  for (int i = 0; i < kVictims; ++i) {
    const int32_t pid = world.StartVm("brick", "/bin/ticker");
    EXPECT_GT(pid, 0);
    victims.push_back(pid);
  }
  for (const int32_t pid : victims) {
    EXPECT_TRUE(world.cluster().RunUntil(
        [&world, pid] {
          const kernel::Proc* p = world.host("brick").FindProc(pid);
          return p != nullptr && p->state == kernel::ProcState::kSleeping;
        },
        sim::Seconds(120)));
  }

  net::Network* net = &world.cluster().network();
  std::ostringstream fp;
  for (int i = 0; i < kVictims; ++i) {
    const int32_t pid = victims[static_cast<size_t>(i)];
    const std::string target = (i % 2 == 0) ? "schooner" : "brador";
    auto rc = std::make_shared<int>(-1);
    kernel::SpawnOptions opts;
    opts.creds = {kUserUid, 10, kUserUid, 10};
    const int32_t mig = world.host("brick").SpawnNative(
        "migrate",
        [rc, net, pid, target](SyscallApi& api) {
          core::MigrateOptions mopts = core::MigrateOptions::Robust();
          mopts.cached = true;
          *rc = core::Migrate(api, *net, pid, "brick", target, /*use_daemon=*/false, mopts);
          return *rc;
        },
        opts);
    EXPECT_TRUE(world.RunUntilExited("brick", mig, sim::Seconds(600)));
    fp << "rc" << i << "=" << *rc << ";";
  }

  world.cluster().context().faults.Disarm();
  world.cluster().RunFor(sim::Seconds(40));

  int total_alive = 0;
  for (const std::string host : {"brick", "schooner", "brador"}) {
    int alive = 0;
    for (kernel::Proc* p : world.host(host).ListProcs()) {
      if (p->kind == kernel::ProcKind::kVm && p->Alive()) ++alive;
    }
    total_alive += alive;
    fp << host << "=" << alive << ";";
  }
  EXPECT_EQ(total_alive, kVictims) << "seed " << seed << " lost a process";

  fp << "t=" << world.cluster().clock().now() << ";";
  const sim::MetricsRegistry metrics = world.cluster().AggregateMetrics();
  for (const auto& [name, value] : metrics.counters()) {
    fp << name << "=" << value << ";";
  }
  return fp.str();
}

TEST(Incremental, CachedChaosSoakReplaysBitIdentically) {
  const uint64_t seed = 7;
  const std::string first = RunCachedChaos(seed);
  const std::string second = RunCachedChaos(seed);
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace pmig
