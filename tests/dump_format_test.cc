// Dump-file format tests: the paper's magic numbers, round trips, corruption.

#include "src/core/dump_format.h"

#include <gtest/gtest.h>

#include "src/kernel/core_file.h"

namespace pmig::core {
namespace {

FilesFile SampleFiles() {
  FilesFile f;
  f.host = "brick";
  f.cwd = "/n/brick/u/user";
  f.entries[0].kind = FilesEntry::Kind::kFile;
  f.entries[0].path = "/dev/tty";
  f.entries[0].flags = vm::abi::kORdWr;
  f.entries[0].offset = 0;
  f.entries[3].kind = FilesEntry::Kind::kFile;
  f.entries[3].path = "/n/brick/u/user/counter.out";
  f.entries[3].flags = vm::abi::kOWrOnly | vm::abi::kOAppend;
  f.entries[3].offset = 123;
  f.entries[5].kind = FilesEntry::Kind::kSocket;
  f.had_tty = true;
  f.tty_flags = vm::abi::kTtyRaw;
  return f;
}

TEST(FilesFile, MagicIsOctal445) { EXPECT_EQ(kFilesMagic, 0445u); }
TEST(StackFile, MagicIsOctal444) { EXPECT_EQ(kStackMagic, 0444u); }

TEST(FilesFile, RoundTrip) {
  const FilesFile f = SampleFiles();
  const Result<FilesFile> back = FilesFile::Parse(f.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->host, "brick");
  EXPECT_EQ(back->cwd, "/n/brick/u/user");
  EXPECT_EQ(back->entries[0].kind, FilesEntry::Kind::kFile);
  EXPECT_EQ(back->entries[0].path, "/dev/tty");
  EXPECT_EQ(back->entries[3].offset, 123);
  EXPECT_EQ(back->entries[3].flags, vm::abi::kOWrOnly | vm::abi::kOAppend);
  EXPECT_EQ(back->entries[5].kind, FilesEntry::Kind::kSocket);
  EXPECT_TRUE(back->entries[5].path.empty());  // sockets carry no extra info
  EXPECT_EQ(back->entries[7].kind, FilesEntry::Kind::kUnused);
  EXPECT_TRUE(back->had_tty);
  EXPECT_EQ(back->tty_flags, vm::abi::kTtyRaw);
}

TEST(FilesFile, RejectsBadMagic) {
  std::string bytes = SampleFiles().Serialize();
  bytes[0] ^= 0x01;
  EXPECT_EQ(FilesFile::Parse(bytes).error(), Errno::kNoExec);
}

TEST(FilesFile, RejectsTruncation) {
  const std::string bytes = SampleFiles().Serialize();
  for (const size_t cut : {bytes.size() - 1, bytes.size() / 2, size_t{5}}) {
    EXPECT_FALSE(FilesFile::Parse(bytes.substr(0, cut)).ok()) << cut;
  }
}

StackFile SampleStack() {
  StackFile s;
  s.creds = {100, 10, 100, 10};
  s.stack = {1, 2, 3, 4, 5, 6, 7, 8};
  s.cpu.regs[0] = -1;
  s.cpu.regs[5] = 42;
  s.cpu.pc = 64;
  s.cpu.sp = vm::kStackTop - 8;
  s.sig_dispositions[vm::abi::kSigUsr1].action = kernel::SignalDisposition::Action::kCatch;
  s.sig_dispositions[vm::abi::kSigUsr1].handler = 128;
  s.sig_dispositions[vm::abi::kSigInt].action = kernel::SignalDisposition::Action::kIgnore;
  s.sig_pending = 1u << vm::abi::kSigHup;
  s.old_pid = 1234;
  s.old_host = "brick";
  s.trace_id = 77;
  return s;
}

TEST(StackFile, RoundTrip) {
  const StackFile s = SampleStack();
  const Result<StackFile> back = StackFile::Parse(s.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->creds, (kernel::Credentials{100, 10, 100, 10}));
  EXPECT_EQ(back->stack, s.stack);
  EXPECT_EQ(back->stack_size(), 8u);
  EXPECT_EQ(back->cpu, s.cpu);
  EXPECT_EQ(back->sig_dispositions[vm::abi::kSigUsr1].action,
            kernel::SignalDisposition::Action::kCatch);
  EXPECT_EQ(back->sig_dispositions[vm::abi::kSigUsr1].handler, 128u);
  EXPECT_EQ(back->sig_pending, 1u << vm::abi::kSigHup);
  EXPECT_EQ(back->old_pid, 1234);
  EXPECT_EQ(back->old_host, "brick");
  EXPECT_EQ(back->trace_id, 77u);
}

// The trace id is a fixed 8-byte slot, so stamping a dump with a trace context
// never changes its size — the DiskIo/network cost of a traced migration is
// byte-for-byte the cost of an untraced one.
TEST(StackFile, TraceIdDoesNotChangeDumpSize) {
  StackFile traced = SampleStack();
  StackFile untraced = SampleStack();
  untraced.trace_id = 0;
  EXPECT_EQ(traced.Serialize().size(), untraced.Serialize().size());
  const Result<StackFile> back = StackFile::Parse(untraced.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->trace_id, 0u);
}

TEST(StackFile, RejectsBadMagic) {
  std::string bytes = SampleStack().Serialize();
  bytes[1] ^= 0xFF;
  EXPECT_EQ(StackFile::Parse(bytes).error(), Errno::kNoExec);
}

TEST(StackFile, RejectsTruncation) {
  const std::string bytes = SampleStack().Serialize();
  EXPECT_FALSE(StackFile::Parse(bytes.substr(0, bytes.size() - 3)).ok());
}

// Every genuine dump saves exactly [sp, kStackTop), so an sp that disagrees
// with the saved stack's size is corrupt (restored verbatim, it would point the
// process's stack outside its segment).
TEST(StackFile, RejectsSpThatDisagreesWithStackSize) {
  for (const uint32_t sp : {vm::kStackTop - 16, vm::kStackTop, vm::kStackTop + 8, 0xFFFFFFF8u}) {
    StackFile s = SampleStack();  // 8 bytes of stack
    s.cpu.sp = sp;
    EXPECT_EQ(StackFile::Parse(s.Serialize()).error(), Errno::kNoExec) << sp;
  }
  StackFile empty = SampleStack();
  empty.stack.clear();
  empty.cpu.sp = vm::kStackTop;
  EXPECT_TRUE(StackFile::Parse(empty.Serialize()).ok());
}

TEST(StackFile, RejectsUnknownVersion) {
  std::string bytes = SampleStack().Serialize();
  bytes[4] = 99;  // version field follows the magic
  EXPECT_EQ(StackFile::Parse(bytes).error(), Errno::kNoExec);
}

IncrAout SampleDelta(uint32_t full_size) {
  IncrAout a;
  a.machtype = 10;
  a.text_digest = 0x1111;
  a.text_size = 64;
  a.encoding = IncrAout::DataEncoding::kDelta;
  a.base_digest = 0x2222;
  a.result_digest = 0x3333;
  a.full_size = full_size;
  return a;
}

TEST(IncrAout, DeltaRoundTrip) {
  IncrAout a = SampleDelta(3 * vm::kDirtyPageBytes);
  a.pages.push_back({2, {7, 8, 9}});
  const Result<IncrAout> back = IncrAout::Parse(a.Serialize());
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->pages.size(), 1u);
  EXPECT_EQ(back->pages[0].index, 2u);
  EXPECT_EQ(back->pages[0].bytes, (std::vector<uint8_t>{7, 8, 9}));
}

// The page count is read off the disk: a huge one must be refused before
// anything is sized by it (a 53-byte file once asked for ~128 GiB).
TEST(IncrAout, HugePageCountIsRejectedWithoutAllocating) {
  std::string bytes = SampleDelta(4 * vm::kDirtyPageBytes).Serialize();
  ASSERT_EQ(bytes.size(), 53u);  // no pages: the count is the last field
  for (size_t i = bytes.size() - 4; i < bytes.size(); ++i) bytes[i] = '\xff';
  EXPECT_EQ(IncrAout::Parse(bytes).error(), Errno::kNoExec);
}

// A delta has at most one entry per page of its segment.
TEST(IncrAout, MorePagesThanTheSegmentHasIsRejected) {
  IncrAout a = SampleDelta(vm::kDirtyPageBytes);
  a.pages.push_back({0, {1}});
  a.pages.push_back({0, {2}});
  EXPECT_EQ(IncrAout::Parse(a.Serialize()).error(), Errno::kNoExec);
}

TEST(DumpPaths, NamesFollowThePaper) {
  const DumpPaths p = DumpPaths::For(1234);
  EXPECT_EQ(p.aout, "/usr/tmp/a.out1234");
  EXPECT_EQ(p.files, "/usr/tmp/files1234");
  EXPECT_EQ(p.stack, "/usr/tmp/stack1234");
  const DumpPaths q = DumpPaths::For(7, "/n/brick/usr/tmp");
  EXPECT_EQ(q.aout, "/n/brick/usr/tmp/a.out7");
}

TEST(CoreFile, RoundTrip) {
  kernel::CoreFile core;
  core.cpu.regs[2] = 5;
  core.cpu.pc = 16;
  core.cpu.sp = vm::kStackTop - 24;
  core.data = {9, 9, 9};
  core.stack = {1, 2};
  const Result<kernel::CoreFile> back = kernel::CoreFile::Parse(core.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->cpu, core.cpu);
  EXPECT_EQ(back->data, core.data);
  EXPECT_EQ(back->stack, core.stack);
}

TEST(CoreFile, RejectsGarbage) {
  EXPECT_FALSE(kernel::CoreFile::Parse("not a core").ok());
  EXPECT_FALSE(kernel::CoreFile::Parse("").ok());
}

}  // namespace
}  // namespace pmig::core
