// Dump-file format tests: the paper's magic numbers, round trips, corruption.

#include "src/core/dump_format.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "src/kernel/core_file.h"
#include "src/sim/rng.h"
#include "src/vm/aout.h"

namespace {
// The largest single allocation since the mutation test last reset it.
std::size_t g_largest_allocation = 0;
}  // namespace

// The default operator new and delete, plus a record of the largest request,
// which the delta a.out mutation test below bounds by its input. Kept out of
// line, like the library versions they replace.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_largest_allocation = std::max(g_largest_allocation, size);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

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

// The writer knows three slot kinds; any other byte is corruption, not a slot
// restart should quietly fill with the null device.
TEST(FilesFile, RejectsUnknownEntryKind) {
  FilesFile f;  // every slot unused: one kind byte each after host and cwd
  const std::string good = f.Serialize();
  ASSERT_TRUE(FilesFile::Parse(good).ok());
  std::string bytes = good;
  bytes[12] = 3;  // slot 0's kind, after the magic and two empty strings
  EXPECT_EQ(FilesFile::Parse(bytes).error(), Errno::kNoExec);
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

// Only the version Serialize writes is read: older layouts have no writer.
TEST(StackFile, RejectsEveryOtherVersion) {
  for (const char version : {0, 1, 2, 3, 5, 99}) {
    std::string bytes = SampleStack().Serialize();
    bytes[4] = version;  // version field follows the magic
    EXPECT_EQ(StackFile::Parse(bytes).error(), Errno::kNoExec) << int{version};
  }
}

// A disposition is default, ignore or catch; any other byte is corruption.
TEST(StackFile, RejectsUnknownSignalAction) {
  StackFile s = SampleStack();
  s.sig_dispositions[vm::abi::kSigUsr1].action =
      static_cast<kernel::SignalDisposition::Action>(3);
  EXPECT_EQ(StackFile::Parse(s.Serialize()).error(), Errno::kNoExec);
}

IncrAout SampleDelta(uint32_t full_size) {
  IncrAout a;
  a.machtype = 10;
  a.text_digest = 0x1111;
  a.text_size = 64;
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

// --- A seeded mutation test of the delta a.out: parse, then reconstruct ---

// One real delta a.out with the text and base blobs it was taken against, and
// the live data it must restore: 5.5 pages of data (the last page is partial),
// three of them written since the base was armed.
struct RealDelta {
  std::string bytes;
  sim::Blob text;
  sim::Blob base;
  std::vector<uint8_t> live_data;
};

RealDelta MakeRealDelta() {
  vm::AoutImage image;
  std::vector<uint8_t> text(64 * vm::kInstrBytes);
  for (size_t i = 0; i < text.size(); ++i) text[i] = static_cast<uint8_t>(i % 29);
  image.text = sim::Blob(text);
  image.data.resize(5 * vm::kDirtyPageBytes + 512);
  for (size_t i = 0; i < image.data.size(); ++i) {
    image.data[i] = static_cast<uint8_t>(i * 37 + 11);
  }
  vm::VmContext ctx;
  ctx.LoadImage(std::move(image));
  ctx.ArmDirtyTracking();
  const uint8_t word[] = {0xde, 0xad, 0xbe, 0xef};
  for (const uint32_t offset : {0u, 2 * vm::kDirtyPageBytes + 100, 5 * vm::kDirtyPageBytes + 500}) {
    EXPECT_TRUE(ctx.WriteBytes(vm::kDataBase + offset, sizeof(word), word));
  }
  return {BuildIncrAout(ctx, 10).Serialize(), ctx.text(), ctx.dirty.base, ctx.data};
}

uint32_t GetU32(const std::string& b, size_t at) {
  uint32_t v = 0;
  for (size_t i = 0; i < 4; ++i) v |= uint32_t{static_cast<uint8_t>(b[at + i])} << (8 * i);
  return v;
}

void PutU32(std::string& b, size_t at, uint32_t v) {
  for (size_t i = 0; i < 4; ++i) b[at + i] = static_cast<char>(v >> (8 * i));
}

// An edited 32-bit field: off by one, an extreme, a small number, or noise.
uint32_t EditU32(sim::Rng& rng, uint32_t was) {
  switch (rng.Below(6)) {
    case 0: return was + 1;
    case 1: return was - 1;
    case 2: return 0;
    case 3: return 0xFFFFFFFFu;
    case 4: return static_cast<uint32_t>(rng.Below(8));
    default: return static_cast<uint32_t>(rng.Next());
  }
}

// Byte offsets of the delta a.out's fixed fields (see IncrAout::Serialize).
constexpr size_t kU32Fields[] = {8, 12, 24, 45, 49};  // machtype entry text_size full_size npages
constexpr size_t kEncodingByte = 28;
constexpr size_t kDigestFields[] = {16, 29, 37};  // text, base, result
constexpr size_t kFirstPage = 53;

TEST(IncrAoutFuzz, MutatedDeltasFailCleanlyOrRestoreExactData) {
  const RealDelta real = MakeRealDelta();
  {
    const Result<IncrAout> parsed = IncrAout::Parse(real.bytes);
    ASSERT_TRUE(parsed.ok());
    ASSERT_EQ(parsed->pages.size(), 3u);
    const Result<ReconstructedImage> recon = ReconstructIncrAout(*parsed, real.text, real.base);
    ASSERT_TRUE(recon.ok());
    ASSERT_EQ(recon->image.data, real.live_data);
  }
  // Where each page record's index and length fields sit.
  std::vector<size_t> page_at;
  for (size_t at = kFirstPage; at < real.bytes.size(); at += 8 + GetU32(real.bytes, at + 4)) {
    page_at.push_back(at);
  }
  ASSERT_EQ(page_at.size(), 3u);

  sim::Rng rng(0xde17a);
  auto edit = [&rng](uint32_t was) { return EditU32(rng, was); };
  int restored = 0;
  int rejected = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    std::string bytes = real.bytes;
    sim::Blob text = real.text;
    sim::Blob base = real.base;
    const size_t page = page_at[rng.Below(page_at.size())];
    switch (rng.Below(7)) {
      case 0:  // bit flips anywhere
        for (uint64_t n = 1 + rng.Below(4); n > 0; --n) {
          bytes[rng.Below(bytes.size())] ^= static_cast<char>(1 << rng.Below(8));
        }
        break;
      case 1:  // truncation
        bytes.resize(rng.Below(bytes.size()));
        break;
      case 2: {  // a splice of the file's own bytes, over or into it
        const size_t from = rng.Below(bytes.size());
        const std::string chunk = bytes.substr(from, 1 + rng.Below(1100));
        const size_t to = rng.Below(bytes.size());
        if (rng.Chance(0.5)) {
          bytes.insert(to, chunk);
        } else {
          bytes.replace(to, chunk.size(), chunk);
        }
        break;
      }
      case 3:  // a page index
        PutU32(bytes, page, edit(GetU32(bytes, page)));
        break;
      case 4: {  // a page length, alone or with the bytes it counts
        const uint32_t len = GetU32(bytes, page + 4);
        if (rng.Chance(0.5)) {
          PutU32(bytes, page + 4, edit(len));
        } else {
          const uint32_t now = static_cast<uint32_t>(rng.Below(len + 64));
          if (now < len) {
            bytes.erase(page + 8 + now, len - now);
          } else {
            bytes.insert(page + 8 + len, now - len, '\x5a');
          }
          PutU32(bytes, page + 4, now);
        }
        break;
      }
      case 5:  // a header field
        if (rng.Chance(0.6)) {
          const size_t at = kU32Fields[rng.Below(std::size(kU32Fields))];
          PutU32(bytes, at, edit(GetU32(bytes, at)));
        } else if (rng.Chance(0.5)) {
          bytes[kEncodingByte] = static_cast<char>(rng.Below(256));
        } else {
          bytes[kDigestFields[rng.Below(std::size(kDigestFields))] + rng.Below(8)] ^=
              static_cast<char>(1 << rng.Below(8));
        }
        break;
      default: {  // one byte of the base blob (or the text blob) flipped
        sim::Blob& segment = rng.Chance(0.75) ? base : text;
        std::string flipped(segment.view());
        flipped[rng.Below(flipped.size())] ^= static_cast<char>(1 + rng.Below(255));
        segment = sim::Blob(std::move(flipped));
        break;
      }
    }

    g_largest_allocation = 0;
    const Result<IncrAout> parsed = IncrAout::Parse(bytes);
    Result<ReconstructedImage> recon = Errno::kNoExec;
    if (parsed.ok()) recon = ReconstructIncrAout(*parsed, text, base);
    // Nothing is sized by a length field past what the input holds: the page
    // array has at most one entry per 8 input bytes, and the patched data is
    // the size of the base blob.
    const size_t bound =
        std::max(base.size(), sizeof(IncrAout::DeltaPage) * (bytes.size() / 8 + 1));
    EXPECT_LE(g_largest_allocation, bound) << "case " << iter;
    if (!recon.ok()) {
      EXPECT_EQ(recon.error(), Errno::kNoExec) << "case " << iter;
      ++rejected;
      continue;
    }
    EXPECT_TRUE(recon->image.data == real.live_data) << "case " << iter;
    ++restored;
  }
  // Both outcomes occur: mutations of unchecked fields (machtype, entry) still
  // restore, and everything else is refused.
  EXPECT_GT(restored, 0);
  EXPECT_GT(rejected, 1000);
}

// --- Seeded mutation tests of the other dump parsers ---

// Mutates one real file 2,000 times — bit flips, truncations, splices of its
// own bytes, and edits of the 32-bit length and size fields at `u32_fields` —
// and parses each mutant. A mutant must fail with ENOEXEC or parse to a value
// that re-serializes to bytes which parse back to that same value; and no
// allocation may exceed what the mutant can hold (its size, plus one fixed
// object such as a blob's shared header).
template <typename ParseFn>
void FuzzDumpParser(const std::string& real, const std::vector<size_t>& u32_fields,
                    uint64_t seed, ParseFn parse) {
  constexpr size_t kFixedObjectBytes = 128;
  ASSERT_TRUE(parse(real).ok());
  sim::Rng rng(seed);
  int parsed = 0;
  int rejected = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    std::string bytes = real;
    switch (rng.Below(4)) {
      case 0:  // bit flips anywhere
        for (uint64_t n = 1 + rng.Below(4); n > 0; --n) {
          bytes[rng.Below(bytes.size())] ^= static_cast<char>(1 << rng.Below(8));
        }
        break;
      case 1:  // truncation
        bytes.resize(rng.Below(bytes.size()));
        break;
      case 2: {  // a splice of the file's own bytes, over or into it
        const std::string chunk =
            bytes.substr(rng.Below(bytes.size()), 1 + rng.Below(bytes.size()));
        const size_t to = rng.Below(bytes.size());
        if (rng.Chance(0.5)) {
          bytes.insert(to, chunk);
        } else {
          bytes.replace(to, chunk.size(), chunk);
        }
        break;
      }
      default: {  // a length or size field
        const size_t at = u32_fields[rng.Below(u32_fields.size())];
        PutU32(bytes, at, EditU32(rng, GetU32(bytes, at)));
        break;
      }
    }

    g_largest_allocation = 0;
    const auto value = parse(bytes);
    EXPECT_LE(g_largest_allocation, bytes.size() + kFixedObjectBytes) << "case " << iter;
    if (!value.ok()) {
      EXPECT_EQ(value.error(), Errno::kNoExec) << "case " << iter;
      ++rejected;
      continue;
    }
    ++parsed;
    const std::string again = value->Serialize();
    const auto back = parse(again);
    ASSERT_TRUE(back.ok()) << "case " << iter;
    EXPECT_EQ(back->Serialize(), again) << "case " << iter;
  }
  // Both outcomes occur: some mutations leave a valid file, most do not.
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 500);
}

// The offset of the length prefix in front of `text`'s first occurrence.
size_t LengthPrefixOf(const std::string& bytes, const std::string& text) {
  const size_t at = bytes.find(text);
  EXPECT_NE(at, std::string::npos) << text;
  EXPECT_GE(at, 4u) << text;
  return at - 4;
}

TEST(DumpParserFuzz, FilesFile) {
  const FilesFile f = SampleFiles();
  const std::string real = f.Serialize();
  std::vector<size_t> fields;
  for (const std::string& s : {f.host, f.cwd, f.entries[0].path, f.entries[3].path}) {
    fields.push_back(LengthPrefixOf(real, s));
  }
  FuzzDumpParser(real, fields, 0xf11e5,
                 [](const std::string& b) { return FilesFile::Parse(b); });
}

TEST(DumpParserFuzz, StackFile) {
  StackFile s = SampleStack();
  s.command = "counter";
  const std::string real = s.Serialize();
  // The version (after the magic), the stack's size (after four credentials),
  // and the two strings' lengths.
  FuzzDumpParser(real,
                 {4, 24, LengthPrefixOf(real, s.old_host), LengthPrefixOf(real, s.command)},
                 0x57ac4, [](const std::string& b) { return StackFile::Parse(b); });
}

TEST(DumpParserFuzz, AoutImage) {
  vm::AoutImage image;
  std::vector<uint8_t> text(16 * vm::kInstrBytes);
  for (size_t i = 0; i < text.size(); ++i) text[i] = static_cast<uint8_t>(i % 23);
  image.text = sim::Blob(text);
  image.data.assign(300, 0x5a);
  image.header.entry = 2 * vm::kInstrBytes;
  // machtype, text_size, data_size, entry
  FuzzDumpParser(image.Serialize(), {4, 8, 12, 16}, 0xa0a7,
                 [](const std::string& b) { return vm::AoutImage::Parse(b); });
}

TEST(DumpParserFuzz, CoreFile) {
  kernel::CoreFile core;
  core.cpu.regs[2] = 5;
  core.cpu.pc = 16;
  core.cpu.sp = vm::kStackTop - 24;
  core.data.assign(200, 9);
  core.stack.assign(24, 1);
  // The data and stack blobs' lengths, after the magic, registers, pc and sp.
  const size_t data_len_at = 4 + sizeof(core.cpu.regs) + 8;
  FuzzDumpParser(core.Serialize(), {data_len_at, data_len_at + 4 + core.data.size()},
                 0xc04e, [](const std::string& b) { return kernel::CoreFile::Parse(b); });
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
