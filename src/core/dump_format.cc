#include "src/core/dump_format.h"

#include <algorithm>

#include "src/sim/bytes.h"
#include "src/sim/hash.h"
#include "src/vm/aout.h"

namespace pmig::core {

namespace {
// The one stack-file version written and read: v1's fields plus the old
// pid/host (v2), the trace id (v3) and the command (v4).
constexpr uint32_t kStackFormatVersion = 4;
}

std::string FilesFile::Serialize() const {
  sim::ByteWriter w;
  w.U32(kFilesMagic);
  w.Str(host);
  w.Str(cwd);
  for (const FilesEntry& e : entries) {
    w.U8(static_cast<uint8_t>(e.kind));
    if (e.kind == FilesEntry::Kind::kFile) {
      w.Str(e.path);
      w.I32(e.flags);
      w.I64(e.offset);
    }
    // Sockets: "no extra information is kept in the case of a socket."
  }
  w.U8(had_tty ? 1 : 0);
  w.U16(tty_flags);
  return w.Take();
}

Result<FilesFile> FilesFile::Parse(std::string_view bytes) {
  sim::ByteReader r(bytes);
  if (r.U32() != kFilesMagic) return Errno::kNoExec;
  FilesFile f;
  f.host = r.Str();
  f.cwd = r.Str();
  for (FilesEntry& e : f.entries) {
    const uint8_t kind = r.U8();
    if (kind > static_cast<uint8_t>(FilesEntry::Kind::kSocket)) return Errno::kNoExec;
    e.kind = static_cast<FilesEntry::Kind>(kind);
    if (e.kind == FilesEntry::Kind::kFile) {
      e.path = r.Str();
      e.flags = r.I32();
      e.offset = r.I64();
    }
  }
  f.had_tty = r.U8() != 0;
  f.tty_flags = r.U16();
  if (!r.ok()) return Errno::kNoExec;
  return f;
}

std::string StackFile::Serialize() const {
  sim::ByteWriter w;
  w.U32(kStackMagic);
  w.U32(kStackFormatVersion);
  w.I32(creds.uid);
  w.I32(creds.gid);
  w.I32(creds.euid);
  w.I32(creds.egid);
  w.Blob(stack);  // length prefix is "the size of the stack"
  for (const int64_t reg : cpu.regs) w.I64(reg);
  w.U32(cpu.pc);
  w.U32(cpu.sp);
  for (const kernel::SignalDisposition& d : sig_dispositions) {
    w.U8(static_cast<uint8_t>(d.action));
    w.U32(d.handler);
  }
  w.U64(sig_pending);
  w.I32(old_pid);
  w.Str(old_host);
  w.U64(trace_id);
  w.Str(command);
  return w.Take();
}

Result<StackFile> StackFile::Parse(std::string_view bytes) {
  sim::ByteReader r(bytes);
  if (r.U32() != kStackMagic) return Errno::kNoExec;
  if (r.U32() != kStackFormatVersion) return Errno::kNoExec;
  StackFile s;
  s.creds.uid = r.I32();
  s.creds.gid = r.I32();
  s.creds.euid = r.I32();
  s.creds.egid = r.I32();
  s.stack = r.Blob();
  for (int64_t& reg : s.cpu.regs) reg = r.I64();
  s.cpu.pc = r.U32();
  s.cpu.sp = r.U32();
  for (kernel::SignalDisposition& d : s.sig_dispositions) {
    const uint8_t action = r.U8();
    if (action > static_cast<uint8_t>(kernel::SignalDisposition::Action::kCatch)) {
      return Errno::kNoExec;
    }
    d.action = static_cast<kernel::SignalDisposition::Action>(action);
    d.handler = r.U32();
  }
  s.sig_pending = r.U64();
  s.old_pid = r.I32();
  s.old_host = r.Str();
  s.trace_id = r.U64();
  s.command = r.Str();
  if (!r.ok()) return Errno::kNoExec;
  // A dump saves exactly [sp, kStackTop), so any other sp is corrupt; taken
  // verbatim it would point the restored process's stack outside its segment.
  if (uint64_t{s.cpu.sp} + s.stack.size() != vm::kStackTop) return Errno::kNoExec;
  return s;
}

std::string SegCachePath(uint64_t digest, const std::string& nfs_prefix) {
  return nfs_prefix + kSegCacheDir + "/" + sim::HexDigest(digest);
}

// The data-encoding byte of an incremental a.out. Its one value means a delta
// against a cached base; any other is rejected.
constexpr uint8_t kDeltaEncoding = 1;

int64_t IncrAout::FullEquivalentBytes() const {
  return static_cast<int64_t>(vm::kAoutHeaderBytes) + text_size + full_size;
}

std::string IncrAout::Serialize() const {
  sim::ByteWriter w;
  w.U32(kIncrAoutMagic);
  w.U32(kIncrAoutVersion);
  w.U32(machtype);
  w.U32(entry);
  w.U64(text_digest);
  w.U32(text_size);
  w.U8(kDeltaEncoding);
  w.U64(base_digest);
  w.U64(result_digest);
  w.U32(full_size);
  w.U32(static_cast<uint32_t>(pages.size()));
  for (const DeltaPage& page : pages) {
    w.U32(page.index);
    w.Blob(page.bytes);
  }
  return w.Take();
}

Result<IncrAout> IncrAout::Parse(std::string_view bytes) {
  sim::ByteReader r(bytes);
  if (r.U32() != kIncrAoutMagic) return Errno::kNoExec;
  if (r.U32() != kIncrAoutVersion) return Errno::kNoExec;
  IncrAout a;
  a.machtype = r.U32();
  a.entry = r.U32();
  a.text_digest = r.U64();
  a.text_size = r.U32();
  if (r.U8() != kDeltaEncoding) return Errno::kNoExec;
  a.base_digest = r.U64();
  a.result_digest = r.U64();
  a.full_size = r.U32();
  const uint32_t npages = r.U32();
  if (!r.ok()) return Errno::kNoExec;
  // The count is untrusted: bound it before allocating. Every page takes at
  // least 8 bytes (index + length), and a delta has at most one entry per page
  // of the segment.
  constexpr size_t kMinPageBytes = 2 * sizeof(uint32_t);
  const uint64_t segment_pages =
      (uint64_t{a.full_size} + vm::kDirtyPageBytes - 1) / vm::kDirtyPageBytes;
  if (npages > r.remaining() / kMinPageBytes || npages > segment_pages) {
    return Errno::kNoExec;
  }
  a.pages.resize(npages);
  for (DeltaPage& page : a.pages) {
    page.index = r.U32();
    page.bytes = r.Blob();
  }
  if (!r.ok() || !r.AtEnd()) return Errno::kNoExec;
  return a;
}

bool IsIncrAout(std::string_view bytes) {
  sim::ByteReader r(bytes);
  return r.U32() == kIncrAoutMagic && r.ok();
}

IncrAout BuildIncrAout(const vm::VmContext& ctx, uint32_t machtype) {
  const vm::DirtyTracking& dirty = ctx.dirty;
  IncrAout a;
  a.machtype = machtype;
  a.entry = 0;
  a.text_digest = ctx.text().Digest();
  a.text_size = static_cast<uint32_t>(ctx.text().size());
  a.base_digest = dirty.base.Digest();
  a.result_digest = sim::HashBytes(ctx.data);
  a.full_size = static_cast<uint32_t>(ctx.data.size());
  for (uint32_t page = 0; page < dirty.data_dirty.size(); ++page) {
    if (!dirty.data_dirty[page]) continue;
    const uint32_t start = page * vm::kDirtyPageBytes;
    // A bit can be stale: set while the segment was larger, before an sbrk()
    // shrink. A page wholly past the current data has nothing to contribute.
    if (start >= ctx.data.size()) continue;
    const uint32_t end = std::min(start + vm::kDirtyPageBytes,
                                  static_cast<uint32_t>(ctx.data.size()));
    a.pages.push_back({page, {ctx.data.begin() + start, ctx.data.begin() + end}});
  }
  return a;
}

Result<ReconstructedImage> ReconstructIncrAout(const IncrAout& incr, sim::Blob text,
                                               sim::Blob base) {
  if (text.size() != incr.text_size) return Errno::kNoExec;
  if (text.Digest() != incr.text_digest) return Errno::kNoExec;

  if (base.size() != incr.full_size) return Errno::kNoExec;
  if (base.Digest() != incr.base_digest) return Errno::kNoExec;

  ReconstructedImage out;
  out.image.text = std::move(text);
  std::vector<uint8_t> data(base.begin(), base.end());
  std::vector<uint32_t> dirty_pages;
  for (const IncrAout::DeltaPage& page : incr.pages) {
    const uint64_t start = uint64_t{page.index} * vm::kDirtyPageBytes;
    if (start + page.bytes.size() > data.size() || page.bytes.size() > vm::kDirtyPageBytes) {
      return Errno::kNoExec;
    }
    std::copy(page.bytes.begin(), page.bytes.end(),
              data.begin() + static_cast<ptrdiff_t>(start));
    dirty_pages.push_back(page.index);
  }
  // Final check: the patched segment must hash to what the dumper recorded, so
  // a stale cache entry or a digest collision can never restore wrong bytes.
  // These bytes are new, so this hash always runs.
  if (sim::HashBytes(data) != incr.result_digest) return Errno::kNoExec;
  out.image.data = std::move(data);
  out.delta = vm::DeltaBase{std::move(base), std::move(dirty_pages)};
  out.image.header.magic = vm::kAoutMagic;
  out.image.header.machtype = incr.machtype;
  out.image.header.text_size = static_cast<uint32_t>(out.image.text.size());
  out.image.header.data_size = static_cast<uint32_t>(out.image.data.size());
  out.image.header.entry = incr.entry;
  return out;
}

std::string FormatReadyMarker(std::string_view host, sim::Nanos at) {
  return "ok t " + std::to_string(at) + " h " + std::string(host) + "\n";
}

std::string FormatClaimMarker(std::string_view host, sim::Nanos at) {
  return "holder " + std::string(host) + " t " + std::to_string(at) + "\n";
}

DumpMarker ParseDumpMarker(const std::string& bytes) {
  DumpMarker out;
  std::vector<std::string> tokens;
  std::string cur;
  for (char c : bytes) {
    if (c == ' ' || c == '\n' || c == '\t') {
      if (!cur.empty()) tokens.push_back(std::move(cur));
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) tokens.push_back(std::move(cur));
  for (size_t i = 0; i + 1 < tokens.size(); ++i) {
    if (tokens[i] == "t" || tokens[i] == "expires") {
      out.at = static_cast<sim::Nanos>(std::atoll(tokens[i + 1].c_str()));
    } else if (tokens[i] == "h" || tokens[i] == "holder") {
      out.host = tokens[i + 1];
    }
  }
  return out;
}

DumpPaths DumpPaths::For(int32_t pid, const std::string& dir) {
  DumpPaths p;
  const std::string suffix = std::to_string(pid);
  p.aout = dir + "/a.out" + suffix;
  p.files = dir + "/files" + suffix;
  p.stack = dir + "/stack" + suffix;
  p.ready = dir + "/ready" + suffix;
  p.claim = dir + "/claim" + suffix;
  return p;
}

bool VerifyDumpBytes(const std::vector<std::pair<std::string, sim::Blob>>& files) {
  for (const auto& [path, blob] : files) {
    const size_t slash = path.rfind('/');
    const std::string base = slash == std::string::npos ? path : path.substr(slash + 1);
    const std::string_view bytes = blob.view();
    if (path.rfind(std::string(kSegCacheDir) + "/", 0) == 0) {
      // A segment-cache blob must hash to the digest it is named by.
      uint64_t digest = 0;
      if (!sim::ParseHexDigest(base, &digest)) return false;
      if (blob.Digest() != digest) return false;
    } else if (base.rfind("a.out", 0) == 0) {
      if (IsIncrAout(bytes)) {
        if (!IncrAout::Parse(bytes).ok()) return false;
      } else if (!vm::AoutImage::Parse(bytes).ok()) {
        return false;
      }
    } else if (base.rfind("files", 0) == 0) {
      if (!FilesFile::Parse(bytes).ok()) return false;
    } else if (base.rfind("stack", 0) == 0) {
      if (!StackFile::Parse(bytes).ok()) return false;
    }
  }
  return true;
}

}  // namespace pmig::core
