// The three SIGDUMP dump files (Section 4.3).
//
//   a.outXXXXX  — an ordinary executable: header + text + data (vm::AoutImage).
//   filesXXXXX  — everything restart needs at *user level*: magic 0445, the dump
//                 host, the cwd path, one fixed slot per possible open file
//                 (unused / file+path+flags+offset / socket), and the tty flags.
//   stackXXXXX  — everything the *kernel* needs: magic 0444, credentials, stack
//                 size and contents, registers, and the signal state. Plus a
//                 versioned extension block carrying the old pid/host for the
//                 Section 7 identity-virtualisation proposal.
//
// XXXXX is the pid of the dumped process; the files land in /usr/tmp.

#ifndef PMIG_SRC_CORE_DUMP_FORMAT_H_
#define PMIG_SRC_CORE_DUMP_FORMAT_H_

#include <array>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/kernel/proc.h"
#include "src/sim/blob.h"
#include "src/sim/result.h"
#include "src/vm/cpu.h"

namespace pmig::core {

constexpr uint32_t kFilesMagic = 0445;  // "arbitrarily set to octal 445"
constexpr uint32_t kStackMagic = 0444;  // "arbitrarily set to octal 444"

struct FilesEntry {
  enum class Kind : uint8_t { kUnused = 0, kFile = 1, kSocket = 2 };
  Kind kind = Kind::kUnused;
  std::string path;    // absolute (from the kernel's name tracking); kFile only
  int32_t flags = 0;   // open flags
  int64_t offset = 0;  // file offset at dump time
};

struct FilesFile {
  std::string host;  // "the name of the host on which the process was running"
  std::string cwd;   // "the absolute path name of the current working directory"
  std::array<FilesEntry, kernel::kNoFile> entries;
  bool had_tty = false;
  uint16_t tty_flags = 0;  // "raw mode, echo/noecho, etc."

  std::string Serialize() const;
  static Result<FilesFile> Parse(std::string_view bytes);
};

struct StackFile {
  kernel::Credentials creds;
  std::vector<uint8_t> stack;  // contents from sp to the stack top
  vm::CpuState cpu;            // "the contents of all the registers"
  std::array<kernel::SignalDisposition, vm::abi::kNSig> sig_dispositions = {};
  uint64_t sig_pending = 0;
  // Extension block (after the format version; only version 4 is read or
  // written). Pre-migration identity:
  int32_t old_pid = 0;
  std::string old_host;
  // The distributed trace this dump belongs to, so a restart on another host
  // rejoins the originating migrate's span tree.
  uint64_t trace_id = 0;
  // The command the process ran as, so a restart keeps the name visible to
  // ps/ptop and to tools tracking a process across hops, instead of renaming
  // every migrant to its dump file.
  std::string command;

  uint32_t stack_size() const { return static_cast<uint32_t>(stack.size()); }

  std::string Serialize() const;
  static Result<StackFile> Parse(std::string_view bytes);
};

// Dump-file names: "a.outXXXXX", "filesXXXXX", "stackXXXXX" in `dir`, plus the
// two migration-transaction markers: "readyXXXXX" (dumpproc finished rewriting
// filesXXXXX — the dump set is complete and consumable) and "claimXXXXX"
// (created O_EXCL by `restart --claim` just before it commits; at most one
// restart attempt per dump set can ever win it).
struct DumpPaths {
  std::string aout;
  std::string files;
  std::string stack;
  std::string ready;
  std::string claim;

  static DumpPaths For(int32_t pid, const std::string& dir = "/usr/tmp");
};

// --- Transaction marker metadata ----------------------------------------------
//
// readyXXXXX carries "ok t <ns> h <host>" (when dumpproc finished the rewrite,
// and where) and claimXXXXX carries "holder <host> t <ns>" (who claimed the
// set, and when). The recovery tools use the timestamps to age orphaned dump
// sets (inodes carry no mtime) and the claim holder to decide whether a
// claimant is dead, partitioned, or merely slow. The placement lease file,
// "holder <host> expires <ns>", parses through the same reader, its expiry as
// `at`. Markers from writers that predate the metadata (empty files, a bare
// "ok") parse to an empty host and at = -1; every reader must tolerate that.
struct DumpMarker {
  std::string host;
  sim::Nanos at = -1;
};

std::string FormatReadyMarker(std::string_view host, sim::Nanos at);
std::string FormatClaimMarker(std::string_view host, sim::Nanos at);
DumpMarker ParseDumpMarker(const std::string& bytes);

// --- Incremental dumps (the opt-in delta data path) ---------------------------
//
// An incremental a.outXXXXX never carries text: text is immutable, so it is
// referenced by content digest and resolved from a per-host segment cache
// (/var/segcache/<16-hex-digest>). Data is a delta: a base digest plus the
// dirty 1 KB pages. Reconstruction is strictly validated — any digest or size
// mismatch is an Errno, never a silently wrong restore.

constexpr uint32_t kIncrAoutMagic = 0446;  // next octal after files' 0445
constexpr uint32_t kIncrAoutVersion = 1;

// The per-host content-addressed segment cache directory.
inline constexpr char kSegCacheDir[] = "/var/segcache";

// "/var/segcache/<16-hex>" on the local host, or prefixed for an NFS reach.
std::string SegCachePath(uint64_t digest, const std::string& nfs_prefix = "");

struct IncrAout {
  uint32_t machtype = 0;
  uint32_t entry = 0;

  uint64_t text_digest = 0;
  uint32_t text_size = 0;

  // Data segment: a delta against a cached base.
  uint64_t base_digest = 0;
  uint64_t result_digest = 0;  // digest of the reconstructed data segment
  uint32_t full_size = 0;      // size of base and of the result
  struct DeltaPage {
    uint32_t index = 0;  // page number (vm::kDirtyPageBytes granules)
    std::vector<uint8_t> bytes;
  };
  std::vector<DeltaPage> pages;

  // Bytes a full a.out of the same image would have occupied (for bytes_saved).
  int64_t FullEquivalentBytes() const;

  std::string Serialize() const;
  static Result<IncrAout> Parse(std::string_view bytes);
};

// True when `bytes` begins with kIncrAoutMagic (cheap dispatch for restart).
bool IsIncrAout(std::string_view bytes);

// Builds the incremental a.out for an armed VM context: text by digest, data as
// a delta of the dirty pages against the armed base.
IncrAout BuildIncrAout(const vm::VmContext& ctx, uint32_t machtype);

// The materialised image plus what rest_proc needs to re-arm tracking on the
// restored process (so its *next* dump stays a delta against the same base).
struct ReconstructedImage {
  vm::AoutImage image;  // its text shares the fetched text blob
  std::optional<vm::DeltaBase> delta;  // the fetched base, dirty pages
};

// Reconstructs the full image from an incremental dump plus the cached
// segments. `text` must hash to incr.text_digest and `base` to
// incr.base_digest. Those two read the blobs' kept digests; the patched result
// is always hashed afresh and must match incr.result_digest. Errno::kNoExec on
// any mismatch.
Result<ReconstructedImage> ReconstructIncrAout(const IncrAout& incr, sim::Blob text,
                                               sim::Blob base);

// True when `bytes` parses as the dump file its basename prefix announces
// ("a.out" -> vm::AoutImage or IncrAout, "files" -> FilesFile, "stack" ->
// StackFile; files under /var/segcache must hash to their basename digest).
// Installed as MigrationHooks::verify_dump so a dump whose files would not
// parse back — e.g. corrupted by an injected fault — is aborted and unlinked
// instead of killing the process it can no longer represent.
bool VerifyDumpBytes(const std::vector<std::pair<std::string, sim::Blob>>& files);

}  // namespace pmig::core

#endif  // PMIG_SRC_CORE_DUMP_FORMAT_H_
