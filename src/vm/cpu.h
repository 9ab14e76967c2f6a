// The CPU executor and the migratable machine context.
//
// A VmContext is the complete machine-level state of a running program: text, data,
// stack segments plus registers. It is exactly the state the paper's SIGDUMP writes
// out (text+data into a.outXXXXX; stack, registers into stackXXXXX) and rest_proc()
// reads back, so a migrated process in this repository really is reconstructed from
// bytes that crossed the (simulated) network.

#ifndef PMIG_SRC_VM_CPU_H_
#define PMIG_SRC_VM_CPU_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/blob.h"
#include "src/vm/aout.h"
#include "src/vm/isa.h"

namespace pmig::vm {

struct CpuState {
  int64_t regs[kNumRegs] = {};
  uint32_t pc = 0;
  uint32_t sp = kStackTop;

  bool operator==(const CpuState&) const = default;
};

enum class Fault : uint8_t {
  kNone = 0,
  kIllegalInstruction,  // undefined opcode or kHalt
  kIsaViolation,        // kIsa20 instruction on a kIsa10 machine
  kBadAddress,          // load/store/fetch outside mapped segments, or store to text
  kDivideByZero,
  kStackOverflow,       // sp pushed below kStackBase
};

std::string_view FaultName(Fault f);

enum class StopReason : uint8_t {
  kSteps,    // step budget exhausted (preempted)
  kSyscall,  // executed SYS; number in Cpu::last_syscall()
  kFault,    // faulted; kind in Cpu::last_fault()
};

// Dirty-tracking granule: 1 KB, matching the cost model's disk_block_bytes, so a
// dirty page maps one-to-one onto a disk block in the delta dump.
constexpr uint32_t kDirtyPageBytes = 1024;

// Page-granular dirty tracking for the incremental dump path (opt-in via
// KernelConfig::track_dirty_pages). Text is immutable after load and is named
// by its blob's digest; data is tracked against a stable `base` blob fixed at
// arm time, so a delta dump is always cumulative against one well-known base
// (no chain replay on restore). The stack is tracked too, but only for
// observability — stacks are small and always dumped in full.
struct DirtyTracking {
  bool armed = false;
  sim::Blob base;  // the delta base; its digest names it in the segment cache
  std::vector<bool> data_dirty;   // one flag per kDirtyPageBytes page of data
  std::vector<bool> stack_dirty;  // one flag per page of [kStackBase, kStackTop)

  int64_t CountDataDirty() const;
  int64_t CountStackDirty() const;
};

// What a restored delta re-arms tracking against: its original base, and the
// pages where the restored data already differs from it.
struct DeltaBase {
  sim::Blob base;
  std::vector<uint32_t> dirty_pages;
};

// One text slot as Cpu::Run executes it: the raw instruction after its
// machine-independent checks, or a sentinel (see cpu.cc) for a slot not yet
// fetched or one that failed them.
struct DecodedInstr {
  uint8_t op;
  uint8_t ra;
  uint8_t rb;
  uint8_t rc;
  int32_t imm;
};

// The migratable machine context.
//
// The stack region [kStackBase, kStackTop) is backed in host memory only from
// the lowest page an access has touched (or a little below: a growing backing at
// least doubles) up to kStackTop. An access below the backing extends it with
// zeros, so an address that was never written reads as zero, as if the whole
// region were backed. Only [sp, kStackTop) is dumped.
struct VmContext {
  std::vector<uint8_t> data;
  CpuState cpu;
  DirtyTracking dirty;

  // Loads an executable image: resets segments and registers, pc at entry, empty
  // stack. (The modified execve() of Section 5.2 instead pre-sizes the stack; that
  // logic lives in the kernel.)
  void LoadImage(const AoutImage& image);

  // The text segment, shared with the image it was loaded from. It is
  // execute-only and changes only through LoadImage, which is what lets
  // Cpu::Run keep its decoded slots for the image's lifetime.
  const sim::Blob& text() const { return text_; }

  // Arms dirty tracking and clears both bitmaps; hashes nothing. The base is
  // `restored->base` with its dirty pages pre-marked when given and sized like
  // the data segment (a restored delta keeps its original base), else a
  // snapshot of the current data segment (exec time).
  void ArmDirtyTracking(const DeltaBase* restored = nullptr);
  // Records a data-segment resize (sbrk) in the dirty state: pages covering the
  // resized range are marked dirty, since the bytes there change (shrink
  // discards, regrow zero-fills) without any tracked write. No-op when disarmed.
  void NoteDataResize(size_t old_size, size_t new_size);

  // The dumped stack: bytes from sp to kStackTop.
  uint32_t StackSize() const { return kStackTop - cpu.sp; }
  std::vector<uint8_t> StackContents() const;
  // Restores a previously dumped stack: sp = kStackTop - contents.size(), and
  // every stack byte below sp reads as zero.
  bool SetStackContents(const std::vector<uint8_t>& contents);

  // --- Memory access (data + stack are read/write; text is fetch-only) ---
  bool ReadBytes(uint32_t addr, uint32_t len, uint8_t* out) const;
  bool WriteBytes(uint32_t addr, uint32_t len, const uint8_t* in);
  bool ReadU64(uint32_t addr, int64_t* out) const;
  bool WriteU64(uint32_t addr, int64_t value);
  bool ReadU16(uint32_t addr, uint16_t* out) const;
  bool WriteU16(uint32_t addr, uint16_t value);
  // Reads a NUL-terminated string of at most `max_len` bytes (excluding NUL).
  bool ReadCString(uint32_t addr, uint32_t max_len, std::string* out) const;
  bool WriteCString(uint32_t addr, const std::string& s);  // writes s + NUL

 private:
  friend class Cpu;
  // cpu.cc: the map from a guest address range to host memory.
  struct Segments;

  // Flags the pages covered by a completed write. Every mutation of data/stack
  // goes through WriteBytes or Cpu::Run's stores, which both call this.
  void MarkDirty(uint32_t addr, uint32_t len);

  // The lowest backed stack address.
  uint32_t stack_low() const { return kStackTop - static_cast<uint32_t>(stack_.size()); }
  // For an access to [addr, addr + len) that missed the backing: if the range
  // lies in the stack region, extends the backing with zeros down to addr's
  // page, and to at least twice its size, so a stack that deepens page by page
  // is moved only a logarithmic number of times. Returns whether it did.
  bool BackStack(uint32_t addr, uint32_t len);

  // The bytes of [stack_low(), kStackTop).
  std::vector<uint8_t> stack_;
  sim::Blob text_;
  // One slot per whole instruction of text_, each filled on its first fetch;
  // LoadImage resets them, and a copy (fork) carries them along.
  std::vector<DecodedInstr> decoded_;
};

// Executes instructions against a VmContext.
class Cpu {
 public:
  // `machine_level` is the ISA of the machine this context is running on.
  explicit Cpu(IsaLevel machine_level) : machine_level_(machine_level) {}

  // Runs up to `max_steps` instructions. Returns why execution stopped. On
  // kSyscall the pc has advanced past the SYS instruction (rewind by kInstrBytes to
  // re-execute it, which is how interrupted blocking syscalls restart). On kFault
  // the pc stays on the faulting instruction. steps_executed() counts every
  // instruction fetched, the faulting one included.
  StopReason Run(VmContext& ctx, int64_t max_steps);

  int64_t steps_executed() const { return steps_executed_; }
  int32_t last_syscall() const { return last_syscall_; }
  Fault last_fault() const { return last_fault_; }

 private:
  IsaLevel machine_level_;
  int64_t steps_executed_ = 0;
  int32_t last_syscall_ = 0;
  Fault last_fault_ = Fault::kNone;
};

}  // namespace pmig::vm

#endif  // PMIG_SRC_VM_CPU_H_
