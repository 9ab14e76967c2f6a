#include "src/vm/cpu.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <utility>

namespace pmig::vm {

std::string_view FaultName(Fault f) {
  switch (f) {
    case Fault::kNone:
      return "none";
    case Fault::kIllegalInstruction:
      return "illegal instruction";
    case Fault::kIsaViolation:
      return "isa violation";
    case Fault::kBadAddress:
      return "bad address";
    case Fault::kDivideByZero:
      return "divide by zero";
    case Fault::kStackOverflow:
      return "stack overflow";
  }
  return "?";
}

namespace {

// Decoded-slot values past the real opcodes. Decoding maps every raw byte to a
// real opcode or kBadSlot, so no text can alias kUndecoded.
constexpr uint8_t Op(Opcode op) { return static_cast<uint8_t>(op); }

constexpr uint8_t kBadSlot = Op(Opcode::kNumOpcodes);
constexpr uint8_t kUndecoded = kBadSlot + 1;

}  // namespace

void VmContext::LoadImage(AoutImage image) {
  text_ = std::move(image.text);
  decoded_.assign(text_.size() / kInstrBytes, DecodedInstr{kUndecoded, 0, 0, 0, 0});
  data = std::move(image.data);
  stack_.clear();
  cpu = CpuState{};
  cpu.pc = image.header.entry;
  cpu.sp = kStackTop;
  dirty = DirtyTracking{};  // a fresh image disarms tracking; the kernel re-arms
}

int64_t DirtyTracking::CountDataDirty() const {
  return std::count(data_dirty.begin(), data_dirty.end(), true);
}

int64_t DirtyTracking::CountStackDirty() const {
  return std::count(stack_dirty.begin(), stack_dirty.end(), true);
}

void VmContext::ArmDirtyTracking(const DeltaBase* restored) {
  dirty.armed = true;
  dirty.data_dirty.assign((data.size() + kDirtyPageBytes - 1) / kDirtyPageBytes, false);
  dirty.stack_dirty.assign(kStackMax / kDirtyPageBytes, false);
  if (restored == nullptr || restored->base.size() != data.size()) {
    dirty.base = sim::Blob(data);
    return;
  }
  dirty.base = restored->base;
  for (const uint32_t page : restored->dirty_pages) {
    if (page < dirty.data_dirty.size()) dirty.data_dirty[page] = true;
  }
}

void VmContext::MarkDirty(uint32_t addr, uint32_t len) {
  const uint32_t last = addr + len - 1;  // len > 0 checked by the caller
  if (addr >= kDataBase && last < kDataBase + data.size()) {
    // The bitmap was sized at arm time; sbrk() may have grown the segment since,
    // so pages past the bitmap are untrackable. That is safe: a dump whose data
    // size differs from the base falls back to a full dump (BuildSigdump).
    const uint32_t tracked = static_cast<uint32_t>(dirty.data_dirty.size());
    for (uint32_t page = (addr - kDataBase) / kDirtyPageBytes;
         page <= (last - kDataBase) / kDirtyPageBytes && page < tracked; ++page) {
      dirty.data_dirty[page] = true;
    }
  } else if (addr >= kStackBase && last < kStackTop) {
    for (uint32_t page = (addr - kStackBase) / kDirtyPageBytes;
         page <= (last - kStackBase) / kDirtyPageBytes; ++page) {
      dirty.stack_dirty[page] = true;
    }
  }
}

void VmContext::NoteDataResize(size_t old_size, size_t new_size) {
  if (!dirty.armed || old_size == new_size || dirty.data_dirty.empty()) return;
  // A resize changes bytes without going through WriteBytes: everything from the
  // low-water mark up is discarded on shrink and zero-filled on a later regrow.
  // Mark those pages dirty so a delta taken once the size is back at the base's
  // still reconstructs bit-exactly. Pages past the bitmap need no marking — with
  // the size off the base's, the dump falls back to full anyway.
  const size_t lo = std::min(old_size, new_size);
  const size_t hi = std::max(old_size, new_size);
  const size_t last = std::min((hi - 1) / kDirtyPageBytes, dirty.data_dirty.size() - 1);
  for (size_t page = lo / kDirtyPageBytes; page <= last; ++page) {
    dirty.data_dirty[page] = true;
  }
}

bool VmContext::BackStack(uint32_t addr, uint32_t len) {
  if (addr < kStackBase || uint64_t{addr} + len > kStackTop) return false;
  const uint32_t doubled = std::min(kStackMax, 2 * static_cast<uint32_t>(stack_.size()));
  const uint32_t low = std::min(addr - addr % kDirtyPageBytes, kStackTop - doubled);
  stack_.insert(stack_.begin(), stack_low() - low, 0);
  return true;
}

std::vector<uint8_t> VmContext::StackContents() const {
  std::vector<uint8_t> out(StackSize());
  const bool in_region = ReadBytes(cpu.sp, StackSize(), out.data());
  assert(in_region && "sp lies in [kStackBase, kStackTop]");
  (void)in_region;
  return out;
}

bool VmContext::SetStackContents(const std::vector<uint8_t>& contents) {
  if (contents.size() > kStackMax) return false;
  cpu.sp = kStackTop - static_cast<uint32_t>(contents.size());
  stack_.assign(cpu.sp % kDirtyPageBytes + contents.size(), 0);  // backed from sp's page up
  std::copy(contents.begin(), contents.end(), stack_.end() - contents.size());
  return true;
}

// The one map from a guest address range to host memory: the data segment,
// then the backed part of the stack region. Text is not mapped; it is
// execute-only, as on a real split-I/D machine.
struct VmContext::Segments {
  uint8_t* data;
  uint64_t data_end;  // kDataBase + data size
  uint8_t* stack;
  uint32_t stack_low;

  explicit Segments(const VmContext& ctx)
      : data(const_cast<uint8_t*>(ctx.data.data())),
        data_end(kDataBase + uint64_t{ctx.data.size()}),
        stack(const_cast<uint8_t*>(ctx.stack_.data())),
        stack_low(ctx.stack_low()) {}

  // [addr, addr + len) inside one segment's backing, or nullptr. Requires len > 0.
  uint8_t* Resolve(uint32_t addr, uint32_t len) const {
    const uint64_t end = uint64_t{addr} + len;
    if (addr >= kDataBase && end <= data_end) return data + (addr - kDataBase);
    if (addr >= stack_low && end <= kStackTop) return stack + (addr - stack_low);
    return nullptr;
  }
};

namespace {

// Guest words are little-endian; the 8-byte paths below copy them directly.
static_assert(std::endian::native == std::endian::little);

}  // namespace

bool VmContext::ReadBytes(uint32_t addr, uint32_t len, uint8_t* out) const {
  if (len == 0) return true;
  if (const uint8_t* p = Segments(*this).Resolve(addr, len); p != nullptr) {
    std::memcpy(out, p, len);
    return true;
  }
  if (addr < kStackBase || uint64_t{addr} + len > kStackTop) return false;
  // The range starts below the backing, where the stack was never written.
  const uint32_t unbacked = std::min(len, stack_low() - addr);
  std::memset(out, 0, unbacked);
  if (len > unbacked) std::memcpy(out + unbacked, stack_.data(), len - unbacked);
  return true;
}

bool VmContext::WriteBytes(uint32_t addr, uint32_t len, const uint8_t* in) {
  if (len == 0) return true;
  uint8_t* p = Segments(*this).Resolve(addr, len);
  if (p == nullptr && BackStack(addr, len)) p = Segments(*this).Resolve(addr, len);
  if (p == nullptr) return false;
  std::memcpy(p, in, len);
  if (dirty.armed) MarkDirty(addr, len);
  return true;
}

bool VmContext::Readable(uint32_t addr, uint64_t len) const {
  const uint64_t end = uint64_t{addr} + len;
  return len == 0 || (addr >= kDataBase && end <= kDataBase + uint64_t{data.size()}) ||
         (addr >= kStackBase && end <= kStackTop);
}

bool VmContext::ReadU64(uint32_t addr, int64_t* out) const {
  return ReadBytes(addr, 8, reinterpret_cast<uint8_t*>(out));
}

bool VmContext::WriteU64(uint32_t addr, int64_t value) {
  return WriteBytes(addr, 8, reinterpret_cast<const uint8_t*>(&value));
}

bool VmContext::ReadU16(uint32_t addr, uint16_t* out) const {
  uint8_t buf[2];
  if (!ReadBytes(addr, 2, buf)) return false;
  *out = static_cast<uint16_t>(buf[0] | (buf[1] << 8));
  return true;
}

bool VmContext::WriteU16(uint32_t addr, uint16_t value) {
  uint8_t buf[2] = {static_cast<uint8_t>(value & 0xFF), static_cast<uint8_t>(value >> 8)};
  return WriteBytes(addr, 2, buf);
}

bool VmContext::ReadCString(uint32_t addr, uint32_t max_len, std::string* out) const {
  out->clear();
  for (uint32_t i = 0; i <= max_len; ++i) {
    uint8_t c;
    if (!ReadBytes(addr + i, 1, &c)) return false;
    if (c == 0) return true;
    out->push_back(static_cast<char>(c));
  }
  return false;  // unterminated within max_len
}

bool VmContext::WriteCString(uint32_t addr, std::string_view s) {
  if (!WriteBytes(addr, static_cast<uint32_t>(s.size()),
                  reinterpret_cast<const uint8_t*>(s.data()))) {
    return false;
  }
  const uint8_t nul = 0;
  return WriteBytes(addr + static_cast<uint32_t>(s.size()), 1, &nul);
}

namespace {

// Validates one raw instruction, once, on its first fetch: the opcode must be
// defined and every register field it reads in range. The machine's ISA level
// is not part of a slot; the two kIsa20 opcodes check it when they run.
DecodedInstr DecodeSlot(const uint8_t* bytes) {
  const Instruction in = Instruction::Decode(bytes);
  DecodedInstr out{Op(in.op), in.ra, in.rb, in.rc, in.imm};
  if (in.op >= Opcode::kNumOpcodes) {
    out.op = kBadSlot;
    return out;
  }
  const OpcodeInfo::Shape shape = GetOpcodeInfo(in.op).shape;
  const bool reads_ra = shape != OpcodeInfo::Shape::kNone && shape != OpcodeInfo::Shape::kImm;
  if ((reads_ra && in.ra >= kNumRegs) || in.rb >= kNumRegs || in.rc >= kNumRegs) {
    out.op = kBadSlot;
  }
  return out;
}

// The fault of a kBadSlot instruction, in the order the ISA checks: an undefined
// opcode, then an opcode above the machine's level, then a bad register field.
Fault BadSlotFault(const uint8_t* bytes, IsaLevel machine) {
  const auto op = static_cast<Opcode>(bytes[0]);
  if (op < Opcode::kNumOpcodes && !IsaCompatible(GetOpcodeInfo(op).level, machine)) {
    return Fault::kIsaViolation;
  }
  return Fault::kIllegalInstruction;
}

// Arithmetic wraps modulo 2^64 (isa.h), so it is done on the unsigned bits.
uint64_t U(int64_t v) { return static_cast<uint64_t>(v); }
int64_t S(uint64_t v) { return static_cast<int64_t>(v); }

// The rb + imm operand address of ld/st, wrapped to the 32-bit address space.
uint32_t EffectiveAddress(int64_t base, int32_t imm) {
  return static_cast<uint32_t>(base) + static_cast<uint32_t>(imm);
}

}  // namespace

// Aligned to a cache line: the loop's speed otherwise moves by ~10% with where
// the linker happens to place the function, i.e. with unrelated code changes.
[[gnu::aligned(64)]] StopReason Cpu::Run(VmContext& ctx, int64_t max_steps) {
  last_fault_ = Fault::kNone;
  const uint8_t* const text = ctx.text_.data();
  DecodedInstr* const slots = ctx.decoded_.data();
  const uint64_t num_slots = ctx.decoded_.size();
  const bool track_dirty = ctx.dirty.armed;
  const bool isa20 = IsaCompatible(IsaLevel::kIsa20, machine_level_);
  int64_t* const r = ctx.cpu.regs;
  uint32_t pc = ctx.cpu.pc;
  uint32_t sp = ctx.cpu.sp;
  int64_t steps = 0;
  StopReason reason = StopReason::kSteps;
  Fault fault = Fault::kNone;

  const VmContext::Segments mem(ctx);

  // Every fetch counts one step, a faulting one included; the step is counted
  // once the instruction has completed, trapped or faulted. A slot fetched for
  // the first time is decoded in place and dispatched again, still one step.
  while (steps < max_steps) {
    const uint32_t index = pc / kInstrBytes;
    if (pc % kInstrBytes != 0 || index >= num_slots) {
      fault = Fault::kBadAddress;
      break;
    }
    DecodedInstr in = slots[index];
    uint32_t next = pc + kInstrBytes;  // branches overwrite
  dispatch:
    switch (in.op) {
      case kUndecoded:
        in = slots[index] = DecodeSlot(text + pc);
        goto dispatch;
      case kBadSlot:
        fault = BadSlotFault(text + pc, machine_level_);
        break;
      case Op(Opcode::kNop):
        break;
      case Op(Opcode::kMovI):
        r[in.ra] = in.imm;
        break;
      case Op(Opcode::kMov):
        r[in.ra] = r[in.rb];
        break;
      case Op(Opcode::kAdd):
        r[in.ra] = S(U(r[in.rb]) + U(r[in.rc]));
        break;
      case Op(Opcode::kSub):
        r[in.ra] = S(U(r[in.rb]) - U(r[in.rc]));
        break;
      case Op(Opcode::kLMul):
        if (!isa20) {
          fault = Fault::kIsaViolation;
          break;
        }
        [[fallthrough]];
      case Op(Opcode::kMul):
        r[in.ra] = S(U(r[in.rb]) * U(r[in.rc]));
        break;
      case Op(Opcode::kDiv):
        if (r[in.rc] == 0) {
          fault = Fault::kDivideByZero;
        } else {
          // n / -1 is the wrapped negation, so INT64_MIN / -1 = INT64_MIN.
          r[in.ra] = r[in.rc] == -1 ? S(0 - U(r[in.rb])) : r[in.rb] / r[in.rc];
        }
        break;
      case Op(Opcode::kMod):
        if (r[in.rc] == 0) {
          fault = Fault::kDivideByZero;
        } else {
          r[in.ra] = r[in.rc] == -1 ? 0 : r[in.rb] % r[in.rc];
        }
        break;
      case Op(Opcode::kAnd):
        r[in.ra] = r[in.rb] & r[in.rc];
        break;
      case Op(Opcode::kOr):
        r[in.ra] = r[in.rb] | r[in.rc];
        break;
      case Op(Opcode::kXor):
        r[in.ra] = r[in.rb] ^ r[in.rc];
        break;
      case Op(Opcode::kShl):
        r[in.ra] = S(U(r[in.rb]) << (r[in.rc] & 63));
        break;
      case Op(Opcode::kShr):
        r[in.ra] = S(U(r[in.rb]) >> (r[in.rc] & 63));
        break;
      case Op(Opcode::kAddI):
        r[in.ra] = S(U(r[in.rb]) + U(in.imm));
        break;
      case Op(Opcode::kLd): {
        const uint32_t addr = EffectiveAddress(r[in.rb], in.imm);
        const uint8_t* p = mem.Resolve(addr, 8);
        if (p == nullptr) {
          if (ctx.BackStack(addr, 8)) goto back;
          fault = Fault::kBadAddress;
        } else {
          std::memcpy(&r[in.ra], p, 8);
        }
        break;
      }
      case Op(Opcode::kLdB): {
        const uint32_t addr = EffectiveAddress(r[in.rb], in.imm);
        const uint8_t* p = mem.Resolve(addr, 1);
        if (p == nullptr) {
          if (ctx.BackStack(addr, 1)) goto back;
          fault = Fault::kBadAddress;
        } else {
          r[in.ra] = *p;
        }
        break;
      }
      case Op(Opcode::kSt): {
        const uint32_t addr = EffectiveAddress(r[in.rb], in.imm);
        uint8_t* p = mem.Resolve(addr, 8);
        if (p == nullptr) {
          if (ctx.BackStack(addr, 8)) goto back;
          fault = Fault::kBadAddress;
          break;
        }
        std::memcpy(p, &r[in.ra], 8);
        if (track_dirty) ctx.MarkDirty(addr, 8);
        break;
      }
      case Op(Opcode::kStB): {
        const uint32_t addr = EffectiveAddress(r[in.rb], in.imm);
        uint8_t* p = mem.Resolve(addr, 1);
        if (p == nullptr) {
          if (ctx.BackStack(addr, 1)) goto back;
          fault = Fault::kBadAddress;
          break;
        }
        *p = static_cast<uint8_t>(r[in.ra]);
        if (track_dirty) ctx.MarkDirty(addr, 1);
        break;
      }
      case Op(Opcode::kPush):
      case Op(Opcode::kCall): {
        if (sp < kStackBase + 8) {
          fault = Fault::kStackOverflow;
          break;
        }
        sp -= 8;  // stays lowered if the store below faults
        uint8_t* p = mem.Resolve(sp, 8);
        if (p == nullptr) {
          if (ctx.BackStack(sp, 8)) {
            sp += 8;
            goto back;
          }
          fault = Fault::kBadAddress;
          break;
        }
        if (in.op == Op(Opcode::kPush)) {
          std::memcpy(p, &r[in.ra], 8);
        } else {
          const int64_t ret = next;
          std::memcpy(p, &ret, 8);
          next = static_cast<uint32_t>(in.imm);
        }
        if (track_dirty) ctx.MarkDirty(sp, 8);
        break;
      }
      case Op(Opcode::kPop):
      case Op(Opcode::kRet): {
        const uint8_t* p = sp + 8 > kStackTop ? nullptr : mem.Resolve(sp, 8);
        if (p == nullptr) {
          if (ctx.BackStack(sp, 8)) goto back;
          fault = Fault::kBadAddress;
          break;
        }
        int64_t v;
        std::memcpy(&v, p, 8);
        sp += 8;
        if (in.op == Op(Opcode::kPop)) {
          r[in.ra] = v;
        } else {
          next = static_cast<uint32_t>(v);
        }
        break;
      }
      case Op(Opcode::kJmp):
        next = static_cast<uint32_t>(in.imm);
        break;
      case Op(Opcode::kBeq):
        if (r[in.ra] == r[in.rb]) next = static_cast<uint32_t>(in.imm);
        break;
      case Op(Opcode::kBne):
        if (r[in.ra] != r[in.rb]) next = static_cast<uint32_t>(in.imm);
        break;
      case Op(Opcode::kBlt):
        if (r[in.ra] < r[in.rb]) next = static_cast<uint32_t>(in.imm);
        break;
      case Op(Opcode::kBge):
        if (r[in.ra] >= r[in.rb]) next = static_cast<uint32_t>(in.imm);
        break;
      case Op(Opcode::kRdSp):
        r[in.ra] = sp;
        break;
      case Op(Opcode::kBfExt): {
        if (!isa20) {
          fault = Fault::kIsaViolation;
          break;
        }
        const uint32_t shift = static_cast<uint32_t>(in.imm) & 0xFF;
        const uint32_t width = (static_cast<uint32_t>(in.imm) >> 8) & 0xFF;
        const uint64_t mask = width >= 64 ? ~uint64_t{0} : (uint64_t{1} << width) - 1;
        r[in.ra] = shift >= 64 ? 0 : S((U(r[in.rb]) >> shift) & mask);
        break;
      }
      case Op(Opcode::kSys):
        last_syscall_ = in.imm;
        pc = next;
        ++steps;
        reason = StopReason::kSyscall;
        goto stop;
      case Op(Opcode::kHalt):
      default:
        fault = Fault::kIllegalInstruction;
        break;
    }
    if (fault != Fault::kNone) break;  // pc stays on the faulting instruction
    pc = next;
    ++steps;
  }
  if (fault != Fault::kNone) {
    ++steps;
    last_fault_ = fault;
    reason = StopReason::kFault;
  }
stop:
  ctx.cpu.pc = pc;
  ctx.cpu.sp = sp;
  steps_executed_ = steps;
  return reason;

back:
  // A load or store below the stack's backing extended it, moving the stack's
  // bytes out from under `mem`; a push has already undone its sp change, and
  // the instruction's step is not counted yet. It and the rest of the budget
  // run again on a remade map. Every extension at least doubles the backing,
  // so this nests a few calls deep at most, and the loop above never has to
  // reload the map.
  ctx.cpu.pc = pc;
  ctx.cpu.sp = sp;
  reason = Run(ctx, max_steps - steps);
  steps_executed_ += steps;
  return reason;
}

}  // namespace pmig::vm
