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
// real opcode or kBadSlot, so no text can alias kUndecoded or kEndOfText.
constexpr uint8_t Op(Opcode op) { return static_cast<uint8_t>(op); }

constexpr uint8_t kBadSlot = Op(Opcode::kNumOpcodes);
constexpr uint8_t kUndecoded = kBadSlot + 1;
constexpr uint8_t kEndOfText = kUndecoded + 1;
constexpr int kNumSlotOps = kEndOfText + 1;

// A branch slot's imm when no slot holds the target (see DecodedInstr).
constexpr int32_t kNoTarget = -1;

}  // namespace

DecodedText::DecodedText(sim::Blob bytes)
    : text(std::move(bytes)),
      slots(text.size() / kInstrBytes + 1, DecodedInstr{kUndecoded, 0, 0, 0, 0}) {
  slots.back().op = kEndOfText;
}

const std::shared_ptr<DecodedText>& VmContext::NoText() {
  static const std::shared_ptr<DecodedText> empty = std::make_shared<DecodedText>(sim::Blob());
  return empty;
}

void VmContext::LoadImage(AoutImage image, std::shared_ptr<DecodedText> known) {
  if (known != nullptr && known->text.data() == image.text.data() &&
      known->text.size() == image.text.size()) {
    decoded_ = std::move(known);
  } else {
    decoded_ = std::make_shared<DecodedText>(std::move(image.text));
  }
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

bool IsBranch(Opcode op) {
  switch (op) {
    case Opcode::kJmp:
    case Opcode::kCall:
    case Opcode::kBeq:
    case Opcode::kBne:
    case Opcode::kBlt:
    case Opcode::kBge:
      return true;
    default:
      return false;
  }
}

// Validates one raw instruction, once, on its first fetch: the opcode must be
// defined and every register field it reads in range. The machine's ISA level
// is not part of a slot; the two kIsa20 opcodes check it when they run. A
// branch's target address becomes a slot index here, so a taken branch needs
// no fetch check; a target no slot holds becomes kNoTarget.
DecodedInstr DecodeSlot(const uint8_t* text, uint32_t index, uint32_t num_slots) {
  const Instruction in = Instruction::Decode(text + index * kInstrBytes);
  DecodedInstr out{Op(in.op), in.ra, in.rb, in.rc, in.imm};
  if (in.op >= Opcode::kNumOpcodes) {
    out.op = kBadSlot;
    return out;
  }
  const OpcodeInfo::Shape shape = GetOpcodeInfo(in.op).shape;
  const bool reads_ra = shape != OpcodeInfo::Shape::kNone && shape != OpcodeInfo::Shape::kImm;
  if ((reads_ra && in.ra >= kNumRegs) || in.rb >= kNumRegs || in.rc >= kNumRegs) {
    out.op = kBadSlot;
  } else if (IsBranch(in.op)) {
    const auto target = static_cast<uint32_t>(in.imm);
    out.imm = target % kInstrBytes == 0 && target / kInstrBytes < num_slots
                  ? static_cast<int32_t>(target / kInstrBytes)
                  : kNoTarget;
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

// A threaded interpreter: every handler ends in its own indirect jump to the
// next slot's handler (GCC's labels as values), so the host's branch predictor
// learns each handler's successors separately instead of sharing one jump.
// Handlers read the slot through `ip`; copying the whole slot into a local
// first lets GCC merge the handlers' jumps back into a few shared ones.
//
// Every fetch counts one step, a faulting one included: `left` counts down once
// an instruction has completed, trapped or faulted, and the run stops when it
// reaches 0. The pc lives in `ip`; it is a number only where no slot holds it
// (on entry, after a ret or a jump to kNoTarget), and there the fetch is
// checked in full. Sequential flow needs no check: past the last instruction
// lies the end-of-text slot, which faults with the pc of the text's end.
//
// Aligned to a cache line: its speed otherwise moves by ~10% with where the
// linker happens to place the function, i.e. with unrelated code changes.
[[gnu::aligned(64)]] StopReason Cpu::Run(VmContext& ctx, int64_t max_steps) {
  last_fault_ = Fault::kNone;
  steps_executed_ = 0;
  if (max_steps <= 0) return StopReason::kSteps;
  DecodedText& decoded = *ctx.decoded_;
  const uint8_t* const text = decoded.text.data();
  DecodedInstr* const slots = decoded.slots.data();
  const auto num_slots = static_cast<uint32_t>(decoded.slots.size() - 1);
  const bool track_dirty = ctx.dirty.armed;
  const bool isa20 = IsaCompatible(IsaLevel::kIsa20, machine_level_);
  int64_t* const r = ctx.cpu.regs;
  uint32_t pc = ctx.cpu.pc;
  uint32_t sp = ctx.cpu.sp;
  int64_t left = max_steps;
  DecodedInstr* ip = nullptr;
  StopReason reason = StopReason::kSteps;
  Fault fault = Fault::kNone;

  const VmContext::Segments mem(ctx);

  // Indexed by slot op: the opcodes in Opcode order, then the sentinels.
  static const void* const kHandlers[] = {
      &&op_nop, &&op_movi, &&op_mov,  &&op_add,  &&op_sub,  &&op_mul,  &&op_div,
      &&op_mod, &&op_and,  &&op_or,   &&op_xor,  &&op_shl,  &&op_shr,  &&op_addi,
      &&op_ld,  &&op_ldb,  &&op_st,   &&op_stb,  &&op_push, &&op_pop,  &&op_jmp,
      &&op_call, &&op_ret, &&op_beq,  &&op_bne,  &&op_blt,  &&op_bge,  &&op_rdsp,
      &&op_sys, &&op_halt, &&op_lmul, &&op_bfext,
      &&bad_slot, &&undecoded, &&end_of_text,
  };
  static_assert(sizeof(kHandlers) / sizeof(kHandlers[0]) == kNumSlotOps);

#define PMIG_DISPATCH() goto* kHandlers[ip->op]
// The instruction at ip completed and the next one is `target`: count the step,
// stop if it was the budget's last, else run the next.
#define PMIG_NEXT_AT(target)            \
  do {                                  \
    ip = (target);                      \
    if (--left == 0) goto out_of_steps; \
    PMIG_DISPATCH();                    \
  } while (0)
#define PMIG_NEXT() PMIG_NEXT_AT(ip + 1)
// A taken jmp/call/b*: to its target slot, or to the raw address when no slot
// holds it.
#define PMIG_TAKE_BRANCH()                                                    \
  do {                                                                        \
    if (ip->imm == kNoTarget) {                                               \
      pc = static_cast<uint32_t>(Instruction::Decode(text + PcOf(ip)).imm);   \
      goto jumped;                                                            \
    }                                                                         \
    PMIG_NEXT_AT(slots + ip->imm);                                            \
  } while (0)
#define PMIG_FAULT(f) \
  do {                \
    fault = (f);      \
    goto faulted;     \
  } while (0)

  const auto PcOf = [slots](const DecodedInstr* at) {
    return static_cast<uint32_t>(at - slots) * kInstrBytes;
  };

fetch:
  if (pc % kInstrBytes != 0 || pc / kInstrBytes >= num_slots) {
    fault = Fault::kBadAddress;
    goto fetch_faulted;
  }
  ip = slots + pc / kInstrBytes;
  PMIG_DISPATCH();

undecoded:
  // First fetch of this slot: decode it in place and dispatch again, still one
  // step.
  *ip = DecodeSlot(text, static_cast<uint32_t>(ip - slots), num_slots);
  PMIG_DISPATCH();
bad_slot:
  PMIG_FAULT(BadSlotFault(text + PcOf(ip), machine_level_));
end_of_text:
  PMIG_FAULT(Fault::kBadAddress);

op_nop:
  PMIG_NEXT();
op_movi:
  r[ip->ra] = ip->imm;
  PMIG_NEXT();
op_mov:
  r[ip->ra] = r[ip->rb];
  PMIG_NEXT();
op_add:
  r[ip->ra] = S(U(r[ip->rb]) + U(r[ip->rc]));
  PMIG_NEXT();
op_sub:
  r[ip->ra] = S(U(r[ip->rb]) - U(r[ip->rc]));
  PMIG_NEXT();
op_lmul:
  if (!isa20) PMIG_FAULT(Fault::kIsaViolation);
  r[ip->ra] = S(U(r[ip->rb]) * U(r[ip->rc]));
  PMIG_NEXT();
op_mul:
  r[ip->ra] = S(U(r[ip->rb]) * U(r[ip->rc]));
  PMIG_NEXT();
op_div:
  if (r[ip->rc] == 0) PMIG_FAULT(Fault::kDivideByZero);
  // n / -1 is the wrapped negation, so INT64_MIN / -1 = INT64_MIN.
  r[ip->ra] = r[ip->rc] == -1 ? S(0 - U(r[ip->rb])) : r[ip->rb] / r[ip->rc];
  PMIG_NEXT();
op_mod:
  if (r[ip->rc] == 0) PMIG_FAULT(Fault::kDivideByZero);
  r[ip->ra] = r[ip->rc] == -1 ? 0 : r[ip->rb] % r[ip->rc];
  PMIG_NEXT();
op_and:
  r[ip->ra] = r[ip->rb] & r[ip->rc];
  PMIG_NEXT();
op_or:
  r[ip->ra] = r[ip->rb] | r[ip->rc];
  PMIG_NEXT();
op_xor:
  r[ip->ra] = r[ip->rb] ^ r[ip->rc];
  PMIG_NEXT();
op_shl:
  r[ip->ra] = S(U(r[ip->rb]) << (r[ip->rc] & 63));
  PMIG_NEXT();
op_shr:
  r[ip->ra] = S(U(r[ip->rb]) >> (r[ip->rc] & 63));
  PMIG_NEXT();
op_addi:
  r[ip->ra] = S(U(r[ip->rb]) + U(ip->imm));
  PMIG_NEXT();
op_ld: {
  const uint32_t addr = EffectiveAddress(r[ip->rb], ip->imm);
  const uint8_t* p = mem.Resolve(addr, 8);
  if (p == nullptr) {
    if (ctx.BackStack(addr, 8)) goto back;
    PMIG_FAULT(Fault::kBadAddress);
  }
  std::memcpy(&r[ip->ra], p, 8);
  PMIG_NEXT();
}
op_ldb: {
  const uint32_t addr = EffectiveAddress(r[ip->rb], ip->imm);
  const uint8_t* p = mem.Resolve(addr, 1);
  if (p == nullptr) {
    if (ctx.BackStack(addr, 1)) goto back;
    PMIG_FAULT(Fault::kBadAddress);
  }
  r[ip->ra] = *p;
  PMIG_NEXT();
}
op_st: {
  const uint32_t addr = EffectiveAddress(r[ip->rb], ip->imm);
  uint8_t* p = mem.Resolve(addr, 8);
  if (p == nullptr) {
    if (ctx.BackStack(addr, 8)) goto back;
    PMIG_FAULT(Fault::kBadAddress);
  }
  std::memcpy(p, &r[ip->ra], 8);
  if (track_dirty) ctx.MarkDirty(addr, 8);
  PMIG_NEXT();
}
op_stb: {
  const uint32_t addr = EffectiveAddress(r[ip->rb], ip->imm);
  uint8_t* p = mem.Resolve(addr, 1);
  if (p == nullptr) {
    if (ctx.BackStack(addr, 1)) goto back;
    PMIG_FAULT(Fault::kBadAddress);
  }
  *p = static_cast<uint8_t>(r[ip->ra]);
  if (track_dirty) ctx.MarkDirty(addr, 1);
  PMIG_NEXT();
}
op_push: {
  if (sp < kStackBase + 8) PMIG_FAULT(Fault::kStackOverflow);
  sp -= 8;  // stays lowered if the store below faults
  uint8_t* p = mem.Resolve(sp, 8);
  if (p == nullptr) {
    if (ctx.BackStack(sp, 8)) {
      sp += 8;
      goto back;
    }
    PMIG_FAULT(Fault::kBadAddress);
  }
  std::memcpy(p, &r[ip->ra], 8);
  if (track_dirty) ctx.MarkDirty(sp, 8);
  PMIG_NEXT();
}
op_call: {
  if (sp < kStackBase + 8) PMIG_FAULT(Fault::kStackOverflow);
  sp -= 8;  // as for push
  uint8_t* p = mem.Resolve(sp, 8);
  if (p == nullptr) {
    if (ctx.BackStack(sp, 8)) {
      sp += 8;
      goto back;
    }
    PMIG_FAULT(Fault::kBadAddress);
  }
  const int64_t ret = PcOf(ip) + kInstrBytes;
  std::memcpy(p, &ret, 8);
  if (track_dirty) ctx.MarkDirty(sp, 8);
  PMIG_TAKE_BRANCH();
}
op_pop: {
  const uint8_t* p = sp + 8 > kStackTop ? nullptr : mem.Resolve(sp, 8);
  if (p == nullptr) {
    if (ctx.BackStack(sp, 8)) goto back;
    PMIG_FAULT(Fault::kBadAddress);
  }
  std::memcpy(&r[ip->ra], p, 8);
  sp += 8;
  PMIG_NEXT();
}
op_ret: {
  const uint8_t* p = sp + 8 > kStackTop ? nullptr : mem.Resolve(sp, 8);
  if (p == nullptr) {
    if (ctx.BackStack(sp, 8)) goto back;
    PMIG_FAULT(Fault::kBadAddress);
  }
  int64_t v = 0;
  std::memcpy(&v, p, 8);
  sp += 8;
  pc = static_cast<uint32_t>(v);
  goto jumped;
}
op_jmp:
  PMIG_TAKE_BRANCH();
op_beq:
  if (r[ip->ra] == r[ip->rb]) PMIG_TAKE_BRANCH();
  PMIG_NEXT();
op_bne:
  if (r[ip->ra] != r[ip->rb]) PMIG_TAKE_BRANCH();
  PMIG_NEXT();
op_blt:
  if (r[ip->ra] < r[ip->rb]) PMIG_TAKE_BRANCH();
  PMIG_NEXT();
op_bge:
  if (r[ip->ra] >= r[ip->rb]) PMIG_TAKE_BRANCH();
  PMIG_NEXT();
op_rdsp:
  r[ip->ra] = sp;
  PMIG_NEXT();
op_bfext: {
  if (!isa20) PMIG_FAULT(Fault::kIsaViolation);
  const uint32_t shift = static_cast<uint32_t>(ip->imm) & 0xFF;
  const uint32_t width = (static_cast<uint32_t>(ip->imm) >> 8) & 0xFF;
  const uint64_t mask = width >= 64 ? ~uint64_t{0} : (uint64_t{1} << width) - 1;
  r[ip->ra] = shift >= 64 ? 0 : S((U(r[ip->rb]) >> shift) & mask);
  PMIG_NEXT();
}
op_sys:
  last_syscall_ = ip->imm;
  --left;
  pc = PcOf(ip) + kInstrBytes;
  reason = StopReason::kSyscall;
  goto stop;
op_halt:
  PMIG_FAULT(Fault::kIllegalInstruction);

#undef PMIG_DISPATCH
#undef PMIG_NEXT_AT
#undef PMIG_NEXT
#undef PMIG_TAKE_BRANCH
#undef PMIG_FAULT

jumped:
  // A ret, or a jump to a target no slot holds, completed to pc: count it,
  // then fetch with the full check.
  if (--left == 0) goto stop;
  goto fetch;
out_of_steps:
  pc = PcOf(ip);
  goto stop;
faulted:
  pc = PcOf(ip);  // stays on the faulting instruction
fetch_faulted:
  --left;
  last_fault_ = fault;
  reason = StopReason::kFault;
stop:
  ctx.cpu.pc = pc;
  ctx.cpu.sp = sp;
  steps_executed_ = max_steps - left;
  return reason;

back: {
  // A load or store below the stack's backing extended it, moving the stack's
  // bytes out from under `mem`; a push or call has already undone its sp
  // change, and the instruction's step is not counted yet. It and the rest of
  // the budget run again on a remade map. Every extension at least doubles the
  // backing, so this nests a few calls deep at most, and the handlers above
  // never have to reload the map.
  ctx.cpu.pc = PcOf(ip);
  ctx.cpu.sp = sp;
  const int64_t done = max_steps - left;
  reason = Run(ctx, left);
  steps_executed_ += done;
  return reason;
}
}

}  // namespace pmig::vm
