// Instruction-set architecture of the simulated workstation CPU.
//
// The paper migrates processes between Sun-2 (MC68010) and Sun-3 (MC68020)
// workstations, and Section 7 notes that migration is only possible toward a CPU
// whose instruction set is a *superset* of the source's. We model this with a small
// load/store register machine with two ISA levels: kIsa10 (base) and kIsa20 (adds a
// few instructions). A process whose text contains kIsa20-only opcodes dies with an
// illegal-instruction fault when run (or migrated onto) a kIsa10 machine, exactly
// like running 68020 code on a 68010.
//
// Machine model:
//   * eight 64-bit data registers r0..r7, a program counter, a stack pointer;
//   * a text segment at address 0 (execute-only), a data segment at kDataBase, and a
//     stack growing down from kStackTop (at most kStackMax bytes);
//   * fixed 8-byte instructions: opcode, three register fields, 32-bit immediate.
//
// Arithmetic is two's complement and every result is defined, as on a real CPU:
//   * add, sub, mul, lmul and addi wrap modulo 2^64;
//   * div and mod truncate toward zero; INT64_MIN / -1 = INT64_MIN and
//     INT64_MIN % -1 = 0 (only a zero divisor faults);
//   * the rb + imm address of ld/ldb/st/stb wraps modulo 2^32;
//   * shl/shr use the low 6 bits of rc; bfext with a shift of 64 or more yields 0.
//
// This state — text, data, stack, registers — is exactly what SIGDUMP saves and
// rest_proc() restores, so migration in this repository is genuine state transfer.

#ifndef PMIG_SRC_VM_ISA_H_
#define PMIG_SRC_VM_ISA_H_

#include <array>
#include <cstdint>
#include <string_view>

namespace pmig::vm {

// Address-space layout (byte addresses).
constexpr uint32_t kTextBase = 0;
constexpr uint32_t kDataBase = 0x100000;   // 1 MB
constexpr uint32_t kStackTop = 0x800000;   // 8 MB; sp starts here, grows down
constexpr uint32_t kStackMax = 0x40000;    // 256 KB of stack at most
constexpr uint32_t kStackBase = kStackTop - kStackMax;

constexpr int kNumRegs = 8;
constexpr int kInstrBytes = 8;

// ISA level of a machine or an instruction. kIsa20 machines execute everything;
// kIsa10 machines fault on kIsa20-only opcodes.
enum class IsaLevel : uint8_t {
  kIsa10 = 10,  // "MC68010": the base instruction set
  kIsa20 = 20,  // "MC68020": superset
};

// True if code requiring `needed` can run on a machine providing `provided`.
constexpr bool IsaCompatible(IsaLevel needed, IsaLevel provided) {
  return static_cast<uint8_t>(needed) <= static_cast<uint8_t>(provided);
}

enum class Opcode : uint8_t {
  kNop = 0,
  // Data movement.
  kMovI,    // ra <- imm (sign-extended 32-bit)
  kMov,     // ra <- rb
  // Arithmetic / logic (ra <- rb OP rc).
  kAdd,
  kSub,
  kMul,
  kDiv,     // faults on divide-by-zero
  kMod,
  kAnd,
  kOr,
  kXor,
  kShl,
  kShr,
  kAddI,    // ra <- rb + imm
  // Memory (data/stack segments only; text is execute-only).
  kLd,      // ra <- mem64[rb + imm]
  kLdB,     // ra <- zero-extended mem8[rb + imm]
  kSt,      // mem64[rb + imm] <- ra
  kStB,     // mem8[rb + imm] <- low byte of ra
  // Stack.
  kPush,    // sp -= 8; mem64[sp] <- ra
  kPop,     // ra <- mem64[sp]; sp += 8
  // Control flow.
  kJmp,     // pc <- imm
  kCall,    // push return pc; pc <- imm
  kRet,     // pop pc
  kBeq,     // if ra == rb: pc <- imm
  kBne,
  kBlt,     // signed
  kBge,
  kRdSp,    // ra <- sp (move from the stack-pointer register, like MOVE.L A7,Dn)
  // Kernel trap: system call number in imm, arguments in r0..r3, result in r0
  // (negative values are -errno, as on the PDP-11/VAX Unix trap interface).
  kSys,
  kHalt,    // stop with an illegal-halt fault (programs should call SYS exit)
  // --- kIsa20-only instructions ("68020 extensions") ---
  kLMul,    // ra <- rb * rc (identical result to kMul; exists to model ISA level)
  kBfExt,   // ra <- (rb >> imm[0..7]) & ((1 << imm[8..15]) - 1)  bit-field extract

  kNumOpcodes,
};

struct OpcodeInfo {
  std::string_view mnemonic;
  IsaLevel level;
  // Operand shape used by the assembler/disassembler.
  enum class Shape : uint8_t {
    kNone,       // nop, ret, halt
    kRegImm,     // movi ra, imm
    kRegReg,     // mov ra, rb
    kThreeReg,   // add ra, rb, rc
    kRegRegImm,  // addi ra, rb, imm ; ld ra, rb, imm ; beq ra, rb, label
    kReg,        // push ra
    kImm,        // jmp label ; sys n
  } shape;
};

const OpcodeInfo& GetOpcodeInfo(Opcode op);

// Fixed-size instruction encoding.
struct Instruction {
  Opcode op = Opcode::kNop;
  uint8_t ra = 0;
  uint8_t rb = 0;
  uint8_t rc = 0;
  int32_t imm = 0;

  std::array<uint8_t, kInstrBytes> Encode() const;
  static Instruction Decode(const uint8_t* bytes);

  bool operator==(const Instruction&) const = default;
};

// Strictest ISA level required by an encoded text segment (used by execve to refuse
// images the machine cannot run, and by tests of the heterogeneity limitation).
IsaLevel RequiredLevel(const uint8_t* text, size_t size);

}  // namespace pmig::vm

#endif  // PMIG_SRC_VM_ISA_H_
