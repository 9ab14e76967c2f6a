// CPU executor semantics: every opcode, faults, memory protection, and the
// dump/restore invariants of VmContext.

#include "src/vm/cpu.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/rng.h"
#include "src/vm/assembler.h"

namespace pmig::vm {
namespace {

// Assembles and runs `source` until syscall/fault/step-limit; returns the context.
struct RunResult {
  VmContext ctx;
  StopReason reason;
  Fault fault;
  int32_t syscall;
};

RunResult RunProgram(std::string_view source, int64_t max_steps = 10000,
                     IsaLevel machine = IsaLevel::kIsa20) {
  RunResult r;
  r.ctx.LoadImage(MustAssemble(source));
  Cpu cpu(machine);
  r.reason = cpu.Run(r.ctx, max_steps);
  r.fault = cpu.last_fault();
  r.syscall = cpu.last_syscall();
  return r;
}

// Each arithmetic case ends with `sys 0` so the run stops deterministically.
struct AluCase {
  const char* name;
  std::string source;
  int reg;
  int64_t expected;
};

constexpr int64_t kInt64Min = std::numeric_limits<int64_t>::min();
constexpr int64_t kInt64Max = std::numeric_limits<int64_t>::max();
// Puts INT64_MIN in r1 and -1 in r2.
const std::string kMinAndMinusOne = "movi r1, 1\nmovi r2, 63\nshl r1, r1, r2\nmovi r2, -1\n";

class AluTest : public ::testing::TestWithParam<AluCase> {};

TEST_P(AluTest, ComputesExpectedValue) {
  const RunResult r = RunProgram(GetParam().source);
  ASSERT_EQ(r.reason, StopReason::kSyscall) << GetParam().name;
  EXPECT_EQ(r.ctx.cpu.regs[GetParam().reg], GetParam().expected) << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    Ops, AluTest,
    ::testing::Values(
        AluCase{"movi", "movi r1, -7\nsys 0\n", 1, -7},
        AluCase{"mov", "movi r1, 5\nmov r2, r1\nsys 0\n", 2, 5},
        AluCase{"add", "movi r1, 2\nmovi r2, 3\nadd r3, r1, r2\nsys 0\n", 3, 5},
        AluCase{"sub", "movi r1, 2\nmovi r2, 3\nsub r3, r1, r2\nsys 0\n", 3, -1},
        AluCase{"mul", "movi r1, -4\nmovi r2, 3\nmul r3, r1, r2\nsys 0\n", 3, -12},
        AluCase{"div", "movi r1, 17\nmovi r2, 5\ndiv r3, r1, r2\nsys 0\n", 3, 3},
        AluCase{"mod", "movi r1, 17\nmovi r2, 5\nmod r3, r1, r2\nsys 0\n", 3, 2},
        AluCase{"and", "movi r1, 12\nmovi r2, 10\nand r3, r1, r2\nsys 0\n", 3, 8},
        AluCase{"or", "movi r1, 12\nmovi r2, 10\nor r3, r1, r2\nsys 0\n", 3, 14},
        AluCase{"xor", "movi r1, 12\nmovi r2, 10\nxor r3, r1, r2\nsys 0\n", 3, 6},
        AluCase{"shl", "movi r1, 3\nmovi r2, 4\nshl r3, r1, r2\nsys 0\n", 3, 48},
        AluCase{"shr", "movi r1, 48\nmovi r2, 4\nshr r3, r1, r2\nsys 0\n", 3, 3},
        AluCase{"addi", "movi r1, 5\naddi r2, r1, -3\nsys 0\n", 2, 2},
        AluCase{"lmul", "movi r1, 6\nmovi r2, 7\nlmul r3, r1, r2\nsys 0\n", 3, 42},
        AluCase{"bfext", "movi r1, 0xF0\nbfext r2, r1, 4+1024\nsys 0\n", 2, 15},
        // Results a host CPU would trap on or leave undefined (isa.h defines
        // them).
        AluCase{"add_wraps", kMinAndMinusOne + "add r3, r1, r2\nsys 0\n", 3, kInt64Max},
        AluCase{"sub_wraps", kMinAndMinusOne + "movi r2, 1\nsub r3, r1, r2\nsys 0\n", 3, kInt64Max},
        AluCase{"mul_wraps", kMinAndMinusOne + "mul r3, r1, r2\nsys 0\n", 3, kInt64Min},
        AluCase{"lmul_wraps", kMinAndMinusOne + "lmul r3, r1, r2\nsys 0\n", 3, kInt64Min},
        AluCase{"addi_wraps", kMinAndMinusOne + "addi r3, r1, -1\nsys 0\n", 3, kInt64Max},
        AluCase{"div_min_by_minus_one", kMinAndMinusOne + "div r3, r1, r2\nsys 0\n", 3, kInt64Min},
        AluCase{"mod_min_by_minus_one", kMinAndMinusOne + "movi r3, 5\nmod r3, r1, r2\nsys 0\n", 3, 0},
        AluCase{"bfext_shift_64", "movi r1, -1\nbfext r2, r1, 64+2048\nsys 0\n", 2, 0},
        AluCase{"bfext_shift_255", "movi r1, -1\nbfext r2, r1, 255+16128\nsys 0\n", 2, 0},
        // r1 = INT64_MAX; r1 + 0x100001 overflows int64, and its low 32 bits
        // are kDataBase.
        AluCase{"ld_address_wraps",
                "movi r1, -1\nmovi r2, 1\nshr r1, r1, r2\nld r3, r1, 0x100001\nsys 0\n"
                ".data\n.quad 1234\n",
                3, 1234},
        AluCase{"st_address_wraps",
                "movi r1, -1\nmovi r2, 1\nshr r1, r1, r2\nmovi r4, 77\n"
                "st r4, r1, 0x100001\nmovi r5, 0x100000\nld r3, r5, 0\nsys 0\n"
                ".data\n.quad 0\n",
                3, 77}),
    [](const auto& test) { return std::string(test.param.name); });

TEST(Cpu, LoadStore64) {
  const RunResult r = RunProgram(R"(
        movi r1, buf
        movi r2, -99
        st   r2, r1, 0
        ld   r3, r1, 0
        sys  0
        .data
buf:    .quad 0
)");
  ASSERT_EQ(r.reason, StopReason::kSyscall);
  EXPECT_EQ(r.ctx.cpu.regs[3], -99);
}

TEST(Cpu, LoadStoreByte) {
  const RunResult r = RunProgram(R"(
        movi r1, buf
        movi r2, 0x1FF
        stb  r2, r1, 1
        ldb  r3, r1, 1
        sys  0
        .data
buf:    .space 4
)");
  ASSERT_EQ(r.reason, StopReason::kSyscall);
  EXPECT_EQ(r.ctx.cpu.regs[3], 0xFF);  // stores only the low byte, loads zero-extend
}

TEST(Cpu, PushPop) {
  const RunResult r = RunProgram("movi r1, 11\npush r1\nmovi r1, 0\npop r2\nsys 0\n");
  ASSERT_EQ(r.reason, StopReason::kSyscall);
  EXPECT_EQ(r.ctx.cpu.regs[2], 11);
  EXPECT_EQ(r.ctx.cpu.sp, kStackTop);  // balanced
}

TEST(Cpu, CallRet) {
  const RunResult r = RunProgram(R"(
start:  call f
        sys  0
f:      movi r5, 77
        ret
)");
  ASSERT_EQ(r.reason, StopReason::kSyscall);
  EXPECT_EQ(r.ctx.cpu.regs[5], 77);
  EXPECT_EQ(r.ctx.cpu.sp, kStackTop);
}

TEST(Cpu, ConditionalBranches) {
  const RunResult r = RunProgram(R"(
        movi r1, 5
        movi r2, 5
        beq  r1, r2, eq_ok
        movi r7, 1
eq_ok:  movi r3, 4
        bne  r1, r3, ne_ok
        movi r7, 2
ne_ok:  blt  r3, r1, lt_ok
        movi r7, 3
lt_ok:  bge  r1, r2, ge_ok
        movi r7, 4
ge_ok:  sys  0
)");
  ASSERT_EQ(r.reason, StopReason::kSyscall);
  EXPECT_EQ(r.ctx.cpu.regs[7], 0);  // no fall-through branch taken
}

TEST(Cpu, SyscallReportsNumberAndAdvancesPc) {
  const RunResult r = RunProgram("sys 42\n");
  ASSERT_EQ(r.reason, StopReason::kSyscall);
  EXPECT_EQ(r.syscall, 42);
  EXPECT_EQ(r.ctx.cpu.pc, static_cast<uint32_t>(kInstrBytes));
}

TEST(Cpu, StepBudgetPreempts) {
  VmContext ctx;
  ctx.LoadImage(MustAssemble("loop: jmp loop\n"));
  Cpu cpu(IsaLevel::kIsa20);
  EXPECT_EQ(cpu.Run(ctx, 100), StopReason::kSteps);
  EXPECT_EQ(cpu.steps_executed(), 100);
}

// --- Faults ---

TEST(CpuFault, DivideByZero) {
  const RunResult r = RunProgram("movi r1, 1\nmovi r2, 0\ndiv r3, r1, r2\nsys 0\n");
  ASSERT_EQ(r.reason, StopReason::kFault);
  EXPECT_EQ(r.fault, Fault::kDivideByZero);
  // pc left on the faulting instruction.
  EXPECT_EQ(r.ctx.cpu.pc, static_cast<uint32_t>(2 * kInstrBytes));
}

TEST(CpuFault, ModByZero) {
  const RunResult r = RunProgram("movi r2, 0\nmod r3, r3, r2\nsys 0\n");
  EXPECT_EQ(r.fault, Fault::kDivideByZero);
}

TEST(CpuFault, LoadOutsideSegments) {
  const RunResult r = RunProgram("movi r1, 0x500\nld r2, r1, 0\nsys 0\n");
  EXPECT_EQ(r.fault, Fault::kBadAddress);  // 0x500 is in text, not data/stack
}

TEST(CpuFault, StoreToTextIsRejected) {
  const RunResult r = RunProgram("movi r1, 0\nst r1, r1, 0\nsys 0\n");
  EXPECT_EQ(r.fault, Fault::kBadAddress);
}

TEST(CpuFault, RunOffEndOfText) {
  const RunResult r = RunProgram("nop\n");
  EXPECT_EQ(r.reason, StopReason::kFault);
  EXPECT_EQ(r.fault, Fault::kBadAddress);
}

TEST(CpuFault, HaltIsIllegal) {
  const RunResult r = RunProgram("halt\n");
  EXPECT_EQ(r.fault, Fault::kIllegalInstruction);
}

TEST(CpuFault, Isa20OpcodeOnIsa10Machine) {
  const RunResult r = RunProgram("lmul r1, r2, r3\nsys 0\n", 100, IsaLevel::kIsa10);
  EXPECT_EQ(r.reason, StopReason::kFault);
  EXPECT_EQ(r.fault, Fault::kIsaViolation);
}

TEST(CpuFault, Isa20OpcodeRunsOnIsa20Machine) {
  const RunResult r = RunProgram("lmul r1, r2, r3\nsys 0\n", 100, IsaLevel::kIsa20);
  EXPECT_EQ(r.reason, StopReason::kSyscall);
}

TEST(CpuFault, StackOverflow) {
  const RunResult r = RunProgram("loop: push r0\njmp loop\n", 1 << 20);
  EXPECT_EQ(r.fault, Fault::kStackOverflow);
}

// pc + 8 wraps for pc >= 0xFFFFFFF8, so a fetch bound of the form pc + 8 <= size
// would read 4 GB past the text. The fetch must fault there like anywhere else.
TEST(CpuFault, JumpToTopOfAddressSpace) {
  const RunResult r = RunProgram("jmp -8\n");
  EXPECT_EQ(r.reason, StopReason::kFault);
  EXPECT_EQ(r.fault, Fault::kBadAddress);
  EXPECT_EQ(r.ctx.cpu.pc, 0xFFFFFFF8u);
}

TEST(CpuFault, ReturnToTopOfAddressSpace) {
  const RunResult r = RunProgram("movi r1, -8\npush r1\nret\n");
  EXPECT_EQ(r.reason, StopReason::kFault);
  EXPECT_EQ(r.fault, Fault::kBadAddress);
  EXPECT_EQ(r.ctx.cpu.pc, 0xFFFFFFF8u);
  EXPECT_EQ(r.ctx.cpu.sp, kStackTop);  // the ret itself completed
}

// --- The decoder contract ---

AoutImage ImageOf(const std::vector<Instruction>& program) {
  std::vector<uint8_t> text;
  for (const Instruction& in : program) {
    const auto bytes = in.Encode();
    text.insert(text.end(), bytes.begin(), bytes.end());
  }
  AoutImage image;
  image.text = sim::Blob(text);
  return image;
}

// The fault the ISA assigns to an instruction before it runs, in its order:
// undefined opcode, then an opcode above the machine's level, then a register
// field out of range (ra only where the operand shape reads it).
Fault PreExecutionFault(const Instruction& in, IsaLevel machine) {
  if (in.op >= Opcode::kNumOpcodes) return Fault::kIllegalInstruction;
  const OpcodeInfo& info = GetOpcodeInfo(in.op);
  if (!IsaCompatible(info.level, machine)) return Fault::kIsaViolation;
  const bool reads_ra =
      info.shape != OpcodeInfo::Shape::kNone && info.shape != OpcodeInfo::Shape::kImm;
  if ((reads_ra && in.ra >= kNumRegs) || in.rb >= kNumRegs || in.rc >= kNumRegs) {
    return Fault::kIllegalInstruction;
  }
  return Fault::kNone;
}

TEST(CpuDecode, EveryOpcodeByteAndRegisterFieldOnBothLevels) {
  struct Regs {
    uint8_t ra, rb, rc;
  };
  const Regs variants[] = {{1, 2, 3}, {8, 2, 3}, {1, 8, 3}, {1, 2, 8}};
  int checked = 0;
  VmContext ctx;  // reused: each LoadImage must leave no trace of the last case
  for (int byte = 0; byte < 256; ++byte) {
    for (const Regs& regs : variants) {
      for (const IsaLevel machine : {IsaLevel::kIsa10, IsaLevel::kIsa20}) {
        const Instruction in{static_cast<Opcode>(byte), regs.ra, regs.rb, regs.rc, 16};
        ctx.LoadImage(ImageOf({in, {}, {}}));
        Cpu cpu(machine);
        const StopReason reason = cpu.Run(ctx, 1);
        const std::string where = "byte " + std::to_string(byte) + " ra " +
                                  std::to_string(regs.ra) + " rb " + std::to_string(regs.rb) +
                                  " rc " + std::to_string(regs.rc) + " level " +
                                  std::to_string(static_cast<int>(machine));
        EXPECT_EQ(cpu.steps_executed(), 1) << where;
        const Fault expected = PreExecutionFault(in, machine);
        if (expected != Fault::kNone) {
          EXPECT_EQ(reason, StopReason::kFault) << where;
          EXPECT_EQ(cpu.last_fault(), expected) << where;
          EXPECT_EQ(ctx.cpu.pc, 0u) << where;
        } else if (reason == StopReason::kFault) {
          // It ran and faulted on its own terms: halt, a zero divisor, or an
          // address outside data/stack (all registers are zero).
          EXPECT_NE(cpu.last_fault(), Fault::kIsaViolation) << where;
          if (in.op != Opcode::kHalt) {
            EXPECT_NE(cpu.last_fault(), Fault::kIllegalInstruction) << where;
          }
          EXPECT_EQ(ctx.cpu.pc, 0u) << where;
        } else {
          EXPECT_NE(in.op, Opcode::kHalt) << where;
          EXPECT_EQ(reason == StopReason::kSyscall, in.op == Opcode::kSys) << where;
        }
        ++checked;
      }
    }
  }
  EXPECT_EQ(checked, 256 * 4 * 2);
}

TEST(CpuDecode, Examples) {
  auto run = [](const Instruction& in, IsaLevel machine) {
    VmContext ctx;
    ctx.LoadImage(ImageOf({in, {}, {}}));
    Cpu cpu(machine);
    cpu.Run(ctx, 1);
    return std::pair(cpu.last_fault(), ctx.cpu.pc);
  };
  const Instruction lmul_bad_rb{Opcode::kLMul, 1, 8, 3, 0};
  EXPECT_EQ(run(lmul_bad_rb, IsaLevel::kIsa10).first, Fault::kIsaViolation);
  EXPECT_EQ(run(lmul_bad_rb, IsaLevel::kIsa20).first, Fault::kIllegalInstruction);
  const Instruction jmp_ra8{Opcode::kJmp, 8, 0, 0, 16};
  EXPECT_EQ(run(jmp_ra8, IsaLevel::kIsa10), std::pair(Fault::kNone, 16u));
  const Instruction byte_ff{static_cast<Opcode>(0xFF), 0, 0, 0, 0};
  EXPECT_EQ(run(byte_ff, IsaLevel::kIsa20).first, Fault::kIllegalInstruction);
}

// A slot decoded while running on one machine level still checks the level of
// the machine it runs on next.
TEST(CpuDecode, DecodedSlotKeepsCheckingTheMachineLevel) {
  VmContext ctx;
  ctx.LoadImage(ImageOf({{Opcode::kLMul, 1, 2, 3, 0}, {Opcode::kSys, 0, 0, 0, 0}}));
  Cpu isa20(IsaLevel::kIsa20);
  EXPECT_EQ(isa20.Run(ctx, 10), StopReason::kSyscall);
  ctx.cpu.pc = 0;
  Cpu isa10(IsaLevel::kIsa10);
  EXPECT_EQ(isa10.Run(ctx, 10), StopReason::kFault);
  EXPECT_EQ(isa10.last_fault(), Fault::kIsaViolation);
  EXPECT_EQ(isa10.steps_executed(), 1);
}

TEST(CpuDecode, FirstExecutionCountsExactlyTheBudget) {
  VmContext ctx;
  ctx.LoadImage(MustAssemble("nop\nnop\nnop\nnop\nloop: addi r1, r1, 1\njmp loop\n"));
  Cpu cpu(IsaLevel::kIsa20);
  for (const int64_t budget : {1, 2, 3, 7}) {
    const uint32_t pc_before = ctx.cpu.pc;
    EXPECT_EQ(cpu.Run(ctx, budget), StopReason::kSteps);
    EXPECT_EQ(cpu.steps_executed(), budget);
    EXPECT_NE(ctx.cpu.pc, pc_before);
  }
  // 13 steps: four nops, then the addi/jmp loop 4.5 times.
  EXPECT_EQ(ctx.cpu.regs[1], 5);
  EXPECT_EQ(cpu.Run(ctx, 0), StopReason::kSteps);
  EXPECT_EQ(cpu.steps_executed(), 0);
}

TEST(CpuDecode, LoadImageReplacesDecodedText) {
  VmContext ctx;
  Cpu cpu(IsaLevel::kIsa20);
  ctx.LoadImage(MustAssemble("movi r1, 1\nmovi r2, 2\nmovi r3, 3\nsys 5\n"));
  ASSERT_EQ(cpu.Run(ctx, 100), StopReason::kSyscall);
  EXPECT_EQ(cpu.last_syscall(), 5);

  ctx.LoadImage(MustAssemble("movi r1, 10\nmovi r2, 20\nmovi r3, 30\nsys 6\n"));
  ASSERT_EQ(cpu.Run(ctx, 100), StopReason::kSyscall);
  EXPECT_EQ(cpu.last_syscall(), 6);
  EXPECT_EQ(ctx.cpu.regs[1], 10);
  EXPECT_EQ(ctx.cpu.regs[3], 30);

  // A shorter image: the old image's later slots are gone, not stale.
  ctx.LoadImage(MustAssemble("movi r1, 7\n"));
  EXPECT_EQ(cpu.Run(ctx, 100), StopReason::kFault);
  EXPECT_EQ(cpu.last_fault(), Fault::kBadAddress);
  EXPECT_EQ(ctx.cpu.pc, static_cast<uint32_t>(kInstrBytes));
  EXPECT_EQ(cpu.steps_executed(), 2);
}

TEST(CpuDecode, ForkedCopyRunsTheSharedText) {
  constexpr std::string_view kLoop = R"(
        movi r2, 3
loop:   addi r1, r1, 1
        sys  1
        bne  r1, r2, loop
        sys  2
)";
  VmContext parent;
  parent.LoadImage(MustAssemble(kLoop));
  Cpu cpu(IsaLevel::kIsa20);
  ASSERT_EQ(cpu.Run(parent, 100), StopReason::kSyscall);  // first sys 1
  VmContext child = parent;  // fork: the partly decoded slots come along
  for (VmContext* ctx : {&parent, &child}) {
    int syscalls = 0;
    while (cpu.Run(*ctx, 100) == StopReason::kSyscall && cpu.last_syscall() == 1) ++syscalls;
    EXPECT_EQ(cpu.last_syscall(), 2);
    EXPECT_EQ(syscalls, 2);
    EXPECT_EQ(ctx->cpu.regs[1], 3);
  }
  EXPECT_EQ(child.cpu, parent.cpu);
}

// The whole stack region as the program sees it, backed in host memory or not.
std::vector<uint8_t> StackRegion(const VmContext& ctx) {
  std::vector<uint8_t> bytes(kStackMax);
  EXPECT_TRUE(ctx.ReadBytes(kStackBase, kStackMax, bytes.data()));
  return bytes;
}

// Random texts, registers and stack pointers: whatever the bytes, a run stops
// with a reason that honours the contract, and running in one-step slices
// reaches exactly the state one long run does. So does a run on a context whose
// stack is backed all the way down to kStackBase before it starts: how much of
// the stack is backed is never observable. The contexts are reused, so every
// LoadImage also replaces a previous image's decoded slots and stack backing.
TEST(CpuFuzz, RandomTextsHonourTheStopContract) {
  sim::Rng rng(0x5eed);
  VmContext ctx;
  VmContext sliced;
  VmContext backed;
  const uint8_t zero = 0;
  int runs = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    const size_t slots = 1 + rng.Below(12);
    const uint32_t text_end = static_cast<uint32_t>(slots) * kInstrBytes;
    auto pick_target = [&]() -> uint32_t {
      switch (rng.Below(6)) {
        case 0:
          return static_cast<uint32_t>(rng.Below(slots)) * kInstrBytes;
        case 1:
          return text_end - 16 + static_cast<uint32_t>(rng.Below(32));
        case 2:
          return static_cast<uint32_t>(-static_cast<int64_t>(1 + rng.Below(24)));
        case 3:
          return kDataBase + static_cast<uint32_t>(rng.Below(80));
        case 4:
          return kStackTop - 24 + static_cast<uint32_t>(rng.Below(48));
        default:
          return static_cast<uint32_t>(rng.Next());
      }
    };
    std::vector<uint8_t> text;
    for (size_t i = 0; i < slots; ++i) {
      Instruction in;
      in.op = static_cast<Opcode>(rng.Chance(0.85) ? rng.Below(32) : rng.Below(256));
      in.ra = static_cast<uint8_t>(rng.Chance(0.9) ? rng.Below(8) : rng.Below(256));
      in.rb = static_cast<uint8_t>(rng.Chance(0.9) ? rng.Below(8) : rng.Below(256));
      in.rc = static_cast<uint8_t>(rng.Chance(0.9) ? rng.Below(8) : rng.Below(256));
      in.imm = static_cast<int32_t>(pick_target());
      const auto bytes = in.Encode();
      text.insert(text.end(), bytes.begin(), bytes.end());
    }
    text.resize(text.size() + rng.Below(8));  // a ragged tail
    AoutImage image;
    image.text = sim::Blob(text);
    image.data.resize(rng.Below(64));
    image.header.entry = rng.Chance(0.8) ? 0 : pick_target();

    ctx.LoadImage(image);
    ctx.cpu.sp = rng.Chance(0.7) ? pick_target() : kStackBase + static_cast<uint32_t>(rng.Below(16));
    for (int64_t& reg : ctx.cpu.regs) {
      reg = rng.Chance(0.5) ? static_cast<int64_t>(pick_target())
                            : static_cast<int64_t>(rng.Next());
    }
    backed = ctx;
    ASSERT_TRUE(backed.WriteBytes(kStackBase, 1, &zero));  // tracking is still disarmed
    if (rng.Chance(0.5)) {
      ctx.ArmDirtyTracking();
      backed.ArmDirtyTracking();
    }
    const IsaLevel machine = rng.Chance(0.5) ? IsaLevel::kIsa10 : IsaLevel::kIsa20;
    const int64_t budget = 1 + static_cast<int64_t>(rng.Below(64));
    sliced = ctx;

    Cpu cpu(machine);
    const StopReason reason = cpu.Run(ctx, budget);
    const int64_t steps = cpu.steps_executed();
    const std::string where = "iteration " + std::to_string(iter);
    ASSERT_GE(steps, 1) << where;
    ASSERT_LE(steps, budget) << where;
    const bool fetchable = ctx.cpu.pc % kInstrBytes == 0 && ctx.cpu.pc < text_end;
    switch (reason) {
      case StopReason::kSteps:
        EXPECT_EQ(steps, budget) << where;
        EXPECT_EQ(cpu.last_fault(), Fault::kNone) << where;
        break;
      case StopReason::kSyscall:
        ASSERT_GE(ctx.cpu.pc, static_cast<uint32_t>(kInstrBytes)) << where;
        EXPECT_EQ(ctx.cpu.pc % kInstrBytes, 0u) << where;
        EXPECT_EQ(ctx.text().data()[ctx.cpu.pc - kInstrBytes], static_cast<uint8_t>(Opcode::kSys))
            << where;
        break;
      case StopReason::kFault:
        EXPECT_NE(cpu.last_fault(), Fault::kNone) << where;
        // Only a fetch faults off the text, and it reports a bad address.
        if (!fetchable) {
          EXPECT_EQ(cpu.last_fault(), Fault::kBadAddress) << where;
        }
        break;
    }

    Cpu stepper(machine);
    int64_t sliced_steps = 0;
    StopReason sliced_reason = StopReason::kSteps;
    while (sliced_steps < budget && sliced_reason == StopReason::kSteps) {
      sliced_reason = stepper.Run(sliced, 1);
      sliced_steps += stepper.steps_executed();
    }
    EXPECT_EQ(sliced_reason, reason) << where;
    EXPECT_EQ(sliced_steps, steps) << where;
    EXPECT_EQ(sliced.cpu, ctx.cpu) << where;
    EXPECT_EQ(stepper.last_fault(), cpu.last_fault()) << where;
    EXPECT_EQ(sliced.data, ctx.data) << where;
    const std::vector<uint8_t> region = StackRegion(ctx);
    EXPECT_EQ(StackRegion(sliced), region) << where;
    EXPECT_EQ(sliced.dirty.data_dirty, ctx.dirty.data_dirty) << where;
    EXPECT_EQ(sliced.dirty.stack_dirty, ctx.dirty.stack_dirty) << where;

    Cpu backed_cpu(machine);
    EXPECT_EQ(backed_cpu.Run(backed, budget), reason) << where;
    EXPECT_EQ(backed_cpu.last_fault(), cpu.last_fault()) << where;
    EXPECT_EQ(backed_cpu.steps_executed(), steps) << where;
    EXPECT_EQ(backed.cpu, ctx.cpu) << where;
    EXPECT_EQ(backed.data, ctx.data) << where;
    EXPECT_EQ(StackRegion(backed), region) << where;
    if (ctx.cpu.sp >= kStackBase && ctx.cpu.sp <= kStackTop) {
      EXPECT_EQ(backed.StackContents(), ctx.StackContents()) << where;
    }
    EXPECT_EQ(backed.dirty.data_dirty, ctx.dirty.data_dirty) << where;
    EXPECT_EQ(backed.dirty.stack_dirty, ctx.dirty.stack_dirty) << where;
    ++runs;
  }
  EXPECT_EQ(runs, 2000);
}

// --- VmContext memory and dump/restore ---

TEST(VmContext, ReadWriteCString) {
  VmContext ctx;
  ctx.data.resize(64);
  ASSERT_TRUE(ctx.WriteCString(kDataBase, "hello"));
  std::string s;
  ASSERT_TRUE(ctx.ReadCString(kDataBase, 63, &s));
  EXPECT_EQ(s, "hello");
}

TEST(VmContext, ReadCStringUnterminatedFails) {
  VmContext ctx;
  ctx.data.assign(4, 'x');  // no NUL
  std::string s;
  EXPECT_FALSE(ctx.ReadCString(kDataBase, 3, &s));
}

TEST(VmContext, StackContentsRoundTrip) {
  VmContext ctx;
  ctx.cpu.sp = kStackTop - 16;
  ASSERT_TRUE(ctx.WriteU64(ctx.cpu.sp, 0x1111));
  ASSERT_TRUE(ctx.WriteU64(ctx.cpu.sp + 8, 0x2222));
  const std::vector<uint8_t> dump = ctx.StackContents();
  EXPECT_EQ(dump.size(), 16u);

  VmContext fresh;
  ASSERT_TRUE(fresh.SetStackContents(dump));
  EXPECT_EQ(fresh.cpu.sp, kStackTop - 16);
  int64_t a = 0, b = 0;
  ASSERT_TRUE(fresh.ReadU64(fresh.cpu.sp, &a));
  ASSERT_TRUE(fresh.ReadU64(fresh.cpu.sp + 8, &b));
  EXPECT_EQ(a, 0x1111);
  EXPECT_EQ(b, 0x2222);
}

// Only the touched part of the stack region is backed in host memory; the rest
// must still read as zero, through the accessors and through the CPU.
TEST(VmContext, UnbackedStackReadsAsZero) {
  VmContext fresh;
  int64_t v = -1;
  ASSERT_TRUE(fresh.ReadU64(kStackBase, &v));
  EXPECT_EQ(v, 0);

  // A byte below the backing and one in it, read as one word.
  VmContext ctx;
  ctx.cpu.sp = kStackTop - 8;
  ASSERT_TRUE(ctx.WriteU64(kStackTop - 8, -1));
  ASSERT_TRUE(ctx.ReadU64(kStackTop - 8 - 4, &v));
  EXPECT_EQ(v, int64_t{0xFFFFFFFF} << 32);

  // A deep word written by one image is gone after the next LoadImage.
  ASSERT_TRUE(ctx.WriteU64(kStackBase + 8, 77));
  ctx.LoadImage(MustAssemble("movi r1, 0x7C0008\nld r2, r1, 0\nld r3, r1, -8\nsys 0\n"));
  ctx.cpu.regs[2] = ctx.cpu.regs[3] = -1;
  Cpu cpu(IsaLevel::kIsa20);
  ASSERT_EQ(cpu.Run(ctx, 100), StopReason::kSyscall);
  EXPECT_EQ(ctx.cpu.regs[2], 0);
  EXPECT_EQ(ctx.cpu.regs[3], 0);
  EXPECT_EQ(StackRegion(ctx), std::vector<uint8_t>(kStackMax, 0));
}

TEST(VmContext, ForkCopiesTheStack) {
  VmContext parent;
  parent.cpu.sp = kStackBase + 16;
  ASSERT_TRUE(parent.WriteU64(kStackBase + 16, 11));
  ASSERT_TRUE(parent.WriteU64(kStackTop - 8, 22));
  VmContext child = parent;
  EXPECT_EQ(child.StackContents(), parent.StackContents());
  EXPECT_EQ(StackRegion(child), StackRegion(parent));

  // The copies are independent.
  ASSERT_TRUE(child.WriteU64(kStackBase + 16, 33));
  ASSERT_TRUE(child.WriteU64(kStackBase, 44));
  int64_t v = 0;
  ASSERT_TRUE(parent.ReadU64(kStackBase + 16, &v));
  EXPECT_EQ(v, 11);
  ASSERT_TRUE(parent.ReadU64(kStackBase, &v));
  EXPECT_EQ(v, 0);
}

TEST(VmContext, DeepPushesAfterSetStackContentsReadBack) {
  const std::vector<uint8_t> dumped = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16};
  constexpr int kPushes = 20000;  // 160 KB: the backing grows many times
  VmContext ctx;
  ctx.LoadImage(MustAssemble(R"(
        movi r1, 0
        movi r2, 20000
loop:   push r1
        addi r1, r1, 1
        bne  r1, r2, loop
        sys  0
)"));
  ASSERT_TRUE(ctx.SetStackContents(dumped));
  Cpu cpu(IsaLevel::kIsa20);
  ASSERT_EQ(cpu.Run(ctx, 4 * kPushes), StopReason::kSyscall);
  ASSERT_EQ(ctx.cpu.sp, kStackTop - dumped.size() - 8 * kPushes);
  for (int i = 0; i < kPushes; ++i) {
    int64_t v = -1;
    ASSERT_TRUE(ctx.ReadU64(ctx.cpu.sp + 8 * static_cast<uint32_t>(i), &v));
    ASSERT_EQ(v, kPushes - 1 - i) << "push " << i;
  }
  const std::vector<uint8_t> contents = ctx.StackContents();
  ASSERT_EQ(contents.size(), dumped.size() + 8 * kPushes);
  EXPECT_TRUE(std::equal(dumped.begin(), dumped.end(), contents.end() - 16));
  int64_t below = -1;
  ASSERT_TRUE(ctx.ReadU64(kStackBase, &below));
  EXPECT_EQ(below, 0);
}

TEST(VmContext, SetStackContentsRejectsOversize) {
  VmContext ctx;
  EXPECT_FALSE(ctx.SetStackContents(std::vector<uint8_t>(kStackMax + 1)));
}

TEST(VmContext, LoadImageResetsEverything) {
  VmContext ctx;
  ctx.cpu.regs[0] = 99;
  ctx.cpu.sp = kStackTop - 100;
  const AoutImage img = MustAssemble("start: nop\nsys 0\n.data\n.quad 3\n");
  ctx.LoadImage(img);
  EXPECT_EQ(ctx.cpu.regs[0], 0);
  EXPECT_EQ(ctx.cpu.sp, kStackTop);
  EXPECT_EQ(ctx.cpu.pc, img.header.entry);
  EXPECT_EQ(ctx.data.size(), 8u);
}

TEST(VmContext, U16Accessors) {
  VmContext ctx;
  ctx.data.resize(8);
  ASSERT_TRUE(ctx.WriteU16(kDataBase + 2, 0xBEEF));
  uint16_t v = 0;
  ASSERT_TRUE(ctx.ReadU16(kDataBase + 2, &v));
  EXPECT_EQ(v, 0xBEEF);
}

TEST(FaultName, Names) {
  EXPECT_EQ(FaultName(Fault::kDivideByZero), "divide by zero");
  EXPECT_EQ(FaultName(Fault::kIsaViolation), "isa violation");
}

}  // namespace
}  // namespace pmig::vm
