// CPU executor semantics: every opcode, faults, memory protection, and the
// dump/restore invariants of VmContext.

#include "src/vm/cpu.h"

#include <gtest/gtest.h>

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
  const char* source;
  int reg;
  int64_t expected;
};

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
        AluCase{"bfext", "movi r1, 0xF0\nbfext r2, r1, 4+1024\nsys 0\n", 2, 15}),
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
