// Assembler, disassembler, and a.out format tests.

#include "src/vm/assembler.h"

#include <gtest/gtest.h>

#include "src/vm/abi.h"
#include "src/vm/aout.h"
#include "src/vm/disassembler.h"

namespace pmig::vm {
namespace {

TEST(Assembler, EmptySourceIsValid) {
  const AsmOutput out = Assemble("");
  ASSERT_TRUE(out.ok);
  EXPECT_TRUE(out.image.text.empty());
  EXPECT_TRUE(out.image.data.empty());
}

TEST(Assembler, EncodesOneInstruction) {
  const AsmOutput out = Assemble("movi r3, 42\n");
  ASSERT_TRUE(out.ok);
  ASSERT_EQ(out.image.text.size(), static_cast<size_t>(kInstrBytes));
  const Instruction in = Instruction::Decode(out.image.text.data());
  EXPECT_EQ(in.op, Opcode::kMovI);
  EXPECT_EQ(in.ra, 3);
  EXPECT_EQ(in.imm, 42);
}

TEST(Assembler, CommentsAndBlankLines) {
  const AsmOutput out = Assemble("; full line comment\n\n  nop ; trailing\n# hash\n");
  ASSERT_TRUE(out.ok);
  EXPECT_EQ(out.image.text.size(), static_cast<size_t>(kInstrBytes));
}

TEST(Assembler, TextLabelsResolveToByteOffsets) {
  const AsmOutput out = Assemble(R"(
start:  nop
loop:   addi r0, r0, 1
        jmp  loop
)");
  ASSERT_TRUE(out.ok);
  EXPECT_EQ(out.symbols.at("start"), 0);
  EXPECT_EQ(out.symbols.at("loop"), kInstrBytes);
  const Instruction jmp = Instruction::Decode(out.image.text.data() + 2 * kInstrBytes);
  EXPECT_EQ(jmp.op, Opcode::kJmp);
  EXPECT_EQ(jmp.imm, kInstrBytes);
}

TEST(Assembler, DataLabelsResolveToDataBase) {
  const AsmOutput out = Assemble(R"(
        .data
a:      .quad 1
b:      .byte 2
c:      .asciiz "hi"
d:      .space 5
e:      .quad 0
)");
  ASSERT_TRUE(out.ok);
  EXPECT_EQ(out.symbols.at("a"), kDataBase);
  EXPECT_EQ(out.symbols.at("b"), kDataBase + 8);
  EXPECT_EQ(out.symbols.at("c"), kDataBase + 9);
  EXPECT_EQ(out.symbols.at("d"), kDataBase + 12);  // "hi\0" is 3 bytes
  EXPECT_EQ(out.symbols.at("e"), kDataBase + 17);
  EXPECT_EQ(out.image.data.size(), 25u);
}

TEST(Assembler, QuadIsLittleEndian) {
  const AsmOutput out = Assemble(".data\nv: .quad 0x0102030405060708\n");
  ASSERT_TRUE(out.ok);
  EXPECT_EQ(out.image.data[0], 0x08);
  EXPECT_EQ(out.image.data[7], 0x01);
}

TEST(Assembler, StringEscapes) {
  const AsmOutput out = Assemble(".data\ns: .ascii \"a\\n\\t\\\"b\\\\\"\n");
  ASSERT_TRUE(out.ok);
  const std::string s(out.image.data.begin(), out.image.data.end());
  EXPECT_EQ(s, "a\n\t\"b\\");
}

TEST(Assembler, ForwardReferences) {
  const AsmOutput out = Assemble(R"(
        jmp end
        nop
end:    nop
)");
  ASSERT_TRUE(out.ok);
  const Instruction jmp = Instruction::Decode(out.image.text.data());
  EXPECT_EQ(jmp.imm, 2 * kInstrBytes);
}

TEST(Assembler, EquConstants) {
  const AsmOutput out = Assemble(".equ N, 7\nmovi r0, N+1\n");
  ASSERT_TRUE(out.ok);
  EXPECT_EQ(Instruction::Decode(out.image.text.data()).imm, 8);
}

TEST(Assembler, PredefinedAbiSymbols) {
  const AsmOutput out = Assemble("sys SYS_write\nmovi r1, O_CREAT+O_WRONLY\n");
  ASSERT_TRUE(out.ok);
  EXPECT_EQ(Instruction::Decode(out.image.text.data()).imm, abi::SyscallNumber("write"));
  EXPECT_EQ(Instruction::Decode(out.image.text.data() + kInstrBytes).imm,
            abi::kOCreat | abi::kOWrOnly);
  // Every call in the ABI list is predefined as SYS_<name>.
  for (const abi::Syscall& call : abi::kSyscalls) {
    const AsmOutput sys = Assemble("sys SYS_" + std::string(call.name) + "\n");
    ASSERT_TRUE(sys.ok) << call.name;
    EXPECT_EQ(Instruction::Decode(sys.image.text.data()).imm, call.number);
  }
}

TEST(Assembler, CharacterLiterals) {
  const AsmOutput out = Assemble("movi r0, 'q'\nmovi r1, '\\n'\n");
  ASSERT_TRUE(out.ok);
  EXPECT_EQ(Instruction::Decode(out.image.text.data()).imm, 'q');
  EXPECT_EQ(Instruction::Decode(out.image.text.data() + kInstrBytes).imm, '\n');
}

TEST(Assembler, HexAndNegativeNumbers) {
  const AsmOutput out = Assemble("movi r0, 0x10\nmovi r1, -5\n");
  ASSERT_TRUE(out.ok);
  EXPECT_EQ(Instruction::Decode(out.image.text.data()).imm, 16);
  EXPECT_EQ(Instruction::Decode(out.image.text.data() + kInstrBytes).imm, -5);
}

TEST(Assembler, EntryDefaultsToStartLabel) {
  const AsmOutput out = Assemble("nop\nstart: nop\n");
  ASSERT_TRUE(out.ok);
  EXPECT_EQ(out.image.header.entry, static_cast<uint32_t>(kInstrBytes));
}

TEST(Assembler, ExplicitEntryDirective) {
  const AsmOutput out = Assemble(".entry here\nnop\nhere: nop\n");
  ASSERT_TRUE(out.ok);
  EXPECT_EQ(out.image.header.entry, static_cast<uint32_t>(kInstrBytes));
}

TEST(Assembler, IsaInferredFromOpcodes) {
  EXPECT_EQ(Assemble("mul r0, r1, r2\n").image.header.machtype, 10u);
  EXPECT_EQ(Assemble("lmul r0, r1, r2\n").image.header.machtype, 20u);
}

TEST(Assembler, IsaDirectiveOverrides) {
  const AsmOutput out = Assemble(".isa 20\nnop\n");
  ASSERT_TRUE(out.ok);
  EXPECT_EQ(out.image.header.machtype, 20u);
}

// --- Error reporting ---

TEST(AssemblerErrors, UnknownMnemonic) {
  const AsmOutput out = Assemble("bogus r1\n");
  ASSERT_FALSE(out.ok);
  EXPECT_NE(out.errors[0].message.find("unknown mnemonic"), std::string::npos);
  EXPECT_EQ(out.errors[0].line, 1);
}

TEST(AssemblerErrors, UndefinedSymbol) {
  const AsmOutput out = Assemble("jmp nowhere\n");
  ASSERT_FALSE(out.ok);
  EXPECT_NE(out.errors[0].message.find("undefined symbol"), std::string::npos);
}

TEST(AssemblerErrors, DuplicateLabel) {
  const AsmOutput out = Assemble("a: nop\na: nop\n");
  ASSERT_FALSE(out.ok);
  EXPECT_NE(out.errors[0].message.find("duplicate label"), std::string::npos);
}

TEST(AssemblerErrors, BadRegister) {
  const AsmOutput out = Assemble("movi r9, 1\n");
  ASSERT_FALSE(out.ok);
}

TEST(AssemblerErrors, WrongOperandCount) {
  const AsmOutput out = Assemble("add r1, r2\n");
  ASSERT_FALSE(out.ok);
  EXPECT_NE(out.errors[0].message.find("expects 3"), std::string::npos);
}

TEST(AssemblerErrors, InstructionInDataSection) {
  const AsmOutput out = Assemble(".data\nnop\n");
  ASSERT_FALSE(out.ok);
  EXPECT_NE(out.errors[0].message.find("outside .text"), std::string::npos);
}

TEST(AssemblerErrors, ReportsMultipleErrors) {
  const AsmOutput out = Assemble("bogus\nalso_bogus\n");
  ASSERT_FALSE(out.ok);
  EXPECT_GE(out.errors.size(), 2u);
}

// --- Instruction encode/decode ---

TEST(Instruction, EncodeDecodeRoundTrip) {
  for (size_t op = 0; op < static_cast<size_t>(Opcode::kNumOpcodes); ++op) {
    Instruction in;
    in.op = static_cast<Opcode>(op);
    in.ra = 1;
    in.rb = 2;
    in.rc = 3;
    in.imm = -123456;
    const auto bytes = in.Encode();
    EXPECT_EQ(Instruction::Decode(bytes.data()), in);
  }
}

TEST(Disassembler, RendersShapes) {
  EXPECT_EQ(DisassembleInstruction({Opcode::kNop, 0, 0, 0, 0}), "nop");
  EXPECT_EQ(DisassembleInstruction({Opcode::kMovI, 2, 0, 0, 9}), "movi r2, 9");
  EXPECT_EQ(DisassembleInstruction({Opcode::kAdd, 1, 2, 3, 0}), "add r1, r2, r3");
  EXPECT_EQ(DisassembleInstruction({Opcode::kSys, 0, 0, 0, 4}), "sys 4");
  EXPECT_EQ(DisassembleInstruction({Opcode::kPush, 5, 0, 0, 0}), "push r5");
}

TEST(Disassembler, AssembleDisassembleAgrees) {
  const AsmOutput out = Assemble("movi r1, 10\nadd r2, r1, r1\nsys 1\n");
  ASSERT_TRUE(out.ok);
  const std::string listing = DisassembleText(out.image.text);
  EXPECT_NE(listing.find("movi r1, 10"), std::string::npos);
  EXPECT_NE(listing.find("add r2, r1, r1"), std::string::npos);
  EXPECT_NE(listing.find("sys 1"), std::string::npos);
}

// --- a.out format ---

TEST(Aout, SerializeParseRoundTrip) {
  AoutImage img;
  img.text = sim::Blob(std::vector<uint8_t>{1, 2, 3, 4, 5, 6, 7, 8});
  img.data = {9, 10};
  img.header.entry = 0;
  img.header.machtype = 20;
  const Result<AoutImage> back = AoutImage::Parse(img.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->text, img.text);
  EXPECT_EQ(back->data, img.data);
  EXPECT_EQ(back->header.machtype, 20u);
  EXPECT_EQ(back->isa_level(), IsaLevel::kIsa20);
}

TEST(Aout, RejectsBadMagic) {
  AoutImage img;
  std::string bytes = img.Serialize();
  bytes[0] = static_cast<char>(bytes[0] ^ 0xFF);
  EXPECT_EQ(AoutImage::Parse(bytes).error(), Errno::kNoExec);
}

TEST(Aout, RejectsTruncated) {
  AoutImage img;
  img.text = sim::Blob(std::vector<uint8_t>(kInstrBytes));
  std::string bytes = img.Serialize();
  bytes.resize(bytes.size() - 4);
  EXPECT_EQ(AoutImage::Parse(bytes).error(), Errno::kNoExec);
}

TEST(Aout, RejectsMisalignedText) {
  AoutImage img;
  img.text = sim::Blob(std::vector<uint8_t>(5));  // not a multiple of kInstrBytes
  EXPECT_EQ(AoutImage::Parse(img.Serialize()).error(), Errno::kNoExec);
}

TEST(Aout, RejectsBadMachtype) {
  AoutImage img;
  img.header.machtype = 30;
  EXPECT_EQ(AoutImage::Parse(img.Serialize()).error(), Errno::kNoExec);
}

TEST(RequiredLevel, DetectsIsa20Opcodes) {
  const AsmOutput base = Assemble("mul r0, r1, r2\nsys 1\n");
  EXPECT_EQ(RequiredLevel(base.image.text.data(), base.image.text.size()), IsaLevel::kIsa10);
  const AsmOutput ext = Assemble("lmul r0, r1, r2\nsys 1\n");
  EXPECT_EQ(RequiredLevel(ext.image.text.data(), ext.image.text.size()), IsaLevel::kIsa20);
}

TEST(IsaCompatible, SupersetRule) {
  EXPECT_TRUE(IsaCompatible(IsaLevel::kIsa10, IsaLevel::kIsa20));
  EXPECT_TRUE(IsaCompatible(IsaLevel::kIsa10, IsaLevel::kIsa10));
  EXPECT_FALSE(IsaCompatible(IsaLevel::kIsa20, IsaLevel::kIsa10));
}

}  // namespace
}  // namespace pmig::vm
