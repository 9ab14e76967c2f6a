#include "src/vm/disassembler.h"

#include <cstdio>

namespace pmig::vm {

std::string DisassembleInstruction(const Instruction& in) {
  const OpcodeInfo& info = GetOpcodeInfo(in.op);
  char buf[96];
  using Shape = OpcodeInfo::Shape;
  const auto m = std::string(info.mnemonic);
  switch (info.shape) {
    case Shape::kNone:
      std::snprintf(buf, sizeof(buf), "%s", m.c_str());
      break;
    case Shape::kReg:
      std::snprintf(buf, sizeof(buf), "%s r%d", m.c_str(), in.ra);
      break;
    case Shape::kRegImm:
      std::snprintf(buf, sizeof(buf), "%s r%d, %d", m.c_str(), in.ra, in.imm);
      break;
    case Shape::kRegReg:
      std::snprintf(buf, sizeof(buf), "%s r%d, r%d", m.c_str(), in.ra, in.rb);
      break;
    case Shape::kThreeReg:
      std::snprintf(buf, sizeof(buf), "%s r%d, r%d, r%d", m.c_str(), in.ra, in.rb, in.rc);
      break;
    case Shape::kRegRegImm:
      std::snprintf(buf, sizeof(buf), "%s r%d, r%d, %d", m.c_str(), in.ra, in.rb, in.imm);
      break;
    case Shape::kImm:
      std::snprintf(buf, sizeof(buf), "%s %d", m.c_str(), in.imm);
      break;
  }
  return buf;
}

std::string DisassembleText(const sim::Blob& text) {
  std::string out;
  for (size_t off = 0; off + kInstrBytes <= text.size(); off += kInstrBytes) {
    char head[32];
    std::snprintf(head, sizeof(head), "%6zu: ", off);
    out += head;
    out += DisassembleInstruction(Instruction::Decode(text.data() + off));
    out += '\n';
  }
  return out;
}

}  // namespace pmig::vm
