// Disassembler: renders encoded text segments back to assembly. Used by tests
// (encode/decode round trips), by core-dump inspection, and by examples that print
// what a migrated program is executing.

#ifndef PMIG_SRC_VM_DISASSEMBLER_H_
#define PMIG_SRC_VM_DISASSEMBLER_H_

#include <cstdint>
#include <string>

#include "src/sim/blob.h"
#include "src/vm/isa.h"

namespace pmig::vm {

// One instruction, e.g. "addi r0, r0, 1".
std::string DisassembleInstruction(const Instruction& in);

// Whole text segment, one line per instruction, prefixed with the byte offset.
std::string DisassembleText(const sim::Blob& text);

}  // namespace pmig::vm

#endif  // PMIG_SRC_VM_DISASSEMBLER_H_
