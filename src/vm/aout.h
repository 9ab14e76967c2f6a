// The executable file format ("a.out").
//
// SIGDUMP's first dump file is "an executable obtained by dumping the text and data
// segments of the process, and prepending a suitable header that will make UNIX
// recognise the file as an executable" (Section 4.3). We use the same scheme: a
// small header (magic 0407, like OMAGIC a.out; machine type, like Sun's a_machtype;
// segment sizes; entry point) followed by the raw text and data bytes. Executing a
// dumped image from scratch behaves like the paper's `undump`: the program starts at
// its entry point but every static variable holds the value it had at dump time.

#ifndef PMIG_SRC_VM_AOUT_H_
#define PMIG_SRC_VM_AOUT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/sim/blob.h"
#include "src/sim/result.h"
#include "src/vm/isa.h"

namespace pmig::vm {

// 0407 octal: the original PDP-11 a.out magic.
constexpr uint32_t kAoutMagic = 0407;

struct AoutHeader {
  uint32_t magic = kAoutMagic;
  uint32_t machtype = 10;  // 10 = kIsa10, 20 = kIsa20
  uint32_t text_size = 0;
  uint32_t data_size = 0;
  uint32_t entry = 0;  // byte offset into the text segment
};
constexpr size_t kAoutHeaderBytes = 5 * sizeof(uint32_t);

// A loaded (or to-be-written) executable image. Text is immutable, so it is a
// shared blob: loading, forking and restoring an image share its bytes.
struct AoutImage {
  AoutHeader header;
  sim::Blob text;
  std::vector<uint8_t> data;

  IsaLevel isa_level() const {
    return header.machtype >= 20 ? IsaLevel::kIsa20 : IsaLevel::kIsa10;
  }

  // Serialises header + text + data into the on-disk byte stream.
  std::string Serialize() const;

  // Parses and validates an executable file. Fails with kNoExec on a bad magic or
  // inconsistent sizes.
  static Result<AoutImage> Parse(std::string_view bytes);
};

}  // namespace pmig::vm

#endif  // PMIG_SRC_VM_AOUT_H_
