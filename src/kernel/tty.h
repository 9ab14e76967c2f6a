// Terminal driver: a char device with 4.2BSD-flavoured line-discipline modes.
//
// The paper's restart command reads the dumped terminal flags and re-applies them to
// the current terminal "so that visual applications such as screen editors can be
// restarted properly" (Section 4.1) — and its migrate command *loses* raw/noecho
// modes when the restart side runs under rsh, because rsh attaches the remote
// command to a network pipe rather than a terminal. Both behaviours are modelled
// here: a Tty carries a flags word (kTtyRaw, kTtyEcho, ...), and processes spawned
// by the rsh service simply have no controlling terminal.

#ifndef PMIG_SRC_KERNEL_TTY_H_
#define PMIG_SRC_KERNEL_TTY_H_

#include <deque>
#include <string>

#include "src/vfs/inode.h"
#include "src/vm/abi.h"

namespace pmig::kernel {

class Tty : public vfs::Device {
 public:
  explicit Tty(std::string name) : name_(std::move(name)) {}

  std::string_view DeviceName() const override { return name_; }

  uint16_t flags() const { return flags_; }
  void set_flags(uint16_t flags) { flags_ = flags; }
  bool raw() const { return (flags_ & vm::abi::kTtyRaw) != 0; }
  bool cbreak() const { return (flags_ & vm::abi::kTtyCbreak) != 0; }
  bool echo() const { return (flags_ & vm::abi::kTtyEcho) != 0; }

  // --- Input side (the "user typing") ---
  // Queues keystrokes. With echo on, they are also appended to the output. This is
  // how tests and the interactive examples feed programs.
  void Type(std::string_view text);

  // True when a read() would not block: cooked mode needs a complete line, raw and
  // cbreak modes need at least one character.
  bool InputReady() const;

  // Consumes input for a read() of `max` bytes under the current modes: cooked mode
  // returns at most one line (including '\n'); raw/cbreak return what is queued.
  std::string ConsumeInput(int64_t max);

  // --- Output side ---
  void AppendOutput(std::string_view text);
  const std::string& output() const { return output_; }
  // Output with the line discipline's '\r' expansion stripped back out; what a user
  // "sees". Tests compare against this.
  std::string PlainOutput() const {
    std::string out;
    for (const char c : output_) {
      if (c != '\r') out.push_back(c);
    }
    return out;
  }
  void ClearOutput() { output_.clear(); }

 private:
  std::string name_;
  uint16_t flags_ = vm::abi::kTtyDefaultFlags;
  std::deque<char> input_;
  std::string output_;
};

// The null device (/dev/null): reads give EOF, writes vanish. One shared instance
// per kernel; restart points unreopenable files and ex-sockets at it.
class NullDevice : public vfs::Device {
 public:
  std::string_view DeviceName() const override { return "null"; }
};

}  // namespace pmig::kernel

#endif  // PMIG_SRC_KERNEL_TTY_H_
