// The machine/kernel ABI: system-call numbers, open flags, seek modes, ioctl
// requests, and signal numbers as seen by programs running on the simulated CPU.
//
// Numbers follow 4.2BSD where the call existed there; the paper's additions
// (SIGDUMP, rest_proc(), and the Section 7 "real identity" calls) take numbers past
// the historical ones. The assembler predefines every symbolic name in this header
// so test programs read like real Unix assembly.

#ifndef PMIG_SRC_VM_ABI_H_
#define PMIG_SRC_VM_ABI_H_

#include <cstdint>
#include <iterator>
#include <string_view>

namespace pmig::vm::abi {

// One system call: its trap immediate and its name. The assembler predefines
// SYS_<name> = number.
struct Syscall {
  int32_t number;
  std::string_view name;
};

// Every system call, in trap-number order. This list is the ABI: the assembler
// takes its SYS_* symbols from it, and the kernel's trap table has one handler
// per entry, in this order (a mismatch fails the kernel's build).
inline constexpr Syscall kSyscalls[] = {
    {1, "exit"},
    {2, "fork"},
    {3, "read"},
    {4, "write"},
    {5, "open"},
    {6, "close"},
    {7, "wait"},
    {8, "creat"},
    {9, "link"},
    {10, "unlink"},
    {12, "chdir"},
    {13, "time"},               // seconds of virtual time since cluster boot
    {17, "brk"},                // sbrk: r0 = signed increment in bytes; returns the OLD
                                // break address (end of data), or -ENOMEM
    {19, "lseek"},
    {20, "getpid"},
    {37, "kill"},
    {38, "stat"},               // r0 = path, r1 = buf (writes {type,size,uid,mode} as 4 quads)
    {41, "dup"},
    {42, "pipe"},
    {48, "signal"},             // set signal disposition: r0 = signo, r1 = handler addr / 0 / 1
    {54, "ioctl"},
    {58, "readlink"},
    {59, "execve"},
    {60, "gethostname"},        // r0 = buf, r1 = len
    {61, "setreuid"},           // r0 = ruid, r1 = euid
    {62, "getuid"},
    {64, "getppid"},
    {70, "sleep"},              // r0 = seconds (real Unix uses alarm()+pause(); one call here)
    {71, "socket"},             // degenerate local socket, enough to exercise the limitation
    {72, "getcwd"},             // r0 = buf, r1 = len (the 4.3BSD getwd() goes via /bin/pwd;
                                // our kernel can answer directly thanks to the 5.1 tracking)
    // --- the paper's additions ---
    {100, "rest_proc"},         // r0 = a.out path, r1 = stack-file path
    {101, "getpid_real"},       // Section 7 proposal: true pid regardless of migration
    {102, "gethostname_real"},  // Section 7 proposal: true hostname
    // --- 4.3BSD's directory calls ---
    {128, "rename"},            // r0 = from path, r1 = to path (4.3BSD number)
    {136, "mkdir"},             // r0 = path, r1 = mode
    {137, "rmdir"},             // r0 = path
};

// The largest trap number in the ABI.
inline constexpr int32_t kMaxSyscall = std::end(kSyscalls)[-1].number;

// The trap number of the call named `name`. A name not in kSyscalls does not
// compile.
consteval int32_t SyscallNumber(std::string_view name) {
  for (const Syscall& call : kSyscalls) {
    if (call.name == name) return call.number;
  }
  throw "no such system call";
}

// open() flags (4.2BSD values, octal).
enum OpenFlags : int32_t {
  kORdOnly = 0,
  kOWrOnly = 1,
  kORdWr = 2,
  kOAppend = 00010,
  kOCreat = 01000,
  kOTrunc = 02000,
  kOExcl = 04000,
};
constexpr int32_t kAccMode = 3;  // mask selecting the access mode from flags

// lseek() whence.
enum Whence : int32_t { kSeekSet = 0, kSeekCur = 1, kSeekEnd = 2 };

// ioctl() requests for the tty line discipline (modelled on TIOCGETP/TIOCSETP).
enum Ioctl : int32_t {
  kTiocGetP = 1,  // read tty flags into mem16[r2]
  kTiocSetP = 2,  // set tty flags from mem16[r2]
};

// Tty mode flag bits (a condensed sgttyb sg_flags).
enum TtyFlags : uint16_t {
  kTtyEcho = 0x0008,   // echo input characters
  kTtyCbreak = 0x0002, // deliver characters without waiting for newline
  kTtyRaw = 0x0020,    // no input/output processing at all
  kTtyCrMod = 0x0010,  // map \r to \n on input, emit \r\n for \n
};
constexpr uint16_t kTtyDefaultFlags = kTtyEcho | kTtyCrMod;  // "cooked" mode

// Signal numbers.
enum Sig : int32_t {
  kSigHup = 1,
  kSigInt = 2,
  kSigQuit = 3,   // terminates with a core dump; SIGDUMP is modelled on its code path
  kSigIll = 4,
  kSigFpe = 8,
  kSigKill = 9,
  kSigSegv = 11,
  kSigPipe = 13,
  kSigAlrm = 14,
  kSigTerm = 15,
  kSigChld = 20,
  kSigUsr1 = 30,
  kSigUsr2 = 31,
  kSigDump = 32,  // the paper's new signal
};
constexpr int32_t kNSig = 33;

// Signal dispositions passed to signal() as the handler argument.
constexpr int64_t kSigDfl = 0;
constexpr int64_t kSigIgn = 1;

}  // namespace pmig::vm::abi

#endif  // PMIG_SRC_VM_ABI_H_
