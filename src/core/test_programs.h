// The VM workload programs, written in the simulator's assembly dialect.
//
// CounterProgram is the paper's measurement program (Section 6.2): "The program
// increments and prints three counters (a register, a static variable allocated on
// the data segment and a variable allocated on the stack). On each iteration it
// inputs a line and appends it to an output file." It is always dumped while
// blocked at its input prompt, exactly as in the paper.
//
// The others exercise specific behaviours: CPU hogs for the load-balancing and
// night-shift applications, a raw-mode "screen editor" for the tty-mode
// limitation, a socket user for the socket limitation, a parent-waiting program
// for the Section 7 caveat, a 68020-only program for the heterogeneity rule, an
// identity printer for the getpid()/gethostname() discussion, a signal-handler
// program for disposition preservation, and a deep-recursion program for large
// stack dumps.
//
// Note on signal handlers: delivery pushes the interrupted pc and jumps to the
// handler; the handler returns with `ret`. Unlike real Unix, register context is
// not saved around delivery, so handlers in these programs only touch memory whose
// clobbering the main loop tolerates.

#ifndef PMIG_SRC_CORE_TEST_PROGRAMS_H_
#define PMIG_SRC_CORE_TEST_PROGRAMS_H_

#include <string>
#include <string_view>

#include "src/kernel/kernel.h"

namespace pmig::core {

std::string_view CounterProgramSource();   // the paper's test program
std::string_view CpuHogProgramSource();    // argv[1] iterations, then exit(0)
std::string_view EditorProgramSource();    // raw-mode visual program
std::string_view SocketProgramSource();    // holds an open socket pair
std::string_view ForkWaitProgramSource();  // parent blocks in wait()
std::string_view Isa20ProgramSource();     // uses a 68020-only instruction
std::string_view IdentityProgramSource();  // prints "<pid>:<hostname>" per line
std::string_view HandlerProgramSource();   // catches SIGUSR1, ignores SIGINT
std::string_view DeepStackProgramSource(); // recursion, prompts at max depth
std::string_view DirtierProgramSource();   // scribbles argv[1] bytes/cycle in a
                                           // 16 KB buffer, forever (for pre-copy)

// Appends unreachable text (a nop sled modelling the statically linked C library)
// and zeroed data (bss) to a program source, giving it 1987-realistic segment
// sizes. The paper's test program, being a compiled C program, carried ~12 KB of
// library text and several KB of data; segment sizes drive the dump/core-file
// size ratios that Figures 2 and 3 measure.
std::string WithPadding(std::string_view source, int extra_text_instructions,
                        int extra_data_bytes);

// Assembles `source` and installs it as an executable at `path` on `host`'s disk.
// Aborts on assembly errors (sources here are known-good constants).
void InstallProgram(kernel::Kernel& host, const std::string& path, std::string_view source);

// Installs every program above under /bin on `host` (counter, hog, editor,
// socketer, forkwait, isa20, identity, handler, deepstack, dirtier), assembling
// them only on the first call in the process.
void InstallStandardPrograms(kernel::Kernel& host);

}  // namespace pmig::core

#endif  // PMIG_SRC_CORE_TEST_PROGRAMS_H_
