#include "src/core/test_programs.h"

#include <utility>
#include <vector>

#include "src/vm/assembler.h"

namespace pmig::core {

namespace {

// Shared I/O routines appended to programs that print.
//   print_cstr: r1 = NUL-terminated string -> fd 1. Clobbers r0, r2, r3.
//   print_num:  r0 = non-negative value -> decimal on fd 1. Clobbers r0-r4.
constexpr std::string_view kPrintLib = R"(
print_cstr:
        mov  r2, r1
pcs1:   ldb  r0, r2, 0
        movi r3, 0
        beq  r0, r3, pcs2
        addi r2, r2, 1
        jmp  pcs1
pcs2:   sub  r2, r2, r1
        movi r0, 1
        sys  SYS_write
        ret

print_num:
        movi r3, numbuf+24
        movi r4, 10
pn1:    addi r3, r3, -1
        mod  r1, r0, r4
        addi r1, r1, 48
        stb  r1, r3, 0
        div  r0, r0, r4
        movi r1, 0
        bne  r0, r1, pn1
        movi r0, numbuf+24
        sub  r2, r0, r3
        mov  r1, r3
        movi r0, 1
        sys  SYS_write
        ret
)";

const std::string kCounter = std::string(R"(
; The paper's test program (Section 6.2): three counters, line-in, append-out.
        .text
start:
        movi r0, outname
        movi r1, O_WRONLY+O_CREAT+O_APPEND
        movi r2, 420
        sys  SYS_open
        mov  r6, r0             ; r6 = output-file fd
        movi r0, 0
        push r0                 ; the stack counter's cell (above any exec argv)
        rdsp r1
        movi r2, kptr
        st   r1, r2, 0          ; its address, kept in a static for addressing
loop:
        addi r5, r5, 1          ; register counter
        movi r1, sctr
        ld   r0, r1, 0
        addi r0, r0, 1
        st   r0, r1, 0          ; static (data segment) counter
        movi r1, kptr
        ld   r2, r1, 0
        ld   r0, r2, 0
        addi r0, r0, 1
        st   r0, r2, 0          ; stack counter
        ; print "r=<reg> s=<static> k=<stack>\n"
        movi r1, msg_r
        call print_cstr
        mov  r0, r5
        call print_num
        movi r1, msg_s
        call print_cstr
        movi r1, sctr
        ld   r0, r1, 0
        call print_num
        movi r1, msg_k
        call print_cstr
        movi r1, kptr
        ld   r2, r1, 0
        ld   r0, r2, 0
        call print_num
        movi r1, msg_nl
        call print_cstr
        ; prompt and read one line (the SIGDUMP always lands here)
        movi r1, msg_pr
        call print_cstr
        movi r0, 0
        movi r1, linebuf
        movi r2, 128
        sys  SYS_read
        movi r1, 1
        blt  r0, r1, done       ; EOF or error
        ; append the line to the output file
        mov  r2, r0
        movi r1, linebuf
        mov  r0, r6
        sys  SYS_write
        jmp  loop
done:
        movi r0, 0
        sys  SYS_exit
)") + std::string(kPrintLib) + R"(
        .data
outname: .asciiz "counter.out"
sctr:    .quad 0
kptr:    .quad 0
msg_r:   .asciiz "r="
msg_s:   .asciiz " s="
msg_k:   .asciiz " k="
msg_nl:  .asciiz "\n"
msg_pr:  .asciiz "> "
numbuf:  .space 24
linebuf: .space 128
)";

constexpr std::string_view kCpuHog = R"(
; CPU-bound job: argv[1] iterations (default 200000), then exit(0).
        .text
start:  movi r7, 200000
        movi r2, 2
        blt  r0, r2, run
        ld   r3, r1, 8          ; argv[1]
        movi r7, 0
atoi:   ldb  r4, r3, 0
        movi r5, 0
        beq  r4, r5, run
        movi r5, 10
        mul  r7, r7, r5
        addi r4, r4, -48
        add  r7, r7, r4
        addi r3, r3, 1
        jmp  atoi
run:    movi r6, 0
work:   addi r6, r6, 1
        blt  r6, r7, work
        movi r0, 0
        sys  SYS_exit
)";

constexpr std::string_view kEditor = R"(
; A "screen editor": switches the terminal to raw mode and echoes [c] per key.
        .text
start:
        movi r0, 0
        movi r1, TIOCGETP
        movi r2, oldfl
        sys  SYS_ioctl
        movi r3, TTY_RAW
        movi r4, newfl
        stb  r3, r4, 0
        movi r3, 0
        stb  r3, r4, 1
        movi r0, 0
        movi r1, TIOCSETP
        mov  r2, r4
        sys  SYS_ioctl
edlp:   movi r0, 0
        movi r1, chbuf
        movi r2, 1
        sys  SYS_read
        movi r3, 0
        beq  r0, r3, quit
        movi r3, chbuf
        ldb  r4, r3, 0
        movi r3, 113            ; 'q' quits
        beq  r4, r3, quit
        movi r3, brkt+1
        stb  r4, r3, 0
        movi r0, 1
        movi r1, brkt
        movi r2, 3
        sys  SYS_write
        jmp  edlp
quit:   movi r0, 0
        sys  SYS_exit
        .data
oldfl:  .space 8
newfl:  .space 8
chbuf:  .space 8
brkt:   .ascii "[?]"
        .byte 0
)";

constexpr std::string_view kSocketer = R"(
; Holds an open socket pair across its prompt loop (the migration limitation).
        .text
start:  sys  SYS_socket         ; r0, r1 = connected pair
        mov  r6, r0
        mov  r7, r1
slp:    mov  r0, r7
        movi r1, ping
        movi r2, 4
        sys  SYS_write          ; best effort; /dev/null after migration
        movi r0, 1
        movi r1, prompt
        movi r2, 2
        sys  SYS_write
        movi r0, 0
        movi r1, buf
        movi r2, 64
        sys  SYS_read
        movi r3, 0
        beq  r0, r3, sdone
        jmp  slp
sdone:  movi r0, 0
        sys  SYS_exit
        .data
ping:   .ascii "ping"
        .byte 0
prompt: .asciiz "? "
buf:    .space 64
)";

constexpr std::string_view kForkWait = R"(
; Parent forks, then blocks in wait() — the Section 7 caveat: do not migrate it.
        .text
start:  sys  SYS_fork
        movi r1, 0
        beq  r0, r1, child
        sys  SYS_wait           ; r0 = pid or -errno, r1 = status
        movi r1, 0
        blt  r0, r1, werr
        movi r0, 0
        sys  SYS_exit
werr:   movi r0, 10             ; exit(10): wait() failed (ECHILD after migration)
        sys  SYS_exit
child:  movi r0, 0
        movi r1, cbuf
        movi r2, 8
        sys  SYS_read           ; child blocks on the terminal
        movi r0, 7
        sys  SYS_exit
        .data
cbuf:   .space 8
)";

constexpr std::string_view kIsa20 = R"(
; Uses lmul, a 68020-only instruction: runs on Sun-3s, faults on Sun-2s.
        .isa 20
        .text
start:  movi r2, 3
        movi r3, 7
        lmul r5, r2, r3
i2lp:   movi r0, 1
        movi r1, p2
        movi r2, 2
        sys  SYS_write
        movi r0, 0
        movi r1, b2
        movi r2, 32
        sys  SYS_read
        movi r3, 0
        beq  r0, r3, i2q
        movi r3, 1
        lmul r5, r5, r3
        jmp  i2lp
i2q:    movi r0, 0
        sys  SYS_exit
        .data
p2:     .asciiz "# "
b2:     .space 32
)";

const std::string kIdentity = std::string(R"(
; Prints "<pid>:<hostname>" each iteration — the programs that "know things about
; their environment" from Section 7.
        .text
start:
idlp:   sys  SYS_getpid
        call print_num
        movi r1, sep
        call print_cstr
        movi r0, hostbuf
        movi r1, 64
        sys  SYS_gethostname
        movi r1, hostbuf
        call print_cstr
        movi r1, nl
        call print_cstr
        movi r1, pr
        call print_cstr
        movi r0, 0
        movi r1, ibuf
        movi r2, 64
        sys  SYS_read
        movi r3, 0
        beq  r0, r3, idq
        jmp  idlp
idq:    movi r0, 0
        sys  SYS_exit
)") + std::string(kPrintLib) + R"(
        .data
sep:    .asciiz ":"
nl:     .asciiz "\n"
pr:     .asciiz "> "
hostbuf: .space 64
ibuf:   .space 64
numbuf: .space 24
)";

const std::string kHandler = std::string(R"(
; Catches SIGUSR1 (counts deliveries in a static), ignores SIGINT; prompts in a
; loop printing the count. Tests that dispositions survive migration.
        .text
start:  movi r0, SIGUSR1
        movi r1, handler
        sys  SYS_signal
        movi r0, SIGINT
        movi r1, SIG_IGN
        sys  SYS_signal
hlp:    movi r1, hits
        ld   r0, r1, 0
        call print_num
        movi r1, nl
        call print_cstr
        movi r1, pr
        call print_cstr
        movi r0, 0
        movi r1, ibuf
        movi r2, 64
        sys  SYS_read
        movi r3, 0
        beq  r0, r3, hq
        jmp  hlp
hq:     movi r0, 0
        sys  SYS_exit
handler:
        push r0                 ; delivery does not save registers; the handler
        push r1                 ; must (it may interrupt a blocked syscall whose
        movi r1, hits           ; arguments live in r0..r2)
        ld   r0, r1, 0
        addi r0, r0, 1
        st   r0, r1, 0
        pop  r1
        pop  r0
        ret
)") + std::string(kPrintLib) + R"(
        .data
hits:   .quad 0
nl:     .asciiz "\n"
pr:     .asciiz "> "
ibuf:   .space 64
numbuf: .space 24
)";

const std::string kDeepStack = std::string(R"(
; Recurses to depth argv-less 40, prompting for input at maximum depth (so the
; dump carries a deep stack), then sums the frames on the way back up.
        .text
start:  movi r0, 40
        movi r7, 0
        call rec
        movi r1, sm
        call print_cstr
        mov  r0, r7
        call print_num
        movi r1, nl
        call print_cstr
        movi r0, 0
        sys  SYS_exit
rec:    movi r1, 0
        beq  r0, r1, base
        push r0
        addi r0, r0, -1
        call rec
        pop  r0
        add  r7, r7, r0
        ret
base:   movi r1, dmsg
        call print_cstr
        movi r0, 0
        movi r1, dbuf
        movi r2, 16
        sys  SYS_read
        ret
)") + std::string(kPrintLib) + R"(
        .data
sm:     .asciiz "sum="
nl:     .asciiz "\n"
dmsg:   .asciiz "deep> "
dbuf:   .space 16
numbuf: .space 24
)";

constexpr std::string_view kDirtier = R"(
; Dirties memory at a controllable rate: each cycle burns a fixed compute loop,
; then touches argv[1] bytes (default 64) of a 16 KB buffer at a moving cursor.
; Runs until killed — the workload for pre-copy migration experiments.
        .text
start:  movi r7, 64
        movi r2, 2
        blt  r0, r2, dlp
        ld   r3, r1, 8          ; argv[1] = bytes dirtied per cycle
        movi r7, 0
datoi:  ldb  r4, r3, 0
        movi r5, 0
        beq  r4, r5, dlp
        movi r5, 10
        mul  r7, r7, r5
        addi r4, r4, -48
        add  r7, r7, r4
        addi r3, r3, 1
        jmp  datoi
dlp:    movi r2, 0              ; compute phase
cmp1:   addi r2, r2, 1
        movi r3, 200
        blt  r2, r3, cmp1
        movi r2, 0              ; dirty phase: touch r7 bytes
dty:    beq  r2, r7, dnext
        add  r3, r6, r2
        movi r4, 16384
        mod  r3, r3, r4
        movi r4, buf
        add  r3, r3, r4
        ldb  r5, r3, 0
        addi r5, r5, 1
        stb  r5, r3, 0
        addi r2, r2, 1
        jmp  dty
dnext:  add  r6, r6, r7
        jmp  dlp
        .data
buf:    .space 16384
)";

}  // namespace

std::string_view CounterProgramSource() { return kCounter; }
std::string_view CpuHogProgramSource() { return kCpuHog; }
std::string_view EditorProgramSource() { return kEditor; }
std::string_view SocketProgramSource() { return kSocketer; }
std::string_view ForkWaitProgramSource() { return kForkWait; }
std::string_view Isa20ProgramSource() { return kIsa20; }
std::string_view IdentityProgramSource() { return kIdentity; }
std::string_view HandlerProgramSource() { return kHandler; }
std::string_view DeepStackProgramSource() { return kDeepStack; }
std::string_view DirtierProgramSource() { return kDirtier; }

std::string WithPadding(std::string_view source, int extra_text_instructions,
                        int extra_data_bytes) {
  std::string out(source);
  out += "\n        .text\n";
  out.reserve(out.size() + 16 * static_cast<size_t>(extra_text_instructions) + 64);
  for (int i = 0; i < extra_text_instructions; ++i) {
    out += "        nop\n";
  }
  out += "        .data\n        .space " + std::to_string(extra_data_bytes) + "\n";
  return out;
}

namespace {

std::string AssembleExecutable(std::string_view source) {
  return vm::MustAssemble(source).Serialize();
}

void WriteExecutable(kernel::Kernel& host, const std::string& path, std::string_view bytes) {
  host.vfs().SetupCreateFile(path, bytes, /*uid=*/0, /*mode=*/0755);
}

}  // namespace

void InstallProgram(kernel::Kernel& host, const std::string& path, std::string_view source) {
  WriteExecutable(host, path, AssembleExecutable(source));
}

void InstallStandardPrograms(kernel::Kernel& host) {
  // The sources are constants, so each is assembled once per process and every
  // host gets a copy of the same bytes.
  static const std::vector<std::pair<std::string, std::string>> kExecutables = [] {
    const std::pair<const char*, std::string_view> programs[] = {
        {"/bin/counter", CounterProgramSource()},
        {"/bin/hog", CpuHogProgramSource()},
        {"/bin/editor", EditorProgramSource()},
        {"/bin/socketer", SocketProgramSource()},
        {"/bin/forkwait", ForkWaitProgramSource()},
        {"/bin/isa20", Isa20ProgramSource()},
        {"/bin/identity", IdentityProgramSource()},
        {"/bin/handler", HandlerProgramSource()},
        {"/bin/deepstack", DeepStackProgramSource()},
        {"/bin/dirtier", DirtierProgramSource()},
    };
    std::vector<std::pair<std::string, std::string>> out;
    for (const auto& [path, source] : programs) out.emplace_back(path, AssembleExecutable(source));
    return out;
  }();
  for (const auto& [path, bytes] : kExecutables) WriteExecutable(host, path, bytes);
}

}  // namespace pmig::core
