// Native-process execution: C++ callables run as simulated processes.
//
// The migration tools (dumpproc, restart, migrate), shells, and daemons are native
// programs: ordinary C++ functions that talk to the kernel through SyscallApi. Each
// runs as a stackful coroutine on the simulator's one thread. Start() maps a
// fixed-size stack (kStackBytes) with an inaccessible guard page below it, so an
// overflow faults instead of overwriting memory. Control passes only by explicit
// switch: the scheduler's Resume() swaps to the task, and the task's Yield() (called
// from blocking syscalls) swaps back. No kernel data is ever touched by two contexts
// at once. Under AddressSanitizer each switch is announced with the fiber
// annotations, so ASan knows which stack is running.
//
// A native task ends in one of four ways, all by unwinding its stack:
//   * its entry function returns an exit code;
//   * it calls SyscallApi::Exit (ExitRequest unwinds to the trampoline);
//   * it is killed (RequestKill; KilledSignal unwinds at the next yield point);
//   * it calls rest_proc() successfully: the *process* lives on as a VM process,
//     only the C++ stack unwinds (BecameVm).
//
// All tasks share the thread's exception-handling state, so a task must not yield
// inside a catch block (only the trampoline catches, and it never yields).

#ifndef PMIG_SRC_KERNEL_NATIVE_H_
#define PMIG_SRC_KERNEL_NATIVE_H_

#include <ucontext.h>

#include <cstddef>
#include <functional>

namespace pmig::kernel {

class SyscallApi;

// Unwind tokens. These deliberately do not derive from std::exception: nothing may
// catch them except the trampoline.
struct ExitRequest {
  int code;
};
struct KilledSignal {};
struct BecameVm {};

class NativeTask {
 public:
  using Entry = std::function<int(SyscallApi&)>;

  NativeTask() = default;
  ~NativeTask();

  NativeTask(const NativeTask&) = delete;
  NativeTask& operator=(const NativeTask&) = delete;

  // Maps the stack and prepares the coroutine; the entry function does not run
  // until the first Resume(). Throws std::system_error if the stack cannot be
  // mapped.
  void Start(Entry entry, SyscallApi* api);

  // Scheduler side: hands the turn to the task; returns when the task yields or
  // finishes. Does nothing after finished().
  void Resume();

  // Task side (only from within syscalls): hands the turn back to the scheduler;
  // returns when resumed. Throws KilledSignal if a kill was requested meanwhile.
  void Yield();

  // Scheduler side: arranges for the task to unwind at its next resume.
  void RequestKill() { kill_requested_ = true; }

  bool finished() const { return finished_; }
  bool became_vm() const { return became_vm_; }
  bool was_killed() const { return was_killed_; }
  int exit_code() const { return exit_code_; }

 private:
  // Usable stack per task (a guard page sits below it). The tools, shells and
  // daemons are shallow C++: no task in the test suite touches more than three
  // 4 KiB pages of stack in a RelWithDebInfo build, and a test runs an entry
  // that uses 64 KiB.
  static constexpr size_t kStackBytes = 256 * 1024;

  // The coroutine's entry point; makecontext passes `this` as two 32-bit halves.
  static void Trampoline(unsigned int self_high, unsigned int self_low);
  void Run() noexcept;

  Entry entry_;
  SyscallApi* api_ = nullptr;

  // Guard page + stack, from one anonymous mapping.
  void* mapping_ = nullptr;
  size_t mapping_bytes_ = 0;
  void* stack_ = nullptr;

  ucontext_t task_context_{};
  ucontext_t caller_context_{};
  // The stack that last resumed the task, for the ASan fiber annotations.
  const void* caller_stack_ = nullptr;
  size_t caller_stack_bytes_ = 0;

  bool kill_requested_ = false;
  bool finished_ = false;
  bool became_vm_ = false;
  bool was_killed_ = false;
  int exit_code_ = 0;
};

}  // namespace pmig::kernel

#endif  // PMIG_SRC_KERNEL_NATIVE_H_
