// Native-process execution: C++ callables run as simulated processes.
//
// The migration tools (dumpproc, restart, migrate), shells, and daemons are native
// programs: ordinary C++ functions that talk to the kernel through SyscallApi. Each
// runs as a stackful coroutine on the simulator's one thread, on a fixed-size stack
// (kTaskStackBytes) with an inaccessible guard page below it, so an overflow faults
// instead of overwriting memory. Control passes only by explicit switch: the
// scheduler's Resume() switches to the task, and the task's Yield() (called from
// blocking syscalls) switches back. No kernel data is ever touched by two contexts
// at once. A switch is a few instructions of x86-64 code that save the callee-saved
// registers and the floating-point control state; it never enters the host kernel.
// Under AddressSanitizer each switch is announced with the fiber annotations, so
// ASan knows which stack is running.
//
// Each Kernel owns a StackPool. A task takes its stack from the pool and gives it
// back when it is destroyed, so spawning a task maps nothing once the pool holds
// as many stacks as the host has ever run tasks at once.
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

#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

namespace pmig::kernel {

class SyscallApi;
class StackPool;

// Usable stack per task (a guard page sits below it). The tools, shells and
// daemons are shallow C++: no task in the test suite touches more than three
// 4 KiB pages of stack in a RelWithDebInfo build, and a test runs an entry that
// uses 64 KiB.
inline constexpr size_t kTaskStackBytes = 256 * 1024;

// One guard-paged stack, lent by a StackPool to one task. Destroying the handle
// gives the stack back to the pool, which must still exist.
class TaskStack {
 public:
  TaskStack(TaskStack&& other) noexcept
      : pool_(other.pool_), bottom_(std::exchange(other.bottom_, nullptr)) {}
  TaskStack& operator=(TaskStack&&) = delete;
  ~TaskStack();

  // [bottom, top) is the usable stack; the guard page lies just below bottom.
  char* bottom() const { return bottom_; }
  char* top() const { return bottom_ + kTaskStackBytes; }

 private:
  friend class StackPool;
  TaskStack(StackPool* pool, char* bottom) : pool_(pool), bottom_(bottom) {}

  StackPool* pool_;
  char* bottom_;
};

// A kernel's task stacks. Each is one anonymous mapping: a PROT_NONE guard page,
// then kTaskStackBytes of stack. The free list is last in, first out, and holds at
// most as many stacks as were ever lent at once; the destructor unmaps them, so
// every stack must have been given back by then.
class StackPool {
 public:
  StackPool();
  ~StackPool();

  StackPool(const StackPool&) = delete;
  StackPool& operator=(const StackPool&) = delete;

  // The most recently given-back stack, else a newly mapped one. Throws
  // std::system_error if the host cannot map one.
  TaskStack Take();

 private:
  friend class TaskStack;
  void Give(char* bottom) noexcept;

  size_t guard_bytes_;
  size_t mapped_ = 0;  // stacks mapped so far; free_ has room for all of them
  std::vector<char*> free_;
};

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

  // Prepares the coroutine on `stack`; the entry function does not run until the
  // first Resume().
  NativeTask(TaskStack stack, Entry entry, SyscallApi* api);
  // Unwinds the task first if it has not finished.
  ~NativeTask();

  NativeTask(const NativeTask&) = delete;
  NativeTask& operator=(const NativeTask&) = delete;

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
  // The coroutine's entry point, reached by the first switch onto the stack.
  [[noreturn]] static void Trampoline(NativeTask* task);
  void Run() noexcept;

  TaskStack stack_;
  Entry entry_;
  SyscallApi* api_;

  // The stack pointer each side last switched away at.
  void* task_sp_ = nullptr;
  void* caller_sp_ = nullptr;
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
