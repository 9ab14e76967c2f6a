#include "src/kernel/native.h"

#include <sys/mman.h>
#include <unistd.h>

#include <cassert>
#include <cerrno>
#include <cstdint>
#include <new>
#include <system_error>

#ifdef __SANITIZE_ADDRESS__
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif

#if !defined(__x86_64__)
#error "NativeTask's stack switch is x86-64 code; port pmig_switch_stack to build here"
#endif

// pmig_switch_stack(&save, next) pushes the callee-saved registers and the
// floating-point control state (MXCSR and the x87 control word, both callee-saved
// in the SysV ABI) on the running stack, stores the stack pointer in *save, then
// loads `next` as the stack pointer and pops the same frame from there. Every
// other register is already clobbered by the call, so that is the whole context;
// unlike swapcontext, no signal mask is saved and no system call is made.
//
// pmig_task_entry is where the first switch onto a new task's stack returns to,
// with the task in %rbx and the function to call with it in %r12. Its undefined
// return address ends every unwind at the task's base.
extern "C" void pmig_switch_stack(void** save, void* next) noexcept;
extern "C" void pmig_task_entry() noexcept;

asm(R"(
  .pushsection .text
  .globl pmig_switch_stack
  .hidden pmig_switch_stack
  .type pmig_switch_stack, @function
  .p2align 4
pmig_switch_stack:
  .cfi_startproc
  pushq %rbp
  .cfi_adjust_cfa_offset 8
  .cfi_rel_offset %rbp, 0
  pushq %rbx
  .cfi_adjust_cfa_offset 8
  .cfi_rel_offset %rbx, 0
  pushq %r12
  .cfi_adjust_cfa_offset 8
  .cfi_rel_offset %r12, 0
  pushq %r13
  .cfi_adjust_cfa_offset 8
  .cfi_rel_offset %r13, 0
  pushq %r14
  .cfi_adjust_cfa_offset 8
  .cfi_rel_offset %r14, 0
  pushq %r15
  .cfi_adjust_cfa_offset 8
  .cfi_rel_offset %r15, 0
  subq $8, %rsp
  .cfi_adjust_cfa_offset 8
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  addq $8, %rsp
  .cfi_adjust_cfa_offset -8
  popq %r15
  .cfi_adjust_cfa_offset -8
  .cfi_restore %r15
  popq %r14
  .cfi_adjust_cfa_offset -8
  .cfi_restore %r14
  popq %r13
  .cfi_adjust_cfa_offset -8
  .cfi_restore %r13
  popq %r12
  .cfi_adjust_cfa_offset -8
  .cfi_restore %r12
  popq %rbx
  .cfi_adjust_cfa_offset -8
  .cfi_restore %rbx
  popq %rbp
  .cfi_adjust_cfa_offset -8
  .cfi_restore %rbp
  ret
  .cfi_endproc
  .size pmig_switch_stack, .-pmig_switch_stack

  .globl pmig_task_entry
  .hidden pmig_task_entry
  .type pmig_task_entry, @function
  .p2align 4
pmig_task_entry:
  .cfi_startproc
  .cfi_undefined %rip
  movq %rbx, %rdi
  callq *%r12
  ud2
  .cfi_endproc
  .size pmig_task_entry, .-pmig_task_entry
  .popsection
)");

namespace pmig::kernel {

namespace {

// What pmig_switch_stack pops, lowest address first.
struct SwitchFrame {
  uint32_t mxcsr;
  uint16_t x87_control;
  uint16_t padding;
  uint64_t r15, r14, r13, r12, rbx, rbp;
  void (*return_address)() noexcept;
};
static_assert(sizeof(SwitchFrame) == 64);

// AddressSanitizer tracks which stack is running; a switch it is not told about
// makes it misread the frames on a task stack (and the unwinder's no-return
// cleanup). `fake_stack` is null when the stack being left is finished for good.
#ifdef __SANITIZE_ADDRESS__
void StartSwitch(void** fake_stack, const void* bottom, size_t bytes) {
  __sanitizer_start_switch_fiber(fake_stack, bottom, bytes);
}
void FinishSwitch(void* fake_stack, const void** old_bottom, size_t* old_bytes) {
  __sanitizer_finish_switch_fiber(fake_stack, old_bottom, old_bytes);
}
// A finished task can leave redzones poisoned on its stack; the next task to
// run there must not trip over them.
void Unpoison(void* bottom, size_t bytes) { __asan_unpoison_memory_region(bottom, bytes); }
#else
void StartSwitch(void**, const void*, size_t) {}
void FinishSwitch(void*, const void**, size_t*) {}
void Unpoison(void*, size_t) {}
#endif

}  // namespace

TaskStack::~TaskStack() {
  if (bottom_ != nullptr) pool_->Give(bottom_);
}

StackPool::StackPool() : guard_bytes_(static_cast<size_t>(sysconf(_SC_PAGESIZE))) {}

StackPool::~StackPool() {
  assert(free_.size() == mapped_ && "a task outlived its kernel's stack pool");
  for (char* bottom : free_) munmap(bottom - guard_bytes_, guard_bytes_ + kTaskStackBytes);
}

TaskStack StackPool::Take() {
  if (!free_.empty()) {
    char* bottom = free_.back();
    free_.pop_back();
    return TaskStack(this, bottom);
  }
  // Room for every stack to come back, so Give never allocates.
  free_.reserve(mapped_ + 1);
  void* mapping = mmap(nullptr, guard_bytes_ + kTaskStackBytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
  if (mapping == MAP_FAILED) {
    throw std::system_error(errno, std::generic_category(), "mmap native task stack");
  }
  // The stack grows down: an overflow runs into the lowest page and faults.
  if (mprotect(mapping, guard_bytes_, PROT_NONE) != 0) {
    const int error = errno;
    munmap(mapping, guard_bytes_ + kTaskStackBytes);
    throw std::system_error(error, std::generic_category(), "guard native task stack");
  }
  ++mapped_;
  return TaskStack(this, static_cast<char*>(mapping) + guard_bytes_);
}

void StackPool::Give(char* bottom) noexcept {
  Unpoison(bottom, kTaskStackBytes);
  free_.push_back(bottom);
}

NativeTask::NativeTask(TaskStack stack, Entry entry, SyscallApi* api)
    : stack_(std::move(stack)), entry_(std::move(entry)), api_(api) {
  // The first Resume() pops this frame and "returns" into pmig_task_entry with
  // the stack pointer 16 bytes below the top, so the call there meets the ABI's
  // alignment. The task starts with its creator's floating-point control state.
  SwitchFrame frame{};
  asm volatile("stmxcsr %0" : "=m"(frame.mxcsr));
  asm volatile("fnstcw %0" : "=m"(frame.x87_control));
  frame.rbx = reinterpret_cast<uintptr_t>(this);
  frame.r12 = reinterpret_cast<uintptr_t>(&NativeTask::Trampoline);
  frame.return_address = &pmig_task_entry;
  task_sp_ = new (stack_.top() - 16 - sizeof(SwitchFrame)) SwitchFrame(frame);
}

NativeTask::~NativeTask() {
  if (finished_) return;
  RequestKill();
  while (!finished_) {
    Resume();
  }
}

void NativeTask::Trampoline(NativeTask* task) {
  task->Run();
  // Run() left nothing alive on this stack; leave it for good.
  StartSwitch(nullptr, task->caller_stack_, task->caller_stack_bytes_);
  pmig_switch_stack(&task->task_sp_, task->caller_sp_);
  __builtin_unreachable();
}

void NativeTask::Run() noexcept {
  FinishSwitch(nullptr, &caller_stack_, &caller_stack_bytes_);
  int code = 0;
  try {
    if (kill_requested_) throw KilledSignal{};
    code = entry_(*api_);
  } catch (const ExitRequest& e) {
    code = e.code;
  } catch (const KilledSignal&) {
    was_killed_ = true;
  } catch (const BecameVm&) {
    became_vm_ = true;
  }
  exit_code_ = code;
  finished_ = true;
}

void NativeTask::Resume() {
  if (finished_) return;
  void* fake_stack = nullptr;
  StartSwitch(&fake_stack, stack_.bottom(), kTaskStackBytes);
  pmig_switch_stack(&caller_sp_, task_sp_);
  FinishSwitch(fake_stack, nullptr, nullptr);
}

void NativeTask::Yield() {
  void* fake_stack = nullptr;
  StartSwitch(&fake_stack, caller_stack_, caller_stack_bytes_);
  pmig_switch_stack(&task_sp_, caller_sp_);
  FinishSwitch(fake_stack, &caller_stack_, &caller_stack_bytes_);
  if (kill_requested_) throw KilledSignal{};
}

}  // namespace pmig::kernel
