#include "src/kernel/native.h"

#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <system_error>
#include <utility>

#ifdef __SANITIZE_ADDRESS__
#include <sanitizer/common_interface_defs.h>
#endif

namespace pmig::kernel {

namespace {

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
#else
void StartSwitch(void**, const void*, size_t) {}
void FinishSwitch(void*, const void**, size_t*) {}
#endif

}  // namespace

NativeTask::~NativeTask() {
  if (mapping_ == nullptr) return;
  if (!finished_) {
    RequestKill();
    while (!finished_) {
      Resume();
    }
  }
  munmap(mapping_, mapping_bytes_);
}

void NativeTask::Start(Entry entry, SyscallApi* api) {
  entry_ = std::move(entry);
  api_ = api;
  const size_t guard = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  void* mapping = mmap(nullptr, guard + kStackBytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
  if (mapping == MAP_FAILED) {
    throw std::system_error(errno, std::generic_category(), "mmap native task stack");
  }
  // The stack grows down: an overflow runs into the lowest page and faults.
  if (mprotect(mapping, guard, PROT_NONE) != 0 || getcontext(&task_context_) != 0) {
    const int error = errno;
    munmap(mapping, guard + kStackBytes);
    throw std::system_error(error, std::generic_category(), "native task context");
  }
  mapping_ = mapping;
  mapping_bytes_ = guard + kStackBytes;
  stack_ = static_cast<char*>(mapping) + guard;

  task_context_.uc_stack.ss_sp = stack_;
  task_context_.uc_stack.ss_size = kStackBytes;
  task_context_.uc_link = nullptr;  // Trampoline never returns
  const auto self = static_cast<uint64_t>(reinterpret_cast<uintptr_t>(this));
  makecontext(&task_context_, reinterpret_cast<void (*)()>(&NativeTask::Trampoline), 2,
              static_cast<unsigned int>(self >> 32), static_cast<unsigned int>(self));
}

void NativeTask::Trampoline(unsigned int self_high, unsigned int self_low) {
  auto* task = reinterpret_cast<NativeTask*>(
      static_cast<uintptr_t>((uint64_t{self_high} << 32) | self_low));
  task->Run();
  // Run() left nothing alive on this stack; leave it for good.
  StartSwitch(nullptr, task->caller_stack_, task->caller_stack_bytes_);
  setcontext(&task->caller_context_);
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
  StartSwitch(&fake_stack, stack_, kStackBytes);
  swapcontext(&caller_context_, &task_context_);
  FinishSwitch(fake_stack, nullptr, nullptr);
}

void NativeTask::Yield() {
  void* fake_stack = nullptr;
  StartSwitch(&fake_stack, caller_stack_, caller_stack_bytes_);
  swapcontext(&task_context_, &caller_context_);
  FinishSwitch(fake_stack, &caller_stack_, &caller_stack_bytes_);
  if (kill_requested_) throw KilledSignal{};
}

}  // namespace pmig::kernel
