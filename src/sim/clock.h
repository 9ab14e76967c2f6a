// The cluster-wide virtual clock.
//
// One VirtualClock instance is shared by every simulated machine in a cluster (the
// machines are on one Ethernet, so they live on one timeline). The cluster scheduler
// advances it in fixed quanta while machines execute in lockstep; timer events (sleep
// wakeups, disk and network completions) are kept in a queue and fired as the clock
// passes them.

#ifndef PMIG_SRC_SIM_CLOCK_H_
#define PMIG_SRC_SIM_CLOCK_H_

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "src/sim/time.h"

namespace pmig::sim {

class VirtualClock {
 public:
  VirtualClock() = default;

  VirtualClock(const VirtualClock&) = delete;
  VirtualClock& operator=(const VirtualClock&) = delete;

  Nanos now() const { return now_; }

  // Moves time forward and fires every timer whose deadline has been reached, in
  // deadline order (FIFO among equal deadlines). Only the cluster scheduler calls
  // this.
  void Advance(Nanos delta);

  // Schedules `fn` to run when the clock reaches now() + delay. Returns a timer id
  // that can be passed to CancelTimer.
  uint64_t CallAt(Nanos deadline, std::function<void()> fn);
  uint64_t CallAfter(Nanos delay, std::function<void()> fn) {
    return CallAt(now_ + delay, std::move(fn));
  }

  void CancelTimer(uint64_t id);

  // Earliest pending timer deadline, or -1 if none. Used to skip idle periods.
  Nanos NextDeadline() const;

 private:
  struct Timer {
    Nanos deadline;
    uint64_t seq;  // tie-break so equal deadlines fire FIFO
    uint64_t id;
    std::function<void()> fn;

    bool operator>(const Timer& other) const {
      if (deadline != other.deadline) return deadline > other.deadline;
      return seq > other.seq;
    }
  };

  Nanos now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t next_id_ = 1;
  int64_t live_timers_ = 0;
  std::priority_queue<Timer, std::vector<Timer>, std::greater<>> timers_;
  std::vector<uint64_t> cancelled_;
};

}  // namespace pmig::sim

#endif  // PMIG_SRC_SIM_CLOCK_H_
