// Observers: an ordered list of callbacks that one publisher fans an event out
// to. The network publishes each sampled host load through one, the fault
// history each recorded migrate outcome; coordinators that keep incremental
// placement state (the placement layer's ClusterIndex) subscribe to both.
//
// Delivery runs in registration order, so an observer registered before
// another always sees an event first. Publishing is mutation-safe: an observer
// may add or remove observers, itself included, while an event is delivered.
// One removed before its turn is skipped, and one added mid-publish first
// hears the next event. Ids are never reused. Publishing itself charges no
// virtual time and draws no randomness.

#ifndef PMIG_SRC_SIM_OBSERVERS_H_
#define PMIG_SRC_SIM_OBSERVERS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <utility>

namespace pmig::sim {

template <typename Event>
class Observers {
 public:
  using Fn = std::function<void(const Event&)>;

  // Registers `fn`; the id removes it again. Observers must remove themselves
  // before they are destroyed.
  uint64_t Add(Fn fn) {
    const uint64_t id = next_id_++;
    fns_.emplace(id, std::move(fn));
    return id;
  }
  void Remove(uint64_t id) { fns_.erase(id); }

  void Publish(const Event& event) {
    const uint64_t end = next_id_;  // later additions wait for the next event
    for (auto it = fns_.begin(); it != fns_.end() && it->first < end;) {
      const uint64_t id = it->first;
      const Fn fn = it->second;  // a copy: the observer may remove itself
      fn(event);
      it = fns_.upper_bound(id);
    }
  }

 private:
  std::map<uint64_t, Fn> fns_;
  uint64_t next_id_ = 1;
};

}  // namespace pmig::sim

#endif  // PMIG_SRC_SIM_OBSERVERS_H_
