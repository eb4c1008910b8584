#include "sim/simulator.hpp"

#include <utility>

#include "sim/timer_wheel.hpp"

namespace mtp::sim {

Simulator::Simulator(std::size_t reserve_events) : slots_(reserve_events) {
  heap_.reserve(reserve_events);
}

Simulator::~Simulator() = default;

TimerWheel& Simulator::timers() {
  if (!timers_) timers_ = std::make_unique<TimerWheel>(*this);
  return *timers_;
}

// 4-ary heap: children of i are 4i+1 .. 4i+4. Compared to a binary heap the
// tree is half as deep, so pop does half the sift-down levels; the extra
// comparisons per level are cheap on 24-byte entries that share cache lines.
void Simulator::sift_up(std::size_t i) {
  HeapEntry e = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!before(e, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void Simulator::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  HeapEntry e = heap_[i];
  for (;;) {
    const std::size_t first_child = 4 * i + 1;
    if (first_child >= n) break;
    const std::size_t last_child = first_child + 4 < n ? first_child + 4 : n;
    std::size_t best = first_child;
    for (std::size_t c = first_child + 1; c < last_child; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    if (!before(heap_[best], e)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = e;
}

void Simulator::pop_top() {
  heap_[0] = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
}

SimTime Simulator::next_event_time() {
  while (!heap_.empty()) {
    const HeapEntry top = heap_[0];
    if (!slots_[top.slot].cancelled) return top.when;
    pop_top();
    release_slot(top.slot);
  }
  return SimTime::max();
}

std::uint64_t Simulator::run(SimTime until) {
  std::uint64_t executed_this_run = 0;
  while (!heap_.empty()) {
    const HeapEntry top = heap_[0];
    Slot& s = slots_[top.slot];
    if (s.cancelled) {
      pop_top();
      release_slot(top.slot);
      continue;
    }
    if (top.when >= until) break;
    now_ = top.when;
    pop_top();
    // Execute in place: slot pages are address-stable, so the callback may
    // schedule freely (it cannot reuse this slot — it is not on the free
    // list yet, and cancelling it merely sets the flag we are done reading).
    s.task();
    release_slot(top.slot);
    ++executed_;
    ++executed_this_run;
  }
  // If we stopped on `until`, advance the clock to it so back-to-back run()
  // calls observe contiguous time.
  if (until != SimTime::max() && now_ < until) now_ = until;
  return executed_this_run;
}

}  // namespace mtp::sim
