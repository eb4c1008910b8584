// sim::SlotPool<T> — address-stable paged slots with a LIFO free list.
//
// Objects live in fixed-size pages that are never reallocated, so a T& stays
// valid while new pages are added underneath it, and callers refer to slots
// by 32-bit index. Freed indices go on a stack: the slot released last is
// the next one acquired, so steady-state churn keeps reusing a few hot,
// cache-resident slots instead of walking cold memory.
//
// Two users: the Simulator keeps its event Tasks here (a running task's slot
// must not move while it schedules more events), and net::Network keeps one
// pool of waiting packets per shard (net/packet.hpp, docs/perf.md).
//
// A slot's object is not destroyed on release — acquire() hands back
// whatever the slot last held (default-constructed for fresh slots), and
// callers assign over it. Objects are destroyed with their page.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace mtp::sim {

template <class T>
class SlotPool {
 public:
  static constexpr std::uint32_t kNone = 0xffffffff;
  static constexpr std::size_t kSlotsPerPage = 256;

  /// `reserve_free` pre-sizes the free list. Pages are demand-allocated.
  explicit SlotPool(std::size_t reserve_free = 0) { free_.reserve(reserve_free); }
  SlotPool(const SlotPool&) = delete;
  SlotPool& operator=(const SlotPool&) = delete;

  /// Index of a free slot: the most recently released one, else a fresh one.
  std::uint32_t acquire() {
    if (free_.empty()) {
      if (count_ == pages_.size() * kSlotsPerPage) {
        pages_.push_back(std::make_unique<T[]>(kSlotsPerPage));
      }
      return static_cast<std::uint32_t>(count_++);
    }
    const std::uint32_t i = free_.back();
    free_.pop_back();
    return i;
  }

  void release(std::uint32_t i) {
    assert(i < count_);
    free_.push_back(i);
  }

  T& operator[](std::uint32_t i) { return pages_[i / kSlotsPerPage][i % kSlotsPerPage]; }
  const T& operator[](std::uint32_t i) const {
    return pages_[i / kSlotsPerPage][i % kSlotsPerPage];
  }

  /// Move `v` into a free slot and return its index.
  std::uint32_t put(T&& v) {
    const std::uint32_t i = acquire();
    (*this)[i] = std::move(v);
    return i;
  }

  /// Move the object out of slot `i` and release the slot.
  T take(std::uint32_t i) {
    T v = std::move((*this)[i]);
    release(i);
    return v;
  }

  /// Slots ever handed out: every valid index is below this.
  std::size_t size() const { return count_; }
  /// Slots currently acquired and not yet released.
  std::size_t live() const { return count_ - free_.size(); }

 private:
  std::vector<std::unique_ptr<T[]>> pages_;
  std::size_t count_ = 0;
  std::vector<std::uint32_t> free_;
};

}  // namespace mtp::sim
