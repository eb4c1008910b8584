// sim::RingBuffer — a growable circular FIFO (a deque without chunks).
//
// std::deque<T> allocates a fresh 512-byte chunk (libstdc++) every
// 512 / sizeof(T) elements, a malloc/free every few hundred pushes even for
// the 4-byte packet handles queues hold, which the allocation-free hot path
// (docs/perf.md) cannot afford — and even an empty libstdc++ deque owns one
// chunk, which dominates footprint where thousands of small FIFOs sit idle.
// RingBuffer keeps elements in one contiguous power-of-two array, doubling
// (and re-linearizing) only when full, so steady-state push/pop never
// touches the heap, and a default-constructed ring allocates nothing until
// its first push. It serves the net layer's queues and in-flight wires, the
// MTP sender's send groups (push_front lets a retransmission jump the line)
// and the receivers' tombstone sets.
#pragma once

#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

namespace mtp::sim {

/// FIFO that can also push at the front. T must be default-constructible and
/// movable (elements are stored in a pre-sized vector; a push takes its value
/// by value and moves it into a cell, a pop moves it out).
template <class T>
class RingBuffer {
 public:
  explicit RingBuffer(std::size_t initial_capacity = 0) {
    if (initial_capacity > 0) buf_.resize(ceil_pow2(initial_capacity));
  }

  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }
  std::size_t capacity() const { return buf_.size(); }

  void push_back(T v) {
    if (count_ == buf_.size()) grow();
    buf_[(head_ + count_) & (buf_.size() - 1)] = std::move(v);
    ++count_;
  }

  /// Insert before the current front: the next pop_front returns `v`.
  void push_front(T v) {
    if (count_ == buf_.size()) grow();
    head_ = (head_ - 1) & (buf_.size() - 1);
    buf_[head_] = std::move(v);
    ++count_;
  }

  /// Drop every element; the capacity stays. As after pop_front, a cell
  /// keeps its old value until it is overwritten.
  void clear() {
    head_ = 0;
    count_ = 0;
  }

  T& front() {
    assert(count_ > 0);
    return buf_[head_];
  }
  const T& front() const {
    assert(count_ > 0);
    return buf_[head_];
  }

  T pop_front() {
    assert(count_ > 0);
    T v = std::move(buf_[head_]);
    head_ = (head_ + 1) & (buf_.size() - 1);
    --count_;
    return v;
  }

  /// FIFO-order element access: (*this)[0] is the front.
  T& operator[](std::size_t i) {
    assert(i < count_);
    return buf_[(head_ + i) & (buf_.size() - 1)];
  }
  const T& operator[](std::size_t i) const {
    assert(i < count_);
    return buf_[(head_ + i) & (buf_.size() - 1)];
  }

 private:
  static std::size_t ceil_pow2(std::size_t n) {
    std::size_t p = 1;
    while (p < n) p <<= 1;
    return p;
  }

  void grow() {
    const std::size_t new_cap = buf_.empty() ? kInitialCapacity : buf_.size() * 2;
    std::vector<T> next(new_cap);
    for (std::size_t i = 0; i < count_; ++i) {
      next[i] = std::move(buf_[(head_ + i) & (buf_.size() - 1)]);
    }
    buf_ = std::move(next);
    head_ = 0;
  }

  static constexpr std::size_t kInitialCapacity = 8;

  std::vector<T> buf_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

}  // namespace mtp::sim
