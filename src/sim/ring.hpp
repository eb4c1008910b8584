// sim::RingBuffer — a growable circular FIFO.
//
// std::deque<T> allocates a fresh 512-byte chunk (libstdc++) every
// 512 / sizeof(T) elements — for 144-byte Packets that is a malloc/free
// every three enqueues, which the allocation-free hot path (docs/perf.md)
// cannot afford. RingBuffer keeps elements in one contiguous power-of-two
// array, doubling (and re-linearizing) only when full, so steady-state
// push/pop never touches the heap.
#pragma once

#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

namespace mtp::sim {

/// Move-only FIFO. T must be default-constructible and movable (elements are
/// stored in a pre-sized vector and moved in/out of their cells).
template <class T>
class RingBuffer {
 public:
  explicit RingBuffer(std::size_t initial_capacity = 0) {
    if (initial_capacity > 0) buf_.resize(ceil_pow2(initial_capacity));
  }

  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }
  std::size_t capacity() const { return buf_.size(); }

  void push_back(T&& v) {
    if (count_ == buf_.size()) grow();
    buf_[(head_ + count_) & (buf_.size() - 1)] = std::move(v);
    ++count_;
  }

  /// Claim the next back cell and return it for in-place assignment. The
  /// cell holds a default-constructed (or previously moved-from) T; callers
  /// assign its fields directly, skipping the temporary that push_back of a
  /// freshly built aggregate would move twice.
  T& push_empty() {
    if (count_ == buf_.size()) grow();
    ++count_;
    return back();
  }

  T& front() {
    assert(count_ > 0);
    return buf_[head_];
  }
  const T& front() const {
    assert(count_ > 0);
    return buf_[head_];
  }
  T& back() {
    assert(count_ > 0);
    return buf_[(head_ + count_ - 1) & (buf_.size() - 1)];
  }

  T pop_front() {
    assert(count_ > 0);
    T v = std::move(buf_[head_]);
    head_ = (head_ + 1) & (buf_.size() - 1);
    --count_;
    return v;
  }

  /// Move the front element into `out` (one move-assign, no temporary).
  void pop_front_into(T& out) {
    assert(count_ > 0);
    out = std::move(buf_[head_]);
    head_ = (head_ + 1) & (buf_.size() - 1);
    --count_;
  }

  /// Advance past the front element without moving it out. For use after the
  /// caller consumed it via front() — anything it still owns stays in the
  /// cell until that cell is overwritten, so move out what matters first.
  void drop_front() {
    assert(count_ > 0);
    head_ = (head_ + 1) & (buf_.size() - 1);
    --count_;
  }

  /// Un-claim the cell most recently claimed with push_empty() (same caveat
  /// as drop_front: the cell's contents stay until overwritten).
  void drop_back() {
    assert(count_ > 0);
    --count_;
  }

  /// FIFO-order element access: (*this)[0] is the front.
  T& operator[](std::size_t i) {
    assert(i < count_);
    return buf_[(head_ + i) & (buf_.size() - 1)];
  }

  void clear() {
    // Drop payloads eagerly; keep the storage for reuse.
    while (count_ > 0) (void)pop_front();
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
