// sim::Task — the simulator's callback type.
//
// A move-only callable with small-buffer optimization. The inline buffer is
// sized so the largest hot-path lambda — a link delivery closure capturing a
// whole net::Packet by value — fits without touching the heap; link.cpp
// static_asserts this, so growing Packet past the budget is a compile error,
// not a silent perf cliff. Oversized or alignment-exceeding callables fall
// back to the heap and bump a thread-local counter that the microbenches and
// tests read to enforce the ~0 allocations/event contract (docs/perf.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>

namespace mtp::sim {

class Task {
 public:
  /// Inline capacity: sizeof(net::Packet) (144 bytes, pinned by a
  /// static_assert in link.cpp — the variable-length header lists ride
  /// behind one proto::HeaderLists pointer) plus a captured `this`, a SimTime, and
  /// rounding slack. Keeping this tight matters beyond the no-heap
  /// contract: every scheduler slot carries a Task, so the inline buffer
  /// sets the slot stride the event heap walks.
  static constexpr std::size_t kInlineBytes = 184;

  /// True if a callable of type F runs from the inline buffer (no heap).
  template <class F>
  static constexpr bool fits_inline() {
    using D = std::decay_t<F>;
    return sizeof(D) <= kInlineBytes && alignof(D) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<D>;
  }

  /// Heap fallbacks constructed by this thread since process start. The
  /// steady-state simulator path must not move this number (tested).
  static std::uint64_t heap_allocations() { return heap_allocs_; }

  Task() = default;

  template <class F, class = std::enable_if_t<
                         !std::is_same_v<std::decay_t<F>, Task> &&
                         std::is_invocable_r_v<void, std::decay_t<F>&>>>
  Task(F&& f) {  // NOLINT(google-explicit-constructor): callback sink, like std::function
    emplace(std::forward<F>(f));
  }

  /// Destroy the current callable (if any) and construct `f` in place. The
  /// scheduler uses this to build the callable directly in its slot — the
  /// capture state is moved exactly once, at the schedule() call site.
  template <class F>
  void emplace(F&& f) {
    reset();
    using D = std::decay_t<F>;
    if constexpr (fits_inline<F>()) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      invoke_ = [](void* p) { (*static_cast<D*>(p))(); };
      manage_ = [](Op op, void* self, void* other) {
        switch (op) {
          case Op::kMoveFromOther:
            ::new (self) D(std::move(*static_cast<D*>(other)));
            static_cast<D*>(other)->~D();
            break;
          case Op::kDestroy:
            static_cast<D*>(self)->~D();
            break;
        }
      };
    } else {
      ++heap_allocs_;
      ptr() = new D(std::forward<F>(f));
      invoke_ = [](void* p) { (**static_cast<D**>(p))(); };
      manage_ = [](Op op, void* self, void* other) {
        switch (op) {
          case Op::kMoveFromOther:
            *static_cast<D**>(self) = *static_cast<D**>(other);
            break;
          case Op::kDestroy:
            delete *static_cast<D**>(self);
            break;
        }
      };
    }
  }

  Task(Task&& o) noexcept { move_from(o); }
  Task& operator=(Task&& o) noexcept {
    if (this != &o) {
      reset();
      move_from(o);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { reset(); }

  explicit operator bool() const { return invoke_ != nullptr; }

  void operator()() { invoke_(buf_); }

  void reset() {
    if (invoke_ != nullptr) {
      manage_(Op::kDestroy, buf_, nullptr);
      invoke_ = nullptr;
      manage_ = nullptr;
    }
  }

 private:
  enum class Op { kMoveFromOther, kDestroy };
  using InvokeFn = void (*)(void*);
  using ManageFn = void (*)(Op, void* self, void* other);

  void move_from(Task& o) noexcept {
    if (o.invoke_ != nullptr) {
      o.manage_(Op::kMoveFromOther, buf_, o.buf_);
      invoke_ = o.invoke_;
      manage_ = o.manage_;
      o.invoke_ = nullptr;
      o.manage_ = nullptr;
    }
  }

  void*& ptr() { return *reinterpret_cast<void**>(buf_); }

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  InvokeFn invoke_ = nullptr;
  ManageFn manage_ = nullptr;

  static inline thread_local std::uint64_t heap_allocs_ = 0;
};

}  // namespace mtp::sim
