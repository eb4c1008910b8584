// Boxed<T>: a value-semantic heap box for rarely-populated packet fields.
//
// Packets are moved several times per hop (NIC ring -> queue -> link ->
// receive), so every inline byte of header is paid for on every hop of every
// packet. Rarely-set fields (TCP SACK blocks, the stream and overload blocks,
// the app payload) are empty on most packets in flight; Boxed keeps each
// behind a single pointer so an idle field costs 8 bytes and a null check
// instead of its inline size. (The five MTP header lists share one block of
// their own, proto::HeaderLists in mtp_header.hpp.)
//
// Semantics: a deep-copying unique_ptr whose null state means "default
// constructed T". Copies clone, moves steal, and equality compares contents —
// a null box equals a box holding a default-constructed value, so a parsed
// header without the field equals a built header whose field was touched but
// left default.
#pragma once

#include <memory>
#include <utility>

namespace mtp::proto {

template <typename T>
class Boxed {
 public:
  Boxed() = default;
  Boxed(const Boxed& o) : p_(o.p_ ? std::make_unique<T>(*o.p_) : nullptr) {}
  Boxed(Boxed&&) noexcept = default;
  Boxed(const T& v) : p_(std::make_unique<T>(v)) {}
  Boxed(T&& v) : p_(std::make_unique<T>(std::move(v))) {}
  Boxed& operator=(const Boxed& o) {
    if (this != &o) p_ = o.p_ ? std::make_unique<T>(*o.p_) : nullptr;
    return *this;
  }
  Boxed& operator=(Boxed&&) noexcept = default;
  Boxed& operator=(const T& v) {
    if (p_) *p_ = v; else p_ = std::make_unique<T>(v);
    return *this;
  }
  Boxed& operator=(T&& v) {
    if (p_) *p_ = std::move(v); else p_ = std::make_unique<T>(std::move(v));
    return *this;
  }

  explicit operator bool() const { return p_ != nullptr; }
  bool has_value() const { return p_ != nullptr; }
  T* operator->() { return p_.get(); }
  const T* operator->() const { return p_.get(); }
  T& operator*() { return *p_; }
  const T& operator*() const { return *p_; }
  void reset() { p_.reset(); }

  /// Mutable access, allocating the value on first touch.
  T& ensure() {
    if (!p_) p_ = std::make_unique<T>();
    return *p_;
  }

  /// Read access; a null box reads as a default-constructed T.
  const T& view() const { return p_ ? *p_ : empty_value(); }

  /// Contents equality: null compares equal to a default-constructed value.
  friend bool operator==(const Boxed& a, const Boxed& b) {
    if (a.p_ && b.p_) return *a.p_ == *b.p_;
    if (!a.p_ && !b.p_) return true;
    return (a.p_ ? *a.p_ : empty_value()) == (b.p_ ? *b.p_ : empty_value());
  }

 private:
  static const T& empty_value() {
    static const T kEmpty{};
    return kEmpty;
  }
  std::unique_ptr<T> p_;
};

}  // namespace mtp::proto
