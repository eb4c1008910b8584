// Simulated-time representation for the MTP packet-level simulator.
//
// SimTime is a strong type over signed 64-bit nanoseconds. A signed
// representation lets durations be subtracted freely; 2^63 ns is ~292 years
// of simulated time, far beyond any experiment here.
#pragma once

#include <cstdint>
#include <limits>
#include <string>

namespace mtp::sim {

/// A point in (or duration of) simulated time with nanosecond resolution.
///
/// SimTime is deliberately a single type for both points and durations, as is
/// conventional in network simulators: experiments constantly mix the two
/// ("now + rtt/2") and a Chrono-style split adds noise without catching real
/// bugs at this scale.
class SimTime {
 public:
  constexpr SimTime() = default;

  /// Named constructors. Prefer these (or the literals below) over raw counts.
  static constexpr SimTime nanoseconds(std::int64_t ns) { return SimTime{ns}; }
  static constexpr SimTime microseconds(std::int64_t us) { return SimTime{us * 1'000}; }
  static constexpr SimTime milliseconds(std::int64_t ms) { return SimTime{ms * 1'000'000}; }
  static constexpr SimTime seconds(std::int64_t s) { return SimTime{s * 1'000'000'000}; }
  /// Fractional seconds, e.g. SimTime::from_seconds(0.0000015).
  static constexpr SimTime from_seconds(double s) {
    return SimTime{static_cast<std::int64_t>(s * 1e9 + (s >= 0 ? 0.5 : -0.5))};
  }
  static constexpr SimTime zero() { return SimTime{0}; }
  static constexpr SimTime max() { return SimTime{std::numeric_limits<std::int64_t>::max()}; }

  constexpr std::int64_t ns() const { return ns_; }
  constexpr double us() const { return static_cast<double>(ns_) / 1e3; }
  constexpr double ms() const { return static_cast<double>(ns_) / 1e6; }
  constexpr double sec() const { return static_cast<double>(ns_) / 1e9; }

  constexpr SimTime operator+(SimTime o) const { return SimTime{ns_ + o.ns_}; }
  constexpr SimTime operator-(SimTime o) const { return SimTime{ns_ - o.ns_}; }
  constexpr SimTime operator*(std::int64_t k) const { return SimTime{ns_ * k}; }
  constexpr SimTime operator/(std::int64_t k) const { return SimTime{ns_ / k}; }
  constexpr double operator/(SimTime o) const {
    return static_cast<double>(ns_) / static_cast<double>(o.ns_);
  }
  constexpr SimTime& operator+=(SimTime o) { ns_ += o.ns_; return *this; }
  constexpr SimTime& operator-=(SimTime o) { ns_ -= o.ns_; return *this; }

  constexpr auto operator<=>(const SimTime&) const = default;

  /// Scale a duration by a double (e.g. RTO backoff, EWMA mixing).
  constexpr SimTime scaled(double f) const {
    return SimTime{static_cast<std::int64_t>(static_cast<double>(ns_) * f + 0.5)};
  }

  /// Human-readable rendering with an auto-selected unit ("384us", "1.5ms").
  std::string to_string() const;

 private:
  constexpr explicit SimTime(std::int64_t ns) : ns_(ns) {}
  std::int64_t ns_ = 0;
};

namespace literals {
constexpr SimTime operator""_ns(unsigned long long v) { return SimTime::nanoseconds(static_cast<std::int64_t>(v)); }
constexpr SimTime operator""_us(unsigned long long v) { return SimTime::microseconds(static_cast<std::int64_t>(v)); }
constexpr SimTime operator""_ms(unsigned long long v) { return SimTime::milliseconds(static_cast<std::int64_t>(v)); }
constexpr SimTime operator""_s(unsigned long long v) { return SimTime::seconds(static_cast<std::int64_t>(v)); }
}  // namespace literals

/// Bits-per-second bandwidth as a strong type, with the serialization-delay
/// arithmetic every link needs. Kept alongside SimTime because the two are
/// only ever used together.
class Bandwidth {
 public:
  constexpr Bandwidth() = default;
  static constexpr Bandwidth bps(std::int64_t v) { return Bandwidth{v}; }
  static constexpr Bandwidth kbps(std::int64_t v) { return Bandwidth{v * 1'000}; }
  static constexpr Bandwidth mbps(std::int64_t v) { return Bandwidth{v * 1'000'000}; }
  static constexpr Bandwidth gbps(std::int64_t v) { return Bandwidth{v * 1'000'000'000}; }

  constexpr std::int64_t bits_per_sec() const { return bps_; }
  constexpr double gbit_per_sec() const { return static_cast<double>(bps_) / 1e9; }

  /// Serialization delay of `bytes` on a link of this rate (ceil, in ns).
  /// 64-bit math whenever bytes·8e9 + bps − 1 fits in an int64, which every
  /// size below ~1.1 GB does at any rate; larger ones take the 128-bit path
  /// (2 GB would overflow int64 ns math). Both paths round identically.
  constexpr SimTime serialization_delay(std::int64_t bytes) const {
    std::int64_t bit_ns = 0;
    if (!__builtin_mul_overflow(bytes, kBitNsPerByte, &bit_ns) &&
        !__builtin_add_overflow(bit_ns, bps_ - 1, &bit_ns)) {
      return SimTime::nanoseconds(bit_ns / bps_);
    }
    return serialization_delay_wide(bytes);
  }

  /// serialization_delay in 128-bit math, for every size.
  constexpr SimTime serialization_delay_wide(std::int64_t bytes) const {
    const auto ns = (static_cast<__int128>(bytes) * kBitNsPerByte + bps_ - 1) / bps_;
    return SimTime::nanoseconds(static_cast<std::int64_t>(ns));
  }

  /// Bytes transmittable in `t` at this rate (floor).
  constexpr std::int64_t bytes_in(SimTime t) const {
    const auto bits = static_cast<__int128>(t.ns()) * bps_ / 1'000'000'000;
    return static_cast<std::int64_t>(bits / 8);
  }

  constexpr auto operator<=>(const Bandwidth&) const = default;
  constexpr Bandwidth scaled(double f) const {
    return Bandwidth{static_cast<std::int64_t>(static_cast<double>(bps_) * f + 0.5)};
  }

 private:
  constexpr explicit Bandwidth(std::int64_t bps) : bps_(bps) {}
  static constexpr std::int64_t kBitNsPerByte = 8 * 1'000'000'000LL;
  std::int64_t bps_ = 0;
};

}  // namespace mtp::sim
