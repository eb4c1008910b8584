// mtp::overload — receiver-driven admission control.
//
// The receiver is the one node that knows its own service rate, so it is
// the right place to size the incast window (Homa/NDP's receiver-driven
// insight, via Ousterhout's "It's Time to Replace TCP in the Datacenter").
// The receiver tracks an EWMA of its delivered-payload rate and stamps a
// per-sender grant on every ACK:
//
//   grant = clamp(ewma_rate * grant_horizon / active_senders,
//                 kMinGrantBytes, kMaxGrantBytes)
//
// Senders cap new-message bytes in flight toward that receiver at the
// grant, so an 8:1 incast self-paces to the receiver's drain rate instead
// of blind-firing 8x line rate into the last-hop queue.
//
// Everything is folded lazily from delivery events — no timers — so an
// idle receiver contributes nothing to the event queue and simulations
// still run to quiescence.
#pragma once

#include <algorithm>
#include <cstdint>
#include <unordered_map>

#include "sim/time.hpp"

namespace mtp::overload {

/// Delivered-bytes accumulation window folded into the rate EWMA.
inline constexpr sim::SimTime kAdmissionRateWindow = sim::SimTime::microseconds(20);
inline constexpr double kAdmissionEwmaAlpha = 0.3;
inline constexpr std::int64_t kMinGrantBytes = 2000;
inline constexpr std::int64_t kMaxGrantBytes = 1 << 20;
/// Senders silent this long stop counting toward the per-sender split.
inline constexpr sim::SimTime kSenderIdleTimeout = sim::SimTime::microseconds(500);

struct AdmissionConfig {
  /// Credit horizon: how much service time each sender's grant covers.
  sim::SimTime grant_horizon = sim::SimTime::microseconds(50);
};

class Admission {
 public:
  explicit Admission(AdmissionConfig cfg) : cfg_(cfg) {}
  Admission() : Admission(AdmissionConfig{}) {}

  /// Fresh (non-duplicate) payload delivered from `src`.
  void on_delivered(std::uint32_t src, std::int64_t bytes, sim::SimTime now) {
    if (!started_) {
      started_ = true;
      window_start_ = now;
    }
    senders_[src] = now;
    window_bytes_ += bytes;
    if (now - window_start_ >= kAdmissionRateWindow) fold(now);
  }

  /// Per-sender new-message credit to stamp on the next ACK.
  std::int64_t grant_bytes(sim::SimTime now) {
    // A long silent gap means the EWMA is stale-high; fold the (empty)
    // window so the estimate decays before sizing the grant.
    if (started_ && now - window_start_ >= kAdmissionRateWindow * 2) fold(now);
    const std::size_t senders = std::max<std::size_t>(1, active_senders_);
    const double credit =
        rate_bytes_per_ns_ * static_cast<double>(cfg_.grant_horizon.ns()) /
        static_cast<double>(senders);
    const std::int64_t g = static_cast<std::int64_t>(credit);
    return std::clamp(g, kMinGrantBytes, kMaxGrantBytes);
  }

  double rate_gbps() const { return rate_bytes_per_ns_ * 8.0; }
  std::size_t active_senders() const { return std::max<std::size_t>(1, active_senders_); }

 private:
  void fold(sim::SimTime now) {
    const sim::SimTime span = now - window_start_;
    if (span.ns() <= 0) return;
    const double inst =
        static_cast<double>(window_bytes_) / static_cast<double>(span.ns());
    rate_bytes_per_ns_ = seeded_
                             ? kAdmissionEwmaAlpha * inst +
                                   (1.0 - kAdmissionEwmaAlpha) * rate_bytes_per_ns_
                             : inst;
    seeded_ = true;
    window_bytes_ = 0;
    window_start_ = now;
    // Prune idle senders here (once per window) so grant_bytes() stays O(1).
    active_senders_ = 0;
    for (auto it = senders_.begin(); it != senders_.end();) {
      if (now - it->second >= kSenderIdleTimeout) {
        it = senders_.erase(it);
      } else {
        ++active_senders_;
        ++it;
      }
    }
  }

  AdmissionConfig cfg_;
  bool started_ = false;
  bool seeded_ = false;
  sim::SimTime window_start_;
  std::int64_t window_bytes_ = 0;
  double rate_bytes_per_ns_ = 0.0;
  std::unordered_map<std::uint32_t, sim::SimTime> senders_;
  std::size_t active_senders_ = 0;
};

}  // namespace mtp::overload
