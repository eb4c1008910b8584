// mtp::overload — the one load-shedding rule, for receivers and devices.
//
// MTP receivers and in-network devices (kvs_cache, aggregation) have bounded
// work queues. Past a high-watermark the right move is to *shed at
// adoption*: refuse the message with an explicit kBusy reject carried in
// the MTP header (NACK-style, like the corruption NACK) so the sender
// aborts immediately instead of retransmitting into the overload — a
// silent drop would convert one overloaded device into a fabric-wide retry
// storm. shed_verdict() is evaluated on packet 0 before any state is
// allocated, in this order:
//
//   1. Deadline-expired work is shed unconditionally: serving it is pure
//      waste (the client already gave up), and wasted service is what
//      sustains metastable collapse.
//   2. At or above hard_limit, everything is shed.
//   3. At or above high_watermark, messages below protect_priority are
//      shed. High-priority traffic keeps flowing until the hard limit.
//
// MtpEndpoint calls it with its reassembly-table size; devices call it
// through ShedGuard, which also keeps their shed counters.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <vector>

#include "proto/mtp_header.hpp"
#include "sim/time.hpp"
#include "telemetry/metrics.hpp"

namespace mtp::overload {

struct ShedRule {
  /// A high_watermark or hard_limit this large never fires.
  static constexpr std::size_t kOff = std::numeric_limits<std::size_t>::max();
  /// Shed deadline-expired messages before service.
  bool shed_expired = true;
  /// Work items at or above which messages below protect_priority are shed
  /// (0 sheds them always).
  std::size_t high_watermark = kOff;
  /// Work items at or above which everything is shed, regardless of priority.
  std::size_t hard_limit = kOff;
  /// Messages with priority >= this survive the high-watermark (but not the
  /// hard limit).
  std::uint8_t protect_priority = 1;
};

/// Adoption-time verdict for one fresh message: the overload flags to carry
/// on the busy-reject (0 = accept). `work` is the caller's current
/// bounded-queue occupancy; `deadline_ns` is the message's absolute deadline
/// (0 = none).
inline std::uint8_t shed_verdict(const ShedRule& rule, std::size_t work,
                                 std::uint8_t priority, std::uint64_t deadline_ns,
                                 sim::SimTime now) {
  if (rule.shed_expired && deadline_ns != 0 &&
      static_cast<std::uint64_t>(now.ns()) > deadline_ns) {
    return proto::kOverloadBusy | proto::kOverloadExpired;
  }
  if (work >= rule.hard_limit ||
      (work >= rule.high_watermark && priority < rule.protect_priority)) {
    return proto::kOverloadBusy;
  }
  return 0;
}

/// A device's shedding: on/off, its rule, and the counters it exports.
struct ShedConfig {
  bool enabled = false;
  ShedRule rule{.shed_expired = true,
                .high_watermark = 64,
                .hard_limit = 256,
                .protect_priority = 1};
};

class ShedGuard {
 public:
  explicit ShedGuard(ShedConfig cfg) : cfg_(cfg) {}

  /// shed_verdict() when enabled (0 when not), counted.
  std::uint8_t decide(std::size_t work, std::uint8_t priority,
                      std::uint64_t deadline_ns, sim::SimTime now) {
    if (!cfg_.enabled) return 0;
    const std::uint8_t verdict = shed_verdict(cfg_.rule, work, priority, deadline_ns, now);
    if (verdict != 0) {
      ++sheds_;
      ++sheds_by_priority_[bucket(priority)];
      if (verdict & proto::kOverloadExpired) ++expired_sheds_;
    }
    return verdict;
  }

  std::uint64_t sheds() const { return sheds_; }
  std::uint64_t expired_sheds() const { return expired_sheds_; }
  /// Sheds bucketed by priority (priorities >= 7 share the last bucket).
  std::uint64_t sheds_at_priority(std::uint8_t pri) const {
    return sheds_by_priority_[bucket(pri)];
  }

  /// Append the guard's counters to a device's metrics provider: total and
  /// per-priority sheds (zero buckets omitted) and deadline expiries.
  void append_metrics(std::vector<telemetry::MetricSample>& out) const {
    using telemetry::MetricKind;
    static constexpr const char* kPriName[8] = {
        "sheds_pri0", "sheds_pri1", "sheds_pri2", "sheds_pri3",
        "sheds_pri4", "sheds_pri5", "sheds_pri6", "sheds_pri7"};
    out.push_back({"sheds", MetricKind::kCounter, static_cast<double>(sheds_)});
    out.push_back({"expired_sheds", MetricKind::kCounter,
                   static_cast<double>(expired_sheds_)});
    for (std::size_t p = 0; p < sheds_by_priority_.size(); ++p) {
      if (sheds_by_priority_[p] > 0) {
        out.push_back({kPriName[p], MetricKind::kCounter,
                       static_cast<double>(sheds_by_priority_[p])});
      }
    }
  }

 private:
  static std::size_t bucket(std::uint8_t pri) {
    return pri < 7 ? pri : 7;
  }

  ShedConfig cfg_;
  std::uint64_t sheds_ = 0;
  std::uint64_t expired_sheds_ = 0;
  std::array<std::uint64_t, 8> sheds_by_priority_{};
};

}  // namespace mtp::overload
