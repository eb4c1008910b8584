// Pathlet feedback stamping (paper §3.1.3).
//
// A pathlet is a network resource with its own congestion feedback. In this
// simulator pathlets attach to links: when an MTP data packet leaves a link
// configured with a pathlet, the link appends a (Path ID, TC, Feedback) TLV
// to the packet's Path Feedback list. The receiver echoes the list in ACKs,
// giving the sender per-resource congestion state.
//
// Each pathlet chooses its own feedback algorithm — this is the paper's
// "multi-algorithm" property:
//   kEcn   — DCTCP-style: 1 if this hop's queue CE-marked the packet
//   kRate  — RCP-style: the link's current computed fair rate (bits/sec)
//   kDelay — Swift-style: queueing delay experienced at this hop (ns)
#pragma once

#include <cstdint>

#include "proto/mtp_header.hpp"
#include "sim/time.hpp"

namespace mtp::net {

struct PathletConfig {
  proto::PathletId id = proto::kDefaultPathlet;
  proto::FeedbackType feedback = proto::FeedbackType::kEcn;

  /// Header-overhead reduction (paper §4): stamp feedback on every packet
  /// (1, the default) or only on every Nth packet — congestion signals
  /// (marks, rate cuts, standing delay) are always stamped regardless, so
  /// control reacts immediately while quiet paths stay cheap.
  std::uint32_t selective_every = 1;

  // --- RCP parameter (used when feedback == kRate).
  /// Estimate of the average RTT of flows crossing this pathlet.
  sim::SimTime rcp_rtt = sim::SimTime::microseconds(10);
};

/// Per-link pathlet state. The owning Link calls on_arrival() for every
/// packet accepted into the queue, periodic_update() on a timer when running
/// RCP, and make_feedback() when stamping a departing packet.
class PathletState {
 public:
  static constexpr double kRcpAlpha = 0.4;  ///< RCP gain on spare capacity
  static constexpr double kRcpBeta = 0.2;   ///< RCP gain on queue drain
  /// RCP control-loop interval; also the averaging window for arrival rate.
  static constexpr sim::SimTime kRcpPeriod = sim::SimTime::microseconds(10);

  PathletState(PathletConfig cfg, sim::Bandwidth capacity)
      : cfg_(cfg), capacity_(capacity), rcp_rate_(capacity) {}

  const PathletConfig& config() const { return cfg_; }

  void on_arrival(std::int64_t bytes) { arrived_bytes_ += bytes; }

  /// RCP control law: R <- R * (1 + (alpha*(C - y) - beta*q/d) / C), clamped
  /// to [1% C, C]. `queue_bytes` is the instantaneous backlog.
  void periodic_update(std::int64_t queue_bytes) {
    const double c = static_cast<double>(capacity_.bits_per_sec());
    const double period_s = kRcpPeriod.sec();
    const double y = static_cast<double>(arrived_bytes_) * 8.0 / period_s;  // arrival bits/s
    const double d = cfg_.rcp_rtt.sec();
    const double q_term = static_cast<double>(queue_bytes) * 8.0 / d;
    const double delta = (kRcpAlpha * (c - y) - kRcpBeta * q_term) / c;
    double r = static_cast<double>(rcp_rate_.bits_per_sec()) * (1.0 + delta * period_s / d);
    r = std::min(r, c);
    r = std::max(r, 0.01 * c);
    rcp_rate_ = sim::Bandwidth::bps(static_cast<std::int64_t>(r));
    arrived_bytes_ = 0;
  }

  sim::Bandwidth rcp_rate() const { return rcp_rate_; }

  /// Selective stamping decision: true if this departure should carry a TLV.
  /// Congestion is always reported; routine "all clear" only every Nth.
  bool should_stamp(bool marked_at_hop, sim::SimTime queue_delay) {
    const bool routine_turn = (stamp_counter_++ % cfg_.selective_every) == 0;
    if (cfg_.selective_every <= 1 || routine_turn) return true;
    switch (cfg_.feedback) {
      case proto::FeedbackType::kEcn:
        return marked_at_hop;
      case proto::FeedbackType::kRate:
        return rcp_rate_.bits_per_sec() < capacity_.bits_per_sec() * 9 / 10;
      case proto::FeedbackType::kDelay:
        return queue_delay > sim::SimTime::microseconds(1);
      default:
        return false;
    }
  }

  /// Build the TLV stamped onto a departing packet.
  proto::Feedback make_feedback(bool marked_at_hop, sim::SimTime queue_delay) const {
    switch (cfg_.feedback) {
      case proto::FeedbackType::kEcn:
        return {proto::FeedbackType::kEcn, marked_at_hop ? 1u : 0u};
      case proto::FeedbackType::kRate:
        return {proto::FeedbackType::kRate,
                static_cast<std::uint64_t>(rcp_rate_.bits_per_sec())};
      case proto::FeedbackType::kDelay:
        return {proto::FeedbackType::kDelay, static_cast<std::uint64_t>(queue_delay.ns())};
      default:
        return {proto::FeedbackType::kNone, 0};
    }
  }

 private:
  PathletConfig cfg_;
  sim::Bandwidth capacity_;
  sim::Bandwidth rcp_rate_;
  std::int64_t arrived_bytes_ = 0;
  std::uint64_t stamp_counter_ = 0;
};

}  // namespace mtp::net
