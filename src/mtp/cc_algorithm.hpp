// Per-pathlet congestion-control algorithms (paper §3.1.3).
//
// MTP keys congestion state on (pathlet, traffic class), not on flows, and
// each pathlet's feedback is a TLV — so different pathlets can run different
// algorithms simultaneously ("multi-resource and multi-algorithm congestion
// control"). The factory maps a pathlet's feedback type to its algorithm:
//   kEcn   -> DctcpCc   (ECN-fraction window, DCTCP)
//   kRate  -> RcpCc     (explicit-rate, RCP)
//   kDelay -> SwiftCc   (delay-target window, Swift)
//   kNone  -> AimdCc    (loss-only AIMD; the default pathlet's fallback)
#pragma once

#include <algorithm>
#include <memory>
#include <string>

#include "proto/mtp_header.hpp"
#include "sim/time.hpp"

namespace mtp::core {

enum class LossKind {
  kTimeout,  ///< retransmission timer expired
  kTrim,     ///< NDP-style trimmed packet reported via NACK
};

/// Packets in a pathlet's first window, before any feedback.
inline constexpr std::int64_t kInitWindowPkts = 10;
/// Ceiling on every pathlet window.
inline constexpr std::int64_t kMaxWindowBytes = std::int64_t{64} << 20;
/// EWMA gain of the DCTCP alpha estimate.
inline constexpr double kDctcpG = 1.0 / 16.0;
/// Swift's per-pathlet queueing-delay target.
inline constexpr sim::SimTime kSwiftTargetDelay = sim::SimTime::microseconds(30);
/// Swift's multiplicative-decrease gain on the excess-delay fraction.
inline constexpr double kSwiftBeta = 0.8;
/// RCP window = stamped rate x smoothed RTT x this gain.
inline constexpr double kRcpWindowGain = 1.0;

/// A pathlet's first window: kInitWindowPkts packets of `mss` bytes.
inline std::int64_t init_window_bytes(std::uint32_t mss) {
  return kInitWindowPkts * static_cast<std::int64_t>(mss);
}

/// Congestion state for one (pathlet, TC) pair. The endpoint calls, per
/// acknowledged packet: on_feedback() for the pathlet's echoed TLV (if any),
/// then on_ack() with the acknowledged bytes and RTT sample; on_loss() when
/// packets charged to this pathlet are declared lost.
class PathletCc {
 public:
  virtual ~PathletCc() = default;

  virtual void on_feedback(const proto::Feedback& fb, std::int64_t acked_bytes) = 0;
  virtual void on_ack(std::int64_t acked_bytes, sim::SimTime rtt) = 0;
  virtual void on_loss(LossKind kind) = 0;

  /// Bytes this pathlet currently allows in flight for the TC.
  virtual std::int64_t window_bytes() const = 0;
  virtual std::string name() const = 0;
};

/// DCTCP-style: window evolves with slow start / congestion avoidance;
/// once per window, reduce by alpha/2 where alpha is the EWMA of the
/// CE-marked fraction of acknowledged bytes.
class DctcpCc final : public PathletCc {
 public:
  explicit DctcpCc(std::uint32_t mss)
      : mss_(mss),
        cwnd_(static_cast<double>(init_window_bytes(mss))),
        window_at_round_start_(init_window_bytes(mss)) {}

  void on_feedback(const proto::Feedback& fb, std::int64_t acked_bytes) override {
    if (fb.type == proto::FeedbackType::kEcn && fb.value != 0) ce_bytes_ += acked_bytes;
  }

  void on_ack(std::int64_t acked_bytes, sim::SimTime) override {
    acked_bytes_ += acked_bytes;
    window_progress_ += acked_bytes;
    if (cwnd_ < ssthresh_) {
      cwnd_ += static_cast<double>(acked_bytes);
    } else {
      cwnd_ += static_cast<double>(mss_) * static_cast<double>(acked_bytes) / cwnd_;
    }
    cwnd_ = std::min(cwnd_, static_cast<double>(kMaxWindowBytes));
    // Boundary = one window's worth of data acknowledged, measured against
    // the window size when this round started (comparing against the live
    // cwnd would chase slow-start growth and never trigger).
    if (window_progress_ >= window_at_round_start_) window_boundary();
  }

  void on_loss(LossKind) override {
    ssthresh_ = std::max(cwnd_ / 2.0, 2.0 * mss_);
    cwnd_ = std::max(cwnd_ / 2.0, static_cast<double>(mss_));
  }

  std::int64_t window_bytes() const override { return static_cast<std::int64_t>(cwnd_); }
  std::string name() const override { return "dctcp"; }
  double alpha() const { return alpha_; }

 private:
  void window_boundary() {
    if (acked_bytes_ > 0) {
      const double f = static_cast<double>(ce_bytes_) / static_cast<double>(acked_bytes_);
      alpha_ = (1.0 - kDctcpG) * alpha_ + kDctcpG * f;
      if (ce_bytes_ > 0) {
        cwnd_ = std::max(cwnd_ * (1.0 - alpha_ / 2.0), static_cast<double>(mss_));
        ssthresh_ = cwnd_;
      }
    }
    acked_bytes_ = 0;
    ce_bytes_ = 0;
    window_progress_ = 0;
    window_at_round_start_ = static_cast<std::int64_t>(cwnd_);
  }

  std::uint32_t mss_;
  double cwnd_;
  double ssthresh_ = 1e18;
  double alpha_ = 0.0;
  std::int64_t acked_bytes_ = 0;
  std::int64_t ce_bytes_ = 0;
  std::int64_t window_progress_ = 0;
  std::int64_t window_at_round_start_ = 0;
};

/// RCP-style: the network stamps an explicit fair rate; the window is simply
/// rate x RTT (no search, immediate convergence — RCP's selling point).
class RcpCc final : public PathletCc {
 public:
  explicit RcpCc(std::uint32_t mss) : mss_(mss), window_(init_window_bytes(mss)) {}

  void on_feedback(const proto::Feedback& fb, std::int64_t) override {
    if (fb.type == proto::FeedbackType::kRate) rate_bps_ = static_cast<std::int64_t>(fb.value);
  }

  void on_ack(std::int64_t, sim::SimTime rtt) override {
    if (!srtt_valid_) {
      srtt_ = rtt;
      srtt_valid_ = true;
    } else {
      srtt_ = srtt_.scaled(0.875) + rtt.scaled(0.125);
    }
    if (rate_bps_ > 0) {
      const double w = static_cast<double>(rate_bps_) / 8.0 * srtt_.sec() * kRcpWindowGain;
      window_ = std::clamp(static_cast<std::int64_t>(w),
                           static_cast<std::int64_t>(mss_), kMaxWindowBytes);
    }
  }

  void on_loss(LossKind) override {
    window_ = std::max(window_ / 2, static_cast<std::int64_t>(mss_));
  }

  std::int64_t window_bytes() const override { return window_; }
  std::string name() const override { return "rcp"; }
  std::int64_t rate_bps() const { return rate_bps_; }

 private:
  std::uint32_t mss_;
  std::int64_t window_;
  std::int64_t rate_bps_ = 0;
  sim::SimTime srtt_;
  bool srtt_valid_ = false;
};

/// Swift-style: keep per-pathlet queueing delay near a target; multiplicative
/// decrease (at most once per RTT) when above, additive increase when below.
class SwiftCc final : public PathletCc {
 public:
  explicit SwiftCc(std::uint32_t mss)
      : mss_(mss), cwnd_(static_cast<double>(init_window_bytes(mss))) {}

  void on_feedback(const proto::Feedback& fb, std::int64_t) override {
    if (fb.type == proto::FeedbackType::kDelay) {
      last_delay_ = sim::SimTime::nanoseconds(static_cast<std::int64_t>(fb.value));
      have_delay_ = true;
    }
  }

  void on_ack(std::int64_t acked_bytes, sim::SimTime rtt) override {
    now_ += rtt;  // virtual clock advance; decrease pacing only needs ordering
    if (!have_delay_) return;
    const double delay = last_delay_.sec();
    const double target = kSwiftTargetDelay.sec();
    if (delay <= target) {
      cwnd_ += static_cast<double>(mss_) * static_cast<double>(acked_bytes) / cwnd_;
    } else if (now_ >= next_decrease_) {
      const double factor =
          std::max(1.0 - kSwiftBeta * (delay - target) / delay, 0.3);
      cwnd_ *= factor;
      next_decrease_ = now_ + rtt;
    }
    cwnd_ = std::clamp(cwnd_, static_cast<double>(mss_),
                       static_cast<double>(kMaxWindowBytes));
  }

  void on_loss(LossKind) override {
    cwnd_ = std::max(cwnd_ / 2.0, static_cast<double>(mss_));
  }

  std::int64_t window_bytes() const override { return static_cast<std::int64_t>(cwnd_); }
  std::string name() const override { return "swift"; }

 private:
  std::uint32_t mss_;
  double cwnd_;
  sim::SimTime last_delay_;
  bool have_delay_ = false;
  sim::SimTime now_;
  sim::SimTime next_decrease_;
};

/// Loss-only AIMD (pre-ECN TCP shape). Default for pathlets that provide no
/// feedback, including the implicit "whole network" pathlet 0.
class AimdCc final : public PathletCc {
 public:
  explicit AimdCc(std::uint32_t mss)
      : mss_(mss), cwnd_(static_cast<double>(init_window_bytes(mss))) {}

  void on_feedback(const proto::Feedback& fb, std::int64_t acked) override {
    // Still react to ECN marks if they appear (robustness, not required).
    if (fb.type == proto::FeedbackType::kEcn && fb.value != 0) {
      pending_mark_bytes_ += acked;
    }
  }

  void on_ack(std::int64_t acked_bytes, sim::SimTime) override {
    if (pending_mark_bytes_ > 0) {
      pending_mark_bytes_ = 0;
      on_loss(LossKind::kTrim);
      return;
    }
    if (cwnd_ < ssthresh_) {
      cwnd_ += static_cast<double>(acked_bytes);
    } else {
      cwnd_ += static_cast<double>(mss_) * static_cast<double>(acked_bytes) / cwnd_;
    }
    cwnd_ = std::min(cwnd_, static_cast<double>(kMaxWindowBytes));
  }

  void on_loss(LossKind) override {
    ssthresh_ = std::max(cwnd_ / 2.0, 2.0 * mss_);
    cwnd_ = std::max(cwnd_ / 2.0, static_cast<double>(mss_));
  }

  std::int64_t window_bytes() const override { return static_cast<std::int64_t>(cwnd_); }
  std::string name() const override { return "aimd"; }

 private:
  std::uint32_t mss_;
  double cwnd_;
  double ssthresh_ = 1e18;
  std::int64_t pending_mark_bytes_ = 0;
};

/// Instantiate the algorithm matching a pathlet's feedback type.
/// `mss` is the sender's payload bytes per packet.
inline std::unique_ptr<PathletCc> make_cc(proto::FeedbackType type, std::uint32_t mss) {
  switch (type) {
    case proto::FeedbackType::kEcn:
      return std::make_unique<DctcpCc>(mss);
    case proto::FeedbackType::kRate:
      return std::make_unique<RcpCc>(mss);
    case proto::FeedbackType::kDelay:
      return std::make_unique<SwiftCc>(mss);
    default:
      return std::make_unique<AimdCc>(mss);
  }
}

}  // namespace mtp::core
