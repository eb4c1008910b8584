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
/// EWMA gain of the DCTCP and DCQCN alpha estimates.
inline constexpr double kDctcpG = 1.0 / 16.0;
/// Swift's multiplicative-decrease gain on the excess-delay fraction.
inline constexpr double kSwiftBeta = 0.8;
/// RCP window = stamped rate x smoothed RTT x this gain.
inline constexpr double kRcpWindowGain = 1.0;

struct CcConfig {
  /// Payload bytes per packet. An MtpEndpoint sets it to its own mss.
  std::uint32_t mss = 1000;
  /// Which algorithm ECN-feedback pathlets run (paper §4: MTP can behave as
  /// DCTCP or DCQCN under the same network feedback).
  enum class EcnAlgorithm { kDctcp, kDcqcn };
  EcnAlgorithm ecn_algorithm = EcnAlgorithm::kDctcp;
  sim::SimTime swift_target_delay = sim::SimTime::microseconds(30);

  std::int64_t init_window_bytes() const {
    return kInitWindowPkts * static_cast<std::int64_t>(mss);
  }
};

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
  explicit DctcpCc(CcConfig cfg)
      : cfg_(cfg),
        cwnd_(static_cast<double>(cfg.init_window_bytes())),
        window_at_round_start_(cfg.init_window_bytes()) {}

  void on_feedback(const proto::Feedback& fb, std::int64_t acked_bytes) override {
    if (fb.type == proto::FeedbackType::kEcn && fb.value != 0) ce_bytes_ += acked_bytes;
  }

  void on_ack(std::int64_t acked_bytes, sim::SimTime) override {
    acked_bytes_ += acked_bytes;
    window_progress_ += acked_bytes;
    if (cwnd_ < ssthresh_) {
      cwnd_ += static_cast<double>(acked_bytes);
    } else {
      cwnd_ += static_cast<double>(cfg_.mss) * static_cast<double>(acked_bytes) / cwnd_;
    }
    cwnd_ = std::min(cwnd_, static_cast<double>(kMaxWindowBytes));
    // Boundary = one window's worth of data acknowledged, measured against
    // the window size when this round started (comparing against the live
    // cwnd would chase slow-start growth and never trigger).
    if (window_progress_ >= window_at_round_start_) window_boundary();
  }

  void on_loss(LossKind) override {
    ssthresh_ = std::max(cwnd_ / 2.0, 2.0 * cfg_.mss);
    cwnd_ = std::max(cwnd_ / 2.0, static_cast<double>(cfg_.mss));
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
        cwnd_ = std::max(cwnd_ * (1.0 - alpha_ / 2.0), static_cast<double>(cfg_.mss));
        ssthresh_ = cwnd_;
      }
    }
    acked_bytes_ = 0;
    ce_bytes_ = 0;
    window_progress_ = 0;
    window_at_round_start_ = static_cast<std::int64_t>(cwnd_);
  }

  CcConfig cfg_;
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
  explicit RcpCc(CcConfig cfg)
      : cfg_(cfg), window_(cfg.init_window_bytes()) {}

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
                           static_cast<std::int64_t>(cfg_.mss), kMaxWindowBytes);
    }
  }

  void on_loss(LossKind) override {
    window_ = std::max(window_ / 2, static_cast<std::int64_t>(cfg_.mss));
  }

  std::int64_t window_bytes() const override { return window_; }
  std::string name() const override { return "rcp"; }
  std::int64_t rate_bps() const { return rate_bps_; }

 private:
  CcConfig cfg_;
  std::int64_t window_;
  std::int64_t rate_bps_ = 0;
  sim::SimTime srtt_;
  bool srtt_valid_ = false;
};

/// Swift-style: keep per-pathlet queueing delay near a target; multiplicative
/// decrease (at most once per RTT) when above, additive increase when below.
class SwiftCc final : public PathletCc {
 public:
  explicit SwiftCc(CcConfig cfg)
      : cfg_(cfg), cwnd_(static_cast<double>(cfg.init_window_bytes())) {}

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
    const double target = cfg_.swift_target_delay.sec();
    if (delay <= target) {
      cwnd_ += static_cast<double>(cfg_.mss) * static_cast<double>(acked_bytes) / cwnd_;
    } else if (now_ >= next_decrease_) {
      const double factor =
          std::max(1.0 - kSwiftBeta * (delay - target) / delay, 0.3);
      cwnd_ *= factor;
      next_decrease_ = now_ + rtt;
    }
    cwnd_ = std::clamp(cwnd_, static_cast<double>(cfg_.mss),
                       static_cast<double>(kMaxWindowBytes));
  }

  void on_loss(LossKind) override {
    cwnd_ = std::max(cwnd_ / 2.0, static_cast<double>(cfg_.mss));
  }

  std::int64_t window_bytes() const override { return static_cast<std::int64_t>(cwnd_); }
  std::string name() const override { return "swift"; }

 private:
  CcConfig cfg_;
  double cwnd_;
  sim::SimTime last_delay_;
  bool have_delay_ = false;
  sim::SimTime now_;
  sim::SimTime next_decrease_;
};

/// DCQCN-style rate control (paper §4 names it alongside TCP and DCTCP):
/// ECN marks drive an alpha estimate like DCTCP's, but the control variable
/// is a *rate*; decrease is multiplicative in the rate, recovery alternates
/// fast-recovery steps toward the pre-cut target with additive probes. The
/// window exposed to the admission layer is rate x smoothed RTT.
class DcqcnCc final : public PathletCc {
 public:
  explicit DcqcnCc(CcConfig cfg)
      : cfg_(cfg),
        rate_bps_(1e9),  // conservative start; first RTTs probe upward
        target_bps_(rate_bps_) {}

  void on_feedback(const proto::Feedback& fb, std::int64_t) override {
    if (fb.type == proto::FeedbackType::kEcn && fb.value != 0) marked_ = true;
  }

  void on_ack(std::int64_t acked_bytes, sim::SimTime rtt) override {
    if (!srtt_valid_) {
      srtt_ = rtt;
      srtt_valid_ = true;
    } else {
      srtt_ = srtt_.scaled(0.875) + rtt.scaled(0.125);
    }
    bytes_since_update_ += acked_bytes;
    // Update epoch: roughly one rate x srtt worth of acknowledged data.
    const double epoch_bytes = std::max(rate_bps_ * srtt_.sec() / 8.0, 1500.0);
    if (static_cast<double>(bytes_since_update_) < epoch_bytes) return;
    bytes_since_update_ = 0;

    if (marked_) {
      alpha_ = (1.0 - kDctcpG) * alpha_ + kDctcpG;
      target_bps_ = rate_bps_;
      rate_bps_ = std::max(rate_bps_ * (1.0 - alpha_ / 2.0), 1e8);
      recovery_steps_ = 0;
      marked_ = false;
      return;
    }
    alpha_ = (1.0 - kDctcpG) * alpha_;
    if (recovery_steps_ < 5) {
      // Fast recovery: halve the distance to the pre-cut target.
      rate_bps_ = (rate_bps_ + target_bps_) / 2.0;
      ++recovery_steps_;
    } else {
      // Additive increase, probing gently beyond the old target.
      target_bps_ += 0.5e9;  // +0.5 Gb/s per mark-free epoch
      rate_bps_ = (rate_bps_ + target_bps_) / 2.0;
    }
  }

  void on_loss(LossKind) override {
    target_bps_ = rate_bps_;
    rate_bps_ = std::max(rate_bps_ / 2.0, 1e8);
    recovery_steps_ = 0;
  }

  std::int64_t window_bytes() const override {
    const double rtt_s = srtt_valid_ ? srtt_.sec() : 10e-6;
    return std::clamp(static_cast<std::int64_t>(rate_bps_ / 8.0 * rtt_s),
                      static_cast<std::int64_t>(cfg_.mss), kMaxWindowBytes);
  }
  std::string name() const override { return "dcqcn"; }
  double rate_gbps() const { return rate_bps_ / 1e9; }
  double alpha() const { return alpha_; }

 private:
  CcConfig cfg_;
  double rate_bps_;
  double target_bps_;
  double alpha_ = 0.0;
  bool marked_ = false;
  int recovery_steps_ = 0;
  std::int64_t bytes_since_update_ = 0;
  sim::SimTime srtt_;
  bool srtt_valid_ = false;
};

/// Loss-only AIMD (pre-ECN TCP shape). Default for pathlets that provide no
/// feedback, including the implicit "whole network" pathlet 0.
class AimdCc final : public PathletCc {
 public:
  explicit AimdCc(CcConfig cfg)
      : cfg_(cfg), cwnd_(static_cast<double>(cfg.init_window_bytes())) {}

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
      cwnd_ += static_cast<double>(cfg_.mss) * static_cast<double>(acked_bytes) / cwnd_;
    }
    cwnd_ = std::min(cwnd_, static_cast<double>(kMaxWindowBytes));
  }

  void on_loss(LossKind) override {
    ssthresh_ = std::max(cwnd_ / 2.0, 2.0 * cfg_.mss);
    cwnd_ = std::max(cwnd_ / 2.0, static_cast<double>(cfg_.mss));
  }

  std::int64_t window_bytes() const override { return static_cast<std::int64_t>(cwnd_); }
  std::string name() const override { return "aimd"; }

 private:
  CcConfig cfg_;
  double cwnd_;
  double ssthresh_ = 1e18;
  std::int64_t pending_mark_bytes_ = 0;
};

/// Instantiate the algorithm matching a pathlet's feedback type.
inline std::unique_ptr<PathletCc> make_cc(proto::FeedbackType type, const CcConfig& cfg) {
  switch (type) {
    case proto::FeedbackType::kEcn:
      if (cfg.ecn_algorithm == CcConfig::EcnAlgorithm::kDcqcn) {
        return std::make_unique<DcqcnCc>(cfg);
      }
      return std::make_unique<DctcpCc>(cfg);
    case proto::FeedbackType::kRate:
      return std::make_unique<RcpCc>(cfg);
    case proto::FeedbackType::kDelay:
      return std::make_unique<SwiftCc>(cfg);
    default:
      return std::make_unique<AimdCc>(cfg);
  }
}

}  // namespace mtp::core
