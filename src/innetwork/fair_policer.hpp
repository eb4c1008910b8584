// Per-entity fair-share enforcement on a *shared* queue (paper §5.3, Fig 7).
//
// The paper's claim: because every MTP packet carries its traffic class and
// end-hosts keep per-(pathlet, TC) congestion state, a switch can enforce a
// fair-share policy at ingress without per-tenant queues. This processor
// implements approximate fair dropping/marking: it estimates each TC's
// arrival rate over a sliding window and, when the egress queue has a
// standing backlog, CE-marks (or in extremis drops) packets of TCs exceeding
// their fair share, with probability proportional to the excess. MTP senders
// react per TC, so over-share tenants back off to the fair rate while the
// queue and its capacity stay fully shared.
#pragma once

#include <array>
#include <memory>

#include "net/drop.hpp"
#include "net/switch.hpp"
#include "sim/simulator.hpp"

namespace mtp::innetwork {

class FairSharePolicer final : public net::IngressProcessor {
 public:
  struct Config {
    /// Egress link being policed (capacity, queue depth, drop count).
    net::Link* egress = nullptr;
  };
  /// Rate-estimation window.
  static constexpr sim::SimTime kUpdatePeriod = sim::SimTime::microseconds(50);
  /// Engage only when the egress queue exceeds this many packets.
  static constexpr std::size_t kMinQueuePkts = 5;
  /// Start dropping (not just marking) above this over-share ratio.
  static constexpr double kDropRatio = 4.0;
  /// Rates below this fraction of capacity don't count a TC as active.
  static constexpr double kActiveFraction = 0.005;

  FairSharePolicer(sim::Simulator& simulator, Config cfg)
      : sim_(simulator), cfg_(cfg) {
    task_ = std::make_unique<sim::PeriodicTask>(sim_, kUpdatePeriod,
                                                [this] { update(); });
    task_->start();
    metrics_ = telemetry::MetricRegistry::global().add(
        "policer", cfg_.egress->name(),
        [this](std::vector<telemetry::MetricSample>& out) {
          using telemetry::MetricKind;
          out.push_back({"marked", MetricKind::kCounter, static_cast<double>(marked_)});
          out.push_back({"dropped", MetricKind::kCounter, static_cast<double>(dropped())});
          out.push_back({"fair_rate_bps", MetricKind::kGauge, fair_rate_bps_});
        });
  }

  bool process(net::Packet& pkt, net::Switch& sw) override {
    auto& tc = tcs_[pkt.tc];
    tc.window_bytes += pkt.size_bytes();
    if (fair_rate_bps_ <= 0) return false;
    if (cfg_.egress->queue().len_pkts() < kMinQueuePkts) return false;
    if (tc.rate_bps <= fair_rate_bps_) return false;

    const double over = tc.rate_bps / fair_rate_bps_;
    const double p_mark = 1.0 - 1.0 / over;
    // Deterministic rotation approximates probability p without an RNG
    // (keeps the policer reproducible): mark when the accumulated phase
    // wraps. phase += p per packet; mark on integer crossings.
    tc.phase += p_mark;
    if (tc.phase >= 1.0) {
      tc.phase -= 1.0;
      if (over >= kDropRatio || pkt.ecn == net::Ecn::kNotEct) {
        // The egress queue counts the loss; the switch traces it.
        cfg_.egress->queue().note_policer_drop(pkt);
        net::drop(net::DropReason::kPolicer, sim_.now(), sw.name(), pkt);
        return true;  // consume = drop
      }
      pkt.ecn = net::Ecn::kCe;
      ++marked_;
    }
    return false;
  }

  double fair_rate_gbps() const { return fair_rate_bps_ / 1e9; }
  std::uint64_t marked() const { return marked_; }
  std::uint64_t dropped() const { return cfg_.egress->queue().stats().policer_dropped; }
  double tc_rate_gbps(proto::TrafficClassId tc) const { return tcs_[tc].rate_bps / 1e9; }

 private:
  void update() {
    const double period_s = kUpdatePeriod.sec();
    // Police packet-level tenants to the *residual* capacity: bandwidth a
    // fluid bulk flow has reserved on the egress (sim/flow) is not available
    // to share, exactly as it wouldn't be if the bulk bytes were packets.
    const double capacity = static_cast<double>(
        cfg_.egress->residual_bandwidth().bits_per_sec());
    int active = 0;
    for (auto& tc : tcs_) {
      // EWMA over windows so transient bursts don't flip activity.
      const double inst = static_cast<double>(tc.window_bytes) * 8.0 / period_s;
      tc.rate_bps = 0.7 * tc.rate_bps + 0.3 * inst;
      tc.window_bytes = 0;
      if (tc.rate_bps > kActiveFraction * capacity) ++active;
    }
    fair_rate_bps_ = active > 0 ? capacity / active : 0.0;
  }

  struct TcState {
    std::int64_t window_bytes = 0;
    double rate_bps = 0;
    double phase = 0;
  };

  sim::Simulator& sim_;
  Config cfg_;
  std::array<TcState, 256> tcs_{};
  double fair_rate_bps_ = 0;
  std::uint64_t marked_ = 0;
  std::unique_ptr<sim::PeriodicTask> task_;
  telemetry::Registration metrics_;
};

}  // namespace mtp::innetwork
