// In-network gradient aggregation (ATP-style, paper §4 "ML Training").
//
// N workers push gradient messages for training round R toward a parameter
// server. A switch on the path terminates each worker's message (ACKing it,
// so workers complete immediately) and accumulates contributions per round.
// When the fan-in is complete — or a straggler timeout fires — it injects a
// single aggregated message to the server: N gradients in, one out.
//
// This is the use case the paper calls out as hard for classic transports:
// the "aggregation level" (how many messages fold into one) changes the
// traffic the server-side link sees, which only works when the unit of
// transport is a mutable, independent message. With pathlets, the
// aggregation switch can also expose itself as its own congestion resource.
#pragma once

#include <charconv>
#include <functional>
#include <string>
#include <unordered_map>

#include "innetwork/device_endpoint.hpp"
#include "mtp/overload/shed_guard.hpp"
#include "net/switch.hpp"
#include "sim/simulator.hpp"
#include "telemetry/metrics.hpp"

namespace mtp::innetwork {

class AggregationOffload final : public net::IngressProcessor {
 public:
  struct Config {
    net::NodeId server = net::kInvalidNode;  ///< parameter server
    proto::PortNum service_port = 90;
    std::uint32_t fan_in = 0;  ///< workers per round (required)
    /// Overload shedding: bounded work queue + busy-rejects (off by default).
    overload::ShedConfig shed;
  };
  /// Flush a partial aggregate if stragglers keep a round open this long.
  static constexpr sim::SimTime kStragglerTimeout = sim::SimTime::milliseconds(2);

  AggregationOffload(net::Switch& sw, Config cfg)
      : sw_(sw), cfg_(cfg), rx_(sw, {}), tx_(sw), guard_(cfg.shed) {
    metrics_ = telemetry::MetricRegistry::global().add(
        "aggregation", sw_.name(),
        [this](std::vector<telemetry::MetricSample>& out) {
          using telemetry::MetricKind;
          out.push_back({"rounds_completed", MetricKind::kCounter,
                         static_cast<double>(rounds_completed_)});
          out.push_back({"rounds_flushed_partial", MetricKind::kCounter,
                         static_cast<double>(rounds_flushed_partial_)});
          out.push_back({"rounds_open", MetricKind::kGauge,
                         static_cast<double>(rounds_.size())});
          out.push_back({"crashes", MetricKind::kCounter,
                         static_cast<double>(crashes_)});
          guard_.append_metrics(out);
        });
  }

  std::uint64_t rounds_completed() const { return rounds_completed_; }
  std::uint64_t rounds_flushed_partial() const { return rounds_flushed_partial_; }
  std::int64_t bytes_in() const { return bytes_in_; }
  std::int64_t bytes_out() const { return bytes_out_; }
  std::size_t rounds_open() const { return rounds_.size(); }
  std::uint64_t crashes() const { return crashes_; }
  bool online() const { return online_; }
  const overload::ShedGuard& shed_guard() const { return guard_; }

  /// Crash with state wipe: open rounds (and their straggler timers) are
  /// dropped and gradients stop being intercepted — workers' messages flow
  /// straight to the parameter server until restart(). Contributions folded
  /// into a lost round are gone; the training loop's own round retry covers
  /// them, exactly as it would for a lost aggregate message.
  void crash() {
    ++crashes_;
    online_ = false;
    for (auto& [round, r] : rounds_) sw_.simulator().cancel(r.timeout);
    rounds_.clear();
    rx_.clear();
    tx_.abandon_all();
  }
  void restart() { online_ = true; }

  bool process(net::Packet& pkt, net::Switch&) override {
    if (!online_) return false;  // crashed: gradients pass through unaggregated
    if (!pkt.is_mtp()) return false;
    const auto& hdr = pkt.mtp();
    if (hdr.is_ack()) return false;  // ACKs of our aggregates reach tx_
    if (pkt.dst != cfg_.server || hdr.dst_port != cfg_.service_port) return false;
    if (pkt.src == sw_.id()) return false;  // our own aggregate
    // Retransmission of a shed gradient: re-reject, never silently drop.
    if (rx_.rejected(pkt.src, hdr.msg_id)) {
      rx_.busy_reject(pkt, proto::kOverloadBusy);
      return true;
    }
    if (!rx_.tracking(pkt.src, hdr.msg_id)) {
      // Overload shed at adoption: open rounds + reassembly + pending
      // aggregates are the bounded work queue; past the watermark fresh
      // low-priority contributions are busy-rejected so workers stop
      // retransmitting into an overloaded aggregator.
      const std::uint8_t shed = guard_.decide(
          rounds_.size() + rx_.partials() + tx_.outstanding_messages(), hdr.priority,
          hdr.deadline_ns(), sw_.simulator().now());
      if (shed != 0) {
        rx_.busy_reject(pkt, shed);
        return true;
      }
      // Adoption happens on packet 0, where the AppData key rides; later
      // packets of adopted messages keep flowing into the receiver above.
      if (hdr.pkt_num != 0) return false;
      if (!pkt.app || pkt.app->key.rfind("grad:", 0) != 0) return false;
      if (!rx_.admissible(hdr)) return false;  // oversized gradient: pass through
    }

    auto done = rx_.on_data(pkt);
    if (!done) return true;  // packet consumed; message not complete yet

    std::uint64_t round = 0;
    const std::string& key = done->app->key;
    std::from_chars(key.data() + 5, key.data() + key.size(), round);

    auto [it, fresh] = rounds_.try_emplace(round);
    Round& r = it->second;
    if (fresh) {
      r.gradient_bytes = done->bytes;
      r.tc = done->tc;
      r.src_port = done->src_port;
      r.timeout = sw_.simulator().schedule(kStragglerTimeout, [this, round] {
        flush(round, /*partial=*/true);
      });
    }
    ++r.contributions;
    bytes_in_ += done->bytes;
    if (r.contributions >= cfg_.fan_in) flush(round, /*partial=*/false);
    return true;
  }

 private:
  struct Round {
    std::uint32_t contributions = 0;
    std::int64_t gradient_bytes = 0;
    proto::TrafficClassId tc = 0;
    proto::PortNum src_port = 0;
    sim::EventId timeout;
  };

  void flush(std::uint64_t round, bool partial) {
    auto it = rounds_.find(round);
    if (it == rounds_.end()) return;
    Round r = it->second;
    rounds_.erase(it);
    sw_.simulator().cancel(r.timeout);
    if (partial) {
      ++rounds_flushed_partial_;
    } else {
      ++rounds_completed_;
    }
    core::MessageOptions opts;
    opts.tc = r.tc;
    opts.src_port = r.src_port;
    opts.dst_port = cfg_.service_port;
    opts.app = net::AppData{"grad:" + std::to_string(round),
                            "agg:" + std::to_string(r.contributions)};
    tx_.send_message(cfg_.server, std::max<std::int64_t>(1, r.gradient_bytes),
                     std::move(opts));
    bytes_out_ += r.gradient_bytes;
  }

  net::Switch& sw_;
  Config cfg_;
  DeviceReceiver rx_;
  core::MtpEndpoint tx_;
  overload::ShedGuard guard_;
  telemetry::Registration metrics_;
  std::unordered_map<std::uint64_t, Round> rounds_;
  std::uint64_t rounds_completed_ = 0;
  std::uint64_t rounds_flushed_partial_ = 0;
  std::uint64_t crashes_ = 0;
  std::int64_t bytes_in_ = 0;
  std::int64_t bytes_out_ = 0;
  bool online_ = true;
};

}  // namespace mtp::innetwork
