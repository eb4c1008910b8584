// Data-mutation offload (paper §2.2 "Data Mutation", §3.1.2).
//
// A middlebox that transforms message payloads in-flight — compression,
// serialization, preprocessing — changing the message's size and packet
// count. TCP cannot support this (sequence numbers break); MTP can because
// messages are processed atomically: the offload terminates the original
// message (ACKing its packets so the sender completes) and sends the
// transformed message toward the destination from the switch's own MTP
// endpoint, under the same reliability the hosts use.
//
// Buffering is bounded per the paper's requirement: the first packet's
// Msg Len header field lets the device refuse (pass through) any message
// larger than its budget before buffering a single byte.
#pragma once

#include <functional>

#include "innetwork/device_endpoint.hpp"
#include "net/switch.hpp"

namespace mtp::innetwork {

class MutationOffload final : public net::IngressProcessor {
 public:
  /// Transform: given the original message, return the mutated payload size
  /// (and optionally rewrite the AppData). Default: 2x compression.
  using TransformFn = std::function<std::int64_t(const DeviceMessage&)>;

  struct Config {
    /// Only messages addressed to this port are transformed; 0 = all.
    proto::PortNum match_port = 0;
    DeviceReceiver::Config receiver;
  };

  MutationOffload(net::Switch& sw, Config cfg, TransformFn transform = {})
      : sw_(sw),
        cfg_(cfg),
        rx_(sw, cfg.receiver),
        tx_(sw),
        transform_(transform ? std::move(transform) : [](const DeviceMessage& m) {
          return std::max<std::int64_t>(1, m.bytes / 2);
        }) {}

  std::uint64_t messages_mutated() const { return mutated_; }
  std::int64_t bytes_in() const { return bytes_in_; }
  std::int64_t bytes_out() const { return bytes_out_; }

  bool process(net::Packet& pkt, net::Switch&) override {
    if (!pkt.is_mtp()) return false;
    const auto& hdr = pkt.mtp();
    if (hdr.is_ack()) return false;  // ACKs of our messages reach tx_
    if (cfg_.match_port != 0 && hdr.dst_port != cfg_.match_port) return false;
    if (pkt.src == sw_.id()) return false;        // our own injections
    if (!rx_.admissible(hdr)) return false;       // over budget: hands off

    auto done = rx_.on_data(pkt);
    if (done) {
      const std::int64_t new_bytes = transform_(*done);
      ++mutated_;
      bytes_in_ += done->bytes;
      bytes_out_ += new_bytes;
      core::MessageOptions opts;
      opts.tc = done->tc;
      opts.priority = done->priority;
      opts.src_port = done->src_port;
      opts.dst_port = done->dst_port;
      // Provenance rides in AppData: receivers see the original sender.
      net::AppData app = done->app.value_or(net::AppData{});
      if (app.key.empty()) app.key = "from:" + std::to_string(done->src);
      opts.app = std::move(app);
      tx_.send_message(done->dst, new_bytes, std::move(opts));
    }
    return true;  // consumed (either buffered or completed)
  }

 private:
  net::Switch& sw_;
  Config cfg_;
  DeviceReceiver rx_;
  core::MtpEndpoint tx_;
  TransformFn transform_;
  std::uint64_t mutated_ = 0;
  std::int64_t bytes_in_ = 0;
  std::int64_t bytes_out_ = 0;
};

}  // namespace mtp::innetwork
