// Minimal UDP: unreliable datagrams, no congestion control. Baseline for
// Table 1 and substrate for datagram-style experiments.
#pragma once

#include <functional>

#include "net/host.hpp"

namespace mtp::transport {

class UdpSocket {
 public:
  using ReceiveFn = std::function<void(net::Packet&&)>;

  /// Binds `port` on `host`. The handler sees every datagram addressed to it.
  UdpSocket(net::Host& host, proto::PortNum port, ReceiveFn on_receive = {})
      : host_(host), port_(port) {
    host_.set_udp_handler(port_, [this](net::Packet&& pkt) {
      ++received_;
      received_bytes_ += pkt.payload_bytes;
      if (on_receive_) on_receive_(std::move(pkt));
    });
    on_receive_ = std::move(on_receive);
  }

  void set_receive(ReceiveFn fn) { on_receive_ = std::move(fn); }

  /// Fire-and-forget datagram. Must fit one packet; large payloads are the
  /// application's problem (exactly UDP's deal).
  void send_to(net::NodeId dst, proto::PortNum dst_port, std::uint32_t bytes,
               std::uint8_t tc = 0) {
    net::Packet pkt;
    pkt.src = host_.id();
    pkt.dst = dst;
    pkt.payload_bytes = bytes;
    pkt.header_bytes = 28;  // UDP + IP
    pkt.tc = tc;
    pkt.flow_hash = (static_cast<std::uint64_t>(host_.id()) << 32) ^
                    (static_cast<std::uint64_t>(dst) << 16) ^ dst_port;
    pkt.header = proto::UdpHeader{port_, dst_port, bytes};
    host_.send(std::move(pkt));
  }

  std::uint64_t datagrams_received() const { return received_; }
  std::int64_t bytes_received() const { return received_bytes_; }
  proto::PortNum port() const { return port_; }

 private:
  net::Host& host_;
  proto::PortNum port_;
  ReceiveFn on_receive_;
  std::uint64_t received_ = 0;
  std::int64_t received_bytes_ = 0;
};

}  // namespace mtp::transport
