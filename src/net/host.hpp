// End-host: demultiplexes received packets to the transport stacks bound to
// it (one TCP stack, one MTP endpoint, per-port UDP handlers).
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>

#include "net/drop.hpp"
#include "net/link.hpp"
#include "net/node.hpp"

namespace mtp::net {

class Host final : public Node {
 public:
  Host(sim::Simulator& simulator, NodeId id, std::string name)
      : Node(simulator, id, std::move(name)) {
    metrics_ = telemetry::MetricRegistry::global().add(
        "host", this->name(), [this](std::vector<telemetry::MetricSample>& out) {
          out.push_back({"unhandled_packets", telemetry::MetricKind::kCounter,
                         static_cast<double>(unhandled_)});
          out.push_back({"misdelivered_packets", telemetry::MetricKind::kCounter,
                         static_cast<double>(misdelivered_)});
        });
  }

  /// Transmit toward pkt.dst: the route table picks the uplink; unknown
  /// destinations use the first attached link (single-homed hosts never need
  /// routes; a dual-homed middlebox host adds one per peer).
  void send(Packet&& pkt) override {
    assert(num_out_ports() > 0 && "host has no uplink");
    PortIndex port = 0;
    auto it = routes_.find(pkt.dst);
    if (it != routes_.end()) port = it->second;
    out_port(port)->send(std::move(pkt));
  }

  void add_route(NodeId dst, PortIndex port) { routes_[dst] = port; }

  void set_tcp_handler(Handler h) { tcp_ = std::move(h); }
  void set_udp_handler(proto::PortNum port, Handler h) { udp_[port] = std::move(h); }

  void receive(Packet&& pkt, PortIndex /*in_port*/) override {
    if (pkt.dst != id()) {
      drop(misdelivered_, DropReason::kMisdelivered, simulator().now(), name(), pkt);
      return;
    }
    if (pkt.is_tcp()) {
      if (tcp_) return tcp_(std::move(pkt));
    } else if (pkt.is_mtp()) {
      if (mtp_) return mtp_(std::move(pkt));
    } else if (pkt.is_udp()) {
      auto it = udp_.find(pkt.udp().dst_port);
      if (it != udp_.end()) return it->second(std::move(pkt));
    }
    drop(unhandled_, DropReason::kUnhandled, simulator().now(), name(), pkt);
  }

  /// Discards: misdelivered (addressed elsewhere) and unhandled (nothing
  /// bound to take the packet).
  std::uint64_t unhandled_packets() const { return unhandled_; }
  std::uint64_t misdelivered_packets() const { return misdelivered_; }

 private:
  Handler tcp_;
  std::unordered_map<proto::PortNum, Handler> udp_;
  std::unordered_map<NodeId, PortIndex> routes_;
  std::uint64_t unhandled_ = 0;
  std::uint64_t misdelivered_ = 0;
  telemetry::Registration metrics_;
};

}  // namespace mtp::net
