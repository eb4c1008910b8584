// Node base class: anything with an address that can send and receive
// packets. Hosts and switches alike may run an MTP endpoint (devices send
// and acknowledge messages from their switch), so the MTP handler lives here.
#pragma once

#include <cassert>
#include <functional>
#include <string>
#include <vector>

#include "net/packet.hpp"
#include "sim/simulator.hpp"

namespace mtp::net {

class Link;

class Node {
 public:
  Node(sim::Simulator& simulator, NodeId id, std::string name)
      : sim_(simulator), id_(id), name_(std::move(name)) {}
  virtual ~Node() = default;
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  using Handler = std::function<void(Packet&&)>;

  /// Deliver a packet that arrived on `in_port`.
  virtual void receive(Packet&& pkt, PortIndex in_port) = 0;
  /// Transmit a packet this node originates toward pkt.dst.
  virtual void send(Packet&& pkt) = 0;

  /// Where MTP packets addressed to this node go: its MTP endpoint.
  void set_mtp_handler(Handler h) { mtp_ = std::move(h); }

  NodeId id() const { return id_; }
  const std::string& name() const { return name_; }
  sim::Simulator& simulator() { return sim_; }

  /// Attach an outgoing link; returns its port index. Called by Network.
  PortIndex add_out_port(Link* link) {
    out_ports_.push_back(link);
    return static_cast<PortIndex>(out_ports_.size() - 1);
  }
  Link* out_port(PortIndex i) const {
    assert(i < out_ports_.size());
    return out_ports_[i];
  }
  std::size_t num_out_ports() const { return out_ports_.size(); }

 protected:
  sim::Simulator& sim_;
  Handler mtp_;

 private:
  NodeId id_;
  std::string name_;
  std::vector<Link*> out_ports_;
};

}  // namespace mtp::net
