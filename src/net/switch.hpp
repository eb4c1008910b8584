// Output-queued switch with pluggable forwarding and ingress processing.
//
// Forwarding: a routing table maps destination -> candidate egress ports; a
// ForwardingPolicy picks among candidates. The stock policies implement the
// paper's load-balancing comparisons (Fig 5/6): static, ECMP hashing,
// per-packet spraying, time-based path alternation, and per-message pinning.
//
// Ingress processing: an optional chain of IngressProcessors sees every
// packet before forwarding; in-network compute devices (KVS cache, fair-
// share policer, mutation offload, L7 load balancer) hook in here.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "net/drop.hpp"
#include "net/link.hpp"
#include "net/node.hpp"

namespace mtp::net {

class Switch;

/// Chooses an egress port among routing candidates.
class ForwardingPolicy {
 public:
  virtual ~ForwardingPolicy() = default;
  virtual PortIndex select(const Packet& pkt, std::span<const PortIndex> candidates,
                           Switch& sw) = 0;
  virtual std::string name() const = 0;
};

/// Sees every packet at switch ingress before routing. Returning true means
/// the packet was consumed (answered, redirected or dropped by the device).
class IngressProcessor {
 public:
  virtual ~IngressProcessor() = default;
  virtual bool process(Packet& pkt, Switch& sw) = 0;
};

class Switch : public Node {
 public:
  Switch(sim::Simulator& simulator, NodeId id, std::string name)
      : Node(simulator, id, std::move(name)) {
    metrics_ = telemetry::MetricRegistry::global().add(
        "switch", this->name(), [this](std::vector<telemetry::MetricSample>& out) {
          out.push_back({"no_route_drops", telemetry::MetricKind::kCounter,
                         static_cast<double>(no_route_drops_)});
        });
  }

  /// Replace the whole table, sized once: `routes` as (destination, port)
  /// pairs in any order, each destination's candidates in the order given,
  /// and `default_ports` for every other destination. Network::build_routes
  /// installs every table this way.
  void set_routes(std::span<const std::pair<NodeId, PortIndex>> routes,
                  std::vector<PortIndex> default_ports) {
    routes_.clear();
    multi_routes_.clear();
    default_route_ = std::move(default_ports);
    if (routes.empty()) return;
    const auto [lo, hi] = std::minmax_element(
        routes.begin(), routes.end(),
        [](const auto& x, const auto& y) { return x.first < y.first; });
    base_ = lo->first;
    routes_.assign(hi->first - base_ + 1, kNoRoute);
    for (const auto& [dst, port] : routes) {
      assert(port < kMultiTag && "port index collides with the route-table tags");
      std::uint32_t& entry = routes_[dst - base_];
      if (entry == kNoRoute) {
        entry = port;  // the common case: one port, stored inline
      } else if (entry & kMultiTag) {
        multi_routes_[entry & ~kMultiTag].push_back(port);
      } else {
        multi_routes_.push_back({entry, port});
        entry = kMultiTag | static_cast<std::uint32_t>(multi_routes_.size() - 1);
      }
    }
  }

  /// The candidates forward() would consider for `dst` (explicit route if
  /// present, else the default set; empty = drop). Never the switch's own id:
  /// a packet for it that nothing consumed must not bounce off the fabric.
  std::span<const PortIndex> route_candidates(NodeId dst) const {
    if (dst == id()) return {};
    // Below base_ the unsigned difference wraps past the end: one compare.
    const std::size_t i = static_cast<std::size_t>(dst) - base_;
    if (i < routes_.size()) {
      const std::uint32_t& entry = routes_[i];
      if (!(entry & kMultiTag)) return {&entry, 1};
      if (entry != kNoRoute) return multi_routes_[entry & ~kMultiTag];
    }
    return default_route_;
  }

  void set_policy(std::unique_ptr<ForwardingPolicy> p) { policy_ = std::move(p); }
  ForwardingPolicy* policy() const { return policy_.get(); }

  void add_ingress(std::shared_ptr<IngressProcessor> p) { ingress_.push_back(std::move(p)); }

  /// Forward a packet the switch itself originates (device ACKs, replies and
  /// messages). Skips ingress processing to avoid loops.
  void send(Packet&& pkt) override { forward(std::move(pkt)); }

  /// Ingress processors see the packet first. An MTP packet addressed to the
  /// switch that they all decline goes to the switch's MTP endpoint (the ACKs
  /// of its devices' messages); everything else is forwarded.
  void receive(Packet&& pkt, PortIndex /*in_port*/) override {
    for (auto& proc : ingress_) {
      if (proc->process(pkt, *this)) return;
    }
    if (pkt.dst == id() && mtp_ && pkt.is_mtp()) {
      mtp_(std::move(pkt));
      return;
    }
    forward(std::move(pkt));
  }

  std::uint64_t no_route_drops() const { return no_route_drops_; }

 private:
  void forward(Packet&& pkt) {
    const std::span<const PortIndex> candidates = route_candidates(pkt.dst);
    if (candidates.empty()) {
      drop(no_route_drops_, DropReason::kNoRoute, simulator().now(), name(), pkt);
      return;
    }
    PortIndex port = candidates.front();
    if (candidates.size() > 1 && policy_) {
      port = policy_->select(pkt, candidates, *this);
    }
    out_port(port)->send(std::move(pkt));
  }

  // Flat route table: routes_[dst - base_] is one 32-bit entry — a single
  // port stored inline (the fat-tree case: every explicit route there has
  // one port), kNoRoute, or kMultiTag | index into multi_routes_. The table
  // spans [lowest, highest] routed id; docs/scale.md sizes it per fabric tier.
  // Entries are PortIndex-sized so an inline port is returned as a
  // one-element span over the entry itself.
  static_assert(sizeof(PortIndex) == sizeof(std::uint32_t));
  static constexpr std::uint32_t kMultiTag = 0x80000000u;
  static constexpr std::uint32_t kNoRoute = 0xffffffffu;
  NodeId base_ = 0;
  std::vector<std::uint32_t> routes_;
  std::vector<std::vector<PortIndex>> multi_routes_;
  std::vector<PortIndex> default_route_;
  std::unique_ptr<ForwardingPolicy> policy_;
  std::vector<std::shared_ptr<IngressProcessor>> ingress_;
  std::uint64_t no_route_drops_ = 0;
  telemetry::Registration metrics_;
};

}  // namespace mtp::net
