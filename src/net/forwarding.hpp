// Stock forwarding policies (paper Figs 5 and 6 compare these).
#pragma once

#include <unordered_map>

#include "net/switch.hpp"
#include "sim/time.hpp"

namespace mtp::net {

/// Flow-hash ECMP: every packet of a flow takes the same path, so elephants
/// can collide on one path while the other idles (Fig 6's ECMP downside).
class EcmpPolicy final : public ForwardingPolicy {
 public:
  PortIndex select(const Packet& pkt, std::span<const PortIndex> c, Switch&) override {
    // Mix the hash so correlated low bits don't bias the modulo.
    std::uint64_t h = pkt.flow_hash;
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    return c[h % c.size()];
  }
  std::string name() const override { return "ecmp"; }
};

/// Per-packet round-robin spraying: perfect byte balance, maximal reordering
/// (Fig 6's spraying downside).
class SprayPolicy final : public ForwardingPolicy {
 public:
  PortIndex select(const Packet&, std::span<const PortIndex> c, Switch&) override {
    return c[counter_++ % c.size()];
  }
  std::string name() const override { return "spray"; }

 private:
  std::uint64_t counter_ = 0;
};

/// Time-driven path alternation: models the Fig 5 optical/rotor switch that
/// flips all traffic between two paths every `period` (384 us in the paper).
class AlternatingPathPolicy final : public ForwardingPolicy {
 public:
  explicit AlternatingPathPolicy(sim::SimTime period) : period_(period) {}

  PortIndex select(const Packet& pkt, std::span<const PortIndex> c, Switch& sw) override {
    const auto slot =
        static_cast<std::size_t>(sw.simulator().now().ns() / period_.ns());
    (void)pkt;
    return c[slot % c.size()];
  }
  std::string name() const override { return "alternating"; }

 private:
  sim::SimTime period_;
};

/// Message-aware load balancing (the MTP-enabled LB of Fig 6): each MTP
/// message is pinned to one path — chosen, on its first packet, as the path
/// with the least estimated drain time (backlog/rate + propagation). Packets
/// of a message never split across paths (paper §3.1.2: messages are atomic),
/// so there is no reordering within a message; balance comes from placing
/// whole messages by size and current load. Paths whose pathlet appears in
/// the packet's Path Exclude list are avoided (paper §3.1.3: end-hosts tell
/// the network which pathlets not to use). Non-MTP packets fall back to
/// least-loaded per packet.
class MessageAwarePolicy final : public ForwardingPolicy {
 public:
  PortIndex select(const Packet& pkt, std::span<const PortIndex> c, Switch& sw) override {
    if (pkt.is_mtp()) {
      const auto& hdr = pkt.mtp();
      const Key key{pkt.src, hdr.msg_id};
      auto it = pinned_.find(key);
      if (it != pinned_.end()) {
        const PortIndex port = it->second;
        if (sw.out_port(port)->is_up()) {
          if (hdr.is_last_pkt() || hdr.is_ack()) pinned_.erase(it);
          return port;
        }
        pinned_.erase(it);  // pinned path failed: re-place the message
      }
      const PortIndex port = least_loaded(c, sw, &hdr);
      if (!hdr.is_ack() && hdr.msg_len_pkts > 1 && !hdr.is_last_pkt()) {
        // Bounded pin state: a message whose last packet never crosses this
        // switch (sender died, rerouted) would leak its pin. Past the cap,
        // drop the table — in-flight messages simply re-pin on their next
        // packet, possibly to a new least-loaded port (a rare, safe reorder).
        if (pinned_.size() >= kMaxPins) pinned_.clear();
        pinned_.emplace(key, port);
      }
      return port;
    }
    return least_loaded(c, sw, nullptr);
  }
  std::string name() const override { return "msg-aware"; }

  std::size_t pinned_messages() const { return pinned_.size(); }
  static constexpr std::size_t kMaxPins = 1 << 16;

 private:
  struct Key {
    NodeId src;
    proto::MsgId msg;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      return std::hash<std::uint64_t>()((static_cast<std::uint64_t>(k.src) << 32) ^ k.msg);
    }
  };

  static bool excluded(Switch& sw, PortIndex port, const proto::MtpHeader* hdr) {
    if (hdr == nullptr || hdr->path_exclude().empty()) return false;
    const PathletState* pl = sw.out_port(port)->pathlet();
    if (pl == nullptr) return false;
    for (const auto& e : hdr->path_exclude()) {
      if (e.pathlet == pl->config().id) return true;
    }
    return false;
  }

  static PortIndex least_loaded(std::span<const PortIndex> c, Switch& sw,
                                const proto::MtpHeader* hdr) {
    // Prefer live, non-excluded candidates; fall back to all of them only
    // when the sender excluded (or failures downed) every path.
    PortIndex best = c.front();
    double best_cost = 1e300;
    bool found = false;
    for (const PortIndex port : c) {
      if (!sw.out_port(port)->is_up()) continue;
      if (excluded(sw, port, hdr)) continue;
      const double cc = cost(sw, port);
      if (cc < best_cost) {
        best_cost = cc;
        best = port;
        found = true;
      }
    }
    if (found) return best;
    for (const PortIndex port : c) {
      const double cc = cost(sw, port);
      if (cc < best_cost) {
        best_cost = cc;
        best = port;
      }
    }
    return best;
  }

  /// Estimated time for a new byte to reach the other end of this port.
  static double cost(Switch& sw, PortIndex port) {
    const Link* l = sw.out_port(port);
    const double drain_s = static_cast<double>(l->backlog_bytes()) * 8.0 /
                           static_cast<double>(l->bandwidth().bits_per_sec());
    return drain_s + l->propagation_delay().sec();
  }

  std::unordered_map<Key, PortIndex, KeyHash> pinned_;
};

}  // namespace mtp::net
