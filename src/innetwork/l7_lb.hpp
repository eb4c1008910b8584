// Application-level (L7) load balancer (paper Fig 1 (2a)).
//
// Clients address a *virtual service* node id; the balancer, sitting at a
// switch on the path, rewrites each request message's destination to one of
// the backend replicas — whole messages, never packets, so a replica always
// sees complete requests (inter-message independence in action). Reliability
// stays end-to-end: the replica's ACKs flow straight back to the client,
// which works precisely because MTP acknowledges (Msg ID, Pkt Num), not a
// connection.
//
// Placement policy: least-outstanding-bytes with message-size awareness —
// the visibility into message lengths that the paper argues transports must
// provide (§2.2, §5.2).
#pragma once

#include <algorithm>
#include <unordered_map>
#include <vector>

#include <string>

#include "net/switch.hpp"
#include "telemetry/metrics.hpp"

namespace mtp::innetwork {

class L7LoadBalancer final : public net::IngressProcessor {
 public:
  struct Config {
    net::NodeId virtual_service = net::kInvalidNode;
    proto::PortNum service_port = 0;  ///< 0 = any port on the virtual node
    std::vector<net::NodeId> replicas;
    /// Metrics instance name (one balancer per switch is typical, but the
    /// balancer itself holds no switch reference, so the name is config).
    std::string name = "l7_lb";
  };

  explicit L7LoadBalancer(Config cfg)
      : cfg_(cfg), outstanding_(cfg.replicas.size(), 0), up_(cfg.replicas.size(), true) {
    metrics_ = telemetry::MetricRegistry::global().add(
        "l7_lb", cfg_.name, [this](std::vector<telemetry::MetricSample>& out) {
          using telemetry::MetricKind;
          out.push_back({"requests_assigned", MetricKind::kCounter,
                         static_cast<double>(assigned_)});
          out.push_back({"crashes", MetricKind::kCounter,
                         static_cast<double>(crashes_)});
        });
  }

  bool process(net::Packet& pkt, net::Switch&) override {
    if (!online_) return false;  // crashed: requests reach the virtual node raw
    if (!pkt.is_mtp()) return false;
    const auto& hdr = pkt.mtp();
    if (hdr.is_ack() || pkt.dst != cfg_.virtual_service) return false;
    if (cfg_.service_port != 0 && hdr.dst_port != cfg_.service_port) return false;
    if (cfg_.replicas.empty()) return false;

    const Key key{pkt.src, hdr.msg_id};
    std::size_t idx;
    auto it = pinned_.find(key);
    if (it != pinned_.end()) {
      idx = it->second;
    } else {
      idx = pick();
      outstanding_[idx] += static_cast<std::int64_t>(hdr.msg_len_bytes);
      if (hdr.msg_len_pkts > 1) pinned_.emplace(key, idx);
      ++assigned_;
    }
    if (hdr.is_last_pkt()) {
      // Whole request has passed: release the pin and the load estimate.
      outstanding_[idx] = std::max<std::int64_t>(
          0, outstanding_[idx] - static_cast<std::int64_t>(hdr.msg_len_bytes));
      pinned_.erase(key);
    }
    pkt.dst = cfg_.replicas[idx];  // rewrite and let normal forwarding run
    return false;
  }

  std::uint64_t requests_assigned() const { return assigned_; }
  std::int64_t outstanding_bytes(std::size_t replica) const {
    return outstanding_[replica];
  }

  /// Backend health ejection: a replica marked down stops receiving new
  /// requests (existing multi-packet pins finish so partially-delivered
  /// requests are not torn between replicas). Marking it back up restores it
  /// to the pick() rotation; its load estimate survived the ejection.
  void set_replica_up(std::size_t replica, bool up) { up_[replica] = up; }
  bool replica_up(std::size_t replica) const { return up_[replica]; }

  /// Crash with state wipe: forget pins and load estimates, stop rewriting.
  /// In-flight multi-packet requests lose their pin — their remaining
  /// packets reach the virtual service node and die; end-to-end recovery
  /// (the client's retry) re-places the whole message.
  void crash() {
    ++crashes_;
    online_ = false;
    pinned_.clear();
    std::fill(outstanding_.begin(), outstanding_.end(), 0);
  }
  void restart() { online_ = true; }
  bool online() const { return online_; }
  std::uint64_t crashes() const { return crashes_; }

 private:
  struct Key {
    net::NodeId src;
    proto::MsgId msg;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      return std::hash<std::uint64_t>()((static_cast<std::uint64_t>(k.src) << 32) ^ k.msg);
    }
  };

  // Least outstanding bytes among healthy replicas; ties break round-robin
  // so uniform single-packet workloads still spread. If every replica is
  // ejected, fall back to the overall best — delivering somewhere beats
  // blackholing at the virtual node.
  std::size_t pick() {
    const std::size_t n = outstanding_.size();
    std::size_t best = n;  // sentinel: no healthy replica seen yet
    std::size_t best_any = rr_ % n;
    for (std::size_t off = 0; off < n; ++off) {
      const std::size_t i = (rr_ + off) % n;
      if (outstanding_[i] < outstanding_[best_any]) best_any = i;
      if (!up_[i]) continue;
      if (best == n || outstanding_[i] < outstanding_[best]) best = i;
    }
    if (best == n) best = best_any;
    rr_ = best + 1;
    return best;
  }

  Config cfg_;
  std::vector<std::int64_t> outstanding_;
  std::vector<bool> up_;
  telemetry::Registration metrics_;
  std::unordered_map<Key, std::size_t, KeyHash> pinned_;
  std::uint64_t assigned_ = 0;
  std::uint64_t crashes_ = 0;
  std::size_t rr_ = 0;
  bool online_ = true;
};

}  // namespace mtp::innetwork
