// Canned multipath topologies.
//
// LeafSpine builds the standard two-tier Clos fabric the paper's
// load-balancing discussion assumes: every leaf connects to every spine, so
// any inter-rack pair has `spines` equal-cost paths. Up-ports use the
// fabric-wide forwarding policy (ECMP, spraying, message-aware);
// down-routing is deterministic (Network::build_routes; every host and leaf
// is reachable from every host). Racks may be asymmetric: `hosts_at_leaf`
// overrides the per-leaf host count (real pods are rarely uniform, and the
// port arithmetic has to survive that).
#pragma once

#include <functional>
#include <memory>
#include <stdexcept>
#include <vector>

#include "net/forwarding.hpp"
#include "net/network.hpp"

namespace mtp::net {

/// Link rates and switch queue of the canned fabrics (LeafSpine, FatTree).
inline constexpr sim::Bandwidth kHostLinkBw = sim::Bandwidth::gbps(100);
inline constexpr sim::Bandwidth kFabricLinkBw = sim::Bandwidth::gbps(100);
inline constexpr DropTailQueue::Config kFabricQueue{.capacity_pkts = 256,
                                                    .ecn_threshold_pkts = 40};

class LeafSpine {
 public:
  struct Config {
    int leaves = 2;
    int spines = 2;
    int hosts_per_leaf = 2;
    /// When non-empty (size must equal `leaves`), leaf l hosts
    /// hosts_at_leaf[l] machines and `hosts_per_leaf` is ignored.
    std::vector<int> hosts_at_leaf;
    sim::SimTime link_delay = sim::SimTime::microseconds(1);
  };

  /// Factory for the policy each leaf uses to pick a spine (called once per
  /// leaf so stateful policies don't share state across switches).
  using PolicyFactory = std::function<std::unique_ptr<ForwardingPolicy>()>;

  LeafSpine(Network& net, Config cfg, const PolicyFactory& up_policy = {}) : cfg_(cfg) {
    if (cfg.leaves < 1 || cfg.spines < 1 ||
        (!cfg.hosts_at_leaf.empty() && std::ssize(cfg.hosts_at_leaf) != cfg.leaves)) {
      throw std::invalid_argument("LeafSpine: needs leaves, spines >= 1, hosts_at_leaf per leaf");
    }
    // Create switches and hosts. Port layout on a leaf: [0, n_l) host-facing
    // (down), [n_l, n_l + spines) spine-facing (up), where n_l is that
    // leaf's own host count.
    //
    // Sharding (net.shards() > 1): a rack is the natural unit of space
    // partitioning — a leaf and its hosts only talk to each other over
    // leaf-local links, so leaves spread contiguously over the shards and
    // spines round-robin. Node creation ORDER is identical for every shard
    // count (NodeIds feed forwarding hashes); only placement changes.
    const unsigned S = net.shards();
    const auto leaf_shard = [&cfg, S](int l) {
      return static_cast<unsigned>(static_cast<long long>(l) * S / cfg.leaves);
    };
    for (int s = 0; s < cfg.spines; ++s) {
      net.set_build_shard(static_cast<unsigned>(s) % S);
      spines_.push_back(net.add_switch("spine" + std::to_string(s)));
    }
    for (int l = 0; l < cfg.leaves; ++l) {
      net.set_build_shard(leaf_shard(l));
      Switch* leaf = net.add_switch("leaf" + std::to_string(l));
      leaves_.push_back(leaf);
      leaf_host_base_.push_back(static_cast<int>(hosts_.size()));
      const int n = hosts_at(l);
      for (int h = 0; h < n; ++h) {
        Host* host = net.add_host("h" + std::to_string(l) + "." + std::to_string(h));
        hosts_.push_back(host);
        host_leaf_.push_back(l);
        net.connect(*host, *leaf, kHostLinkBw, cfg.link_delay, kFabricQueue);
      }
      if (up_policy) leaf->set_policy(up_policy());
    }
    net.set_build_shard(0);
    // Leaf <-> spine mesh. On a spine: port l faces leaf l.
    for (int l = 0; l < cfg.leaves; ++l) {
      for (int s = 0; s < cfg.spines; ++s) {
        net.connect(*leaves_[l], *spines_[s], kFabricLinkBw, cfg.link_delay, kFabricQueue);
      }
    }
    net.build_routes();
  }

  Host* host(int leaf, int idx) const { return hosts_[leaf_host_base_[leaf] + idx]; }
  Switch* leaf(int i) const { return leaves_[i]; }
  Switch* spine(int i) const { return spines_[i]; }
  const std::vector<Host*>& hosts() const { return hosts_; }
  int leaf_of(int host_idx) const { return host_leaf_[host_idx]; }
  /// Hosts attached to leaf l (respects the asymmetric override).
  int hosts_at(int l) const {
    return cfg_.hosts_at_leaf.empty() ? cfg_.hosts_per_leaf : cfg_.hosts_at_leaf[l];
  }

  /// The uplink from `leaf` to `spine` (for probing/failing fabric paths).
  Link* uplink(int leaf, int spine) const {
    return leaves_[leaf]->out_port(static_cast<PortIndex>(hosts_at(leaf) + spine));
  }

 private:
  Config cfg_;
  std::vector<Switch*> leaves_;
  std::vector<Switch*> spines_;
  std::vector<Host*> hosts_;
  std::vector<int> host_leaf_;
  std::vector<int> leaf_host_base_;  ///< first host index of each leaf
};

}  // namespace mtp::net
