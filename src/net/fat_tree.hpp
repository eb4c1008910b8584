// Three-tier fat-tree fabric (Al-Fares et al., parameterized by k).
//
// k pods, each with k/2 edge and k/2 aggregation switches; (k/2)^2 core
// switches; k^3/4 hosts (k=8 -> 128 hosts, k=16 -> 1024). Every switch has k
// ports. Aggregation switch j of every pod connects to cores
// [j*k/2, (j+1)*k/2), which gives core c exactly one port per pod.
//
// Routing is valley-free by construction: edge and aggregation switches
// carry explicit *down* routes only for the hosts below them plus a default
// route over their up-ports (Switch::set_default_route), so table size per
// switch is O(hosts in subtree), not O(hosts in datacenter). Cores hold one
// down route per host. Explicit routes shadow the default set, so a packet
// turns downward at the first switch that knows its destination and can
// never loop. Multipath fan-out happens on the up-ports; the per-switch
// PolicyFactory picks among them (ECMP, spray, message-aware, ...) exactly
// as on LeafSpine.
//
// Hop counts (links traversed host to host): same edge 2, same pod 4,
// different pods 6 — the property tests in tests/scale_test.cpp walk every
// candidate path and assert this.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/forwarding.hpp"
#include "net/network.hpp"
#include "net/topologies.hpp"

namespace mtp::net {

class FatTree {
 public:
  struct Config {
    int k = 4;  ///< pod count; must be even and >= 2
    sim::SimTime link_delay = sim::SimTime::microseconds(1);
  };

  /// Called once per edge/aggregation switch (cores are single-path and get
  /// no policy), so stateful policies don't share state across switches.
  using PolicyFactory = std::function<std::unique_ptr<ForwardingPolicy>()>;

  FatTree(Network& net, Config cfg, const PolicyFactory& up_policy = {}) : cfg_(cfg) {
    const int k = cfg.k;
    const int half = k / 2;

    // Space partitioning for sim::sharded: a pod is the natural cut (all its
    // edge/agg/host traffic is internal), so pod p and everything below it
    // land on shard p*S/k — contiguous pod ranges per shard. Core switches
    // talk to every pod equally and are spread round-robin. With S == 1 every
    // call is set_build_shard(0) and this is the classic serial build. Node
    // *creation order* is identical for every S: NodeIds — and with them flow
    // hashes and routing tables — never depend on the partitioning.
    const unsigned S = net.shards();
    const auto pod_shard = [k, S](int p) {
      return static_cast<unsigned>(static_cast<long long>(p) * S / k);
    };

    for (int c = 0; c < half * half; ++c) {
      net.set_build_shard(static_cast<unsigned>(c) % S);
      cores_.push_back(net.add_switch("core" + std::to_string(c)));
    }
    edges_.resize(k);
    aggs_.resize(k);
    for (int p = 0; p < k; ++p) {
      net.set_build_shard(pod_shard(p));
      for (int e = 0; e < half; ++e) {
        edges_[p].push_back(
            net.add_switch("p" + std::to_string(p) + ".e" + std::to_string(e)));
      }
      for (int a = 0; a < half; ++a) {
        aggs_[p].push_back(
            net.add_switch("p" + std::to_string(p) + ".a" + std::to_string(a)));
      }
    }

    // Hosts first so every edge switch has ports [0, half) host-facing.
    for (int p = 0; p < k; ++p) {
      net.set_build_shard(pod_shard(p));
      for (int e = 0; e < half; ++e) {
        for (int h = 0; h < half; ++h) {
          Host* host = net.add_host("h" + std::to_string(p) + "." +
                                    std::to_string(e) + "." + std::to_string(h));
          hosts_.push_back(host);
          host_pod_.push_back(p);
          host_edge_.push_back(e);
          net.connect(*host, *edges_[p][e], kHostLinkBw, cfg.link_delay, kFabricQueue);
          edges_[p][e]->add_route(host->id(), static_cast<PortIndex>(h));
        }
      }
    }

    // Edge <-> aggregation mesh within each pod: edge port half+a faces
    // aggregation a; aggregation ports [0, half) face edges in order.
    for (int p = 0; p < k; ++p) {
      for (int e = 0; e < half; ++e) {
        for (int a = 0; a < half; ++a) {
          net.connect(*edges_[p][e], *aggs_[p][a], kFabricLinkBw, cfg.link_delay,
                      kFabricQueue);
        }
      }
    }

    // Aggregation <-> core: aggregation a's up-port half+i faces core
    // a*half + i. Pods iterate outermost, so core c's port p faces pod p.
    for (int p = 0; p < k; ++p) {
      for (int a = 0; a < half; ++a) {
        for (int i = 0; i < half; ++i) {
          net.connect(*aggs_[p][a], *cores_[a * half + i], kFabricLinkBw,
                      cfg.link_delay, kFabricQueue);
        }
      }
    }

    // Up-routing: one default set per switch instead of per-host entries.
    std::vector<PortIndex> up_ports;
    for (int i = 0; i < half; ++i) up_ports.push_back(static_cast<PortIndex>(half + i));
    for (int p = 0; p < k; ++p) {
      for (int e = 0; e < half; ++e) {
        edges_[p][e]->set_default_route(up_ports);
        if (up_policy) edges_[p][e]->set_policy(up_policy());
      }
      for (int a = 0; a < half; ++a) {
        aggs_[p][a]->set_default_route(up_ports);
        if (up_policy) aggs_[p][a]->set_policy(up_policy());
      }
    }

    // Down-routing: aggregation switches know their pod's hosts; cores know
    // every host's pod.
    for (std::size_t hi = 0; hi < hosts_.size(); ++hi) {
      const NodeId id = hosts_[hi]->id();
      const int p = host_pod_[hi];
      for (int a = 0; a < half; ++a) {
        aggs_[p][a]->add_route(id, static_cast<PortIndex>(host_edge_[hi]));
      }
      for (Switch* core : cores_) {
        core->add_route(id, static_cast<PortIndex>(p));
      }
    }

    net.set_build_shard(0);  // leave the network in its default build state
  }

  int k() const { return cfg_.k; }
  int num_hosts() const { return static_cast<int>(hosts_.size()); }
  const std::vector<Host*>& hosts() const { return hosts_; }
  Host* host(int i) const { return hosts_[i]; }
  /// Host `h` of edge switch `e` in pod `p`.
  Host* host(int p, int e, int h) const {
    const int half = cfg_.k / 2;
    return hosts_[(p * half + e) * half + h];
  }
  Switch* edge(int pod, int i) const { return edges_[pod][i]; }
  Switch* agg(int pod, int i) const { return aggs_[pod][i]; }
  Switch* core(int i) const { return cores_[i]; }
  int num_cores() const { return static_cast<int>(cores_.size()); }
  int pod_of(int host_idx) const { return host_pod_[host_idx]; }

  /// The uplink from edge `e` in `pod` toward aggregation `a` (for failing
  /// fabric paths in fault experiments).
  Link* edge_uplink(int pod, int e, int a) const {
    return edges_[pod][e]->out_port(static_cast<PortIndex>(cfg_.k / 2 + a));
  }
  /// The uplink from aggregation `a` in `pod` toward its `i`-th core.
  Link* agg_uplink(int pod, int a, int i) const {
    return aggs_[pod][a]->out_port(static_cast<PortIndex>(cfg_.k / 2 + i));
  }

 private:
  Config cfg_;
  std::vector<Switch*> cores_;
  std::vector<std::vector<Switch*>> edges_;  ///< [pod][i]
  std::vector<std::vector<Switch*>> aggs_;   ///< [pod][i]
  std::vector<Host*> hosts_;
  std::vector<int> host_pod_;
  std::vector<int> host_edge_;
};

}  // namespace mtp::net
