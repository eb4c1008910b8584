// Three-tier fat-tree fabric (Al-Fares et al., parameterized by k).
//
// k pods, each with k/2 edge and k/2 aggregation switches; (k/2)^2 core
// switches; k^3/4 hosts (k=8 -> 128 hosts, k=16 -> 1024). Every switch has k
// ports. Aggregation switch j of every pod connects to cores
// [j*k/2, (j+1)*k/2), which gives core c exactly one port per pod.
//
// Routing is up/down (Network::build_routes): a switch routes the nodes below
// it explicitly and the rest up any up-port, where the Forwarding policy
// picks. Every host and every edge switch is reachable from every host, so a
// device on an edge switch hears the ACKs of the messages it sends.
//
// Hops host to host: same edge 2, same pod 4, other pods 6; host to edge
// switch: 1, 3, 5. tests/scale_test.cpp walks every candidate path to check.
#pragma once

#include <stdexcept>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "net/topologies.hpp"

namespace mtp::net {

class FatTree {
 public:
  struct Config {
    int k = 4;  ///< pod count; must be even and >= 2
    sim::SimTime link_delay = sim::SimTime::microseconds(1);
  };

  FatTree(Network& net, Config cfg) : cfg_(cfg) {
    if (cfg.k < 2 || cfg.k % 2 != 0) {
      throw std::invalid_argument("FatTree: k must be even and >= 2");
    }
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
          net.connect(*host, *edges_[p][e], kHostLinkBw, cfg.link_delay, kFabricQueue);
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

    net.set_build_shard(0);  // leave the network in its default build state
    net.build_routes();
  }

  int k() const { return cfg_.k; }
  int num_hosts() const { return static_cast<int>(hosts_.size()); }
  const std::vector<Host*>& hosts() const { return hosts_; }
  Host* host(int i) const { return hosts_[i]; }
  /// Host `h` of edge switch `e` in pod `p`.
  Host* host(int p, int e, int h) const { return hosts_[(p * cfg_.k / 2 + e) * cfg_.k / 2 + h]; }
  Switch* edge(int pod, int i) const { return edges_[pod][i]; }
  Switch* agg(int pod, int i) const { return aggs_[pod][i]; }
  Switch* core(int i) const { return cores_[i]; }
  int pod_of(int host_idx) const { return host_idx / (cfg_.k * cfg_.k / 4); }

  /// The uplink from edge `e` in `pod` toward aggregation `a` (for failing
  /// fabric paths in fault experiments).
  Link* edge_uplink(int pod, int e, int a) const {
    return edges_[pod][e]->out_port(static_cast<PortIndex>(cfg_.k / 2 + a));
  }

 private:
  Config cfg_;
  std::vector<Switch*> cores_;
  std::vector<std::vector<Switch*>> edges_;  ///< [pod][i]
  std::vector<std::vector<Switch*>> aggs_;   ///< [pod][i]
  std::vector<Host*> hosts_;
};

}  // namespace mtp::net
