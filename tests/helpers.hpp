// Shared test topologies.
#pragma once

#include <memory>
#include <vector>

#include "net/fat_tree.hpp"
#include "net/forwarding.hpp"
#include "net/network.hpp"
#include "sim/random.hpp"

namespace mtp::testing {

using namespace mtp::sim::literals;

/// Packets waiting in any of the network's per-shard pools. Zero once a run
/// has quiesced: every packet was delivered, consumed or dropped.
inline std::size_t live_packets(const net::Network& net) {
  std::size_t n = 0;
  for (unsigned s = 0; s < net.shards(); ++s) n += net.packet_pool(s).live();
  return n;
}

/// Fold one message delivery into cell 0 of a recorded completion digest:
/// who sent it, which message, its size and when it completed.
inline void fold_delivery(sim::RunDigest& d, net::NodeId src, std::uint64_t msg_id,
                          std::int64_t bytes, sim::SimTime at) {
  d.add(0, src);
  d.add(0, msg_id);
  d.add(0, static_cast<std::uint64_t>(bytes));
  d.add(0, static_cast<std::uint64_t>(at.ns()));
}

/// Give every edge and aggregation switch of `ft` its own `Policy`, so a
/// stateful policy shares no state across switches. Cores only route down.
template <class Policy>
void set_fabric_policy(const net::FatTree& ft) {
  for (int p = 0; p < ft.k(); ++p) {
    for (int i = 0; i < ft.k() / 2; ++i) {
      ft.edge(p, i)->set_policy(std::make_unique<Policy>());
      ft.agg(p, i)->set_policy(std::make_unique<Policy>());
    }
  }
}

/// Host 0 of edge 0 in each pod, pod order: k hosts that reach each other
/// only across the cores, and land on k shards when the network has k.
inline std::vector<net::Host*> host_per_pod(const net::FatTree& ft) {
  std::vector<net::Host*> hosts;
  for (int p = 0; p < ft.k(); ++p) hosts.push_back(ft.host(p, 0, 0));
  return hosts;
}

/// host a -- switch -- host b, symmetric links.
struct HostPair {
  net::Network net;
  net::Host* a;
  net::Host* b;
  net::Switch* sw;
  net::Link* a_to_sw;
  net::Link* sw_to_b;

  explicit HostPair(sim::Bandwidth bw = sim::Bandwidth::gbps(100),
                    sim::SimTime delay = 1_us,
                    net::DropTailQueue::Config qcfg = {.capacity_pkts = 128,
                                                       .ecn_threshold_pkts = 0},
                    std::uint64_t seed = 1)
      : net(seed) {
    a = net.add_host("a");
    b = net.add_host("b");
    sw = net.add_switch("sw");
    auto d1 = net.connect(*a, *sw, bw, delay, qcfg);
    auto d2 = net.connect(*sw, *b, bw, delay, qcfg);
    a_to_sw = d1.forward;
    sw_to_b = d2.forward;
    net.build_routes();
  }

  sim::Simulator& sim() { return net.simulator(); }
};

/// n senders + 1 receiver through one bottleneck switch (dumbbell).
struct Dumbbell {
  net::Network net;
  std::vector<net::Host*> senders;
  net::Host* receiver;
  net::Switch* sw;
  net::Link* bottleneck;

  Dumbbell(int n, sim::Bandwidth bw, sim::SimTime delay,
           net::DropTailQueue::Config qcfg = {.capacity_pkts = 128,
                                              .ecn_threshold_pkts = 0},
           std::uint64_t seed = 1)
      : net(seed) {
    sw = net.add_switch("sw");
    receiver = net.add_host("recv");
    for (int i = 0; i < n; ++i) {
      net::Host* h = net.add_host("h" + std::to_string(i));
      senders.push_back(h);
      net.connect(*h, *sw, bw, delay, qcfg);
    }
    auto d = net.connect(*sw, *receiver, bw, delay, qcfg);
    bottleneck = d.forward;
    net.build_routes();
  }

  sim::Simulator& sim() { return net.simulator(); }
};

}  // namespace mtp::testing
