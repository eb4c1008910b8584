// Scale-out properties: routing correctness on the big fabrics and the
// timer wheel's fidelity to the contract of the retx scan it replaced.
//
// The fat-tree routing tests do not send packets — they walk every candidate
// port the forwarding tables expose (route_candidates + default routes),
// exploring all multipath choices exhaustively, and assert that every walk
// reaches the destination loop-free with exactly the hop count the topology
// promises (hosts: 2 same-edge, 4 same-pod, 6 cross-pod; edge switches: 1
// own, 3 same-pod, 5 cross-pod).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "net/fat_tree.hpp"
#include "net/network.hpp"
#include "net/topologies.hpp"
#include "scenario/scenario.hpp"
#include "sim/parallel.hpp"
#include "sim/random.hpp"
#include "sim/timer_wheel.hpp"

namespace mtp {
namespace {

using namespace sim::literals;

// Walks every routing choice from `node` toward node `dst`, asserting each
// complete path is loop-free and exactly `hops_left` links long. Returns the
// number of distinct complete paths found.
int walk_all_paths(net::Node* node, net::NodeId dst, int hops_left,
                   std::vector<net::NodeId>& visited) {
  if (node->id() == dst) {
    EXPECT_EQ(hops_left, 0) << "path shorter than promised hop count";
    return 1;
  }
  EXPECT_GT(hops_left, 0) << "path longer than promised hop count at node "
                          << node->id();
  if (hops_left <= 0) return 0;
  EXPECT_EQ(std::count(visited.begin(), visited.end(), node->id()), 0)
      << "forwarding loop through node " << node->id();
  visited.push_back(node->id());

  int paths = 0;
  if (auto* sw = dynamic_cast<net::Switch*>(node)) {
    const std::span<const net::PortIndex> cand = sw->route_candidates(dst);
    EXPECT_FALSE(cand.empty()) << "switch " << node->id() << " has no route to "
                               << dst;
    for (net::PortIndex p : cand) {
      net::Link* link = sw->out_port(p);
      paths += walk_all_paths(link->peer(), dst, hops_left - 1, visited);
    }
  } else {
    // Host: single uplink.
    EXPECT_GE(node->num_out_ports(), 1u);
    paths += walk_all_paths(node->out_port(0)->peer(), dst, hops_left - 1, visited);
  }
  visited.pop_back();
  return paths;
}

int expected_fat_tree_hops(const net::FatTree& ft, int src, int dst) {
  if (ft.pod_of(src) != ft.pod_of(dst)) return 6;
  const int half = ft.k() / 2;
  const bool same_edge = (src / half) == (dst / half);
  return same_edge ? 2 : 4;
}

void check_fat_tree_all_pairs(int k) {
  net::Network net;
  net::FatTree ft(net, {.k = k});
  ASSERT_EQ(ft.num_hosts(), k * k * k / 4);
  for (int s = 0; s < ft.num_hosts(); ++s) {
    for (int d = 0; d < ft.num_hosts(); ++d) {
      if (s == d) continue;
      std::vector<net::NodeId> visited;
      const int hops = expected_fat_tree_hops(ft, s, d);
      const int paths = walk_all_paths(ft.host(s), ft.host(d)->id(), hops, visited);
      // Path diversity: 1 same-edge, k/2 same-pod, (k/2)^2 cross-pod.
      const int half = k / 2;
      const int want = hops == 2 ? 1 : hops == 4 ? half : half * half;
      EXPECT_EQ(paths, want) << "host " << s << " -> " << d;
    }
  }
}

TEST(FatTreeRouting, AllPairsLoopFreeWithExpectedHopsK4) {
  check_fat_tree_all_pairs(4);
}

TEST(FatTreeRouting, AllPairsLoopFreeWithExpectedHopsK8) {
  check_fat_tree_all_pairs(8);
}

// Every host reaches every edge switch: a device on an edge hears its ACKs.
void check_fat_tree_hosts_reach_edges(int k) {
  net::Network net;
  net::FatTree ft(net, {.k = k});
  const int half = k / 2;
  for (int s = 0; s < ft.num_hosts(); ++s) {
    for (int p = 0; p < k; ++p) {
      for (int e = 0; e < half; ++e) {
        const bool own_edge = s / half == p * half + e;
        const int hops = own_edge ? 1 : ft.pod_of(s) == p ? 3 : 5;
        std::vector<net::NodeId> visited;
        const int paths = walk_all_paths(ft.host(s), ft.edge(p, e)->id(), hops, visited);
        const int want = hops == 1 ? 1 : hops == 3 ? half : half * half;
        EXPECT_EQ(paths, want) << "host " << s << " -> edge " << p << "." << e;
      }
    }
  }
}

TEST(FatTreeRouting, EveryHostReachesEveryEdgeK4) {
  check_fat_tree_hosts_reach_edges(4);
}

TEST(FatTreeRouting, EveryHostReachesEveryEdgeK8) {
  check_fat_tree_hosts_reach_edges(8);
}

TEST(FatTreeRouting, HostIndexingMatchesPodEdgeCoordinates) {
  net::Network net;
  net::FatTree ft(net, {.k = 4});
  for (int p = 0; p < 4; ++p) {
    for (int e = 0; e < 2; ++e) {
      for (int h = 0; h < 2; ++h) {
        const int idx = (p * 2 + e) * 2 + h;
        EXPECT_EQ(ft.host(p, e, h), ft.host(idx));
        EXPECT_EQ(ft.pod_of(idx), p);
      }
    }
  }
}

TEST(LeafSpineRouting, AsymmetricRacksAllPairsLoopFree) {
  net::Network net;
  net::LeafSpine ls(net, {.leaves = 3, .spines = 2, .hosts_at_leaf = {1, 4, 2}});
  ASSERT_EQ(ls.hosts().size(), 7u);
  for (std::size_t s = 0; s < ls.hosts().size(); ++s) {
    for (std::size_t d = 0; d < ls.hosts().size(); ++d) {
      if (s == d) continue;
      const bool same_leaf = ls.leaf_of(static_cast<int>(s)) ==
                             ls.leaf_of(static_cast<int>(d));
      const int hops = same_leaf ? 2 : 4;
      std::vector<net::NodeId> visited;
      const int paths =
          walk_all_paths(ls.hosts()[s], ls.hosts()[d]->id(), hops, visited);
      EXPECT_EQ(paths, same_leaf ? 1 : 2) << "host " << s << " -> " << d;
    }
  }
}

TEST(LeafSpineRouting, AsymmetricRacksReachEveryLeaf) {
  net::Network net;
  net::LeafSpine ls(net, {.leaves = 3, .spines = 2, .hosts_at_leaf = {1, 4, 2}});
  for (std::size_t s = 0; s < ls.hosts().size(); ++s) {
    for (int l = 0; l < 3; ++l) {
      const bool own_leaf = ls.leaf_of(static_cast<int>(s)) == l;
      std::vector<net::NodeId> visited;
      const int paths =
          walk_all_paths(ls.hosts()[s], ls.leaf(l)->id(), own_leaf ? 1 : 3, visited);
      EXPECT_EQ(paths, own_leaf ? 1 : 2) << "host " << s << " -> leaf " << l;
    }
  }
}

TEST(LeafSpineRouting, AsymmetricHostAccessorsAgree) {
  net::Network net;
  net::LeafSpine ls(net, {.leaves = 3, .spines = 2, .hosts_at_leaf = {1, 4, 2}});
  EXPECT_EQ(ls.hosts_at(0), 1);
  EXPECT_EQ(ls.hosts_at(1), 4);
  EXPECT_EQ(ls.hosts_at(2), 2);
  int idx = 0;
  for (int l = 0; l < 3; ++l) {
    for (int h = 0; h < ls.hosts_at(l); ++h, ++idx) {
      EXPECT_EQ(ls.host(l, h), ls.hosts()[idx]);
      EXPECT_EQ(ls.leaf_of(idx), l);
    }
  }
}

// --- Route golden -----------------------------------------------------------
//
// Every switch's candidate list toward every host (plus `extra` ids), in
// switch-id then destination order, folded into one digest. Switches are found
// by walking the links out from `hosts`, so the fold sees the whole table a
// topology builds, not just the switches its accessors expose.
std::uint64_t route_digest(const std::vector<net::Host*>& hosts,
                           const std::vector<net::NodeId>& extra = {}) {
  std::vector<net::Node*> seen(hosts.begin(), hosts.end());
  for (std::size_t i = 0; i < seen.size(); ++i) {
    for (std::size_t p = 0; p < seen[i]->num_out_ports(); ++p) {
      net::Node* peer = seen[i]->out_port(static_cast<net::PortIndex>(p))->peer();
      if (std::find(seen.begin(), seen.end(), peer) == seen.end()) seen.push_back(peer);
    }
  }
  std::vector<net::Switch*> switches;
  for (net::Node* n : seen) {
    if (auto* sw = dynamic_cast<net::Switch*>(n)) switches.push_back(sw);
  }
  std::sort(switches.begin(), switches.end(),
            [](const net::Switch* x, const net::Switch* y) { return x->id() < y->id(); });
  std::vector<net::NodeId> dsts = extra;
  for (const net::Host* h : hosts) dsts.push_back(h->id());
  std::sort(dsts.begin(), dsts.end());
  sim::RunDigest d(1);
  for (const net::Switch* sw : switches) {
    for (const net::NodeId dst : dsts) {
      const std::span<const net::PortIndex> cand = sw->route_candidates(dst);
      d.add(0, (static_cast<std::uint64_t>(sw->id()) << 32) | dst);
      d.add(0, cand.size());
      for (const net::PortIndex p : cand) d.add(0, p);
    }
  }
  return d.value();
}

std::uint64_t leaf_spine_route_digest(net::LeafSpine::Config cfg) {
  net::Network net;
  net::LeafSpine ls(net, cfg);
  std::vector<net::NodeId> leaves;
  for (int l = 0; l < cfg.leaves; ++l) leaves.push_back(ls.leaf(l)->id());
  return route_digest(ls.hosts(), leaves);
}

std::uint64_t fat_tree_route_digest(int k) {
  net::Network net;
  net::FatTree ft(net, {.k = k});
  return route_digest(ft.hosts());
}

std::uint64_t scenario_route_digest(const scenario::TopologyFn& fn) {
  net::Network net;
  const scenario::Topology t = fn(net);
  std::vector<net::Host*> hosts = t.senders;
  if (t.receiver) hosts.push_back(t.receiver);
  return route_digest(hosts);
}

TEST(RouteGolden, EveryTopologyMatchesRecorded) {
  EXPECT_EQ(leaf_spine_route_digest({.leaves = 2, .spines = 2, .hosts_per_leaf = 2}),
            0x500b02dd9c42b8f1ULL);
  EXPECT_EQ(leaf_spine_route_digest({.leaves = 3, .spines = 2, .hosts_at_leaf = {1, 4, 2}}),
            0x4ff8d6bda6c6930fULL);
  EXPECT_EQ(fat_tree_route_digest(4), 0xf5583d9f08df07d7ULL);
  EXPECT_EQ(fat_tree_route_digest(8), 0x017b144705ff4a67ULL);
  EXPECT_EQ(scenario_route_digest(scenario::topo::two_path_flip()), 0x46f6d0fb98c74f7aULL);
  EXPECT_EQ(scenario_route_digest(scenario::topo::dual_path(4)), 0x7b6e24e0fef4a03bULL);
  EXPECT_EQ(scenario_route_digest(scenario::topo::dual_hop_fabric()), 0xf0c6474b06b695f0ULL);
  EXPECT_EQ(scenario_route_digest(scenario::topo::shared_bottleneck({})), 0xbb6124729e7db32dULL);
  EXPECT_EQ(scenario_route_digest(scenario::topo::incast(8)), 0xb3a5209e3f083c81ULL);
}

// --- Route builder rejects and fabric configs --------------------------------

TEST(RouteBuilder, RejectsSwitchesLinkedAtEqualLevels) {
  // h - sw - sw - h: both switches are level 1, so neither is above the other.
  net::Network net;
  net::Host* a = net.add_host("a");
  net::Switch* s1 = net.add_switch("s1");
  net::Switch* s2 = net.add_switch("s2");
  net::Host* b = net.add_host("b");
  net.connect(*a, *s1, sim::Bandwidth::gbps(10), 1_us);
  net.connect(*s1, *s2, sim::Bandwidth::gbps(10), 1_us);
  net.connect(*s2, *b, sim::Bandwidth::gbps(10), 1_us);
  EXPECT_THROW(net.build_routes(), std::invalid_argument);
}

TEST(RouteBuilder, RejectsASwitchNoHostReaches) {
  net::Network net;
  net::Host* a = net.add_host("a");
  net::Switch* tor = net.add_switch("tor");
  net::Switch* s1 = net.add_switch("island1");
  net::Switch* s2 = net.add_switch("island2");
  net.connect(*a, *tor, sim::Bandwidth::gbps(10), 1_us);
  net.connect(*s1, *s2, sim::Bandwidth::gbps(10), 1_us);
  EXPECT_THROW(net.build_routes(), std::invalid_argument);
}

void build_leaf_spine(const net::LeafSpine::Config& cfg) {
  net::Network net;
  net::LeafSpine ls(net, cfg);
}

TEST(FabricConfig, FatTreeRejectsOddK) {
  net::Network net;
  EXPECT_THROW(net::FatTree(net, {.k = 3}), std::invalid_argument);
}

TEST(FabricConfig, FatTreeRejectsKBelowTwo) {
  net::Network net;
  EXPECT_THROW(scenario::topo::fat_tree({.k = 0})(net), std::invalid_argument);
}

TEST(FabricConfig, LeafSpineRejectsHostsAtLeafOfWrongSize) {
  const net::LeafSpine::Config cfg{.leaves = 3, .hosts_at_leaf = {1, 2}};
  EXPECT_THROW(build_leaf_spine(cfg), std::invalid_argument);
}

TEST(FabricConfig, LeafSpineRejectsNoLeaves) {
  EXPECT_THROW(build_leaf_spine({.leaves = 0}), std::invalid_argument);
}

TEST(FabricConfig, LeafSpineRejectsNoSpines) {
  EXPECT_THROW(build_leaf_spine({.spines = 0}), std::invalid_argument);
}

// --- Timer wheel vs the retired retx_scan -----------------------------------
//
// The old scan woke every `granularity` and fired all timers whose deadline
// had passed, in arm order. The wheel's contract is the same: deadlines
// quantized UP to the scan tick, ties in arm order. Replay a recorded
// schedule of arms through both models and require identical fire sequences.

struct FireLog {
  std::vector<std::uint64_t> order;
  static void fire(void* owner, std::uint64_t arg) {
    static_cast<FireLog*>(owner)->order.push_back(arg);
  }
};

TEST(TimerWheelOrder, MatchesRetxScanSemanticsOnRecordedSchedule) {
  struct Arm {
    sim::SimTime at;        // when the arm happens
    sim::SimTime deadline;  // absolute deadline requested
    std::uint64_t id;
  };
  // Recorded schedule: deliberately interleaved deadlines (later arms with
  // earlier deadlines), duplicates sharing a quantized tick, and deadlines
  // that collide modulo the bucket count.
  sim::Rng rng(2024);
  std::vector<Arm> schedule;
  sim::SimTime t = 0_us;
  for (std::uint64_t i = 0; i < 500; ++i) {
    t += sim::SimTime::nanoseconds(rng.uniform_int(0, 7'000));
    const auto timeout = sim::SimTime::nanoseconds(rng.uniform_int(1, 300'000));
    schedule.push_back({t, t + timeout, i});
  }

  sim::Simulator simulator;
  const sim::TimerWheel::Config cfg{.granularity = 10_us, .buckets = 16};
  sim::TimerWheel wheel(simulator, cfg);
  FireLog wheel_log;
  for (const Arm& a : schedule) {
    simulator.schedule_at(a.at, [&wheel, &wheel_log, a] {
      wheel.arm(a.deadline, &FireLog::fire, &wheel_log, a.id);
    });
  }
  simulator.run();
  ASSERT_EQ(wheel_log.order.size(), schedule.size());

  // Reference model: the old periodic sweep. Sort by quantized-up deadline
  // tick; stable sort preserves arm order within a tick (the schedule's
  // arm times are non-decreasing, matching a sweep over a FIFO of inflight
  // packets).
  const std::int64_t g = cfg.granularity.ns();
  std::vector<std::pair<std::int64_t, std::uint64_t>> ref;
  for (const Arm& a : schedule) {
    ref.emplace_back((a.deadline.ns() + g - 1) / g, a.id);
  }
  std::stable_sort(ref.begin(), ref.end(),
                   [](const auto& x, const auto& y) { return x.first < y.first; });
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(wheel_log.order[i], ref[i].second) << "divergence at fire #" << i;
  }
}

TEST(TimerWheelOrder, CancelledTimersNeverFire) {
  sim::Simulator simulator;
  sim::TimerWheel wheel(simulator, {.granularity = 10_us, .buckets = 8});
  FireLog log;
  std::vector<sim::TimerId> ids;
  for (std::uint64_t i = 0; i < 64; ++i) {
    ids.push_back(wheel.arm(sim::SimTime::microseconds(5 + i * 3),
                            &FireLog::fire, &log, i));
  }
  for (std::size_t i = 0; i < ids.size(); i += 2) wheel.cancel(ids[i]);
  simulator.run();
  ASSERT_EQ(log.order.size(), 32u);
  for (std::uint64_t v : log.order) EXPECT_EQ(v % 2, 1u);
  EXPECT_EQ(wheel.armed_count(), 0u);
}

// The whole wheel holds one simulator event, at its earliest wake tick, no
// matter how many buckets have one pending.
TEST(TimerWheelOrder, DistinctTicksHoldOneSimulatorEvent) {
  sim::Simulator simulator;
  sim::TimerWheel wheel(simulator, {.granularity = 10_us, .buckets = 16});
  FireLog log;
  constexpr std::uint64_t kTimers = 40;  // 2.5 revolutions of distinct ticks
  for (std::uint64_t i = 0; i < kTimers; ++i) {
    wheel.arm(sim::SimTime::microseconds(10 * (i + 1)), &FireLog::fire, &log, i);
  }
  EXPECT_EQ(simulator.pending_events(), 1u);
  simulator.run(205_us);  // 20 fired; every later tick is still pending
  EXPECT_EQ(log.order.size(), 20u);
  EXPECT_EQ(simulator.pending_events(), 1u);
  simulator.run();
  EXPECT_EQ(log.order.size(), kTimers);
  EXPECT_EQ(simulator.events_executed(), kTimers);
  EXPECT_EQ(simulator.pending_events(), 0u);
}

// Seeded arm / cancel / re-arm schedule over ~190 revolutions of a 16-bucket
// wheel (one revolution is 160 us). At most 12 timers are live, and re-arms
// cancel and arm again as a TCP RTO does on every ACK, so buckets are often
// left with a wake but no live timer; a third of the fires arm again from
// inside the service, some at the tick being serviced. The digest folds each
// fire's (id, time), then events_executed() and now() after run(): fire
// order, the service count (services of buckets whose timers were all
// cancelled included) and the quiescence time. Recorded on the wheel that
// kept one simulator event per bucket; the one-event wheel must reproduce it
// exactly.
struct WheelGoldenRig {
  sim::Simulator sim;
  sim::TimerWheel wheel{sim, {.granularity = 10_us, .buckets = 16}};
  sim::Rng rng{4242};
  std::vector<sim::TimerId> ids;  // indexed by timer id
  sim::RunDigest digest{1};

  static void fire(void* self, std::uint64_t id) {
    auto& r = *static_cast<WheelGoldenRig*>(self);
    r.digest.add(0, id);
    r.digest.add(0, static_cast<std::uint64_t>(r.sim.now().ns()));
    if (r.rng.uniform_int(0, 2) == 0) {
      const bool now = r.rng.bernoulli(0.5);  // the tick being serviced
      const std::int64_t timeout = r.rng.uniform_int(1, 400'000);
      r.arm(id, sim::SimTime::nanoseconds(now ? 0 : timeout));
    }
  }

  void arm(std::uint64_t id, sim::SimTime timeout) {
    ids[id] = wheel.arm(sim.now() + timeout, &WheelGoldenRig::fire, this, id);
  }
};

TEST(TimerWheelOrder, ArmCancelRearmGoldenAcrossRevolutions) {
  WheelGoldenRig r;
  constexpr std::uint64_t kTimers = 12;
  r.ids.resize(kTimers);
  sim::Rng ops(99);
  sim::SimTime t = 0_us;
  for (int i = 0; i < 3'000; ++i) {
    t += sim::SimTime::nanoseconds(ops.uniform_int(0, 20'000));
    const auto id = static_cast<std::uint64_t>(ops.uniform_int(0, kTimers - 1));
    const int op = static_cast<int>(ops.uniform_int(0, 9));
    const auto timeout = sim::SimTime::nanoseconds(ops.uniform_int(1, 400'000));
    r.sim.schedule_at(t, [&r, id, op, timeout] {
      if (op < 3) {
        r.wheel.cancel(r.ids[id]);  // cancel only
      } else {
        r.wheel.cancel(r.ids[id]);  // re-arm (a no-op cancel when idle)
        r.arm(id, timeout);
      }
    });
  }
  r.sim.run();
  r.digest.add(0, r.sim.events_executed());
  r.digest.add(0, static_cast<std::uint64_t>(r.sim.now().ns()));
  EXPECT_EQ(r.wheel.armed_count(), 0u);
  EXPECT_EQ(r.digest.value(), 0x998231d025ed2ca6ull) << std::hex << r.digest.value();
}

// Whole ScenarioBuilder rigs on ParallelSweep workers must be bit-identical
// to a serial run — the fabric-scale version of the determinism contract in
// docs/perf.md, and the thread-coverage surface scripts/check.sh tsan runs.
std::uint64_t scenario_sweep_digest(unsigned workers) {
  sim::ParallelSweep pool(workers);
  const std::vector<std::uint64_t> digests =
      pool.map(3, [](std::size_t job) -> std::uint64_t {
        auto s = scenario::ScenarioBuilder()
                     .seed(300 + job)
                     .topology(scenario::topo::fat_tree({.k = 4}))
                     .forwarding(scenario::Forwarding::kMessageAware)
                     .transport("mtp")
                     .build();
        const int hosts = static_cast<int>(s->num_senders());
        sim::RunDigest digest(hosts);
        for (int h = 0; h < hosts; ++h) {
          const auto dst = s->topo().senders[(h + 3) % hosts]->id();
          for (int m = 0; m < 8; ++m) {
            s->mtp_sender(h)->send_message(
                dst, 20'000, {.dst_port = 80},
                [&digest, h](proto::MsgId, sim::SimTime fct) {
                  digest.add(h, static_cast<std::uint64_t>(fct.ns()));
                });
          }
        }
        digest.add(0, s->simulator().run(20_ms));
        return digest.value();
      });
  sim::RunDigest combined(1);
  for (std::uint64_t d : digests) combined.add(0, d);
  return combined.value();
}

TEST(ScenarioSweep, ParallelScenarioSweepIsBitIdentical) {
  EXPECT_EQ(scenario_sweep_digest(1), scenario_sweep_digest(0));
}

}  // namespace
}  // namespace mtp
