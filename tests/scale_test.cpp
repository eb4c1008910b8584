// Scale-out properties: routing correctness on the big fabrics and the
// timer wheel's fidelity to the contract of the retx scan it replaced.
//
// The fat-tree routing tests do not send packets — they walk every candidate
// port the forwarding tables expose (route_candidates + default routes),
// exploring all multipath choices exhaustively, and assert that every walk
// reaches the destination host loop-free with exactly the hop count the
// topology promises (2 same-edge, 4 same-pod, 6 cross-pod).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
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

// Walks every routing choice from `node` toward host `dst`, asserting each
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
