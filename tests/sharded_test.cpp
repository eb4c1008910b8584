// Tests for sim::sharded — the conservative space-parallel engine — and its
// surfaces: sim::WorkerPool (the shared thread pool), net::Network's shard
// plumbing, scenario::ScenarioBuilder::shards(), and the deterministic trace
// merge. The load-bearing contract everywhere: a sharded run is the SAME
// experiment as the serial run — bit-identical completion times, fault
// digests and delivery outcomes for every shard count.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "fault/fault.hpp"
#include "helpers.hpp"
#include "mtp/endpoint.hpp"
#include "net/network.hpp"
#include "scenario/scenario.hpp"
#include "sim/worker_pool.hpp"
#include "telemetry/trace.hpp"

namespace mtp {
namespace {

using namespace mtp::sim::literals;
using sim::Bandwidth;
using sim::SimTime;

// --- sim::WorkerPool -------------------------------------------------------

TEST(ShardedWorkerPool, StridedLanesCoverEveryIndexExactlyOnce) {
  sim::WorkerPool pool(3);
  EXPECT_EQ(pool.workers(), 3u);
  std::vector<std::atomic<int>> hits(17);
  pool.parallel_for(17, [&hits](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ShardedWorkerPool, MultiWayDispatchNeverRunsOnTheCaller) {
  // The isolation contract: jobs must not share the caller's thread-local
  // telemetry singletons, so no lane may execute on the calling thread.
  sim::WorkerPool pool(2);
  const auto caller = std::this_thread::get_id();
  std::atomic<int> on_caller{0};
  pool.parallel_for(6, [&](std::size_t) {
    if (std::this_thread::get_id() == caller) ++on_caller;
  });
  EXPECT_EQ(on_caller.load(), 0);

  // The serial baseline (workers == 1) runs inline by design.
  sim::WorkerPool serial(1);
  int inline_runs = 0;
  serial.parallel_for(3, [&](std::size_t) {
    if (std::this_thread::get_id() == caller) ++inline_runs;
  });
  EXPECT_EQ(inline_runs, 3);
}

TEST(ShardedWorkerPool, ExceptionsPropagateByLowestIndex) {
  sim::WorkerPool pool(2);
  EXPECT_THROW(pool.parallel_for(4,
                                 [](std::size_t i) {
                                   if (i >= 1) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
}

TEST(ShardedWorkerPool, MtpThreadsEnvOverridesTheDefault) {
  ::setenv("MTP_THREADS", "3", 1);
  EXPECT_EQ(sim::WorkerPool::default_workers(), 3u);
  ::setenv("MTP_THREADS", "0", 1);  // invalid: falls back to the hardware count
  EXPECT_GE(sim::WorkerPool::default_workers(), 1u);
  ::unsetenv("MTP_THREADS");
  EXPECT_GE(sim::WorkerPool::default_workers(), 1u);
}

// --- net::Network shard plumbing -------------------------------------------

TEST(ShardedNetwork, BuildShardPlacesNodesAndValidates) {
  net::Network net(1, 2);
  EXPECT_EQ(net.shards(), 2u);
  auto* a = net.add_host("a");
  net.set_build_shard(1);
  auto* b = net.add_host("b");
  EXPECT_EQ(net.shard_of(*a), 0u);
  EXPECT_EQ(net.shard_of(*b), 1u);
  EXPECT_THROW(net.set_build_shard(2), std::invalid_argument);
  EXPECT_THROW(net::Network(1, 0), std::invalid_argument);
}

TEST(ShardedNetwork, CrossShardLinkRequiresPositiveDelay) {
  net::Network net(1, 2);
  auto* a = net.add_host("a");
  net.set_build_shard(1);
  auto* b = net.add_host("b");
  // Zero propagation delay would make the conservative lookahead zero.
  EXPECT_THROW(net.connect(*a, *b, Bandwidth::gbps(10), 0_us), std::invalid_argument);
  net.connect(*a, *b, Bandwidth::gbps(10), 3_us);
  EXPECT_EQ(net.lookahead(), 3_us);
}

/// One MTP message across a 2-node rig, with the receiver either co-located
/// (shards = 1) or on its own shard. Returns (fct ns, windows).
std::pair<std::int64_t, std::uint64_t> ping(unsigned shards) {
  net::Network net(1, shards);
  auto* a = net.add_host("a");
  auto* sw = net.add_switch("sw");
  net.set_build_shard(shards > 1 ? 1 : 0);
  auto* b = net.add_host("b");
  net.connect(*a, *sw, Bandwidth::gbps(10), 1_us);
  net.connect(*sw, *b, Bandwidth::gbps(10), 2_us);
  net.build_routes();
  core::MtpEndpoint ea(*a, {});
  core::MtpEndpoint eb(*b, {});
  eb.listen(80, [](const core::ReceivedMessage&) {});
  SimTime fct = SimTime::zero();
  ea.send_message(b->id(), 50'000, {.dst_port = 80},
                  [&fct](proto::MsgId, SimTime t) { fct = t; });
  net.run();
  EXPECT_EQ(mtp::testing::live_packets(net), 0u) << shards << " shards";
  return {fct.ns(), net.windows()};
}

// Packets sent on the calling thread before run() wait in shard 0's pool;
// shard 0's worker serializes them, and each leaves that pool when it is
// handed to shard 1 — before it is delivered there.
TEST(ShardedNetwork, CrossShardHandoffFreesTheSendersSlot) {
  net::Network net(1, 2);
  auto* a = net.add_host("a");
  net.set_build_shard(1);
  auto* b = net.add_host("b");
  const auto cable = net.connect(*a, *b, Bandwidth::gbps(100), 20_us);
  int received = 0;
  b->set_udp_handler(9, [&received](net::Packet&&) { ++received; });
  for (int i = 0; i < 8; ++i) {
    net::Packet p;
    p.src = a->id();
    p.dst = b->id();
    p.payload_bytes = 1250;  // 100 ns each at 100G
    p.header = proto::UdpHeader{1, 9, 1250};
    cable.forward->send(std::move(p));
  }
  EXPECT_EQ(net.packet_pool(0).live(), 8u);
  EXPECT_EQ(net.unaccounted_packet_slots(), 0u);
  net.run(5_us);  // every serialization has ended; nothing has arrived yet
  EXPECT_EQ(received, 0);
  EXPECT_EQ(net.packet_pool(0).live(), 0u);
  EXPECT_EQ(net.packet_pool(1).live(), 0u);
  EXPECT_EQ(net.unaccounted_packet_slots(), 0u);
  net.run();
  EXPECT_EQ(received, 8);
  EXPECT_EQ(mtp::testing::live_packets(net), 0u);
}

TEST(ShardedNetwork, CrossShardMessageMatchesSerialTimeline) {
  const auto serial = ping(1);
  const auto sharded = ping(2);
  EXPECT_GT(serial.first, 0);
  EXPECT_EQ(serial.first, sharded.first);  // bit-identical completion time
  EXPECT_EQ(serial.second, 0u);            // single shard: no windows
  EXPECT_GT(sharded.second, 0u);           // engine actually windowed
}

// --- scenario::ScenarioBuilder::shards() ------------------------------------

workload::ArrivalSchedule fabric_schedule(int hosts, int per_host) {
  workload::ArrivalSchedule sched;
  for (int m = 0; m < per_host; ++m) {
    for (int h = 0; h < hosts; ++h) {
      sched.add(SimTime::nanoseconds(m * 4'000 + h * 100),
                static_cast<std::uint32_t>(h), 6'000 + 500 * (h % 4));
    }
  }
  return sched;
}

struct FabricResult {
  std::uint64_t completion_digest = 0;  ///< one RunDigest cell per source host
  std::uint64_t fault_digest = 0;
  std::uint64_t completed = 0;
  std::uint64_t flaps = 0;
  std::uint64_t windows = 0;
  std::size_t live_slots = 0;  ///< pool slots still live after the run
};

/// A k=4 fat-tree (16 hosts, 4 pods) under message-aware forwarding with a
/// flapping + impaired edge uplink, driven by a fixed any-to-any schedule.
/// Everything is a pure function of (seed); `shards` must not change it.
FabricResult run_fabric(std::uint64_t seed, unsigned shards) {
  constexpr int kHosts = 16;
  auto s = scenario::ScenarioBuilder()
               .seed(seed)
               .shards(shards)
               .topology(scenario::topo::fat_tree({.k = 4}))
               .forwarding(scenario::Forwarding::kMessageAware)
               .transport("mtp")
               .workload(fabric_schedule(kHosts, 3))
               .build();

  fault::FaultInjector inj(s->network().simulator(), seed);
  inj.random_flaps(*s->topo().fault_links[0], 20_us, 2_ms, /*mean_up=*/300_us,
                   /*mean_down=*/120_us);
  inj.impair_link(*s->topo().fault_links[0],
                  {.p_good_to_bad = 0.02, .p_bad_to_good = 0.1, .bad_loss = 0.2,
                   .bad_corrupt = 0.1});

  // Per-source-host completion slots and digest cells: each is written only
  // on the shard that owns the host, so the digest is independent of how the
  // hosts interleave (which is the only thing sharding may change).
  struct alignas(64) Slot {
    std::uint64_t completed = 0;
  };
  std::vector<Slot> slots(kHosts);
  sim::RunDigest digest(kHosts);

  scenario::Scenario* sp = s.get();
  s->set_arrival_handler([sp, &slots, &digest](const workload::ArrivalSchedule::Arrival& a) {
    const int src = static_cast<int>(a.src);
    const auto dst = sp->topo().senders[(src + 5) % kHosts]->id();
    sp->mtp_sender(a.src)->send_message(
        dst, a.bytes, {.dst_port = 80},
        [slot = &slots[src], &digest, src](proto::MsgId, SimTime fct) {
          ++slot->completed;
          digest.add(src, static_cast<std::uint64_t>(fct.ns()));
        });
  });

  // Slices through the fault window: each Scenario::run(until) boundary
  // checks packet slot conservation on every shard (it throws on a leak).
  for (SimTime t = 100_us; t < 2_ms; t += 100_us) s->run(t);
  s->run(200_ms);
  FabricResult r;
  r.live_slots = mtp::testing::live_packets(s->network());
  for (const Slot& slot : slots) r.completed += slot.completed;
  r.completion_digest = digest.value();
  r.fault_digest = inj.digest();
  r.flaps = inj.flaps_executed();
  r.windows = s->windows();
  return r;
}

TEST(ShardedScenario, FabricDigestsInvariantAcrossShardCounts) {
  const FabricResult one = run_fabric(/*seed=*/42, /*shards=*/1);
  EXPECT_EQ(one.completed, 48u);
  EXPECT_GT(one.flaps, 0u);
  EXPECT_EQ(one.live_slots, 0u);
  for (unsigned shards : {2u, 4u}) {
    const FabricResult r = run_fabric(42, shards);
    EXPECT_EQ(r.completion_digest, one.completion_digest) << shards << " shards";
    EXPECT_EQ(r.fault_digest, one.fault_digest) << shards << " shards";
    EXPECT_EQ(r.completed, one.completed) << shards << " shards";
    EXPECT_EQ(r.flaps, one.flaps) << shards << " shards";
    EXPECT_GT(r.windows, 0u) << shards << " shards";
    EXPECT_EQ(r.live_slots, 0u) << shards << " shards";
  }
}

TEST(ShardedScenario, WorkloadFctStatsMatchSerialOnReceiverTopology) {
  // dual_path builds everything on shard 0, so a 3-shard run exercises the
  // engine's no-cross-link path (infinite lookahead: one window runs all).
  auto run = [](unsigned shards) {
    workload::ArrivalSchedule sched;
    SimTime t = 1_us;
    for (int m = 0; m < 10; ++m) {
      for (int snd = 0; snd < 2; ++snd) {
        sched.add(t, static_cast<std::uint32_t>(snd), 20'000);
        t += 2_us;
      }
    }
    auto s = scenario::ScenarioBuilder()
                 .seed(3)
                 .shards(shards)
                 .topology(scenario::topo::dual_path(2))
                 .forwarding(scenario::Forwarding::kMessageAware)
                 .transport("mtp")
                 .workload(std::move(sched))
                 .build();
    s->run();
    return std::make_tuple(s->fct().count(), s->fct().p50_us(), s->fct().p99_us(),
                           s->fct().total_bytes(), s->replayed());
  };
  EXPECT_EQ(run(1), run(3));
}

// --- deterministic trace merge ----------------------------------------------

TEST(ShardedTrace, MergedTraceIsTimeOrderedAndDeterministic) {
  auto run = [](unsigned shards) {
    telemetry::TraceSink::set_enabled(true);
    telemetry::TraceSink& sink = telemetry::trace();
    sink.set_capacity(1 << 16);  // also clears
    ping(shards);
    auto events = sink.events();
    telemetry::TraceSink::set_enabled(false);
    return events;
  };
  auto key = [](const telemetry::TraceEvent& e) {
    return std::make_tuple(e.t.ns(), static_cast<int>(e.type), e.component,
                           e.bytes, e.msg_id, e.pkt_num);
  };

  const auto a = run(2);
  const auto b = run(2);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(key(a[i]), key(b[i])) << "event " << i;
    if (i) {
      EXPECT_LE(a[i - 1].t.ns(), a[i].t.ns()) << "merge not time-ordered";
    }
  }

  // Same event population as the serial run. Equal-timestamp events merge in
  // (t, shard) order, which may differ from serial execution order, so the
  // comparison sorts both sides by the same key.
  auto serial = run(1);
  ASSERT_EQ(serial.size(), a.size());
  std::vector<std::tuple<std::int64_t, int, std::string, std::uint32_t,
                         std::uint64_t, std::uint32_t>>
      ka, ks;
  for (const auto& e : a) ka.push_back(key(e));
  for (const auto& e : serial) ks.push_back(key(e));
  std::sort(ka.begin(), ka.end());
  std::sort(ks.begin(), ks.end());
  EXPECT_EQ(ka, ks);
}

}  // namespace
}  // namespace mtp
