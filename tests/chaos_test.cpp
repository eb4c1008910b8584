// Chaos harness: seeded random fault schedules (flaps + bursty impairment +
// device crashes) over a leaf-spine fabric, checked against hard invariants:
//
//   - exactly-once application delivery (no loss, no duplicates),
//   - payload integrity (no corrupted packet ever reaches an app or device),
//   - every RPC completes or cleanly times out (callback exactly once),
//   - the event queue drains (no leaked timers or runaway retransmission),
//   - packet slots are conserved: at every slice boundary each shard's pool
//     holds exactly the packets its queues and links hold, and nothing once
//     the run quiesces (flaps discard queued packets, faults drop and
//     corrupt them — every path must free its slot),
//   - the fault timeline is bit-identical for a given seed, serial or under
//     sim::ParallelSweep.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault.hpp"
#include "helpers.hpp"
#include "innetwork/kvs_cache.hpp"
#include "mtp/endpoint.hpp"
#include "mtp/rpc.hpp"
#include "net/topologies.hpp"
#include "sim/parallel.hpp"

namespace mtp::fault {
namespace {

using namespace mtp::sim::literals;
using core::MtpEndpoint;
using core::ReceivedMessage;
using mtp::testing::HostPair;
using sim::Bandwidth;
using sim::SimTime;

using sim::mix64;

struct ChaosResult {
  std::uint64_t fault_digest = 0;  ///< injector's decision timeline
  std::uint64_t run_digest = 0;    ///< fold of delivery outcomes
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t completions = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t corrupted_delivered = 0;
  std::uint64_t checksum_drops = 0;
  std::uint64_t flaps = 0;
  std::size_t leaked_events = 0;
  std::size_t unaccounted_slots = 0;  ///< summed over slice boundaries
  std::size_t live_slots = 0;         ///< pool slots still live at quiescence
};

/// Runs `net` to 500 ms (a healthy run quiesces long before) in 50 us slices
/// across the 4 ms fault window, checking slot conservation at each slice
/// boundary and once more at the end.
void run_checking_slots(net::Network& net, ChaosResult& res) {
  for (SimTime t = 50_us; t < 4_ms; t += 50_us) {
    net.run(t);
    res.unaccounted_slots += net.unaccounted_packet_slots();
  }
  net.run(500_ms);
  res.unaccounted_slots += net.unaccounted_packet_slots();
  res.live_slots = mtp::testing::live_packets(net);
}

// One chaos run: 48 random messages over a 2x2 leaf-spine while two uplinks
// flap at random and a third runs a Gilbert-Elliott impairment. Everything —
// workload and faults — derives from `seed`, so the whole run is a pure
// function of it (the ParallelSweep determinism contract).
ChaosResult run_chaos(std::uint64_t seed) {
  net::Network net(seed);
  net::LeafSpine ls(net, {.leaves = 2, .spines = 2, .hosts_per_leaf = 2},
                    [] { return std::make_unique<net::MessageAwarePolicy>(); });
  ls.uplink(0, 0)->set_pathlet({.id = 11, .feedback = proto::FeedbackType::kEcn});
  ls.uplink(0, 1)->set_pathlet({.id = 12, .feedback = proto::FeedbackType::kEcn});
  ls.uplink(1, 0)->set_pathlet({.id = 21, .feedback = proto::FeedbackType::kEcn});
  ls.uplink(1, 1)->set_pathlet({.id = 22, .feedback = proto::FeedbackType::kEcn});

  core::MtpConfig cfg;
  cfg.auto_exclude_after_losses = 2;
  cfg.exclude_duration = 300_us;
  std::vector<std::unique_ptr<MtpEndpoint>> eps;
  ChaosResult res;
  sim::RunDigest digest(1);  // serial run: one cell in event order
  std::set<std::pair<net::NodeId, proto::MsgId>> seen;
  for (net::Host* h : ls.hosts()) {
    auto ep = std::make_unique<MtpEndpoint>(*h, cfg);
    ep->listen_any([&res, &seen, &digest](const ReceivedMessage& m) {
      ++res.delivered;
      if (!seen.emplace(m.src, m.msg_id).second) ++res.duplicates;
      digest.add(0, m.src);
      digest.add(0, m.msg_id);
      digest.add(0, static_cast<std::uint64_t>(m.bytes));
    });
    eps.push_back(std::move(ep));
  }

  // Faults: two flapping uplinks, one bursty-lossy/corrupting uplink. All
  // links are guaranteed healthy again by t = 3 ms.
  FaultInjector inj(net.simulator(), seed);
  inj.random_flaps(*ls.uplink(0, 0), 200_us, 3_ms, /*mean_up=*/400_us,
                   /*mean_down=*/150_us);
  inj.random_flaps(*ls.uplink(1, 1), 250_us, 3_ms, 400_us, 150_us);
  inj.impair_link(*ls.uplink(0, 1), {.p_good_to_bad = 0.01,
                                     .p_bad_to_good = 0.1,
                                     .bad_loss = 0.2,
                                     .bad_corrupt = 0.2});

  // Workload: 48 messages between random host pairs over the first 2 ms.
  sim::Rng wl(mix64(seed ^ 0xabcdef));
  const int kMessages = 48;
  for (int i = 0; i < kMessages; ++i) {
    const auto src = static_cast<std::size_t>(wl.uniform_int(0, 3));
    std::size_t dst = static_cast<std::size_t>(wl.uniform_int(0, 2));
    if (dst >= src) ++dst;  // uniform over the other three hosts
    const std::int64_t bytes = wl.uniform_int(1, 40'000);
    const SimTime at = SimTime::nanoseconds(wl.uniform_int(0, 2'000'000));
    net::Host* to = ls.hosts()[dst];
    MtpEndpoint* ep = eps[src].get();
    net.simulator().schedule_at(at, [ep, to, bytes, &res, &digest] {
      ++res.sent;
      ep->send_message(to->id(), bytes, {.dst_port = 80},
                       [&res, &digest](proto::MsgId, SimTime fct) {
                         ++res.completions;
                         digest.add(0, static_cast<std::uint64_t>(fct.ns()));
                       });
    });
  }

  run_checking_slots(net, res);
  res.leaked_events = net.simulator().pending_events();
  res.fault_digest = inj.digest();
  res.flaps = inj.flaps_executed();
  for (const auto& ep : eps) {
    res.corrupted_delivered += ep->corrupted_delivered();
    res.checksum_drops += ep->checksum_drops();
  }
  for (const std::uint64_t v : {res.fault_digest, res.delivered, res.checksum_drops}) {
    digest.add(0, v);
  }
  res.run_digest = digest.value();
  return res;
}

void check_invariants(const ChaosResult& r, std::uint64_t seed) {
  EXPECT_EQ(r.sent, 48u) << "seed " << seed;
  EXPECT_EQ(r.completions, r.sent) << "seed " << seed << ": message never completed";
  EXPECT_EQ(r.delivered, r.sent) << "seed " << seed << ": lost or duplicated delivery";
  EXPECT_EQ(r.duplicates, 0u) << "seed " << seed;
  EXPECT_EQ(r.corrupted_delivered, 0u)
      << "seed " << seed << ": corrupted payload reached the application";
  EXPECT_EQ(r.leaked_events, 0u) << "seed " << seed << ": event queue did not drain";
  EXPECT_GT(r.flaps, 0u) << "seed " << seed << ": fault schedule was a no-op";
  EXPECT_EQ(r.unaccounted_slots, 0u) << "seed " << seed << ": packet slot leaked mid-run";
  EXPECT_EQ(r.live_slots, 0u) << "seed " << seed << ": packet slot leaked at quiescence";
}

TEST(Chaos, TwentyFourSeededScheduleSatisfyAllInvariants) {
  bool any_checksum_drops = false;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const ChaosResult r = run_chaos(seed);
    check_invariants(r, seed);
    any_checksum_drops |= r.checksum_drops > 0;
  }
  // Across 24 schedules the impaired link must have corrupted something —
  // otherwise the integrity invariant above was never actually exercised.
  EXPECT_TRUE(any_checksum_drops);
}

TEST(Chaos, SameSeedReproducesBitIdenticalTimeline) {
  const ChaosResult a = run_chaos(7);
  const ChaosResult b = run_chaos(7);
  EXPECT_EQ(a.fault_digest, b.fault_digest);
  EXPECT_EQ(a.run_digest, b.run_digest);
  EXPECT_EQ(a.checksum_drops, b.checksum_drops);
  const ChaosResult c = run_chaos(8);
  EXPECT_NE(a.fault_digest, c.fault_digest);
}

// Named to match the tsan suite filter (-R 'ParallelSweep'): the chaos jobs
// must be data-race-free across workers, and their fault timelines must not
// depend on which thread ran them.
TEST(ParallelSweepChaos, FaultTimelinesBitIdenticalSerialVsParallel) {
  const std::size_t kSeeds = 20;
  auto job = [](std::size_t i) { return run_chaos(i + 1); };
  sim::ParallelSweep serial(1);
  sim::ParallelSweep pool(4);
  const std::vector<ChaosResult> s = serial.map(kSeeds, job);
  const std::vector<ChaosResult> p = pool.map(kSeeds, job);
  ASSERT_EQ(s.size(), p.size());
  for (std::size_t i = 0; i < kSeeds; ++i) {
    EXPECT_EQ(s[i].fault_digest, p[i].fault_digest) << "seed " << i + 1;
    EXPECT_EQ(s[i].run_digest, p[i].run_digest) << "seed " << i + 1;
    EXPECT_EQ(s[i].delivered, p[i].delivered) << "seed " << i + 1;
    EXPECT_EQ(s[i].flaps, p[i].flaps) << "seed " << i + 1;
  }
}

// One chaos run on `shards` space shards (sim::sharded via net::Network).
// Same fabric, fault families and 48-message workload as run_chaos, but all
// runtime folds are shard-local: delivery/completion digests live in one
// RunDigest cell per host (each host is owned by exactly one shard),
// counters are per-host, and workload sends are scheduled on the simulator
// of the shard owning the sending host. The result is therefore a pure
// function of `seed` alone — `shards` must not change a single bit of it.
ChaosResult run_chaos_sharded(std::uint64_t seed, unsigned shards) {
  net::Network net(seed, shards);
  // 5 us fabric delay = 5 us conservative lookahead: wider windows keep the
  // barrier count civil on the CI box. (The timeline differs from run_chaos's
  // 1 us default, which is fine — sharded runs are compared to each other.)
  net::LeafSpine ls(net,
                    {.leaves = 4, .spines = 2, .hosts_per_leaf = 1,
                     .link_delay = 5_us},
                    [] { return std::make_unique<net::MessageAwarePolicy>(); });
  ls.uplink(0, 0)->set_pathlet({.id = 11, .feedback = proto::FeedbackType::kEcn});
  ls.uplink(0, 1)->set_pathlet({.id = 12, .feedback = proto::FeedbackType::kEcn});
  ls.uplink(1, 0)->set_pathlet({.id = 21, .feedback = proto::FeedbackType::kEcn});
  ls.uplink(1, 1)->set_pathlet({.id = 22, .feedback = proto::FeedbackType::kEcn});

  core::MtpConfig cfg;
  cfg.auto_exclude_after_losses = 2;
  cfg.exclude_duration = 300_us;

  struct alignas(64) HostSlot {
    std::uint64_t sent = 0;
    std::uint64_t delivered = 0;
    std::uint64_t completions = 0;
    std::uint64_t duplicates = 0;
    std::set<std::pair<net::NodeId, proto::MsgId>> seen;
  };
  std::vector<HostSlot> slot(4);
  sim::RunDigest digest(4);  ///< delivery + completion folds, one cell per host

  std::vector<std::unique_ptr<MtpEndpoint>> eps;
  for (std::size_t h = 0; h < ls.hosts().size(); ++h) {
    auto ep = std::make_unique<MtpEndpoint>(*ls.hosts()[h], cfg);
    ep->listen_any([s = &slot[h], &digest, h](const ReceivedMessage& m) {
      ++s->delivered;
      if (!s->seen.emplace(m.src, m.msg_id).second) ++s->duplicates;
      digest.add(h, m.src);
      digest.add(h, m.msg_id);
      digest.add(h, static_cast<std::uint64_t>(m.bytes));
    });
    eps.push_back(std::move(ep));
  }

  FaultInjector inj(net.simulator(), seed);
  inj.random_flaps(*ls.uplink(0, 0), 200_us, 3_ms, 400_us, 150_us);
  inj.random_flaps(*ls.uplink(1, 1), 250_us, 3_ms, 400_us, 150_us);
  inj.impair_link(*ls.uplink(0, 1), {.p_good_to_bad = 0.01,
                                     .p_bad_to_good = 0.1,
                                     .bad_loss = 0.2,
                                     .bad_corrupt = 0.2});

  sim::Rng wl(mix64(seed ^ 0xabcdef));
  const int kMessages = 48;
  for (int i = 0; i < kMessages; ++i) {
    const auto src = static_cast<std::size_t>(wl.uniform_int(0, 3));
    std::size_t dst = static_cast<std::size_t>(wl.uniform_int(0, 2));
    if (dst >= src) ++dst;
    const std::int64_t bytes = wl.uniform_int(1, 40'000);
    const SimTime at = SimTime::nanoseconds(wl.uniform_int(0, 2'000'000));
    net::Host* to = ls.hosts()[dst];
    MtpEndpoint* ep = eps[src].get();
    HostSlot* s = &slot[src];
    // The send fires on the sending host's own shard; the completion
    // callback therefore also runs there and folds into the same cell.
    net.simulator(net.shard_of(*ls.hosts()[src]))
        .schedule_at(at, [ep, to, bytes, s, &digest, src] {
          ++s->sent;
          ep->send_message(to->id(), bytes, {.dst_port = 80},
                           [s, &digest, src](proto::MsgId, SimTime fct) {
                             ++s->completions;
                             digest.add(src, static_cast<std::uint64_t>(fct.ns()));
                           });
        });
  }

  ChaosResult res;
  run_checking_slots(net, res);
  res.fault_digest = inj.digest();
  res.flaps = inj.flaps_executed();
  for (const HostSlot& s : slot) {
    res.sent += s.sent;
    res.delivered += s.delivered;
    res.completions += s.completions;
    res.duplicates += s.duplicates;
  }
  for (const auto& ep : eps) {
    res.corrupted_delivered += ep->corrupted_delivered();
    res.checksum_drops += ep->checksum_drops();
  }
  for (unsigned sh = 0; sh < net.shards(); ++sh) {
    res.leaked_events += net.simulator(sh).pending_events();
  }
  for (const std::uint64_t v : {res.fault_digest, res.delivered, res.checksum_drops}) {
    digest.add(0, v);
  }
  res.run_digest = digest.value();
  return res;
}

// Named to match the tsan suite filter (-R 'Sharded'): four shard workers
// exchange packets over the SPSC channels and fold into adjacent per-host
// slots and digest cells while TSan watches.
TEST(ShardedChaos, SeededSchedulesSatisfyAllInvariantsOnShards) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const ChaosResult r = run_chaos_sharded(seed, /*shards=*/4);
    EXPECT_EQ(r.sent, 48u) << "seed " << seed;
    EXPECT_EQ(r.completions, r.sent) << "seed " << seed << ": message never completed";
    EXPECT_EQ(r.delivered, r.sent) << "seed " << seed << ": lost or duplicated";
    EXPECT_EQ(r.duplicates, 0u) << "seed " << seed;
    EXPECT_EQ(r.corrupted_delivered, 0u) << "seed " << seed;
    EXPECT_EQ(r.leaked_events, 0u) << "seed " << seed << ": queues did not drain";
    EXPECT_GT(r.flaps, 0u) << "seed " << seed;
    EXPECT_EQ(r.unaccounted_slots, 0u) << "seed " << seed << ": packet slot leaked mid-run";
    EXPECT_EQ(r.live_slots, 0u) << "seed " << seed << ": packet slot leaked at quiescence";
  }
}

TEST(ShardedChaos, DigestsBitIdenticalAcrossShardCounts) {
  for (const std::uint64_t seed : {1ull, 7ull, 13ull, 19ull}) {
    const ChaosResult one = run_chaos_sharded(seed, 1);
    for (const unsigned shards : {2u, 4u}) {
      const ChaosResult r = run_chaos_sharded(seed, shards);
      EXPECT_EQ(r.fault_digest, one.fault_digest) << "seed " << seed << " x" << shards;
      EXPECT_EQ(r.run_digest, one.run_digest) << "seed " << seed << " x" << shards;
      EXPECT_EQ(r.delivered, one.delivered) << "seed " << seed << " x" << shards;
      EXPECT_EQ(r.completions, one.completions) << "seed " << seed << " x" << shards;
      EXPECT_EQ(r.checksum_drops, one.checksum_drops) << "seed " << seed << " x" << shards;
      EXPECT_EQ(r.flaps, one.flaps) << "seed " << seed << " x" << shards;
    }
  }
}

// Flaps that cut a standing queue: four MTP senders keep the dumbbell's
// bottleneck queue deep while it flaps at random and corrupts in bursts, so
// down transitions discard queued packets. Each discard must free its
// pool slot — checked at every slice boundary and at quiescence — and every
// message must still arrive exactly once.
TEST(Chaos, FlapsThatDiscardQueuedPacketsFreeTheirSlots) {
  std::uint64_t discarded_on_flaps = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    mtp::testing::Dumbbell d(4, Bandwidth::gbps(10), 2_us);
    std::vector<std::unique_ptr<MtpEndpoint>> eps;
    for (net::Host* h : d.senders) {
      eps.push_back(std::make_unique<MtpEndpoint>(*h, core::MtpConfig{}));
    }
    MtpEndpoint rcv(*d.receiver, {});
    std::set<std::pair<net::NodeId, proto::MsgId>> seen;
    int deliveries = 0;
    rcv.listen(80, [&](const ReceivedMessage& m) {
      ++deliveries;
      seen.emplace(m.src, m.msg_id);
    });
    for (auto& ep : eps) {
      for (int m = 0; m < 3; ++m) ep->send_message(d.receiver->id(), 200'000, {.dst_port = 80});
    }
    FaultInjector inj(d.sim(), seed);
    inj.random_flaps(*d.bottleneck, 50_us, 3_ms, /*mean_up=*/250_us, /*mean_down=*/80_us);
    inj.impair_link(*d.bottleneck, {.p_good_to_bad = 0.01,
                                    .p_bad_to_good = 0.1,
                                    .bad_loss = 0.1,
                                    .bad_corrupt = 0.1});
    ChaosResult res;
    run_checking_slots(d.net, res);
    EXPECT_EQ(deliveries, 12) << "seed " << seed;
    EXPECT_EQ(seen.size(), 12u) << "seed " << seed;
    EXPECT_EQ(rcv.corrupted_delivered(), 0u) << "seed " << seed;
    EXPECT_EQ(d.sim().pending_events(), 0u) << "seed " << seed;
    EXPECT_EQ(res.unaccounted_slots, 0u) << "seed " << seed << ": packet slot leaked mid-run";
    EXPECT_EQ(res.live_slots, 0u) << "seed " << seed << ": packet slot leaked at quiescence";
    // Dequeued but never transmitted: discarded by a flap.
    const net::Link& l = *d.bottleneck;
    discarded_on_flaps += l.queue().stats().dequeued - l.stats().pkts_delivered;
  }
  EXPECT_GT(discarded_on_flaps, 0u) << "no flap ever cut a standing queue";
}

// Devices + RPC under chaos: a KVS cache that crashes (twice) and a flapping
// backend link, with client retries on. Every call's callback fires exactly
// once and the sum of outcomes accounts for every call.
/// RPC outcome digests of DevicesAndRpcSurviveCrashesAndFlaps, seeds 1-6.
/// The in-network cache consumes requests through a DeviceReceiver and
/// answers on its switch's MtpEndpoint, so these pin device message handling
/// under crashes and flaps.
constexpr std::uint64_t kRecordedOutcomes[] = {
    0xd52de88353478902ULL, 0xea5e3ad5c8e7a1c4ULL, 0xcdb547aeae7037d7ULL,
    0x7d855a9f9f96d1f2ULL, 0xb7ab2ccdb9e79a57ULL, 0xf0eed7ef3f960d9aULL};

TEST(Chaos, DevicesAndRpcSurviveCrashesAndFlaps) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    HostPair t(Bandwidth::gbps(10));
    MtpEndpoint client_ep(*t.a, {});
    MtpEndpoint server_ep(*t.b, {});
    core::RpcClient client(client_ep, {.reply_port = 9000,
                                       .timeout = 2_ms,
                                       .max_retries = 3,
                                       .retry_seed = seed});
    core::RpcServer server(server_ep, 80);
    server.handle("", [](const std::string&, std::int64_t, net::NodeId) {
      return core::RpcServer::Response{4'000, "srv"};
    });
    auto cache = std::make_shared<innetwork::KvsCache>(
        *t.sw, innetwork::KvsCache::Config{.backend = t.b->id(), .service_port = 80});
    for (int k = 0; k < 5; ++k) {
      cache->put("key" + std::to_string(k), "cached", 4'000);
    }
    t.sw->add_ingress(cache);

    FaultInjector inj(t.sim(), mix64(seed));
    inj.crash_device(
        "kvs", 1_ms, 2_ms, [&] { cache->crash(); }, [&] { cache->restart(); });
    inj.crash_device(
        "kvs-again", 6_ms, 1_ms, [&] { cache->crash(); }, [&] { cache->restart(); });
    inj.random_flaps(*t.sw_to_b, 2_ms, 6_ms, /*mean_up=*/800_us, /*mean_down=*/200_us);

    const int kCalls = 30;
    std::vector<int> callbacks(kCalls, 0);
    sim::RunDigest outcomes(1);  // every RPC outcome, in completion order
    sim::Rng wl(seed * 1000 + 5);
    for (int i = 0; i < kCalls; ++i) {
      const SimTime at = SimTime::nanoseconds(wl.uniform_int(0, 5'000'000));
      const std::string method = "key" + std::to_string(i % 8);  // some always miss
      t.sim().schedule_at(at, [&, i, method] {
        client.call(t.b->id(), 80, method, 1'000,
                    [&callbacks, &outcomes, i](const core::RpcReply& r) {
                      ++callbacks[i];
                      outcomes.add(0, (std::uint64_t(i) << 40) ^ (std::uint64_t(r.ok) << 33) ^
                                          (std::uint64_t(r.rejected) << 32) ^ r.responder);
                      outcomes.add(0, (std::uint64_t(r.bytes) << 32) ^
                                          static_cast<std::uint64_t>(r.latency.ns()));
                    });
      });
    }
    t.sim().run(500_ms);

    for (int i = 0; i < kCalls; ++i) {
      EXPECT_EQ(callbacks[i], 1) << "seed " << seed << " call " << i;
    }
    EXPECT_EQ(client.completed() + client.timed_out(), static_cast<std::uint64_t>(kCalls))
        << "seed " << seed;
    EXPECT_EQ(cache->crashes(), 2u);
    EXPECT_EQ(cache->receiver().corrupted_delivered(), 0u);
    EXPECT_EQ(client_ep.corrupted_delivered(), 0u);
    EXPECT_EQ(server_ep.corrupted_delivered(), 0u);
    EXPECT_EQ(t.sim().pending_events(), 0u) << "seed " << seed;
    EXPECT_EQ(t.net.unaccounted_packet_slots(), 0u) << "seed " << seed;
    EXPECT_EQ(mtp::testing::live_packets(t.net), 0u) << "seed " << seed;
    EXPECT_TRUE(cache->online());
    EXPECT_EQ(outcomes.value(), kRecordedOutcomes[seed - 1]) << "seed " << seed;
  }
}

}  // namespace
}  // namespace mtp::fault
