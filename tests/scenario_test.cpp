// Tests for the mtp::scenario library: the fluent builder must assemble the
// same rigs the benches used to hand-roll, and the transport::Transport
// fleets it builds by name must behave identically across transports (the
// per-name contract lives in transport_conformance_test).
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "fault/fault.hpp"
#include "scenario/scenario.hpp"

namespace mtp::scenario {
namespace {

workload::ArrivalSchedule small_schedule(int per_sender, int senders,
                                         std::int64_t bytes = 20'000) {
  workload::ArrivalSchedule sched;
  sim::SimTime t = 1_us;
  for (int m = 0; m < per_sender; ++m) {
    for (int s = 0; s < senders; ++s) {
      sched.add(t, static_cast<std::uint32_t>(s), bytes);
      t += 2_us;
    }
  }
  return sched;
}

TEST(ScenarioBuilder, MtpWorkloadRecordsAllCompletions) {
  auto s = ScenarioBuilder()
               .seed(3)
               .topology(topo::dual_path(2))
               .forwarding(Forwarding::kMessageAware)
               .transport("mtp")
               .workload(small_schedule(10, 2))
               .build();
  ASSERT_EQ(s->num_senders(), 2u);
  EXPECT_EQ(s->sender(0).name(), "mtp");
  s->run();
  EXPECT_EQ(s->fct().count(), 20u);
  EXPECT_EQ(s->replayed(), 20u);
  EXPECT_GT(s->fct().p50_us(), 0.0);
  EXPECT_EQ(s->sender(0).completed() + s->sender(1).completed(), 20u);
}

TEST(ScenarioBuilder, TcpWorkloadRecordsAllCompletions) {
  auto s = ScenarioBuilder()
               .seed(3)
               .topology(topo::dual_path(2))
               .forwarding(Forwarding::kEcmp)
               .transport("tcp")
               .workload(small_schedule(5, 2))
               .build();
  EXPECT_EQ(s->sender(0).name(), "tcp");
  EXPECT_EQ(s->mtp_sender(0), nullptr);
  ASSERT_NE(s->tcp_sender(0), nullptr);
  s->run();
  EXPECT_EQ(s->fct().count(), 10u);
}

TEST(ScenarioBuilder, DctcpTransportIsTcpStackWithDctcpEnabled) {
  auto s = ScenarioBuilder()
               .seed(3)
               .topology(topo::dual_path(1))
               .transport("dctcp")
               .build();
  EXPECT_EQ(s->sender(0).name(), "dctcp");
  EXPECT_TRUE(s->tcp_sender(0)->config().dctcp);
  // The receiver stack echoes ECN marks DCTCP-style too.
  EXPECT_TRUE(s->tcp_receiver()->config().dctcp);
}

TEST(ScenarioBuilder, BulkTransferFeedsGoodputMeter) {
  auto s = ScenarioBuilder()
               .seed(3)
               .topology(topo::two_path_flip())
               .forwarding(Forwarding::kAlternating, 200_us)
               .transport("mtp")
               .bulk()
               .goodput_window(50_us)
               .build();
  ASSERT_NE(s->goodput(), nullptr);
  s->run(1_ms);
  EXPECT_GT(s->goodput()->total_bytes(), 0);
  EXPECT_FALSE(s->goodput()->series().empty());
}

TEST(ScenarioBuilder, FlapTakesFaultLinkDownAndRestoresIt) {
  auto s = ScenarioBuilder()
               .seed(42)
               .topology(topo::dual_hop_fabric())
               .forwarding(Forwarding::kMessageAware)
               .transport("mtp")
               .flap(0, 100_us, 200_us)
               .build();
  ASSERT_FALSE(s->topo().fault_links.empty());
  net::Link* target = s->topo().fault_links[0];
  EXPECT_TRUE(target->is_up());
  s->run(150_us);
  EXPECT_FALSE(target->is_up());
  s->run(1_ms);
  EXPECT_TRUE(target->is_up());
}

TEST(ScenarioBuilder, SenderTcsReachTheWire) {
  // Two senders on distinct TCs through a shared bottleneck; both complete.
  auto s = ScenarioBuilder()
               .seed(7)
               .topology(topo::shared_bottleneck())
               .transport("mtp")
               .sender_tcs({1, 2})
               .workload(small_schedule(4, 2))
               .build();
  s->run();
  EXPECT_EQ(s->fct().count(), 8u);
}

TEST(ScenarioBuilder, MtpConfigReachesEverySender) {
  core::MtpConfig cfg;
  cfg.ack_coalesce = 4;
  auto s = ScenarioBuilder()
               .seed(2)
               .topology(topo::incast(3))
               .transport("mtp")
               .mtp_config(cfg)
               .workload(small_schedule(2, 3))
               .build();
  for (std::size_t i = 0; i < s->num_senders(); ++i) {
    ASSERT_NE(s->mtp_sender(i), nullptr);
    EXPECT_EQ(s->mtp_sender(i)->config().ack_coalesce, 4u);
  }
  // The receiver keeps the default: sender knobs must not distort the sink.
  ASSERT_NE(s->mtp_receiver(), nullptr);
  EXPECT_EQ(s->mtp_receiver()->config().ack_coalesce, 1u);
  s->run();
  EXPECT_EQ(s->fct().count(), 6u);
}

TEST(ScenarioBuilder, MptcpExposesItsTcpStacks) {
  auto s = ScenarioBuilder()
               .seed(3)
               .topology(topo::incast(2))
               .transport("mptcp")
               .workload(small_schedule(1, 2))
               .build();
  EXPECT_EQ(s->mtp_sender(0), nullptr);
  ASSERT_NE(s->tcp_sender(1), nullptr);
  ASSERT_NE(s->tcp_receiver(), nullptr);
  EXPECT_FALSE(s->tcp_receiver()->config().dctcp);
  s->run();
  EXPECT_EQ(s->fct().count(), 2u);
}

TEST(ScenarioBuilder, AlternatingForwardingNeedsAPositivePeriod) {
  for (sim::SimTime period : {0_us, 0_us - 5_us}) {
    ScenarioBuilder b;
    b.seed(1)
        .topology(topo::two_path_flip())
        .forwarding(Forwarding::kAlternating, period)
        .transport("mtp")
        .bulk();
    EXPECT_THROW(b.build(), std::invalid_argument) << period.ns() << " ns";
  }
}

TEST(ScenarioBuilder, FlapRejectsAnUnknownFaultLink) {
  ScenarioBuilder b;
  b.seed(1).topology(topo::incast(2)).transport("mtp").flap(3, 10_us, 10_us);
  try {
    b.build();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    // incast has a single fault link.
    EXPECT_NE(what.find("link 3"), std::string::npos) << what;
    EXPECT_NE(what.find("has 1 fault_links"), std::string::npos) << what;
  }
}

TEST(ScenarioTopo, IncastFansIntoOneReceiver) {
  auto s = ScenarioBuilder()
               .seed(5)
               .topology(topo::incast(8))
               .transport("mtp")
               .workload(small_schedule(2, 8))
               .build();
  ASSERT_EQ(s->num_senders(), 8u);
  s->run();
  EXPECT_EQ(s->fct().count(), 16u);
}

TEST(ScenarioTopo, FatTreePeerToPeerModeDrivesEndpointsDirectly) {
  auto s = ScenarioBuilder()
               .seed(11)
               .topology(topo::fat_tree({.k = 4}))
               .forwarding(Forwarding::kMessageAware)
               .transport("mtp")
               .build();
  ASSERT_EQ(s->num_senders(), 16u);
  EXPECT_EQ(s->topo().receiver, nullptr);
  int done = 0;
  // Any-to-any: host h sends to host (h+3) % 16; every endpoint listens.
  for (std::size_t h = 0; h < s->num_senders(); ++h) {
    ASSERT_NE(s->mtp_sender(h), nullptr);
    const auto dst = s->topo().senders[(h + 3) % s->num_senders()]->id();
    s->mtp_sender(h)->send_message(dst, 30'000, {.dst_port = 80},
                                   [&done](proto::MsgId, sim::SimTime) { ++done; });
  }
  s->run();
  EXPECT_EQ(done, 16);
}

TEST(ScenarioTopo, TwoPathFlipExposesFastAndSlowPaths) {
  auto s = ScenarioBuilder()
               .seed(1)
               .topology(topo::two_path_flip())
               .transport("mtp")
               .build();
  ASSERT_EQ(s->topo().paths.size(), 2u);
  EXPECT_GT(s->topo().paths[0]->bandwidth().gbit_per_sec(),
            s->topo().paths[1]->bandwidth().gbit_per_sec());
}

TEST(ScenarioBuilder, DeterministicAcrossRebuilds) {
  auto run_once = [] {
    auto s = ScenarioBuilder()
                 .seed(9)
                 .topology(topo::dual_path(2))
                 .forwarding(Forwarding::kSpray)
                 .transport("mtp")
                 .workload(small_schedule(8, 2))
                 .build();
    s->run();
    return std::make_pair(s->fct().p99_us(), s->simulator().now().ns());
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a, b);
}

// --- recorded completion digests -------------------------------------------
//
// Rigs whose completions read the transport and device constants no other
// recorded digest reaches. A refactor that keeps behaviour keeps every value.

/// incast(4) whose receiver downlink stamps `feedback` pathlet TLVs.
TopologyFn incast_with_pathlet(proto::FeedbackType feedback) {
  return [=](net::Network& net) {
    Topology t = topo::incast(4)(net);
    t.paths[0]->set_pathlet({.id = 1, .feedback = feedback});
    return t;
  };
}

/// Four 100G hosts into a 1G receiver downlink that stamps `feedback`
/// pathlet TLVs. A full queue there holds milliseconds of delay, far past
/// Swift's target.
TopologyFn slow_incast(proto::FeedbackType feedback) {
  return [=](net::Network& net) {
    const net::DropTailQueue::Config q{.capacity_pkts = 256, .ecn_threshold_pkts = 40};
    Topology t;
    net::Switch* sw = net.add_switch("sw");
    net::Host* rcv = net.add_host("recv");
    for (int i = 0; i < 4; ++i) {
      net::Host* h = net.add_host("h" + std::to_string(i));
      t.senders.push_back(h);
      net.connect(*h, *sw, sim::Bandwidth::gbps(100), 1_us, q);
    }
    auto down = net.connect(*sw, *rcv, sim::Bandwidth::gbps(1), 1_us, q);
    down.forward->set_pathlet({.id = 1, .feedback = feedback});
    net.build_routes();
    t.receiver = rcv;
    t.lb_switches = {sw};
    t.paths = {down.forward};
    t.fault_links = {down.forward};
    return t;
  };
}

/// Replays `sched` over `topo` for a fixed 20 ms (an RCP pathlet's rate
/// timer never lets the run quiesce); every message must complete.
std::uint64_t mtp_digest(TopologyFn topo, core::MtpConfig cfg, workload::ArrivalSchedule sched) {
  const std::size_t messages = sched.size();
  auto s = ScenarioBuilder()
               .seed(11)
               .topology(std::move(topo))
               .mtp_config(cfg)
               .workload(std::move(sched))
               .build();
  s->run(20_ms);
  EXPECT_EQ(s->fct().count(), messages);
  return s->fct_digest();
}

std::uint64_t rcp_pathlet_digest() {
  return mtp_digest(incast_with_pathlet(proto::FeedbackType::kRate), {},
                    small_schedule(6, 4, 150'000));
}

std::uint64_t swift_pathlet_digest() {
  return mtp_digest(slow_incast(proto::FeedbackType::kDelay), {}, small_schedule(4, 4, 30'000));
}

/// incast(4) whose senders run mtp::overload against the default receiver,
/// which issues no grants: the blind-start credit caps each sender's bytes
/// in flight for the whole run.
std::uint64_t overload_incast_digest() {
  core::MtpConfig cfg;
  cfg.overload.enabled = true;
  return mtp_digest(topo::incast(4), cfg, small_schedule(6, 4, 150'000));
}

/// 20 records per sender on adaptive-FEC mtp::stream over incast(4), with
/// Gilbert-Elliott loss on the receiver downlink. Feedback timing steers
/// the redundancy; the quiescence time folds in when each stream completed.
std::uint64_t lossy_stream_digest() {
  auto s = ScenarioBuilder()
               .seed(11)
               .topology(topo::incast(4))
               .workload(small_schedule(20, 4, 3'000))
               .stream_workload({.fec_k = 4, .fec_r = 1, .adaptive_fec = true, .fec_r_max = 2})
               .build();
  fault::FaultInjector ge(s->simulator(), 17);
  ge.impair_link(*s->topo().paths[0],
                 {.p_good_to_bad = 0.05, .p_bad_to_good = 0.2, .bad_loss = 0.7});
  s->run();
  EXPECT_EQ(s->fct().count(), 80u);
  EXPECT_EQ(s->stream_stats().streams_failed, 0u);
  sim::RunDigest d(1);
  d.add(0, s->fct_digest());
  d.add(0, s->stream_digest());
  d.add(0, static_cast<std::uint64_t>(s->simulator().now().ns()));
  return d.value();
}

struct RecordedRig {
  const char* name;
  std::uint64_t (*run)();
  std::uint64_t digest;
};
constexpr RecordedRig kRecordedRigs[] = {
    {"rcp_pathlet", rcp_pathlet_digest, 0xc00b3143d472df3eULL},
    {"swift_pathlet", swift_pathlet_digest, 0xa01e23a2f192d28cULL},
    {"overload_incast", overload_incast_digest, 0x21e3b1f016ce2e69ULL},
    {"lossy_stream", lossy_stream_digest, 0x7006d8fc69b1f174ULL},
};

TEST(ScenarioGoldens, CompletionDigestsMatchRecorded) {
  for (const RecordedRig& rig : kRecordedRigs) {
    SCOPED_TRACE(rig.name);
    EXPECT_EQ(rig.run(), rig.digest);
  }
}

}  // namespace
}  // namespace mtp::scenario
