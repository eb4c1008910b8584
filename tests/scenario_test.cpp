// Tests for the mtp::scenario library: the fluent builder must assemble the
// same rigs the benches used to hand-roll, and the transport::Transport
// fleets it builds by name must behave identically across transports (the
// per-name contract lives in transport_conformance_test).
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "scenario/scenario.hpp"

namespace mtp::scenario {
namespace {

workload::ArrivalSchedule small_schedule(int per_sender, int senders) {
  workload::ArrivalSchedule sched;
  sim::SimTime t = 1_us;
  for (int m = 0; m < per_sender; ++m) {
    for (int s = 0; s < senders; ++s) {
      sched.add(t, static_cast<std::uint32_t>(s), 20'000);
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
  cfg.scheduling = core::MtpConfig::Scheduling::kSrpt;
  auto s = ScenarioBuilder()
               .seed(2)
               .topology(topo::incast(3))
               .transport("mtp")
               .mtp_config(cfg)
               .workload(small_schedule(2, 3))
               .build();
  for (std::size_t i = 0; i < s->num_senders(); ++i) {
    ASSERT_NE(s->mtp_sender(i), nullptr);
    EXPECT_EQ(s->mtp_sender(i)->config().scheduling, core::MtpConfig::Scheduling::kSrpt);
  }
  // The receiver keeps the default: sender knobs must not distort the sink.
  ASSERT_NE(s->mtp_receiver(), nullptr);
  EXPECT_EQ(s->mtp_receiver()->config().scheduling,
            core::MtpConfig::Scheduling::kPriorityFifo);
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

}  // namespace
}  // namespace mtp::scenario
