// MTP core tests: connectionless message transport, SACK/NACK recovery,
// pathlet congestion control (per-algorithm and end-to-end), path discovery,
// exclusion, priorities, and traffic-class separation.
#include <gtest/gtest.h>

#include "helpers.hpp"
#include "mtp/cc_algorithm.hpp"
#include "mtp/endpoint.hpp"
#include "stats/stats.hpp"

namespace mtp::core {
namespace {

using namespace mtp::sim::literals;
using mtp::testing::HostPair;
using sim::Bandwidth;
using sim::SimTime;

// ------------------------------------------------- cc algorithm unit tests

constexpr std::uint32_t kMss = 1000;

TEST(DctcpCc, GrowsWithoutMarksShrinksWithMarks) {
  DctcpCc cc(kMss);
  const auto w0 = cc.window_bytes();
  for (int i = 0; i < 20; ++i) {
    cc.on_feedback({proto::FeedbackType::kEcn, 0}, 1000);
    cc.on_ack(1000, 10_us);
  }
  EXPECT_GT(cc.window_bytes(), w0);  // slow start growth

  // Saturate with marks: alpha rises, window decays toward the floor.
  const auto w1 = cc.window_bytes();
  for (int i = 0; i < 2000; ++i) {
    cc.on_feedback({proto::FeedbackType::kEcn, 1}, 1000);
    cc.on_ack(1000, 10_us);
  }
  EXPECT_LT(cc.window_bytes(), w1);
  EXPECT_GT(cc.alpha(), 0.5);
}

TEST(DctcpCc, WindowNeverBelowOneMss) {
  DctcpCc cc(kMss);
  for (int i = 0; i < 100; ++i) cc.on_loss(LossKind::kTimeout);
  EXPECT_GE(cc.window_bytes(), static_cast<std::int64_t>(kMss));
}

TEST(RcpCc, WindowIsRateTimesRtt) {
  RcpCc cc(kMss);
  cc.on_feedback({proto::FeedbackType::kRate, 10'000'000'000}, 1000);  // 10 Gb/s
  cc.on_ack(1000, 10_us);
  // 10 Gb/s x 10us = 12500 bytes.
  EXPECT_NEAR(static_cast<double>(cc.window_bytes()), 12500, 1500);
}

TEST(RcpCc, TracksRateChangesImmediately) {
  RcpCc cc(kMss);
  for (int i = 0; i < 50; ++i) {
    cc.on_feedback({proto::FeedbackType::kRate, 100'000'000'000}, 1000);
    cc.on_ack(1000, 10_us);
  }
  const auto w_fast = cc.window_bytes();
  for (int i = 0; i < 50; ++i) {
    cc.on_feedback({proto::FeedbackType::kRate, 1'000'000'000}, 1000);
    cc.on_ack(1000, 10_us);
  }
  EXPECT_LT(cc.window_bytes(), w_fast / 10);
}

TEST(SwiftCc, ShrinksAboveTargetDelayGrowsBelow) {
  SwiftCc cc(kMss);  // delay target: kSwiftTargetDelay (30 us)
  const auto w0 = cc.window_bytes();
  for (int i = 0; i < 50; ++i) {
    cc.on_feedback({proto::FeedbackType::kDelay, 1'000}, 1000);  // 1us: below target
    cc.on_ack(1000, 10_us);
  }
  EXPECT_GT(cc.window_bytes(), w0);
  for (int i = 0; i < 200; ++i) {
    cc.on_feedback({proto::FeedbackType::kDelay, 300'000}, 1000);  // 300us: way above
    cc.on_ack(1000, 10_us);
  }
  EXPECT_LT(cc.window_bytes(), w0);
}

TEST(AimdCc, HalvesOnLoss) {
  AimdCc cc(kMss);
  for (int i = 0; i < 30; ++i) cc.on_ack(1000, 10_us);
  const auto w = cc.window_bytes();
  cc.on_loss(LossKind::kTimeout);
  EXPECT_NEAR(static_cast<double>(cc.window_bytes()), static_cast<double>(w) / 2, 1.0);
}

TEST(CcFactory, MapsFeedbackTypeToAlgorithm) {
  EXPECT_EQ(make_cc(proto::FeedbackType::kEcn, kMss)->name(), "dctcp");
  EXPECT_EQ(make_cc(proto::FeedbackType::kRate, kMss)->name(), "rcp");
  EXPECT_EQ(make_cc(proto::FeedbackType::kDelay, kMss)->name(), "swift");
  EXPECT_EQ(make_cc(proto::FeedbackType::kNone, kMss)->name(), "aimd");
}

// --------------------------------------------------- message transport

struct MtpPair {
  HostPair t;
  MtpEndpoint src;
  MtpEndpoint dst;

  explicit MtpPair(MtpConfig cfg = {},
                   sim::Bandwidth bw = sim::Bandwidth::gbps(100),
                   sim::SimTime delay = 1_us,
                   net::DropTailQueue::Config qcfg = {.capacity_pkts = 128,
                                                      .ecn_threshold_pkts = 20})
      : t(bw, delay, qcfg), src(*t.a, cfg), dst(*t.b, cfg) {}
};

TEST(MtpTransport, DeliversSingleMessageWithoutConnectionSetup) {
  MtpPair p;
  std::optional<ReceivedMessage> got;
  p.dst.listen(80, [&](const ReceivedMessage& m) { got = m; });
  bool done = false;
  p.src.send_message(p.t.b->id(), 5000, {.dst_port = 80},
                     [&](proto::MsgId, SimTime) { done = true; });
  p.t.sim().run(10_ms);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->bytes, 5000);
  EXPECT_EQ(got->src, p.t.a->id());
  EXPECT_TRUE(done);
  EXPECT_EQ(p.src.outstanding_messages(), 0u);
}

// A receiver consumes an ACK in place, reading its SACK lists without
// moving them out. The link frees what is left in the slot when the
// delivery returns, so a released slot holds no header box or app payload.
TEST(MtpTransport, ReleasedPoolSlotsHoldNoHeaderBoxes) {
  MtpPair p;
  int delivered = 0;
  p.dst.listen(80, [&](const ReceivedMessage&) { ++delivered; });
  for (int i = 0; i < 4; ++i) {
    p.src.send_message(p.t.b->id(), 20'000,
                       {.dst_port = 80, .app = net::AppData{"key", "value"}});
  }
  p.t.sim().run();
  ASSERT_EQ(delivered, 4);
  ASSERT_GT(p.dst.acks_sent(), 0u);
  const net::PacketPool& pool = p.t.net.packet_pool(0);
  ASSERT_EQ(pool.live(), 0u);
  ASSERT_GT(pool.size(), 0u);
  for (std::uint32_t i = 0; i < pool.size(); ++i) {
    const net::Packet& pkt = pool[i];
    EXPECT_FALSE(pkt.app) << "slot " << i;
    if (!pkt.is_mtp()) continue;
    EXPECT_FALSE(pkt.mtp().lists) << "slot " << i;
    EXPECT_FALSE(pkt.mtp().stream) << "slot " << i;
    EXPECT_FALSE(pkt.mtp().overload) << "slot " << i;
  }
}

class MtpMessageSizes : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(MtpMessageSizes, DeliversExactly) {
  MtpPair p;
  std::int64_t got = 0;
  p.dst.listen(80, [&](const ReceivedMessage& m) { got += m.bytes; });
  p.src.send_message(p.t.b->id(), GetParam(), {.dst_port = 80});
  p.t.sim().run(100_ms);
  EXPECT_EQ(got, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Sizes, MtpMessageSizes,
                         ::testing::Values(1, 999, 1000, 1001, 16'384, 250'000,
                                           2'000'000));

// The CC windows count the endpoint's own mss: a sender that sets only
// MtpConfig::mss opens with kInitWindowPkts packets of that size.
TEST(MtpTransport, FirstWindowCountsTheEndpointMss) {
  HostPair t;  // b runs no endpoint, so no ACK ever comes back
  MtpConfig cfg;
  cfg.mss = 1500;
  MtpEndpoint src(*t.a, cfg);
  src.send_message(t.b->id(), 100'000);
  t.sim().run(500_us);  // before the first retransmission timeout (5 x kMinRto)
  EXPECT_EQ(src.pkts_sent(), static_cast<std::uint64_t>(kInitWindowPkts));
}

TEST(MtpTransport, PreservesMessageMetadata) {
  MtpPair p;
  std::optional<ReceivedMessage> got;
  p.dst.listen(443, [&](const ReceivedMessage& m) { got = m; });
  MessageOptions opts;
  opts.priority = 9;
  opts.tc = 3;
  opts.src_port = 5555;
  opts.dst_port = 443;
  opts.app = net::AppData{"get:user/42", ""};
  p.src.send_message(p.t.b->id(), 3000, opts);
  p.t.sim().run(10_ms);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->priority, 9);
  EXPECT_EQ(got->tc, 3);
  EXPECT_EQ(got->src_port, 5555);
  EXPECT_EQ(got->dst_port, 443);
  ASSERT_TRUE(got->app.has_value());
  EXPECT_EQ(got->app->key, "get:user/42");
}

TEST(MtpTransport, ManyInterleavedMessagesAllComplete) {
  MtpPair p;
  int completed = 0;
  p.dst.listen(80, [&](const ReceivedMessage&) {});
  for (int i = 0; i < 50; ++i) {
    p.src.send_message(p.t.b->id(), 10'000 + i * 100, {.dst_port = 80},
                       [&](proto::MsgId, SimTime) { ++completed; });
  }
  p.t.sim().run(100_ms);
  EXPECT_EQ(completed, 50);
  EXPECT_EQ(p.dst.msgs_delivered(), 50u);
}

TEST(MtpTransport, MessagesToDifferentPortsRouteToDifferentHandlers) {
  MtpPair p;
  int a = 0, b = 0, other = 0;
  p.dst.listen(1, [&](const ReceivedMessage&) { ++a; });
  p.dst.listen(2, [&](const ReceivedMessage&) { ++b; });
  p.dst.listen_any([&](const ReceivedMessage&) { ++other; });
  p.src.send_message(p.t.b->id(), 100, {.dst_port = 1});
  p.src.send_message(p.t.b->id(), 100, {.dst_port = 2});
  p.src.send_message(p.t.b->id(), 100, {.dst_port = 3});
  p.t.sim().run(10_ms);
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 1);
  EXPECT_EQ(other, 1);
}

TEST(MtpLoss, RecoversFromQueueDropsAndCompletes) {
  MtpPair p({}, Bandwidth::gbps(100), 1_us,
            {.capacity_pkts = 8, .ecn_threshold_pkts = 0});
  std::int64_t got = 0;
  p.dst.listen(80, [&](const ReceivedMessage& m) { got += m.bytes; });
  p.src.send_message(p.t.b->id(), 500'000, {.dst_port = 80});
  p.t.sim().run(100_ms);
  EXPECT_EQ(got, 500'000);
  EXPECT_GT(p.src.pkts_retransmitted(), 0u);
}

TEST(MtpLoss, LongTransferSaturatesWithEcnPathlet) {
  MtpPair p({}, Bandwidth::gbps(10), 2_us,
            {.capacity_pkts = 128, .ecn_threshold_pkts = 20});
  p.t.a_to_sw->set_pathlet({.id = 1, .feedback = proto::FeedbackType::kEcn});
  stats::ThroughputMeter meter(100_us);
  p.dst.listen(80, [&](const ReceivedMessage& m) {
    meter.record(p.t.sim().now(), m.bytes);
  });
  // Stream of 100KB messages, a few outstanding at a time.
  int outstanding = 0;
  std::function<void()> feed = [&] {
    while (outstanding < 4) {
      ++outstanding;
      p.src.send_message(p.t.b->id(), 100'000, {.dst_port = 80},
                         [&](proto::MsgId, SimTime) {
                           --outstanding;
                           feed();
                         });
    }
  };
  feed();
  p.t.sim().run(10_ms);
  EXPECT_GT(meter.average_gbps(), 8.0);
}

TEST(MtpLoss, EcnPathletKeepsQueueNearThreshold) {
  MtpPair p({}, Bandwidth::gbps(10), 2_us,
            {.capacity_pkts = 128, .ecn_threshold_pkts = 20});
  p.t.a_to_sw->set_pathlet({.id = 1, .feedback = proto::FeedbackType::kEcn});
  p.dst.listen(80, [&](const ReceivedMessage&) {});
  p.src.send_message(p.t.b->id(), 20'000'000, {.dst_port = 80});
  std::size_t peak = 0;
  sim::PeriodicTask probe(p.t.sim(), 10_us, [&] {
    peak = std::max(peak, p.t.a_to_sw->queue().len_pkts());
  });
  probe.start(3_ms);
  p.t.sim().run(10_ms);
  EXPECT_LT(peak, 70u);  // DCTCP-style control around K=20, not buffer-filling
  EXPECT_GT(peak, 2u);   // but the link is actually loaded
}

TEST(MtpPathlets, DiscoversPathFromFeedback) {
  MtpPair p;
  p.t.a_to_sw->set_pathlet({.id = 11, .feedback = proto::FeedbackType::kEcn});
  p.t.sw_to_b->set_pathlet({.id = 22, .feedback = proto::FeedbackType::kEcn});
  p.dst.listen(80, [&](const ReceivedMessage&) {});
  p.src.send_message(p.t.b->id(), 50'000, {.dst_port = 80});
  p.t.sim().run(10_ms);
  const auto path = p.src.current_path(p.t.b->id());
  ASSERT_EQ(path.size(), 2u);
  EXPECT_EQ(path[0], 11u);
  EXPECT_EQ(path[1], 22u);
  EXPECT_NE(p.src.pathlet_cc(11, 0), nullptr);
  EXPECT_NE(p.src.pathlet_cc(22, 0), nullptr);
  EXPECT_EQ(p.src.pathlet_cc(11, 0)->name(), "dctcp");
}

TEST(MtpPathlets, PerTcCongestionStateIsSeparate) {
  MtpPair p;
  p.t.a_to_sw->set_pathlet({.id = 11, .feedback = proto::FeedbackType::kEcn});
  p.dst.listen(80, [&](const ReceivedMessage&) {});
  p.src.send_message(p.t.b->id(), 50'000, {.tc = 1, .dst_port = 80});
  p.src.send_message(p.t.b->id(), 50'000, {.tc = 2, .dst_port = 80});
  p.t.sim().run(10_ms);
  const auto* cc1 = p.src.pathlet_cc(11, 1);
  const auto* cc2 = p.src.pathlet_cc(11, 2);
  ASSERT_NE(cc1, nullptr);
  ASSERT_NE(cc2, nullptr);
  EXPECT_NE(cc1, cc2);  // distinct evolving state per (pathlet, TC)
}

TEST(MtpPathlets, RcpPathletUsesExplicitRate) {
  MtpPair p;
  p.t.a_to_sw->set_pathlet({.id = 5,
                            .feedback = proto::FeedbackType::kRate,
                            .rcp_rtt = 10_us});
  p.dst.listen(80, [&](const ReceivedMessage&) {});
  p.src.send_message(p.t.b->id(), 100'000, {.dst_port = 80});
  p.t.sim().run(10_ms);
  const auto* cc = p.src.pathlet_cc(5, 0);
  ASSERT_NE(cc, nullptr);
  EXPECT_EQ(cc->name(), "rcp");
  EXPECT_GT(static_cast<const RcpCc*>(cc)->rate_bps(), 0);
}

TEST(MtpPriority, HigherPriorityMessageFinishesFirstUnderContention) {
  // Slow link so admission order matters; equal-size messages.
  MtpPair p({}, Bandwidth::gbps(1), 2_us);
  std::vector<int> completion_order;
  p.dst.listen(80, [&](const ReceivedMessage& m) {
    completion_order.push_back(m.priority);
  });
  // Low priority first into the queue, then high: high must win.
  for (int i = 0; i < 3; ++i) {
    p.src.send_message(p.t.b->id(), 200'000, {.priority = 1, .dst_port = 80});
  }
  p.src.send_message(p.t.b->id(), 200'000, {.priority = 7, .dst_port = 80});
  p.t.sim().run(100_ms);
  ASSERT_EQ(completion_order.size(), 4u);
  EXPECT_EQ(completion_order.front(), 7);
}

TEST(MtpExclusion, ExcludedPathletRidesInHeadersAndExpires) {
  MtpPair p;
  p.src.exclude_pathlet(99, 1_ms);
  p.dst.listen(80, [&](const ReceivedMessage&) {});
  p.src.send_message(p.t.b->id(), 1000, {.dst_port = 80});
  p.t.sim().run(5_ms);  // past expiry
  p.src.send_message(p.t.b->id(), 1000, {.dst_port = 80});
  p.t.sim().run(20_ms);
  EXPECT_EQ(p.dst.msgs_delivered(), 2u);
}

TEST(MtpExclusion, MessageAwareSwitchAvoidsExcludedPathlet) {
  // Two parallel paths from the switch to b; exclude the first's pathlet.
  net::Network net;
  net::Host* a = net.add_host("a");
  net::Host* b = net.add_host("b");
  net::Switch* sw = net.add_switch("sw");
  net.connect(*a, *sw, Bandwidth::gbps(100), 1_us);
  auto p1 = net.connect(*sw, *b, Bandwidth::gbps(100), 1_us);
  auto p2 = net.connect(*sw, *b, Bandwidth::gbps(100), 1_us);
  p1.forward->set_pathlet({.id = 1, .feedback = proto::FeedbackType::kEcn});
  p2.forward->set_pathlet({.id = 2, .feedback = proto::FeedbackType::kEcn});
  net.build_routes();  // b: [p1, p2]
  sw->set_policy(std::make_unique<net::MessageAwarePolicy>());

  MtpEndpoint src(*a, {});
  MtpEndpoint dst(*b, {});
  dst.listen(80, [](const ReceivedMessage&) {});
  src.exclude_pathlet(1, 100_ms);
  src.send_message(b->id(), 200'000, {.dst_port = 80});
  net.simulator().run(50_ms);
  EXPECT_EQ(p1.forward->stats().pkts_delivered, 0u);
  EXPECT_GT(p2.forward->stats().pkts_delivered, 100u);
}

TEST(MtpDuplicates, RetransmittedDataOfDeliveredMessageIsReAcked) {
  // Force duplicate deliveries by dropping ACKs: tiny reverse queue.
  MtpPair p;
  // Shrink the b->sw reverse link queue to drop ACK bursts... instead use
  // data-path drops: tiny forward queue ensures retransmissions, and the
  // completed-message cache must keep re-acking so the sender finishes.
  MtpPair q({}, Bandwidth::gbps(100), 1_us, {.capacity_pkts = 4});
  std::int64_t got = 0;
  q.dst.listen(80, [&](const ReceivedMessage& m) { got += m.bytes; });
  q.src.send_message(q.t.b->id(), 300'000, {.dst_port = 80});
  q.t.sim().run(200_ms);
  EXPECT_EQ(got, 300'000);
  EXPECT_EQ(q.src.outstanding_messages(), 0u);
  (void)p;
}

TEST(MtpIndependence, OneStalledDestinationDoesNotBlockOthers) {
  // a sends to b (reachable) and to an unrouted destination (blackhole):
  // messages to b must still complete (per-message independence).
  MtpPair p;
  std::int64_t got = 0;
  p.dst.listen(80, [&](const ReceivedMessage& m) { got += m.bytes; });
  p.src.send_message(777 /* no route */, 50'000, {.dst_port = 80});
  p.src.send_message(p.t.b->id(), 50'000, {.dst_port = 80});
  p.t.sim().run(20_ms);
  EXPECT_EQ(got, 50'000);
}

TEST(MtpRtt, SrttTracksPath) {
  MtpPair p({}, Bandwidth::gbps(100), 5_us);
  p.dst.listen(80, [&](const ReceivedMessage&) {});
  p.src.send_message(p.t.b->id(), 100'000, {.dst_port = 80});
  p.t.sim().run(20_ms);
  EXPECT_GT(p.src.srtt().us(), 19.0);
  EXPECT_LT(p.src.srtt().us(), 100.0);
}

// ----------------------------------------------------------- parked groups
//
// A send group whose front packet did not fit a pathlet window parks, and
// pump() skips it until something that can change that verdict happens (see
// MtpEndpoint::SendGroup). Each rig below parks a group, then makes its front
// packet admissible through exactly one kind of event, with every ACK held
// back so that no uncharge wakes the group instead. The woken packet must
// leave at once. (Debug builds also assert, on every pump, that no parked
// group's front packet is admissible.)

/// Switch ingress hook: logs every data packet it forwards, drops chosen
/// ones, and holds every packet bound to `held_dst` while `hold` is set.
class Gate : public net::IngressProcessor {
 public:
  struct Seen {
    proto::MsgId msg;
    std::uint32_t pkt;
    SimTime at;
  };

  bool process(net::Packet& pkt, net::Switch& sw) override {
    if (!pkt.is_mtp()) return false;
    const proto::MtpHeader& h = pkt.mtp();
    if (hold && pkt.dst == held_dst) {
      held.push_back(std::move(pkt));
      return true;
    }
    if (h.is_ack()) return false;
    log.push_back({h.msg_id, h.pkt_num, sw.simulator().now()});
    auto drop = std::find(drops.begin(), drops.end(), std::pair{h.msg_id, h.pkt_num});
    if (drop == drops.end()) return false;
    drops.erase(drop);
    return true;
  }

  /// Forward the held packets that `pred` picks; keep the rest held.
  template <class Pred>
  void release(net::Switch& sw, Pred pred) {
    std::vector<net::Packet> keep;
    for (net::Packet& p : held) {
      if (pred(p)) {
        sw.send(std::move(p));
      } else {
        keep.push_back(std::move(p));
      }
    }
    held = std::move(keep);
  }

  /// When packet `pkt` of `msg` first crossed the switch on or after `from`
  /// (SimTime::max() if it never did).
  SimTime sent_at(proto::MsgId msg, std::uint32_t pkt, SimTime from = SimTime::zero()) const {
    for (const Seen& s : log) {
      if (s.msg == msg && s.pkt == pkt && s.at >= from) return s.at;
    }
    return SimTime::max();
  }

  std::vector<Seen> log;
  std::vector<std::pair<proto::MsgId, std::uint32_t>> drops;  ///< each dropped once
  bool hold = false;
  net::NodeId held_dst = net::kInvalidNode;
  std::vector<net::Packet> held;
};

/// a -- sw -- {b, c} at 100 Gbps, 1 us per link. With `pathlets`, links
/// a->sw, sw->b and sw->c carry ECN-feedback pathlets 5, 6 and 7, so a learns
/// the paths {5, 6} and {5, 7}; without, a charges virtual pathlets only.
struct ParkFabric {
  net::Network net;
  net::Host* a;
  net::Host* b;
  net::Host* c;
  net::Switch* sw;
  net::Link* a_sw;
  std::shared_ptr<Gate> gate = std::make_shared<Gate>();

  explicit ParkFabric(bool pathlets) {
    a = net.add_host("a");
    b = net.add_host("b");
    c = net.add_host("c");
    sw = net.add_switch("sw");
    const net::DropTailQueue::Config q{.capacity_pkts = 1024, .ecn_threshold_pkts = 0};
    a_sw = net.connect(*a, *sw, Bandwidth::gbps(100), 1_us, q).forward;
    auto sb = net.connect(*sw, *b, Bandwidth::gbps(100), 1_us, q);
    auto sc = net.connect(*sw, *c, Bandwidth::gbps(100), 1_us, q);
    if (pathlets) {
      a_sw->set_pathlet({.id = 5, .feedback = proto::FeedbackType::kEcn});
      sb.forward->set_pathlet({.id = 6, .feedback = proto::FeedbackType::kEcn});
      sc.forward->set_pathlet({.id = 7, .feedback = proto::FeedbackType::kEcn});
    }
    net.build_routes();
    gate->held_dst = a->id();
    sw->add_ingress(gate);
  }
};

struct ParkRig : ParkFabric {
  MtpEndpoint src;
  MtpEndpoint to_b;
  MtpEndpoint to_c;

  explicit ParkRig(bool pathlets, MtpConfig src_cfg = {}, MtpConfig dst_cfg = {})
      : ParkFabric(pathlets), src(*a, src_cfg), to_b(*b, dst_cfg), to_c(*c, dst_cfg) {
    to_b.listen_any([](const ReceivedMessage&) {});
    to_c.listen_any([](const ReceivedMessage&) {});
  }

  proto::MsgId send(const net::Host* dst, std::int64_t bytes, std::uint8_t priority = 0,
                    SimTime deadline = SimTime::zero()) {
    return src.send_message(dst->id(), bytes, {.priority = priority, .deadline = deadline});
  }
  void run(SimTime until) { net.simulator().run(until); }
  void release_all() {
    gate->hold = false;
    gate->release(*sw, [](const net::Packet&) { return true; });
  }
};

// Eight 1,300 B messages fill a fresh 10,000 B window but the last packet
// (7 x 1,300 + 1,000 > 10,000) and leave 900 B of headroom.
constexpr int kFillMsgs = 8;
constexpr std::int64_t kFillBytes = 1'300;

/// The first of `ids` whose packet 0 has not crossed the switch.
proto::MsgId first_unsent(const Gate& gate, const std::vector<proto::MsgId>& ids) {
  for (const proto::MsgId id : ids) {
    if (gate.sent_at(id, 0) == SimTime::max()) return id;
  }
  return 0;
}

TEST(MtpParkedGroups, UrgentRetransmitOfASmallerLastPacketWakesItsGroup) {
  ParkRig r(/*pathlets=*/true);
  r.send(r.b, 1'000);  // learn the path {5, 6}
  r.run(50_us);
  // A 1,200 B message whose 200 B last packet is lost, charged to {5, 6}.
  const proto::MsgId lossy = r.send(r.b, 1'200);
  r.gate->drops.push_back({lossy, 1});
  r.run(80_us);
  // Excluding pathlet 5 moves b to its virtual pathlet; the fill parks there.
  r.gate->hold = true;
  r.src.exclude_pathlet(5, 100_ms);
  std::vector<proto::MsgId> fill;
  for (int i = 0; i < kFillMsgs; ++i) fill.push_back(r.send(r.b, kFillBytes));
  r.run(90_us);
  ASSERT_EQ(first_unsent(*r.gate, fill), fill.back());
  // The lost packet times out: its uncharge lands on {5, 6}, not on the
  // virtual pathlet, so only the urgent enqueue can wake the group. The
  // 200 B retransmission fits the 900 B of headroom and leaves at once.
  r.run(1_ms);
  SimTime fill_retx = SimTime::max();
  for (const Gate::Seen& s : r.gate->log) {
    if (s.at > 100_us && s.msg != lossy) fill_retx = std::min(fill_retx, s.at);
  }
  ASSERT_LT(fill_retx.ns(), SimTime::max().ns());
  // Timers fire on 10 us wheel ticks: the retransmission leaves at least a
  // tick before any fill packet times out and uncharges the virtual pathlet.
  EXPECT_LE(r.gate->sent_at(lossy, 1, 100_us).ns(), (fill_retx - 10_us).ns());
  r.release_all();
  r.run(20_ms);
  EXPECT_EQ(r.src.outstanding_messages(), 0u);
}

TEST(MtpParkedGroups, ExclusionWakesGroupsOfTheDestination) {
  ParkRig r(/*pathlets=*/true);
  r.send(r.b, 1'000);  // learn {5, 6}
  r.run(50_us);
  r.gate->hold = true;
  std::vector<proto::MsgId> fill;
  for (int i = 0; i < 2 * kFillMsgs; ++i) fill.push_back(r.send(r.b, kFillBytes));
  r.run(60_us);
  const proto::MsgId first_parked = first_unsent(*r.gate, fill);
  ASSERT_NE(first_parked, 0u);
  // Excluding pathlet 5 drops b's path; the group must retry on the fresh
  // virtual pathlet right away, not when the held packets time out.
  r.src.exclude_pathlet(5, 100_ms);
  r.send(r.c, 100);  // pumps: b's group must be awake by now
  r.run(1_ms);
  EXPECT_LT(r.gate->sent_at(first_parked, 0).ns(), (70_us).ns());
  r.release_all();
  r.run(20_ms);
  EXPECT_EQ(r.src.outstanding_messages(), 0u);
}

TEST(MtpParkedGroups, AutoExclusionFromPenalizeWakesOtherDestinations) {
  MtpConfig cfg;
  cfg.auto_exclude_after_losses = 1;
  cfg.exclude_duration = 100_ms;
  ParkRig r(/*pathlets=*/true, cfg);
  // Warm up: pathlet 5 (shared) gets a larger window than 6 (b's last hop).
  r.send(r.b, 1'000);
  r.send(r.c, 1'000);
  r.send(r.c, 1'000);
  r.run(50_us);
  r.gate->hold = true;
  // One packet to c, charged to {5, 7}, whose ACK never comes back.
  const proto::MsgId to_c = r.send(r.c, 1'000);
  r.run(80_us);
  // The fill to b parks on pathlet 6, which the packet to c does not touch.
  std::vector<proto::MsgId> fill;
  for (int i = 0; i < 2 * kFillMsgs; ++i) fill.push_back(r.send(r.b, kFillBytes));
  r.run(90_us);
  const proto::MsgId first_parked = first_unsent(*r.gate, fill);
  ASSERT_NE(first_parked, 0u);
  // c's packet times out first: penalize excludes pathlet 5, which drops
  // b's path too, so b's group must retry on its virtual pathlet then.
  r.run(1_ms);
  const SimTime c_retx = r.gate->sent_at(to_c, 0, 100_us);
  ASSERT_LT(c_retx.ns(), SimTime::max().ns());
  // The same 10 us timer tick as c's retransmission, not the fill's own
  // timeout a tick later.
  EXPECT_LT(r.gate->sent_at(first_parked, 0).ns(), (c_retx + 10_us).ns());
  r.release_all();
  r.run(20_ms);
  EXPECT_EQ(r.src.outstanding_messages(), 0u);
}

TEST(MtpParkedGroups, FrontMessageSackedWhileLostWakesItsGroup) {
  ParkRig r(/*pathlets=*/false);
  r.gate->hold = true;
  SimTime front_done = SimTime::max();
  const proto::MsgId front = r.src.send_message(
      r.b->id(), 1'000, {}, [&](proto::MsgId, SimTime) { front_done = r.net.simulator().now(); });
  r.run(5_us);
  // From now on a->sw stamps pathlet 5; `front` crossed it unstamped.
  r.a_sw->set_pathlet({.id = 5, .feedback = proto::FeedbackType::kEcn});
  r.send(r.b, 3'000, /*priority=*/1);
  r.run(20_us);
  r.gate->release(*r.sw, [&](const net::Packet& p) { return p.mtp().msg_id != front; });
  r.run(900_us);  // b's path is {5}, whose window grew to 13,000 B
  // Ten 1,400 B messages of another group fill pathlet 5 but 400 B.
  for (int i = 0; i < 10; ++i) r.send(r.b, 1'400, /*priority=*/1);
  // ~1 ms: `front` times out on its virtual pathlet; its 1,000 B
  // retransmission does not fit pathlet 5, and a 100 B message queues
  // behind it.
  r.run(1'020_us);
  ASSERT_EQ(r.gate->sent_at(front, 0, 1_ms).ns(), SimTime::max().ns());
  const proto::MsgId small = r.send(r.b, 100);
  r.run(1'050_us);
  ASSERT_EQ(r.gate->sent_at(small, 0).ns(), SimTime::max().ns());
  // The first transmission's ACK arrives late and without feedback: the
  // lost packet is SACKed and `front` completes, updating only its virtual
  // pathlet. The 100 B message is the new head, and it fits.
  r.gate->release(*r.sw, [&](const net::Packet& p) { return p.mtp().msg_id == front; });
  r.run(1'080_us);
  ASSERT_LT(front_done.ns(), SimTime::max().ns());
  EXPECT_LT(r.gate->sent_at(small, 0).ns(), (front_done + 2_us).ns());
  r.release_all();
  r.run(20_ms);
  EXPECT_EQ(r.src.outstanding_messages(), 0u);
}

TEST(MtpParkedGroups, AbortedFrontMessageWakesItsGroup) {
  MtpConfig rx;
  rx.overload.enabled = true;  // b busy-rejects messages past their deadline
  ParkRig r(/*pathlets=*/false, {}, rx);
  r.gate->hold = true;
  SimTime rejected_at = SimTime::max();
  r.src.on_rejected = [&](proto::MsgId, net::NodeId, bool) {
    rejected_at = r.net.simulator().now();
  };
  const proto::MsgId front = r.send(r.b, 1'000, 0, /*deadline=*/1_ns);
  r.run(10_us);
  r.send(r.b, 4'500, /*priority=*/1);  // another group, same window
  // ~1 ms: `front` times out; the loss halves the window to 5,000 B, and its
  // 1,000 B retransmission does not fit beside the 4,500 B in flight.
  r.run(1'100_us);
  ASSERT_EQ(r.gate->sent_at(front, 0, 1_ms).ns(), SimTime::max().ns());
  const proto::MsgId small = r.send(r.b, 100);
  r.run(1'200_us);
  ASSERT_EQ(r.gate->sent_at(small, 0).ns(), SimTime::max().ns());
  // The busy-reject of the first transmission aborts `front`, which has
  // nothing in flight to uncharge: only the abort can wake the group.
  r.gate->release(*r.sw, [&](const net::Packet& p) { return p.mtp().msg_id == front; });
  r.run(1'300_us);
  ASSERT_LT(rejected_at.ns(), SimTime::max().ns());
  EXPECT_LT(r.gate->sent_at(small, 0).ns(), (rejected_at + 2_us).ns());
  r.release_all();
  r.run(20_ms);
  EXPECT_EQ(r.src.outstanding_messages(), 0u);
}

}  // namespace
}  // namespace mtp::core
