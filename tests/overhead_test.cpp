// Tests for the paper's §4 "discussion" mechanisms: DCQCN as an alternative
// ECN algorithm, strict-priority switch queues, and the two header-overhead
// reductions (ACK coalescing, selective feedback stamping).
#include <gtest/gtest.h>

#include "helpers.hpp"
#include "innetwork/queues.hpp"
#include "mtp/cc_algorithm.hpp"
#include "mtp/endpoint.hpp"
#include "stats/stats.hpp"

namespace mtp::core {
namespace {

using namespace mtp::sim::literals;
using sim::Bandwidth;
using sim::SimTime;
using mtp::testing::HostPair;

// ------------------------------------------------------------------ dcqcn

TEST(DcqcnCc, RateDropsOnMarksRecoversWithout) {
  CcConfig cfg;
  DcqcnCc cc(cfg);
  // Ramp up mark-free.
  for (int i = 0; i < 3000; ++i) cc.on_ack(1000, 10_us);
  const double high = cc.rate_gbps();
  EXPECT_GT(high, 2.0);
  // Sustained marks: rate collapses, alpha rises.
  for (int i = 0; i < 3000; ++i) {
    cc.on_feedback({proto::FeedbackType::kEcn, 1}, 1000);
    cc.on_ack(1000, 10_us);
  }
  EXPECT_LT(cc.rate_gbps(), high / 2);
  EXPECT_GT(cc.alpha(), 0.3);
  // Marks stop: fast recovery + additive probing restore the rate.
  const double low = cc.rate_gbps();
  for (int i = 0; i < 5000; ++i) cc.on_ack(1000, 10_us);
  EXPECT_GT(cc.rate_gbps(), low * 2);
}

TEST(DcqcnCc, WindowIsRateTimesRtt) {
  CcConfig cfg;
  DcqcnCc cc(cfg);
  for (int i = 0; i < 100; ++i) cc.on_ack(1000, 20_us);
  const double expect = cc.rate_gbps() * 1e9 / 8.0 * 20e-6;
  EXPECT_NEAR(static_cast<double>(cc.window_bytes()), expect, expect * 0.2);
}

TEST(DcqcnCc, SelectedByFactoryWhenConfigured) {
  CcConfig cfg;
  cfg.ecn_algorithm = CcConfig::EcnAlgorithm::kDcqcn;
  EXPECT_EQ(make_cc(proto::FeedbackType::kEcn, cfg)->name(), "dcqcn");
  cfg.ecn_algorithm = CcConfig::EcnAlgorithm::kDctcp;
  EXPECT_EQ(make_cc(proto::FeedbackType::kEcn, cfg)->name(), "dctcp");
}

TEST(DcqcnCc, EndToEndTransferControlsQueue) {
  HostPair t(Bandwidth::gbps(10), 2_us, {.capacity_pkts = 256, .ecn_threshold_pkts = 40});
  t.a_to_sw->set_pathlet({.id = 1, .feedback = proto::FeedbackType::kEcn});
  MtpConfig cfg;
  cfg.cc.ecn_algorithm = CcConfig::EcnAlgorithm::kDcqcn;
  MtpEndpoint src(*t.a, cfg);
  MtpEndpoint dst(*t.b, cfg);
  std::int64_t got = 0;
  dst.listen(80, [&](const ReceivedMessage& m) { got += m.bytes; });
  src.send_message(t.b->id(), 5'000'000, {.dst_port = 80});
  std::size_t peak = 0;
  sim::PeriodicTask probe(t.sim(), 20_us, [&] {
    peak = std::max(peak, t.a_to_sw->queue().len_pkts());
  });
  probe.start(2_ms);
  t.sim().run(50_ms);
  EXPECT_EQ(got, 5'000'000);
  // Rate control oscillates (epoch-based decrease/recovery) but must keep
  // the queue from sitting at the drop cliff.
  EXPECT_LT(peak, 250u);
  EXPECT_LT(t.a_to_sw->queue().stats().dropped, 100u);
  const auto* cc = src.pathlet_cc(1, 0);
  ASSERT_NE(cc, nullptr);
  EXPECT_EQ(cc->name(), "dcqcn");
}

// -------------------------------------------------------- priority queue

// Each queue case runs twice: on a standalone queue (private pool) and bound
// to a pool that other packets already occupy.

net::Packet prio_pkt(std::uint8_t pri, std::uint32_t bytes) {
  net::Packet p;
  p.payload_bytes = bytes;
  p.priority = pri;
  return p;
}

void high_priority_first(net::PacketPool* shared) {
  innetwork::StrictPriorityQueue q({.per_level_capacity_pkts = 64});
  if (shared != nullptr) q.bind_pool(*shared);
  q.enqueue(prio_pkt(0, 100));
  q.enqueue(prio_pkt(0, 100));
  q.enqueue(prio_pkt(7, 100));
  EXPECT_EQ(q.dequeue()->priority, 7);
  EXPECT_EQ(q.dequeue()->priority, 0);
  EXPECT_EQ(q.dequeue()->priority, 0);
  EXPECT_FALSE(q.dequeue().has_value());
}

void fifo_within_level(net::PacketPool* shared) {
  innetwork::StrictPriorityQueue q({.per_level_capacity_pkts = 2});
  if (shared != nullptr) q.bind_pool(*shared);
  EXPECT_TRUE(q.enqueue(prio_pkt(3, 1)));
  EXPECT_TRUE(q.enqueue(prio_pkt(3, 2)));
  EXPECT_FALSE(q.enqueue(prio_pkt(3, 3)));  // level 3 full
  EXPECT_TRUE(q.enqueue(prio_pkt(1, 4)));   // level 1 unaffected
  EXPECT_EQ(q.dequeue()->payload_bytes, 1u);
  EXPECT_EQ(q.dequeue()->payload_bytes, 2u);
  EXPECT_EQ(q.dequeue()->payload_bytes, 4u);
}

TEST(StrictPriorityQueue, HighPriorityJumpsTheLine) { high_priority_first(nullptr); }
TEST(StrictPriorityQueue, FifoWithinLevelAndPerLevelDrops) { fifo_within_level(nullptr); }

TEST(StrictPriorityQueue, CasesPassBoundToASharedPool) {
  net::PacketPool pool;
  net::DropTailQueue resident;
  resident.bind_pool(pool);
  for (std::uint32_t i = 1; i <= 3; ++i) resident.enqueue(prio_pkt(9, 7000 + i));
  for (auto* run : {high_priority_first, fifo_within_level}) {
    run(&pool);
    EXPECT_EQ(pool.live(), 3u);  // a destroyed queue returns its slots
  }
  for (std::uint32_t i = 1; i <= 3; ++i) EXPECT_EQ(resident.dequeue()->payload_bytes, 7000 + i);
  EXPECT_EQ(pool.live(), 0u);
}

TEST(StrictPriorityQueue, HighPriorityMessageCutsFctUnderCongestion) {
  // Bottleneck with a priority queue: a high-priority message sent after a
  // big low-priority one still finishes first end-to-end.
  net::Network net;
  auto* a = net.add_host("a");
  auto* b = net.add_host("b");
  auto* sw = net.add_switch("sw");
  net.connect(*a, *sw, Bandwidth::gbps(100), 1_us, {.capacity_pkts = 2048});
  net.connect_simplex(*sw, *b, Bandwidth::gbps(10), 1_us,
                      std::make_unique<innetwork::StrictPriorityQueue>(
                          innetwork::StrictPriorityQueue::Config{
                              .per_level_capacity_pkts = 1024}));
  net.connect_simplex(*b, *sw, Bandwidth::gbps(10), 1_us,
                      std::make_unique<net::DropTailQueue>());
  net.build_routes();
  MtpEndpoint src(*a, {});
  MtpEndpoint dst(*b, {});
  std::vector<std::uint8_t> completion_order;
  dst.listen(80, [&](const ReceivedMessage& m) { completion_order.push_back(m.priority); });
  src.send_message(b->id(), 1'000'000, {.priority = 0, .dst_port = 80});
  net.simulator().run(50_us);
  src.send_message(b->id(), 100'000, {.priority = 9, .dst_port = 80});
  net.simulator().run(200_ms);
  ASSERT_EQ(completion_order.size(), 2u);
  EXPECT_EQ(completion_order[0], 9);
}

// -------------------------------------------------------- ack coalescing

TEST(AckCoalescing, FourToOneReductionAndIdenticalDelivery) {
  auto run_one = [](std::uint32_t coalesce) {
    HostPair t;
    MtpConfig cfg;
    cfg.ack_coalesce = coalesce;
    auto src = std::make_unique<MtpEndpoint>(*t.a, cfg);
    auto dst = std::make_unique<MtpEndpoint>(*t.b, cfg);
    std::int64_t got = 0;
    dst->listen(80, [&](const ReceivedMessage& m) { got += m.bytes; });
    src->send_message(t.b->id(), 1'000'000, {.dst_port = 80});
    t.sim().run(100_ms);
    return std::pair{got, dst->acks_sent()};
  };
  const auto [bytes1, acks1] = run_one(1);
  const auto [bytes8, acks8] = run_one(8);
  EXPECT_EQ(bytes1, 1'000'000);
  EXPECT_EQ(bytes8, 1'000'000);
  EXPECT_GT(acks1, 990u);              // per-packet acking
  EXPECT_LT(acks8, acks1 / 4);         // at least 4x fewer ACK packets
}

TEST(AckCoalescing, FlushTimerPreventsStall) {
  // A message smaller than the coalescing depth would never fill a batch;
  // the flush timer must still complete it promptly.
  HostPair t;
  MtpConfig cfg;
  cfg.ack_coalesce = 64;
  MtpEndpoint src(*t.a, cfg);
  MtpEndpoint dst(*t.b, cfg);
  bool done = false;
  SimTime fct;
  dst.listen(80, [](const ReceivedMessage&) {});
  src.send_message(t.b->id(), 3'000, {.dst_port = 80},
                   [&](proto::MsgId, SimTime d) {
                     done = true;
                     fct = d;
                   });
  t.sim().run(10_ms);
  EXPECT_TRUE(done);
  EXPECT_LT(fct.us(), 100.0);  // completion flush, not a retransmit timeout
}

TEST(AckCoalescing, LossRecoveryStillWorks) {
  HostPair t(Bandwidth::gbps(100), 1_us, {.capacity_pkts = 8});
  MtpConfig cfg;
  cfg.ack_coalesce = 8;
  MtpEndpoint src(*t.a, cfg);
  MtpEndpoint dst(*t.b, cfg);
  std::int64_t got = 0;
  dst.listen(80, [&](const ReceivedMessage& m) { got += m.bytes; });
  src.send_message(t.b->id(), 400'000, {.dst_port = 80});
  t.sim().run(200_ms);
  EXPECT_EQ(got, 400'000);
}

// Recorded delivery digest of a 16:1 incast into a 1G ECN pathlet with
// 4-packet ACK batches. ECN keeps each sender's window under four packets,
// so partial batches reach the senders on the ACK flush timer.
TEST(AckCoalescing, IncastDigestMatchesRecorded) {
  testing::Dumbbell t(16, Bandwidth::gbps(1), 1_us,
                      {.capacity_pkts = 256, .ecn_threshold_pkts = 40});
  t.bottleneck->set_pathlet({.id = 1, .feedback = proto::FeedbackType::kEcn});
  MtpConfig cfg;
  cfg.ack_coalesce = 4;
  std::vector<std::unique_ptr<MtpEndpoint>> eps;
  for (net::Host* h : t.senders) eps.push_back(std::make_unique<MtpEndpoint>(*h, cfg));
  MtpEndpoint dst(*t.receiver, cfg);
  sim::RunDigest digest(1);
  int delivered = 0;
  dst.listen(80, [&](const ReceivedMessage& m) {
    ++delivered;
    testing::fold_delivery(digest, m.src, m.msg_id, m.bytes, m.completed_at);
  });
  for (auto& ep : eps) {
    for (int m = 0; m < 2; ++m) ep->send_message(t.receiver->id(), 30'000, {.dst_port = 80});
  }
  t.sim().run(100_ms);
  EXPECT_EQ(delivered, 32);
  EXPECT_EQ(digest.value(), 0xa4af3f65b741611aULL);
}

// ---------------------------------------------------- selective feedback

TEST(SelectiveFeedback, UncongestedPathStampsOnlyEveryNth) {
  HostPair t;
  t.a_to_sw->set_pathlet(
      {.id = 3, .feedback = proto::FeedbackType::kEcn, .selective_every = 10});
  MtpEndpoint src(*t.a, {});
  MtpEndpoint dst(*t.b, {});
  std::int64_t stamped = 0, total = 0;
  // Sniff at the receiving host.
  auto inner = std::make_shared<int>();
  (void)inner;
  dst.listen(80, [](const ReceivedMessage&) {});
  // Count via a switch-side sniffer.
  class Sniffer : public net::IngressProcessor {
   public:
    Sniffer(std::int64_t& s, std::int64_t& t) : s_(s), t_(t) {}
    bool process(net::Packet& pkt, net::Switch&) override {
      if (pkt.is_mtp() && !pkt.mtp().is_ack()) {
        ++t_;
        if (!pkt.mtp().path_feedback().empty()) ++s_;
      }
      return false;
    }
    std::int64_t& s_;
    std::int64_t& t_;
  };
  t.sw->add_ingress(std::make_shared<Sniffer>(stamped, total));
  src.send_message(t.b->id(), 500'000, {.dst_port = 80});
  t.sim().run(100_ms);
  EXPECT_GT(total, 490);
  // Lightly loaded path (no marks): ~1 in 10 packets carries feedback.
  EXPECT_LT(stamped, total / 5);
  EXPECT_GT(stamped, total / 20);
}

TEST(SelectiveFeedback, CongestionAlwaysStamps) {
  // Saturating transfer with a tight marking threshold: marked packets must
  // carry feedback even off the Nth-packet schedule, so control stays tight.
  HostPair t(Bandwidth::gbps(10), 2_us, {.capacity_pkts = 256, .ecn_threshold_pkts = 10});
  t.a_to_sw->set_pathlet(
      {.id = 3, .feedback = proto::FeedbackType::kEcn, .selective_every = 50});
  MtpEndpoint src(*t.a, {});
  MtpEndpoint dst(*t.b, {});
  std::int64_t got = 0;
  dst.listen(80, [&](const ReceivedMessage& m) { got += m.bytes; });
  src.send_message(t.b->id(), 5'000'000, {.dst_port = 80});
  std::size_t peak = 0;
  sim::PeriodicTask probe(t.sim(), 20_us, [&] {
    peak = std::max(peak, t.a_to_sw->queue().len_pkts());
  });
  probe.start(2_ms);
  t.sim().run(100_ms);
  EXPECT_EQ(got, 5'000'000);
  EXPECT_LT(peak, 120u);  // congestion feedback got through despite selectivity
}

}  // namespace
}  // namespace mtp::core
