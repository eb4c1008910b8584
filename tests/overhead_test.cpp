// Tests for the paper's §4 header-overhead reductions: ACK coalescing and
// selective feedback stamping.
#include <gtest/gtest.h>

#include "helpers.hpp"
#include "mtp/endpoint.hpp"

namespace mtp::core {
namespace {

using namespace mtp::sim::literals;
using sim::Bandwidth;
using sim::SimTime;
using mtp::testing::HostPair;

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
