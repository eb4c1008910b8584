// Property-style parameterized sweeps: delivery invariants must hold across
// MSS choices, queue depths, coalescing depths, scheduling policies, message
// mixes and seeds — the knobs a deployment would actually turn.
#include <gtest/gtest.h>

#include <tuple>

#include "helpers.hpp"
#include "mtp/bulk.hpp"
#include "mtp/cc_algorithm.hpp"
#include "mtp/endpoint.hpp"
#include "workload/workload.hpp"

namespace mtp::core {
namespace {

using namespace mtp::sim::literals;
using mtp::testing::HostPair;
using sim::Bandwidth;
using sim::SimTime;

// ---- Invariant: exact delivery for any MSS and message size combination.

class MssSweep : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::int64_t>> {};

TEST_P(MssSweep, ExactDeliveryAndCompletion) {
  const auto [mss, bytes] = GetParam();
  HostPair t;
  MtpConfig cfg;
  cfg.mss = mss;
  MtpEndpoint src(*t.a, cfg);
  MtpEndpoint dst(*t.b, cfg);
  std::int64_t got = 0;
  bool done = false;
  dst.listen(80, [&](const ReceivedMessage& m) { got += m.bytes; });
  src.send_message(t.b->id(), bytes, {.dst_port = 80},
                   [&](proto::MsgId, SimTime) { done = true; });
  t.sim().run(200_ms);
  EXPECT_EQ(got, bytes);
  EXPECT_TRUE(done);
  EXPECT_EQ(src.outstanding_messages(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MssSweep,
    ::testing::Combine(::testing::Values(100u, 536u, 1000u, 1500u, 9000u),
                       ::testing::Values<std::int64_t>(1, 1499, 100'000)));

// ---- Invariant: delivery survives any queue depth (loss regime sweep).

class QueueDepthSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(QueueDepthSweep, LossyPathStillDeliversExactly) {
  HostPair t(Bandwidth::gbps(100), 1_us,
             {.capacity_pkts = GetParam(), .ecn_threshold_pkts = 0});
  MtpEndpoint src(*t.a, {});
  MtpEndpoint dst(*t.b, {});
  std::int64_t got = 0;
  dst.listen(80, [&](const ReceivedMessage& m) { got += m.bytes; });
  for (int i = 0; i < 5; ++i) {
    src.send_message(t.b->id(), 100'000, {.dst_port = 80});
  }
  t.sim().run(500_ms);
  EXPECT_EQ(got, 500'000) << "queue depth " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Depths, QueueDepthSweep,
                         ::testing::Values(2, 4, 8, 16, 64, 512));

// ---- Invariant: ack coalescing depth never affects what is delivered.

class CoalesceSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(CoalesceSweep, DeliveryIndependentOfAckBatching) {
  HostPair t(Bandwidth::gbps(100), 1_us, {.capacity_pkts = 32});
  MtpConfig cfg;
  cfg.ack_coalesce = GetParam();
  MtpEndpoint src(*t.a, cfg);
  MtpEndpoint dst(*t.b, cfg);
  std::int64_t got = 0;
  int msgs = 0;
  dst.listen(80, [&](const ReceivedMessage& m) {
    got += m.bytes;
    ++msgs;
  });
  src.send_message(t.b->id(), 250'000, {.dst_port = 80});
  src.send_message(t.b->id(), 7, {.dst_port = 80});
  t.sim().run(300_ms);
  EXPECT_EQ(got, 250'007);
  EXPECT_EQ(msgs, 2);
}

INSTANTIATE_TEST_SUITE_P(Depths, CoalesceSweep, ::testing::Values(1, 2, 4, 16, 128));

// ---- Invariant: priority-FIFO scheduling completes every message.

TEST(SchedulingSweep, MixedSizesAllComplete) {
  HostPair t(Bandwidth::gbps(10), 2_us);
  MtpEndpoint src(*t.a, {});
  MtpEndpoint dst(*t.b, {});
  int done = 0;
  dst.listen(80, [](const ReceivedMessage&) {});
  sim::Rng rng(77);
  workload::SizeDist sizes = workload::SizeDist::skewed(1'000, 1'000'000);
  for (int i = 0; i < 30; ++i) {
    src.send_message(t.b->id(), sizes.sample(rng),
                     {.priority = static_cast<std::uint8_t>(i % 3), .dst_port = 80},
                     [&](proto::MsgId, SimTime) { ++done; });
  }
  t.sim().run(500_ms);
  EXPECT_EQ(done, 30);
}

// ---- Invariant: every CC algorithm keeps its window within sane bounds
// under arbitrary interleavings of feedback, acks and losses.

class CcFuzz : public ::testing::TestWithParam<std::tuple<proto::FeedbackType, std::uint64_t>> {};

TEST_P(CcFuzz, WindowAlwaysWithinBounds) {
  const auto [type, seed] = GetParam();
  constexpr std::uint32_t kMss = 1000;
  auto cc = make_cc(type, kMss);
  sim::Rng rng(seed);
  for (int i = 0; i < 5000; ++i) {
    const double dice = rng.uniform();
    if (dice < 0.60) {
      proto::Feedback fb;
      fb.type = type;
      switch (type) {
        case proto::FeedbackType::kEcn:
          fb.value = rng.bernoulli(0.3) ? 1 : 0;
          break;
        case proto::FeedbackType::kRate:
          fb.value = static_cast<std::uint64_t>(rng.uniform_int(1'000'000, 100'000'000'000));
          break;
        case proto::FeedbackType::kDelay:
          fb.value = static_cast<std::uint64_t>(rng.uniform_int(0, 1'000'000));
          break;
        default:
          break;
      }
      cc->on_feedback(fb, 1000);
      cc->on_ack(1000, SimTime::microseconds(rng.uniform_int(1, 200)));
    } else if (dice < 0.9) {
      cc->on_ack(static_cast<std::int64_t>(rng.uniform_int(1, 9000)),
                 SimTime::microseconds(rng.uniform_int(1, 200)));
    } else {
      cc->on_loss(rng.bernoulli(0.5) ? LossKind::kTimeout : LossKind::kTrim);
    }
    ASSERT_GE(cc->window_bytes(), static_cast<std::int64_t>(kMss));
    ASSERT_LE(cc->window_bytes(), kMaxWindowBytes);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AlgoSeeds, CcFuzz,
    ::testing::Combine(::testing::Values(proto::FeedbackType::kEcn,
                                         proto::FeedbackType::kRate,
                                         proto::FeedbackType::kDelay,
                                         proto::FeedbackType::kNone),
                       ::testing::Values<std::uint64_t>(1, 2, 3)));

// ---- Invariant: blobs of any size reassemble exactly, across seeds.

class BlobSweep : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(BlobSweep, ReassemblesExactly) {
  HostPair t;
  MtpEndpoint src(*t.a, {});
  MtpEndpoint dst(*t.b, {});
  std::int64_t got = 0;
  BulkReceiver rx(dst, 5000,
                  [&](net::NodeId, std::uint64_t, std::int64_t bytes, SimTime) {
                    got = bytes;
                  });
  BulkSender tx(src, t.b->id(), 5000);
  tx.send_blob(GetParam());
  t.sim().run(300_ms);
  EXPECT_EQ(got, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Sizes, BlobSweep,
                         ::testing::Values<std::int64_t>(1, 1000, 1001, 65'536,
                                                         1'000'000));

// ---- Determinism: the same seed gives bit-identical experiment results.

TEST(Determinism, SameSeedSameOutcome) {
  auto run_once = [](std::uint64_t seed) {
    HostPair t(Bandwidth::gbps(10), 2_us, {.capacity_pkts = 16}, seed);
    MtpEndpoint src(*t.a, {});
    MtpEndpoint dst(*t.b, {});
    std::int64_t got = 0;
    dst.listen(80, [&](const ReceivedMessage& m) { got += m.bytes; });
    sim::Rng rng(seed);
    workload::SizeDist sizes = workload::SizeDist::skewed(1'000, 200'000);
    for (int i = 0; i < 10; ++i) {
      src.send_message(t.b->id(), sizes.sample(rng), {.dst_port = 80});
    }
    t.sim().run(100_ms);
    return std::tuple{got, src.pkts_sent(), src.pkts_retransmitted(),
                      t.sim().events_executed()};
  };
  EXPECT_EQ(run_once(5), run_once(5));
  EXPECT_NE(std::get<1>(run_once(5)), 0u);
}

}  // namespace
}  // namespace mtp::core
