// Header tests: the one heap block behind an MtpHeader's five lists
// (writes, copies, moves, equality), the billed MTP header size, and a
// seeded property sweep over random MTP headers.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "proto/mtp_header.hpp"
#include "proto/tcp_header.hpp"
#include "sim/random.hpp"
#include "transport/message.hpp"

namespace mtp::proto {
namespace {

TEST(MtpHeader, IsLastPkt) {
  MtpHeader h;
  h.msg_len_pkts = 3;
  h.pkt_num = 2;
  EXPECT_TRUE(h.is_last_pkt());
  h.pkt_num = 1;
  EXPECT_FALSE(h.is_last_pkt());
}

// --- HeaderLists: the five lists share one heap block.

// A header whose five lists hold `n` distinct entries each. The lists are
// filled last first, so every append to an earlier list moves the lists
// after it; n = 5 grows the block past its first regrowth.
MtpHeader header_with_lists(std::uint32_t n) {
  MtpHeader h;
  h.msg_len_pkts = 1;
  for (std::uint32_t i = 0; i < n; ++i) h.nack().push_back({900 + i, i});
  for (std::uint32_t i = 0; i < n; ++i) h.sack().push_back({800 + i, i});
  for (std::uint32_t i = 0; i < n; ++i) {
    h.ack_path_feedback().push_back({700 + i, 1, {FeedbackType::kDelay, 70 + i}});
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    h.path_feedback().push_back({600 + i, 2, {FeedbackType::kRate, 60 + i}});
  }
  for (std::uint32_t i = 0; i < n; ++i) h.path_exclude().push_back({500 + i, 3});
  return h;
}

void expect_lists(const MtpHeader& h, std::uint32_t n) {
  ASSERT_EQ(h.path_exclude().size(), n);
  ASSERT_EQ(h.path_feedback().size(), n);
  ASSERT_EQ(h.ack_path_feedback().size(), n);
  ASSERT_EQ(h.sack().size(), n);
  ASSERT_EQ(h.nack().size(), n);
  for (std::uint32_t i = 0; i < n; ++i) {
    EXPECT_EQ(h.path_exclude()[i], (PathRef{500 + i, 3}));
    EXPECT_EQ(h.path_feedback()[i], (PathFeedback{600 + i, 2, {FeedbackType::kRate, 60 + i}}));
    EXPECT_EQ(h.ack_path_feedback()[i],
              (PathFeedback{700 + i, 1, {FeedbackType::kDelay, 70 + i}}));
    EXPECT_EQ(h.sack()[i], (SackEntry{800 + i, i}));
    EXPECT_EQ(h.nack()[i], (SackEntry{900 + i, i}));
  }
}

TEST(HeaderLists, ListsCopiesAndBilledSizeAtSizesZeroOneAndPastRegrowth) {
  for (const std::uint32_t n : {0u, 1u, 5u}) {
    SCOPED_TRACE(n);
    const MtpHeader h = header_with_lists(n);
    EXPECT_EQ(static_cast<bool>(h.lists), n > 0);
    expect_lists(h, n);
    // 5 B per exclusion, 14 B per feedback TLV, 12 B per SACK or NACK entry.
    EXPECT_EQ(transport::mtp_header_bytes(h),
              transport::kMtpBaseHeaderBytes + n * (5 + 14 + 14 + 12 + 12));
    const MtpHeader copy = h;
    EXPECT_EQ(static_cast<bool>(copy.lists), n > 0);
    expect_lists(copy, n);
    EXPECT_EQ(copy, h);
  }
}

TEST(HeaderLists, ClearAndAssignKeepTheOtherLists) {
  MtpHeader h = header_with_lists(3);
  h.ack_path_feedback().clear();
  h.sack().assign({{1, 2}});
  EXPECT_TRUE(h.ack_path_feedback().empty());
  EXPECT_EQ(h.sack().size(), 1u);
  EXPECT_EQ(h.sack().front(), (SackEntry{1, 2}));
  ASSERT_EQ(h.nack().size(), 3u);
  EXPECT_EQ(h.nack().back(), (SackEntry{902, 2}));
  ASSERT_EQ(h.path_feedback().size(), 3u);
  EXPECT_EQ(h.path_feedback()[2].pathlet, 602u);
  const std::vector<SackEntry> many(40, SackEntry{7, 7});
  h.sack().assign(many);  // grows the block between path feedback and NACKs
  EXPECT_EQ(h.sack().size(), 40u);
  EXPECT_EQ(h.nack().front(), (SackEntry{900, 0}));
  EXPECT_EQ(h.path_exclude().back(), (PathRef{502, 3}));
}

TEST(HeaderLists, ReserveKeepsListsLongerThanAsked) {
  MtpHeader h = header_with_lists(3);
  h.lists.reserve({0, 0, 1, 8, 0});  // fewer than held for four lists
  expect_lists(h, 3);
  for (std::uint32_t i = 0; i < 5; ++i) h.sack().push_back({1, i});
  EXPECT_EQ(h.sack().size(), 8u);
  EXPECT_EQ(h.sack()[2], (SackEntry{802, 2}));
  EXPECT_EQ(h.nack()[2], (SackEntry{902, 2}));
  h.sack().push_back(h.sack()[0]);  // an entry of the block itself
  EXPECT_EQ(h.sack().back(), (SackEntry{800, 0}));
}

TEST(HeaderLists, CopyClonesAndMoveSteals) {
  const MtpHeader original = header_with_lists(5);
  MtpHeader copy = original;
  EXPECT_EQ(copy, original);
  copy.sack().push_back({1, 1});  // the copy owns its own block
  EXPECT_NE(copy, original);
  expect_lists(original, 5);

  MtpHeader moved = std::move(copy);
  EXPECT_FALSE(copy.lists);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(moved.sack().size(), 6u);

  MtpHeader assigned;
  assigned.nack().push_back({9, 9});
  assigned = original;  // copy-assigned over a block of its own
  EXPECT_EQ(assigned, original);
  assigned = std::move(moved);
  EXPECT_FALSE(moved.lists);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(assigned.sack().size(), 6u);
  EXPECT_EQ(assigned.sack().back(), (SackEntry{1, 1}));
}

TEST(HeaderLists, NoBlockEqualsAnEmptiedBlock) {
  const MtpHeader none;
  MtpHeader emptied;
  emptied.sack().push_back({1, 2});
  emptied.path_feedback().push_back({3, 0, {}});
  emptied.sack().clear();
  EXPECT_NE(none, emptied);
  emptied.path_feedback().clear();
  EXPECT_TRUE(emptied.lists);
  EXPECT_FALSE(none.lists);
  EXPECT_EQ(none, emptied);
  EXPECT_EQ(emptied, none);
  const MtpHeader copy = emptied;  // an emptied block copies as none
  EXPECT_FALSE(copy.lists);
  EXPECT_EQ(copy, none);
}

// --- Property sweep: random list appends, interleaved across the five lists
// so that most of them move the lists behind, must read back as a plain
// vector model of each list, copy exactly, and bill the models' sizes.

class MtpHeaderFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MtpHeaderFuzz, RandomHeaderRoundTrips) {
  sim::Rng rng(GetParam());
  MtpHeader h;
  h.src_port = static_cast<PortNum>(rng.next_u64());
  h.dst_port = static_cast<PortNum>(rng.next_u64());
  h.type = rng.bernoulli(0.5) ? MtpPacketType::kData : MtpPacketType::kAck;
  h.msg_id = rng.next_u64();
  h.priority = static_cast<std::uint8_t>(rng.next_u64());
  h.tc = static_cast<TrafficClassId>(rng.next_u64());
  h.msg_len_bytes = rng.next_u64() >> 20;
  h.msg_len_pkts = static_cast<std::uint32_t>(rng.next_u64());
  h.pkt_num = static_cast<std::uint32_t>(rng.next_u64());
  h.pkt_offset = rng.next_u64() >> 20;
  h.pkt_len = static_cast<std::uint32_t>(rng.next_u64());

  std::vector<PathRef> exclude;
  std::vector<PathFeedback> feedback, ack_feedback;
  std::vector<SackEntry> sack, nack;
  auto path_feedback = [&rng] {
    return PathFeedback{static_cast<PathletId>(rng.next_u64()),
                        static_cast<TrafficClassId>(rng.next_u64()),
                        {static_cast<FeedbackType>(rng.uniform_int(0, 4)), rng.next_u64()}};
  };
  auto sack_entry = [&rng] {
    return SackEntry{rng.next_u64(), static_cast<std::uint32_t>(rng.next_u64())};
  };
  std::vector<std::size_t> appends;  // one list index per append, shuffled
  for (std::size_t l = 0; l < HeaderLists::kNumLists; ++l) {
    const auto n = rng.uniform_int(0, l < HeaderLists::kSack ? 8 : 16);
    appends.insert(appends.end(), static_cast<std::size_t>(n), l);
  }
  for (std::size_t i = appends.size(); i > 1; --i) {
    std::swap(appends[i - 1], appends[rng.uniform_int(0, static_cast<std::int64_t>(i) - 1)]);
  }
  for (const std::size_t l : appends) {
    switch (l) {
      case HeaderLists::kPathExclude: {
        const PathRef e{static_cast<PathletId>(rng.next_u64()),
                        static_cast<TrafficClassId>(rng.next_u64())};
        exclude.push_back(e);
        h.path_exclude().push_back(e);
        break;
      }
      case HeaderLists::kPathFeedback:
        feedback.push_back(path_feedback());
        h.path_feedback().push_back(feedback.back());
        break;
      case HeaderLists::kAckPathFeedback:
        ack_feedback.push_back(path_feedback());
        h.ack_path_feedback().push_back(ack_feedback.back());
        break;
      case HeaderLists::kSack:
        sack.push_back(sack_entry());
        h.sack().push_back(sack.back());
        break;
      case HeaderLists::kNack:
        nack.push_back(sack_entry());
        h.nack().push_back(nack.back());
        break;
    }
  }

  auto expect_models = [&](const MtpHeader& x) {
    EXPECT_TRUE(std::ranges::equal(x.path_exclude(), exclude));
    EXPECT_TRUE(std::ranges::equal(x.path_feedback(), feedback));
    EXPECT_TRUE(std::ranges::equal(x.ack_path_feedback(), ack_feedback));
    EXPECT_TRUE(std::ranges::equal(x.sack(), sack));
    EXPECT_TRUE(std::ranges::equal(x.nack(), nack));
    EXPECT_EQ(transport::mtp_header_bytes(x),
              transport::kMtpBaseHeaderBytes + exclude.size() * 5 +
                  (feedback.size() + ack_feedback.size()) * 14 +
                  (sack.size() + nack.size()) * 12);
  };
  expect_models(h);
  const MtpHeader copy = h;
  EXPECT_EQ(copy, h);
  expect_models(copy);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MtpHeaderFuzz, ::testing::Range<std::uint64_t>(1, 33));

TEST(TcpHeader, FlagHelpers) {
  TcpHeader h;
  h.flags = kTcpSyn | kTcpAck;
  EXPECT_TRUE(h.has(kTcpSyn));
  EXPECT_TRUE(h.has(kTcpAck));
  EXPECT_FALSE(h.has(kTcpFin));
}

}  // namespace
}  // namespace mtp::proto
