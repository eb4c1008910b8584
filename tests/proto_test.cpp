// Wire-format tests: round-trip serialization of every header, malformed
// input rejection, and a seeded property sweep over random MTP headers.
#include <gtest/gtest.h>

#include "proto/mtp_header.hpp"
#include "proto/tcp_header.hpp"
#include "sim/random.hpp"

namespace mtp::proto {
namespace {

MtpHeader sample_header() {
  MtpHeader h;
  h.src_port = 1234;
  h.dst_port = 80;
  h.type = MtpPacketType::kData;
  h.msg_id = 0xdeadbeefcafe;
  h.priority = 7;
  h.tc = 2;
  h.msg_len_bytes = 1'000'000;
  h.msg_len_pkts = 1000;
  h.pkt_num = 41;
  h.pkt_offset = 41'000;
  h.pkt_len = 1000;
  h.path_exclude().assign({{5, 1}, {9, 0}});
  h.path_feedback().assign({{5, 1, {FeedbackType::kEcn, 1}},
                            {7, 1, {FeedbackType::kRate, 40'000'000'000}}});
  h.ack_path_feedback().assign({{5, 1, {FeedbackType::kDelay, 12'345}}});
  h.sack().assign({{12, 3}, {12, 4}});
  h.nack().assign({{13, 0}});
  return h;
}

TEST(MtpHeader, RoundTripsAllFields) {
  const MtpHeader h = sample_header();
  std::vector<std::uint8_t> buf;
  h.serialize(buf);
  const auto parsed = MtpHeader::parse(buf);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, h);
}

TEST(MtpHeader, WireSizeMatchesSerializedLength) {
  const MtpHeader h = sample_header();
  std::vector<std::uint8_t> buf;
  h.serialize(buf);
  EXPECT_EQ(buf.size(), h.wire_size());
}

TEST(MtpHeader, EmptyListsRoundTrip) {
  MtpHeader h;
  h.msg_id = 1;
  h.msg_len_bytes = 10;
  h.msg_len_pkts = 1;
  h.pkt_len = 10;
  std::vector<std::uint8_t> buf;
  h.serialize(buf);
  // Five u16 list counts + the stream and overload presence bytes.
  EXPECT_EQ(buf.size(), MtpHeader::kFixedSize + 12);
  const auto parsed = MtpHeader::parse(buf);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, h);
}

TEST(MtpHeader, TruncatedInputRejectedAtEveryLength) {
  const MtpHeader h = sample_header();
  std::vector<std::uint8_t> buf;
  h.serialize(buf);
  for (std::size_t len = 0; len < buf.size(); ++len) {
    EXPECT_FALSE(MtpHeader::parse(std::span(buf.data(), len)).has_value())
        << "accepted truncation at " << len;
  }
}

TEST(MtpHeader, RejectsBadPacketType) {
  MtpHeader h;
  h.msg_len_pkts = 1;
  std::vector<std::uint8_t> buf;
  h.serialize(buf);
  buf[4] = 0x77;  // type byte
  EXPECT_FALSE(MtpHeader::parse(buf).has_value());
}

TEST(MtpHeader, RejectsBadFeedbackType) {
  MtpHeader h = sample_header();
  std::vector<std::uint8_t> buf;
  h.serialize(buf);
  // Corrupt the first feedback TLV's type byte: it sits right after the
  // fixed part + exclude list (2 + 2*5 bytes) + feedback count (2) + path id
  // (4) + tc (1).
  const std::size_t pos = MtpHeader::kFixedSize + 2 + h.path_exclude().size() * 5 + 2 + 4 + 1;
  buf[pos] = 0x99;
  EXPECT_FALSE(MtpHeader::parse(buf).has_value());
}

TEST(MtpHeader, OverloadBlockRoundTrips) {
  MtpHeader h = sample_header();
  auto& ov = h.overload.ensure();
  ov.flags = kOverloadBusy | kOverloadExpired;
  ov.grant_bytes = 123'456;
  ov.deadline_ns = 987'654'321;
  std::vector<std::uint8_t> buf;
  h.serialize(buf);
  EXPECT_EQ(buf.size(), h.wire_size());
  const auto parsed = MtpHeader::parse(buf);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, h);
  EXPECT_TRUE(parsed->has_overload());
  EXPECT_TRUE(parsed->overload->busy());
  EXPECT_TRUE(parsed->overload->expired());
  EXPECT_EQ(parsed->deadline_ns(), 987'654'321u);
}

TEST(MtpHeader, RejectsBadOverloadFlags) {
  MtpHeader h;
  h.msg_len_pkts = 1;
  h.overload.ensure().flags = kOverloadBusy;
  std::vector<std::uint8_t> buf;
  h.serialize(buf);
  buf[buf.size() - 17] = 0xf0;  // flags byte: reserved bits must be zero
  EXPECT_FALSE(MtpHeader::parse(buf).has_value());
}

TEST(MtpHeader, IsLastPkt) {
  MtpHeader h;
  h.msg_len_pkts = 3;
  h.pkt_num = 2;
  EXPECT_TRUE(h.is_last_pkt());
  h.pkt_num = 1;
  EXPECT_FALSE(h.is_last_pkt());
}

TEST(MtpHeader, AckOverheadIsModest) {
  // The paper (§4) worries about header growth; verify a typical ACK with a
  // couple of pathlets stays well under a TCP+options header's ~60 bytes
  // plus reasonable slack.
  MtpHeader ack;
  ack.type = MtpPacketType::kAck;
  ack.ack_path_feedback().assign({{1, 0, {FeedbackType::kEcn, 1}},
                                  {2, 0, {FeedbackType::kEcn, 0}}});
  ack.sack().assign({{100, 5}});
  EXPECT_LE(ack.wire_size(), 100u);
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

TEST(HeaderLists, RoundTripAtSizesZeroOneAndPastRegrowth) {
  for (const std::uint32_t n : {0u, 1u, 5u}) {
    SCOPED_TRACE(n);
    const MtpHeader h = header_with_lists(n);
    EXPECT_EQ(static_cast<bool>(h.lists), n > 0);
    expect_lists(h, n);
    std::vector<std::uint8_t> buf;
    h.serialize(buf);
    EXPECT_EQ(buf.size(), h.wire_size());
    EXPECT_EQ(buf.size(), MtpHeader::kFixedSize + 12 + n * (5 + 14 + 14 + 12 + 12));
    const auto parsed = MtpHeader::parse(buf);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(static_cast<bool>(parsed->lists), n > 0);
    expect_lists(*parsed, n);
    EXPECT_EQ(*parsed, h);
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

// --- Property sweep: random headers must round-trip exactly.

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
  const auto n_excl = rng.uniform_int(0, 8);
  for (int i = 0; i < n_excl; ++i) {
    h.path_exclude().push_back({static_cast<PathletId>(rng.next_u64()),
                              static_cast<TrafficClassId>(rng.next_u64())});
  }
  auto random_feedback = [&rng] {
    return Feedback{static_cast<FeedbackType>(rng.uniform_int(0, 4)), rng.next_u64()};
  };
  for (int i = 0, n = static_cast<int>(rng.uniform_int(0, 8)); i < n; ++i) {
    h.path_feedback().push_back({static_cast<PathletId>(rng.next_u64()),
                               static_cast<TrafficClassId>(rng.next_u64()),
                               random_feedback()});
  }
  for (int i = 0, n = static_cast<int>(rng.uniform_int(0, 8)); i < n; ++i) {
    h.ack_path_feedback().push_back({static_cast<PathletId>(rng.next_u64()),
                                   static_cast<TrafficClassId>(rng.next_u64()),
                                   random_feedback()});
  }
  for (int i = 0, n = static_cast<int>(rng.uniform_int(0, 16)); i < n; ++i) {
    h.sack().push_back({rng.next_u64(), static_cast<std::uint32_t>(rng.next_u64())});
  }
  for (int i = 0, n = static_cast<int>(rng.uniform_int(0, 16)); i < n; ++i) {
    h.nack().push_back({rng.next_u64(), static_cast<std::uint32_t>(rng.next_u64())});
  }

  std::vector<std::uint8_t> buf;
  h.serialize(buf);
  EXPECT_EQ(buf.size(), h.wire_size());
  const auto parsed = MtpHeader::parse(buf);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, h);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MtpHeaderFuzz, ::testing::Range<std::uint64_t>(1, 33));

TEST(TcpHeader, RoundTrips) {
  TcpHeader h;
  h.src_port = 4242;
  h.dst_port = 443;
  h.seq = 1'000'000'007;
  h.ack = 999;
  h.flags = kTcpAck | kTcpEce;
  h.rwnd = 1 << 20;
  h.payload = 1448;
  h.sack() = {{1000, 2000}, {5000, 6000}};
  std::vector<std::uint8_t> buf;
  h.serialize(buf);
  EXPECT_EQ(buf.size(), h.wire_size());
  const auto parsed = TcpHeader::parse(buf);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, h);
}

TEST(TcpHeader, RejectsTooManySackBlocks) {
  TcpHeader h;
  h.sack() = {{1, 2}, {3, 4}, {5, 6}};
  std::vector<std::uint8_t> buf;
  h.serialize(buf);
  buf[TcpHeader::kFixedSize - 1] = 9;  // corrupt the block count
  EXPECT_FALSE(TcpHeader::parse(buf).has_value());
}

TEST(TcpHeader, RejectsInvertedSackBlock) {
  TcpHeader h;
  h.sack() = {{100, 50}};
  std::vector<std::uint8_t> buf;
  h.serialize(buf);
  EXPECT_FALSE(TcpHeader::parse(buf).has_value());
}

TEST(TcpHeader, FlagHelpers) {
  TcpHeader h;
  h.flags = kTcpSyn | kTcpAck;
  EXPECT_TRUE(h.has(kTcpSyn));
  EXPECT_TRUE(h.has(kTcpAck));
  EXPECT_FALSE(h.has(kTcpFin));
}

TEST(TcpHeader, TruncatedRejected) {
  TcpHeader h;
  std::vector<std::uint8_t> buf;
  h.serialize(buf);
  buf.pop_back();
  EXPECT_FALSE(TcpHeader::parse(buf).has_value());
}

TEST(UdpHeader, RoundTrips) {
  UdpHeader h{53, 5353, 512};
  std::vector<std::uint8_t> buf;
  h.serialize(buf);
  EXPECT_EQ(buf.size(), UdpHeader::kWireSize);
  const auto parsed = UdpHeader::parse(buf);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, h);
}

}  // namespace
}  // namespace mtp::proto
