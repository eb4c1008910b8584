// Unit tests for the shared message core (transport/message.hpp) and for the
// endpoints built on it: tombstone eviction, the reply and data builders, the
// sender record, the SACK/NACK bounds check of a device's endpoint,
// endpoint teardown mid-run, and the heap blocks one ACK holds.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <map>
#include <memory>
#include <new>

#include "helpers.hpp"
#include "mtp/endpoint.hpp"
#include "transport/homa.hpp"
#include "transport/message.hpp"

namespace {
// Live heap blocks and bytes, kept by the replacement operator new/delete
// below so a test can count what one packet holds.
std::atomic<std::int64_t> g_live_blocks{0};
std::atomic<std::int64_t> g_live_bytes{0};
constexpr std::size_t kSizeHeader = alignof(std::max_align_t);

void* counted_alloc(std::size_t n) {
  void* raw = std::malloc(n + kSizeHeader);
  if (raw == nullptr) throw std::bad_alloc();
  *static_cast<std::size_t*>(raw) = n;
  g_live_blocks.fetch_add(1, std::memory_order_relaxed);
  g_live_bytes.fetch_add(static_cast<std::int64_t>(n), std::memory_order_relaxed);
  return static_cast<char*>(raw) + kSizeHeader;
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  void* raw = static_cast<char*>(p) - kSizeHeader;
  g_live_blocks.fetch_sub(1, std::memory_order_relaxed);
  g_live_bytes.fetch_sub(static_cast<std::int64_t>(*static_cast<std::size_t*>(raw)),
                         std::memory_order_relaxed);
  std::free(raw);
}
}  // namespace

[[gnu::noinline]] void* operator new(std::size_t n) { return counted_alloc(n); }
[[gnu::noinline]] void* operator new[](std::size_t n) { return counted_alloc(n); }
[[gnu::noinline]] void operator delete(void* p) noexcept { counted_free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { counted_free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }

namespace mtp::transport {
namespace {

using namespace mtp::sim::literals;

struct TestOptions {
  proto::TrafficClassId tc = 0;
  proto::PortNum src_port = 0;
  proto::PortNum dst_port = 0;
};

TEST(Tombstones, EvictsOldestFirstAtCapacity) {
  Tombstones t(2);
  const MsgKey a{1, 10}, b{1, 11}, c{2, 10}, d{2, 11};
  t.insert(a);
  t.insert(b);
  t.insert(c);  // over capacity: a, the oldest, goes
  EXPECT_FALSE(t.contains(a));
  EXPECT_TRUE(t.contains(b));
  EXPECT_TRUE(t.contains(c));
  t.insert(b);  // already present: no reordering, no growth
  t.insert(d);  // b is still the oldest, and only b goes
  EXPECT_FALSE(t.contains(b));
  EXPECT_TRUE(t.contains(c));
  EXPECT_TRUE(t.contains(d));
}

TEST(Tombstones, ForgetsTheOldestKPastCapacityInFifoOrder) {
  constexpr std::uint32_t kCap = 8, kOver = 3;
  Tombstones t(kCap);
  for (std::uint32_t i = 0; i < kCap + kOver; ++i) t.insert({1, i});
  for (std::uint32_t i = 0; i < kOver; ++i) EXPECT_FALSE(t.contains({1, i})) << i;
  for (std::uint32_t i = kOver; i < kCap + kOver; ++i) EXPECT_TRUE(t.contains({1, i})) << i;
  // Later inserts keep evicting in insertion order: the oldest survivor
  // first, one per insert.
  for (std::uint32_t n = 0; n < kCap; ++n) {
    t.insert({2, n});
    EXPECT_FALSE(t.contains({1, kOver + n})) << n;
    if (n + 1 < kCap) {
      EXPECT_TRUE(t.contains({1, kOver + n + 1})) << n;
    }
    EXPECT_TRUE(t.contains({2, n})) << n;
  }
}

TEST(Tombstones, ClearEmptiesIt) {
  Tombstones t(4);
  t.insert({1, 1});
  t.insert({1, 2});
  t.clear();
  EXPECT_FALSE(t.contains({1, 1}));
  EXPECT_FALSE(t.contains({1, 2}));
  t.insert({1, 1});  // usable again after a clear
  EXPECT_TRUE(t.contains({1, 1}));
}

TEST(Reassembly, CountsEachPacketOnceAndGuardsMalformedHeaders) {
  proto::MtpHeader h;
  h.msg_len_pkts = 0;
  EXPECT_FALSE(Reassembly::well_formed(h));
  h.msg_len_pkts = 3;
  h.pkt_num = 3;
  EXPECT_FALSE(Reassembly::well_formed(h));
  h.pkt_num = 2;
  EXPECT_TRUE(Reassembly::well_formed(h));

  Reassembly r;
  r.start(3);
  EXPECT_TRUE(r.add(2));
  EXPECT_FALSE(r.add(2));  // duplicate
  EXPECT_FALSE(r.add(7));  // out of range
  EXPECT_TRUE(r.add(0));
  EXPECT_FALSE(r.complete());
  EXPECT_TRUE(r.add(1));
  EXPECT_TRUE(r.complete());
}

TEST(MakeReply, SwapsPortsAndSetsTheReverseFlowHash) {
  net::Packet data;
  data.src = 4;
  data.dst = 9;
  data.payload_bytes = 1000;
  data.ecn = net::Ecn::kEct;
  data.tc = 2;
  data.priority = 5;
  proto::MtpHeader& dh = data.header.emplace<proto::MtpHeader>();
  dh.src_port = 1234;
  dh.dst_port = 80;
  dh.msg_id = 77;
  dh.tc = 2;
  dh.priority = 5;
  dh.msg_len_bytes = 3000;
  dh.msg_len_pkts = 3;
  dh.pkt_num = 1;

  const net::Packet r = make_reply(data, 9);
  EXPECT_EQ(r.src, 9u);
  EXPECT_EQ(r.dst, 4u);
  EXPECT_EQ(r.payload_bytes, 0u);
  EXPECT_EQ(r.ecn, net::Ecn::kNotEct);
  EXPECT_EQ(r.tc, 2);
  EXPECT_EQ(r.priority, 5);
  EXPECT_EQ(r.flow_hash, message_flow_hash(9, 80, 4, 1234));
  EXPECT_NE(r.flow_hash, message_flow_hash(4, 1234, 9, 80));
  const proto::MtpHeader& rh = r.mtp();
  EXPECT_TRUE(rh.is_ack());
  EXPECT_EQ(rh.src_port, 80);
  EXPECT_EQ(rh.dst_port, 1234);
  EXPECT_EQ(rh.msg_id, 77u);
  EXPECT_EQ(rh.tc, 2);
  EXPECT_EQ(rh.priority, 5);
  EXPECT_EQ(rh.msg_len_bytes, 3000u);
  EXPECT_EQ(rh.msg_len_pkts, 3u);
  EXPECT_EQ(rh.pkt_num, 1u);
  EXPECT_TRUE(rh.sack().empty());
  EXPECT_TRUE(rh.nack().empty());
}

TEST(OutboundMessage, LastPacketLengthAndOffset) {
  OutboundMessage<TestOptions> m;
  m.packetize(2'500, 1000);
  ASSERT_EQ(m.total_pkts, 3u);
  ASSERT_EQ(m.pkts.size(), 3u);
  EXPECT_EQ(m.pkt_len(0, 1000), 1000u);
  EXPECT_EQ(m.pkt_offset(2, 1000), 2000u);
  EXPECT_EQ(m.pkt_len(2, 1000), 500u);
  for (std::uint32_t k = 0; k < 3; ++k) EXPECT_EQ(m.state(k), PktState::kUnsent);

  m.id = 5;
  m.dst = 3;
  m.opts = {.tc = 1, .src_port = 7, .dst_port = 8};
  const net::Packet p = make_data(net::NodeId{2}, m, 2, 1000, 6);
  EXPECT_EQ(p.payload_bytes, 500u);
  EXPECT_EQ(p.priority, 6);
  EXPECT_EQ(p.flow_hash, message_flow_hash(2, 7, 3, 8));
  EXPECT_EQ(p.mtp().pkt_offset, 2000u);
  EXPECT_EQ(p.mtp().pkt_len, 500u);
  EXPECT_EQ(p.mtp().msg_len_pkts, 3u);
  EXPECT_EQ(p.mtp().priority, 6);
}

TEST(OutboundMessage, KarnBitSurvivesAResend) {
  OutboundMessage<TestOptions> m;
  m.packetize(3'000, 1000);
  m.mark_sent(1, 10_us, /*is_retx=*/false);
  EXPECT_FALSE(m.retransmitted(1));
  m.mark_sent(1, 20_us, /*is_retx=*/true);
  EXPECT_TRUE(m.retransmitted(1));
  m.mark_sent(1, 30_us, /*is_retx=*/false);  // a later first-class send
  EXPECT_TRUE(m.retransmitted(1));
  EXPECT_EQ(m.state(1), PktState::kInflight);
  EXPECT_EQ(m.pkts[1].sent_at, 30_us);
  m.set_state(1, PktState::kSacked);
  EXPECT_TRUE(m.retransmitted(1));
  EXPECT_FALSE(m.retransmitted(0));
}

// OutboundRing against a std::map model: ids inserted in order, erased in a
// random order (so the ring wraps, grows past finished ids held behind an
// old one, and advances its base), with lookups of live, finished and
// never-issued ids after every step.
TEST(OutboundRing, MatchesMapModel) {
  using Msg = OutboundMessage<TestOptions>;
  OutboundRing<Msg> ring;
  std::map<proto::MsgId, std::int64_t> model;  // id -> total_bytes
  sim::Rng rng(7);
  proto::MsgId next = 1;
  std::vector<Msg*> addrs(1, nullptr);  // by id: a record must never move
  for (int step = 0; step < 20'000; ++step) {
    const bool add = model.empty() || (model.size() < 300 && rng.uniform_int(0, 1) == 0);
    if (add) {
      Msg& m = ring.insert(next);
      EXPECT_EQ(m.total_bytes, 0);  // handed out fresh, even from a reused slot
      m.id = next;
      m.total_bytes = static_cast<std::int64_t>(next) * 3;
      m.pkts.resize(2);
      model[next] = m.total_bytes;
      addrs.push_back(&m);
      ++next;
    } else {
      // Mostly the oldest (as completions tend to go), sometimes any.
      auto it = model.begin();
      if (rng.uniform_int(0, 3) != 0) {
        std::advance(it, rng.uniform_int(0, static_cast<std::int64_t>(model.size()) - 1));
      }
      ring.erase(it->first);
      model.erase(it);
    }
    ASSERT_EQ(ring.size(), model.size());
    const auto probe = static_cast<proto::MsgId>(rng.uniform_int(0, static_cast<std::int64_t>(next)));
    Msg* found = ring.find(probe);
    auto m = model.find(probe);
    ASSERT_EQ(found != nullptr, m != model.end()) << "id " << probe;
    if (found != nullptr) {
      EXPECT_EQ(found, addrs[probe]);
      EXPECT_EQ(found->total_bytes, m->second);
    }
  }
  std::vector<proto::MsgId> seen;
  ring.for_each([&](Msg& msg) { seen.push_back(msg.id); });
  std::vector<proto::MsgId> want;
  for (const auto& [id, bytes] : model) want.push_back(id);
  EXPECT_EQ(seen, want);  // id order
  ring.clear();
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.find(want.empty() ? 1 : want.front()), nullptr);
  ring.insert(next);  // a cleared ring restarts at any next id
  EXPECT_NE(ring.find(next), nullptr);
}

TEST(DeviceSender, IgnoresSackOrNackPastTheLastPacket) {
  mtp::testing::HostPair t;
  core::MtpEndpoint tx(*t.sw);  // a device's endpoint on its switch
  int data_at_b = 0;
  t.b->set_mtp_handler([&](net::Packet&& pkt) {
    if (!pkt.mtp().is_ack()) ++data_at_b;
  });
  const proto::MsgId id = tx.send_message(t.b->id(), 2'000);  // 2 packets
  t.sim().run(100_us);
  ASSERT_EQ(data_at_b, 2);

  auto ack = [&](std::vector<proto::SackEntry> sacks, std::vector<proto::SackEntry> nacks) {
    net::Packet p;
    p.src = t.b->id();
    p.dst = t.sw->id();
    proto::MtpHeader& h = p.header.emplace<proto::MtpHeader>();
    h.type = proto::MtpPacketType::kAck;
    h.sack().assign(sacks);
    h.nack().assign(nacks);
    return p;
  };
  // Known message, stray packet numbers: nothing is sacked or resent.
  t.sw->receive(ack({{id, 2}, {id, 99}}, {{id, 5}}), 1);
  t.sim().run(200_us);
  EXPECT_EQ(data_at_b, 2);
  EXPECT_EQ(tx.outstanding_messages(), 1u);

  t.sw->receive(ack({{id, 0}, {id, 1}}, {}), 1);
  EXPECT_EQ(tx.outstanding_messages(), 0u);
}

// Destroying an endpoint mid-run must leave nothing behind that still points
// at it: no armed retransmit timer and no host packet handler.
template <class Endpoint>
void destroy_mid_run() {
  mtp::testing::HostPair t;
  auto sender = std::make_unique<Endpoint>(*t.a);
  auto receiver = std::make_unique<Endpoint>(*t.b);
  sender->send_message(t.b->id(), 200'000);
  t.sim().run(4_us);  // first packets have reached the receiver
  ASSERT_GT(receiver->acks_sent(), 0u);
  receiver.reset();   // the sender's window is still arriving
  t.sim().run(8_us);
  ASSERT_GT(t.sim().timers().armed_count(), 0u);
  sender.reset();     // message in flight, retransmit timer armed
  EXPECT_EQ(t.sim().timers().armed_count(), 0u);
  t.sim().run();      // in-flight packets land on hosts with no handler
  EXPECT_EQ(t.sim().pending_events(), 0u);
  EXPECT_EQ(t.net.unaccounted_packet_slots(), 0u);
  EXPECT_EQ(mtp::testing::live_packets(t.net), 0u);
}

TEST(EndpointTeardown, MtpEndpointDestroyedMidRun) {
  destroy_mid_run<core::MtpEndpoint>();
}

TEST(EndpointTeardown, HomaEndpointDestroyedMidRun) {
  destroy_mid_run<HomaEndpoint>();
}

// An ACK's lists live in one heap block: the first ACK of a one-packet
// message, built by the receiver's own ACK path and parked at the sender's
// host, holds one SACK and frees exactly one block of at most 32 bytes.
template <class Endpoint>
void one_sack_ack_holds_one_block() {
  mtp::testing::HostPair t;
  Endpoint sender(*t.a);
  Endpoint receiver(*t.b);
  std::vector<net::Packet> acks;
  t.a->set_mtp_handler([&](net::Packet&& p) { acks.push_back(std::move(p)); });
  sender.send_message(t.b->id(), 1'000);
  t.sim().run(20_us);
  ASSERT_EQ(acks.size(), 1u);
  net::Packet ack = std::move(acks.front());
  ASSERT_TRUE(ack.mtp().is_ack());
  ASSERT_EQ(ack.mtp().sack().size(), 1u);
  ASSERT_TRUE(ack.mtp().nack().empty());
  ASSERT_TRUE(ack.mtp().ack_path_feedback().empty());
  ASSERT_TRUE(ack.mtp().lists);

  const std::int64_t blocks = g_live_blocks.load();
  const std::int64_t bytes = g_live_bytes.load();
  { const net::Packet gone = std::move(ack); }
  EXPECT_EQ(blocks - g_live_blocks.load(), 1);
  EXPECT_LE(bytes - g_live_bytes.load(), 32);
}

TEST(HeaderLists, OneSackMtpAckHoldsOneBlock) {
  one_sack_ack_holds_one_block<core::MtpEndpoint>();
}

TEST(HeaderLists, OneSackHomaAckHoldsOneBlock) {
  one_sack_ack_holds_one_block<HomaEndpoint>();
}

}  // namespace
}  // namespace mtp::transport
