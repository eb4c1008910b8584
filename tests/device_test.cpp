// Unit tests for in-network device building blocks (DeviceReceiver /
// DeviceSender), multi-packet device interactions under loss, host routing,
// and the low-level wire reader/writer.
#include <gtest/gtest.h>

#include "helpers.hpp"
#include "innetwork/device_endpoint.hpp"
#include "innetwork/kvs_cache.hpp"
#include "innetwork/mutation_offload.hpp"
#include "mtp/endpoint.hpp"
#include "proto/wire.hpp"

namespace mtp::innetwork {
namespace {

using namespace mtp::sim::literals;
using core::MtpEndpoint;
using core::ReceivedMessage;
using sim::Bandwidth;
using sim::SimTime;

net::Packet data_pkt(net::NodeId src, net::NodeId dst, proto::MsgId msg,
                     std::uint32_t pkt, std::uint32_t total, std::uint32_t len,
                     proto::PortNum dst_port = 80) {
  net::Packet p;
  p.src = src;
  p.dst = dst;
  p.payload_bytes = len;
  p.header_bytes = 64;
  proto::MtpHeader h;
  h.msg_id = msg;
  h.pkt_num = pkt;
  h.msg_len_pkts = total;
  h.msg_len_bytes = static_cast<std::uint64_t>(total) * len;
  h.pkt_len = len;
  h.dst_port = dst_port;
  h.src_port = 9;
  p.header = h;
  return p;
}

struct SwitchRig {
  net::Network net;
  net::Switch* sw;
  net::Host* a;
  net::Host* b;

  SwitchRig() {
    sw = net.add_switch("sw");
    a = net.add_host("a");
    b = net.add_host("b");
    net.connect(*a, *sw, Bandwidth::gbps(100), 1_us);
    net.connect(*sw, *b, Bandwidth::gbps(100), 1_us);
    sw->add_route(a->id(), 0);
    sw->add_route(b->id(), 1);
  }
};

TEST(DeviceReceiver, ReassemblesAndAcksEveryPacket) {
  SwitchRig rig;
  DeviceReceiver rx(*rig.sw, {});
  // Count ACKs the switch injects toward the sender.
  int acks_at_a = 0;
  rig.a->set_mtp_handler([&](net::Packet&& pkt) {
    if (pkt.mtp().is_ack()) ++acks_at_a;
  });
  std::optional<DeviceMessage> done;
  for (std::uint32_t k = 0; k < 3; ++k) {
    auto r = rx.on_data(data_pkt(rig.a->id(), rig.b->id(), 42, k, 3, 1000));
    if (r) done = r;
  }
  rig.net.simulator().run();
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->bytes, 3000);
  EXPECT_EQ(done->src, rig.a->id());
  EXPECT_EQ(done->dst, rig.b->id());
  EXPECT_EQ(acks_at_a, 3);
}

TEST(DeviceReceiver, DuplicateOfCompletedMessageReAcked) {
  SwitchRig rig;
  DeviceReceiver rx(*rig.sw, {});
  int acks_at_a = 0;
  rig.a->set_mtp_handler([&](net::Packet&& pkt) {
    if (pkt.mtp().is_ack()) ++acks_at_a;
  });
  rx.on_data(data_pkt(rig.a->id(), rig.b->id(), 1, 0, 1, 500));
  EXPECT_TRUE(rx.tracking(rig.a->id(), 1));
  // A retransmitted duplicate: re-acked, not delivered twice.
  auto dup = rx.on_data(data_pkt(rig.a->id(), rig.b->id(), 1, 0, 1, 500));
  EXPECT_FALSE(dup.has_value());
  rig.net.simulator().run();
  EXPECT_EQ(acks_at_a, 2);
}

TEST(DeviceReceiver, AdmissibilityUsesMsgLenFromHeader) {
  SwitchRig rig;
  DeviceReceiver::Config cfg;
  cfg.max_message_bytes = 10'000;
  DeviceReceiver rx(*rig.sw, cfg);
  proto::MtpHeader small;
  small.msg_len_bytes = 9'999;
  proto::MtpHeader big;
  big.msg_len_bytes = 10'001;
  EXPECT_TRUE(rx.admissible(small));
  EXPECT_FALSE(rx.admissible(big));
}

TEST(DeviceSender, WindowsEmissionAndClocksOnSacks) {
  SwitchRig rig;
  DeviceSender::Config cfg;
  cfg.window_pkts = 4;
  DeviceSender tx(*rig.sw, cfg);
  int data_at_b = 0;
  rig.b->set_mtp_handler([&](net::Packet&& pkt) {
    if (!pkt.mtp().is_ack()) ++data_at_b;
  });
  const proto::MsgId id = tx.send(rig.b->id(), 10'000, {});  // 10 packets
  rig.net.simulator().run(100_us);  // before the 500us retransmit timer
  EXPECT_EQ(data_at_b, 4);  // window-limited without acks

  // SACK two packets: two more emitted.
  net::Packet ack;
  ack.src = rig.b->id();
  ack.dst = rig.sw->id();
  proto::MtpHeader h;
  h.type = proto::MtpPacketType::kAck;
  h.sack() = {{id, 0}, {id, 1}};
  ack.header = h;
  EXPECT_TRUE(tx.handle_ack(ack));
  rig.net.simulator().run(200_us);
  EXPECT_EQ(data_at_b, 6);
  EXPECT_EQ(tx.outstanding(), 1u);
}

TEST(DeviceSender, NackTriggersImmediateRetransmit) {
  SwitchRig rig;
  DeviceSender tx(*rig.sw, {});
  int data_at_b = 0;
  rig.b->set_mtp_handler([&](net::Packet&& pkt) {
    if (!pkt.mtp().is_ack()) ++data_at_b;
  });
  const proto::MsgId id = tx.send(rig.b->id(), 3'000, {});
  rig.net.simulator().run(100_us);
  EXPECT_EQ(data_at_b, 3);
  net::Packet nack;
  nack.src = rig.b->id();
  nack.dst = rig.sw->id();
  proto::MtpHeader h;
  h.type = proto::MtpPacketType::kAck;
  h.nack() = {{id, 1}};
  nack.header = h;
  EXPECT_TRUE(tx.handle_ack(nack));
  rig.net.simulator().run(200_us);
  EXPECT_EQ(data_at_b, 4);
}

TEST(DeviceSender, AbandonsAfterMaxRetries) {
  SwitchRig rig;
  DeviceSender::Config cfg;
  cfg.max_retries = 2;
  cfg.retx_timeout = 100_us;
  DeviceSender tx(*rig.sw, cfg);
  tx.send(777 /* unroutable */, 1'000, {});
  rig.net.simulator().run(10_ms);
  EXPECT_EQ(tx.outstanding(), 0u);
  EXPECT_EQ(tx.messages_abandoned(), 1u);
}

TEST(DeviceSender, RepliesAndAcksCarryTheReverseFlowHash) {
  // Without a flow hash, ECMP sends every device-originated packet out the
  // first candidate port. A device reply and a device ACK must hash like a
  // host's: on the reverse 4-tuple, at the data packet's header priority.
  SwitchRig rig;
  DeviceReceiver rx(*rig.sw, {});
  DeviceSender tx(*rig.sw, {});
  std::vector<net::Packet> at_a;
  rig.a->set_mtp_handler([&](net::Packet&& pkt) { at_a.push_back(std::move(pkt)); });
  net::Packet req = data_pkt(rig.a->id(), rig.b->id(), 5, 0, 1, 500);  // port 9 -> 80
  req.priority = 3;
  req.mtp().priority = 3;
  rx.on_data(req);
  tx.send(rig.a->id(), 500, {.priority = 3, .src_port = 80, .dst_port = 9});
  rig.net.simulator().run(100_us);
  ASSERT_EQ(at_a.size(), 2u);
  const std::uint64_t reverse =
      transport::message_flow_hash(rig.sw->id(), 80, rig.a->id(), 9);
  for (const net::Packet& p : at_a) {
    EXPECT_EQ(p.flow_hash, reverse) << (p.mtp().is_ack() ? "ack" : "reply");
    EXPECT_EQ(p.mtp().priority, 3) << (p.mtp().is_ack() ? "ack" : "reply");
  }
}

TEST(DeviceSender, UnknownAckIgnored) {
  SwitchRig rig;
  DeviceSender tx(*rig.sw, {});
  net::Packet ack;
  proto::MtpHeader h;
  h.type = proto::MtpPacketType::kAck;
  h.sack() = {{999, 0}};
  ack.header = h;
  EXPECT_FALSE(tx.handle_ack(ack));
}

// ------------------------------------- multi-packet device interactions

TEST(KvsCache, MultiPacketRequestHitsAfterAdoption) {
  testing::HostPair t;
  MtpEndpoint client(*t.a, {});
  MtpEndpoint backend(*t.b, {});
  auto cache = std::make_shared<KvsCache>(
      *t.sw, KvsCache::Config{.backend = t.b->id(), .service_port = 80});
  t.sw->add_ingress(cache);
  cache->put("bulk-key", "v", 2'000);
  int backend_saw = 0;
  backend.listen(80, [&](const ReceivedMessage&) { ++backend_saw; });
  std::optional<ReceivedMessage> reply;
  client.listen(9000, [&](const ReceivedMessage& m) { reply = m; });
  core::MessageOptions opts;
  opts.src_port = 9000;
  opts.dst_port = 80;
  opts.app = net::AppData{"bulk-key", ""};
  client.send_message(t.b->id(), 50'000, std::move(opts));  // 50-packet request
  t.sim().run(50_ms);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->bytes, 2'000);
  EXPECT_EQ(backend_saw, 0);  // never leaked a single packet to the backend
  EXPECT_EQ(cache->hits(), 1u);
}

TEST(MutationOffload, SurvivesLossOnBothSides) {
  // Tiny queues upstream and downstream of the offload: packets drop in
  // both the original and the re-emitted message; everything still lands.
  net::Network net;
  auto* a = net.add_host("a");
  auto* b = net.add_host("b");
  auto* sw = net.add_switch("sw");
  net.connect(*a, *sw, Bandwidth::gbps(100), 1_us, {.capacity_pkts = 6});
  net.connect(*sw, *b, Bandwidth::gbps(100), 1_us, {.capacity_pkts = 6});
  sw->add_route(a->id(), 0);
  sw->add_route(b->id(), 1);
  MutationOffload::Config ocfg{.match_port = 7000};
  ocfg.sender.window_pkts = 4;    // shallow egress: pace to it
  ocfg.sender.max_retries = 100;  // and keep trying through the loss
  auto offload = std::make_shared<MutationOffload>(*sw, ocfg);
  sw->add_ingress(offload);
  MtpEndpoint src(*a, {});
  MtpEndpoint dst(*b, {});
  std::optional<ReceivedMessage> got;
  dst.listen(7000, [&](const ReceivedMessage& m) { got = m; });
  bool sender_done = false;
  src.send_message(b->id(), 200'000, {.dst_port = 7000},
                   [&](proto::MsgId, SimTime) { sender_done = true; });
  net.simulator().run(500_ms);
  EXPECT_TRUE(sender_done);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->bytes, 100'000);
}

// --------------------------------------------------------- host routing

TEST(HostRouting, RoutesByDestinationWithDefaultFirstPort) {
  net::Network net;
  auto* h = net.add_host("dualhomed");
  auto* n1 = net.add_host("n1");
  auto* n2 = net.add_host("n2");
  net.connect(*h, *n1, Bandwidth::gbps(10), 1_us);
  net.connect(*h, *n2, Bandwidth::gbps(10), 1_us);
  h->add_route(n2->id(), 1);
  int at1 = 0, at2 = 0;
  n1->set_udp_handler(5, [&](net::Packet&&) { ++at1; });
  n2->set_udp_handler(5, [&](net::Packet&&) { ++at2; });
  auto send_to = [&](net::NodeId dst) {
    net::Packet p;
    p.src = h->id();
    p.dst = dst;
    p.payload_bytes = 10;
    p.header = proto::UdpHeader{1, 5, 10};
    h->send(std::move(p));
  };
  send_to(n2->id());  // routed to port 1
  send_to(n1->id());  // default port 0
  send_to(12345);     // unknown: default port 0 (n1 drops silently: wrong dst)
  net.simulator().run();
  EXPECT_EQ(at1, 1);
  EXPECT_EQ(at2, 1);
}

// -------------------------------------------------------------- wire r/w

TEST(Wire, WriterReaderRoundTripMixedWidths) {
  std::vector<std::uint8_t> buf;
  proto::WireWriter w(buf);
  w.put<std::uint8_t>(0xab);
  w.put<std::uint16_t>(0x1234);
  w.put<std::uint32_t>(0xdeadbeef);
  w.put<std::uint64_t>(0x0123456789abcdefULL);
  EXPECT_EQ(buf.size(), 15u);

  proto::WireReader r(buf);
  EXPECT_EQ(r.get<std::uint8_t>(), 0xab);
  EXPECT_EQ(r.get<std::uint16_t>(), 0x1234);
  EXPECT_EQ(r.get<std::uint32_t>(), 0xdeadbeefu);
  EXPECT_EQ(r.get<std::uint64_t>(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_FALSE(r.get<std::uint8_t>().has_value());  // underrun -> nullopt
}

TEST(Wire, ReaderUnderrunDoesNotAdvance) {
  std::vector<std::uint8_t> buf{1, 2};
  proto::WireReader r(buf);
  EXPECT_FALSE(r.get<std::uint32_t>().has_value());
  EXPECT_EQ(r.position(), 0u);
  EXPECT_EQ(r.get<std::uint16_t>(), 0x0201);
}

}  // namespace
}  // namespace mtp::innetwork
