// Unit tests for in-network device building blocks (DeviceReceiver, the
// switch's own MTP endpoint and the messages devices send on it),
// multi-packet device interactions under loss and crashes, and host routing.
#include <gtest/gtest.h>

#include "helpers.hpp"
#include "innetwork/device_endpoint.hpp"
#include "innetwork/kvs_cache.hpp"
#include "innetwork/mutation_offload.hpp"
#include "mtp/endpoint.hpp"
#include "net/fat_tree.hpp"
#include "net/topologies.hpp"

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
    net.build_routes();
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

TEST(DeviceReceiver, AckBillsTheSameHeaderAsAHostAck) {
  // One header-size rule: a device ACK echoes the path feedback and carries
  // one SACK entry, exactly like a host ACK of the same data packet, so both
  // must be billed the same header bytes.
  SwitchRig rig;
  DeviceReceiver rx(*rig.sw, {});
  MtpEndpoint host(*rig.b, {});
  std::vector<net::Packet> acks;
  rig.a->set_mtp_handler([&](net::Packet&& pkt) { acks.push_back(std::move(pkt)); });
  net::Packet data = data_pkt(rig.a->id(), rig.b->id(), 3, 0, 1, 500);
  data.mtp().path_feedback().assign({{.pathlet = 7}, {.pathlet = 8}});
  rx.on_data(data);
  rig.b->receive(std::move(data), 0);
  rig.net.simulator().run();
  ASSERT_EQ(acks.size(), 2u);
  EXPECT_NE(acks[0].src, acks[1].src);
  EXPECT_EQ(acks[0].header_bytes, acks[1].header_bytes);
  EXPECT_EQ(acks[0].header_bytes, transport::kMtpBaseHeaderBytes + 2 * 14 + 12);
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

/// An MTP ACK from `src` to the switch, with the given SACK and NACK lists.
net::Packet ack_to_switch(const SwitchRig& rig, net::NodeId src,
                          std::vector<proto::SackEntry> sacks,
                          std::vector<proto::SackEntry> nacks = {}) {
  net::Packet p;
  p.src = src;
  p.dst = rig.sw->id();
  proto::MtpHeader& h = p.header.emplace<proto::MtpHeader>();
  h.type = proto::MtpPacketType::kAck;
  h.sack().assign(sacks);
  h.nack().assign(nacks);
  return p;
}

/// Records the order in which it sees packets; consumes them if told to.
struct RecordingIngress final : net::IngressProcessor {
  std::vector<std::string>& log;
  bool consume = false;
  explicit RecordingIngress(std::vector<std::string>& l) : log(l) {}
  bool process(net::Packet&, net::Switch&) override {
    log.push_back("ingress");
    return consume;
  }
};

TEST(DeviceSwitch, SelfAddressedMtpReachesItsHandlerOnlyAfterIngressDeclines) {
  SwitchRig rig;
  std::vector<std::string> log;
  auto ingress = std::make_shared<RecordingIngress>(log);
  rig.sw->add_ingress(ingress);
  rig.sw->set_mtp_handler([&](net::Packet&&) { log.push_back("handler"); });
  int mtp_at_b = 0;
  rig.b->set_mtp_handler([&](net::Packet&&) { ++mtp_at_b; });

  // Declined by every processor: the switch's own handler takes it.
  rig.sw->receive(ack_to_switch(rig, rig.b->id(), {{1, 0}}), 1);
  EXPECT_EQ(log, (std::vector<std::string>{"ingress", "handler"}));

  // Consumed by a processor: the handler never sees it.
  log.clear();
  ingress->consume = true;
  rig.sw->receive(ack_to_switch(rig, rig.b->id(), {{1, 0}}), 1);
  EXPECT_EQ(log, (std::vector<std::string>{"ingress"}));
  ingress->consume = false;

  // Everything else is forwarded: MTP to another node, and non-MTP to the
  // switch (no route to the switch itself, so it drops).
  log.clear();
  rig.sw->receive(data_pkt(rig.a->id(), rig.b->id(), 2, 0, 1, 100), 0);
  net::Packet udp;
  udp.src = rig.a->id();
  udp.dst = rig.sw->id();
  udp.header = proto::UdpHeader{1, 5, 10};
  rig.sw->receive(std::move(udp), 0);
  rig.net.simulator().run();
  EXPECT_EQ(log, (std::vector<std::string>{"ingress", "ingress"}));
  EXPECT_EQ(mtp_at_b, 1);
  EXPECT_EQ(rig.sw->no_route_drops(), 1u);
}

// The DeviceSender suite covers messages a device originates: they run on an
// unmodified MtpEndpoint bound to the device's switch.

TEST(DeviceSender, NackTriggersImmediateRetransmit) {
  SwitchRig rig;
  MtpEndpoint tx(*rig.sw);
  int data_at_b = 0;
  rig.b->set_mtp_handler([&](net::Packet&& pkt) {
    if (!pkt.mtp().is_ack()) ++data_at_b;
  });
  const proto::MsgId id = tx.send_message(rig.b->id(), 3'000);
  rig.net.simulator().run(100_us);  // well inside the first RTO
  EXPECT_EQ(data_at_b, 3);
  rig.sw->receive(ack_to_switch(rig, rig.b->id(), {}, {{id, 1}}), 1);
  rig.net.simulator().run(200_us);
  EXPECT_EQ(data_at_b, 4);
  EXPECT_EQ(tx.pkts_retransmitted(), 1u);
}

TEST(DeviceSender, RepliesAndAcksCarryTheReverseFlowHash) {
  // Without a flow hash, ECMP sends every device-originated packet out the
  // first candidate port. A device reply and a device ACK must hash like a
  // host's: on the reverse 4-tuple, at the data packet's header priority.
  SwitchRig rig;
  DeviceReceiver rx(*rig.sw, {});
  MtpEndpoint tx(*rig.sw);
  std::vector<net::Packet> at_a;
  rig.a->set_mtp_handler([&](net::Packet&& pkt) { at_a.push_back(std::move(pkt)); });
  net::Packet req = data_pkt(rig.a->id(), rig.b->id(), 5, 0, 1, 500);  // port 9 -> 80
  req.priority = 3;
  req.mtp().priority = 3;
  rx.on_data(req);
  tx.send_message(rig.a->id(), 500, {.priority = 3, .src_port = 80, .dst_port = 9});
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
  MtpEndpoint tx(*rig.sw);
  int data_at_b = 0;
  rig.b->set_mtp_handler([&](net::Packet&& pkt) {
    if (!pkt.mtp().is_ack()) ++data_at_b;
  });
  tx.send_message(rig.b->id(), 1'000);
  rig.net.simulator().run(100_us);
  ASSERT_EQ(data_at_b, 1);
  rig.sw->receive(ack_to_switch(rig, rig.b->id(), {{999, 0}}, {{999, 1}}), 1);
  rig.net.simulator().run(200_us);
  EXPECT_EQ(tx.outstanding_messages(), 1u);  // its own message is still unacked
  EXPECT_EQ(tx.pkts_sent(), 1u);             // and nothing was resent
  EXPECT_EQ(rig.sw->no_route_drops(), 0u);   // the endpoint took the ACK
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

/// A client and a backend around a switch whose cache holds `key`.
struct CacheRig {
  testing::HostPair t;
  MtpEndpoint client{*t.a};
  MtpEndpoint backend{*t.b};
  std::shared_ptr<KvsCache> cache = std::make_shared<KvsCache>(
      *t.sw, KvsCache::Config{.backend = t.b->id(), .service_port = 80});
  std::vector<ReceivedMessage> replies;

  CacheRig() {
    t.sw->add_ingress(cache);
    client.listen(9000, [this](const ReceivedMessage& m) { replies.push_back(m); });
  }
  void get(const std::string& key) {
    client.send_message(t.b->id(), 100,
                        {.src_port = 9000, .dst_port = 80, .app = net::AppData{key, ""}});
  }
};

TEST(KvsCache, DeviceCrashAbandonsItsRepliesAndTheRunQuiesces) {
  CacheRig rig;
  rig.cache->put("k", "v", 200'000);  // a 200-packet reply: many RTTs to drain
  rig.get("k");
  rig.t.sim().run(10_us);
  ASSERT_EQ(rig.cache->hits(), 1u);
  ASSERT_EQ(rig.cache->sender().outstanding_messages(), 1u);
  ASSERT_GT(rig.t.sim().timers().armed_count(), 0u);

  rig.cache->crash();
  EXPECT_EQ(rig.cache->sender().outstanding_messages(), 0u);
  EXPECT_EQ(rig.t.sim().timers().armed_count(), 0u);
  rig.t.sim().run();
  EXPECT_EQ(rig.t.sim().pending_events(), 0u);
  EXPECT_TRUE(rig.replies.empty());  // the reply was abandoned mid-flight
}

TEST(KvsCache, ReplyAfterRestartReachesAClientThatHeardAnEarlierOne) {
  // The client remembers the cache's first reply by (switch, message id). A
  // restarted cache must not reuse that id, or its next reply would be taken
  // for a duplicate and swallowed.
  CacheRig rig;
  rig.cache->put("k", "v", 1'000);
  rig.get("k");
  rig.t.sim().run(1_ms);
  ASSERT_EQ(rig.replies.size(), 1u);

  rig.cache->crash();
  rig.cache->restart();
  rig.cache->put("k", "v", 1'000);
  rig.get("k");
  rig.t.sim().run(2_ms);
  ASSERT_EQ(rig.replies.size(), 2u);
  EXPECT_EQ(rig.replies[1].src, rig.t.sw->id());
  EXPECT_NE(rig.replies[1].msg_id, rig.replies[0].msg_id);
}

TEST(KvsCache, ClientsInOtherRacksAckTheLeafsReplies) {
  // The cache sits on the backend's leaf; the client is a rack away. Its
  // ACKs are addressed to that leaf and must be routed there, or the reply
  // would be retransmitted forever.
  net::Network net;
  net::LeafSpine ls(net, {.leaves = 2, .spines = 2, .hosts_per_leaf = 1});
  MtpEndpoint client(*ls.host(0, 0));
  MtpEndpoint backend(*ls.host(1, 0));
  auto cache = std::make_shared<KvsCache>(
      *ls.leaf(1), KvsCache::Config{.backend = ls.host(1, 0)->id(), .service_port = 80});
  ls.leaf(1)->add_ingress(cache);
  cache->put("k", "v", 20'000);
  int replies = 0;
  client.listen(9000, [&](const ReceivedMessage&) { ++replies; });
  client.send_message(ls.host(1, 0)->id(), 100,
                      {.src_port = 9000, .dst_port = 80, .app = net::AppData{"k", ""}});
  net.simulator().run(50_ms);
  EXPECT_EQ(replies, 1);
  EXPECT_EQ(cache->sender().outstanding_messages(), 0u);
  EXPECT_EQ(cache->sender().pkts_retransmitted(), 0u);
  EXPECT_EQ(net.simulator().pending_events(), 0u);
}

TEST(KvsCache, ClientsInOtherPodsAckTheEdgesReplies) {
  // The cache sits on the backend's edge switch; the client is a pod away.
  // Its ACKs are addressed to that edge and climb to a core, which must
  // route the edge's id down, or the reply would be retransmitted forever.
  net::Network net;
  net::FatTree ft(net, {.k = 4});
  net::Host* backend_host = ft.host(1, 0, 0);
  MtpEndpoint client(*ft.host(0, 0, 0));
  MtpEndpoint backend(*backend_host);
  auto cache = std::make_shared<KvsCache>(
      *ft.edge(1, 0), KvsCache::Config{.backend = backend_host->id(), .service_port = 80});
  ft.edge(1, 0)->add_ingress(cache);
  cache->put("k", "v", 20'000);
  int replies = 0;
  client.listen(9000, [&](const ReceivedMessage&) { ++replies; });
  client.send_message(backend_host->id(), 100,
                      {.src_port = 9000, .dst_port = 80, .app = net::AppData{"k", ""}});
  net.simulator().run(50_ms);
  EXPECT_EQ(replies, 1);
  EXPECT_EQ(cache->sender().outstanding_messages(), 0u);
  EXPECT_EQ(cache->sender().pkts_retransmitted(), 0u);
  EXPECT_EQ(net.simulator().pending_events(), 0u);
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
  net.build_routes();
  auto offload =
      std::make_shared<MutationOffload>(*sw, MutationOffload::Config{.match_port = 7000});
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

}  // namespace
}  // namespace mtp::innetwork
