// Advanced-feature tests: in-network gradient aggregation (ATP-style),
// link-failure injection and failure-aware forwarding, traffic across the
// fat-tree fabric, and priority-FIFO message scheduling.
#include <gtest/gtest.h>

#include "helpers.hpp"
#include "innetwork/aggregation.hpp"
#include "mtp/endpoint.hpp"
#include "net/forwarding.hpp"

namespace mtp {
namespace {

using namespace mtp::sim::literals;
using core::MtpEndpoint;
using core::ReceivedMessage;
using sim::Bandwidth;
using sim::SimTime;

// ------------------------------------------------------------ aggregation

struct AggRig {
  net::Network net;
  std::vector<net::Host*> workers;
  net::Host* server;
  net::Switch* sw;
  net::Link* to_server;
  std::shared_ptr<innetwork::AggregationOffload> agg;
  std::vector<std::unique_ptr<MtpEndpoint>> worker_eps;
  MtpEndpoint* server_ep = nullptr;
  std::unique_ptr<MtpEndpoint> server_ep_storage;

  explicit AggRig(int n_workers, bool with_offload = true) {
    sw = net.add_switch("agg-sw");
    server = net.add_host("ps");
    for (int i = 0; i < n_workers; ++i) {
      net::Host* w = net.add_host("w" + std::to_string(i));
      workers.push_back(w);
      net.connect(*w, *sw, Bandwidth::gbps(100), 1_us);
    }
    auto d = net.connect(*sw, *server, Bandwidth::gbps(100), 1_us);
    to_server = d.forward;
    net.build_routes();
    if (with_offload) {
      agg = std::make_shared<innetwork::AggregationOffload>(
          *sw, innetwork::AggregationOffload::Config{
                   .server = server->id(),
                   .service_port = 90,
                   .fan_in = static_cast<std::uint32_t>(n_workers)});
      sw->add_ingress(agg);
    }
    for (auto* w : workers) {
      worker_eps.push_back(std::make_unique<MtpEndpoint>(*w, core::MtpConfig{}));
    }
    server_ep_storage = std::make_unique<MtpEndpoint>(*server, core::MtpConfig{});
    server_ep = server_ep_storage.get();
  }

  void push_round(std::uint64_t round, std::int64_t grad_bytes,
                  int contributors = -1) {
    const int n = contributors < 0 ? static_cast<int>(workers.size()) : contributors;
    for (int i = 0; i < n; ++i) {
      core::MessageOptions opts;
      opts.dst_port = 90;
      opts.app = net::AppData{"grad:" + std::to_string(round), ""};
      worker_eps[i]->send_message(server->id(), grad_bytes, std::move(opts));
    }
  }
};

TEST(Aggregation, FoldsNGradientsIntoOne) {
  AggRig rig(4);
  std::vector<ReceivedMessage> at_server;
  rig.server_ep->listen(90, [&](const ReceivedMessage& m) { at_server.push_back(m); });
  rig.push_round(1, 100'000);
  rig.net.simulator().run(20_ms);
  ASSERT_EQ(at_server.size(), 1u);  // one aggregate, not four gradients
  EXPECT_EQ(at_server[0].bytes, 100'000);
  EXPECT_EQ(at_server[0].src, rig.sw->id());
  ASSERT_TRUE(at_server[0].app.has_value());
  EXPECT_EQ(at_server[0].app->key, "grad:1");
  EXPECT_EQ(at_server[0].app->value, "agg:4");
  EXPECT_EQ(rig.agg->rounds_completed(), 1u);
  EXPECT_EQ(rig.agg->bytes_in(), 400'000);
  EXPECT_EQ(rig.agg->bytes_out(), 100'000);
}

TEST(Aggregation, WorkersCompleteAgainstTheSwitch) {
  AggRig rig(4);
  rig.server_ep->listen(90, [](const ReceivedMessage&) {});
  int done = 0;
  for (auto& ep : rig.worker_eps) {
    core::MessageOptions opts;
    opts.dst_port = 90;
    opts.app = net::AppData{"grad:7", ""};
    ep->send_message(rig.server->id(), 50'000, std::move(opts),
                     [&](proto::MsgId, SimTime) { ++done; });
  }
  rig.net.simulator().run(20_ms);
  EXPECT_EQ(done, 4);  // every worker's message was acked (by the switch)
}

TEST(Aggregation, ServerLinkCarriesOneGradientPerRound) {
  AggRig rig(8);
  rig.server_ep->listen(90, [](const ReceivedMessage&) {});
  for (std::uint64_t round = 1; round <= 5; ++round) {
    rig.push_round(round, 100'000);
  }
  rig.net.simulator().run(50_ms);
  EXPECT_EQ(rig.agg->rounds_completed(), 5u);
  // 8x reduction: the server-side link saw ~5 x 100KB, not 5 x 800KB.
  EXPECT_LT(rig.to_server->stats().bytes_delivered, 5 * 110'000u + 50'000u);
}

TEST(Aggregation, StragglerTimeoutFlushesPartial) {
  AggRig rig(4);
  std::vector<ReceivedMessage> at_server;
  rig.server_ep->listen(90, [&](const ReceivedMessage& m) { at_server.push_back(m); });
  rig.push_round(3, 80'000, /*contributors=*/3);  // one worker never shows up
  rig.net.simulator().run(20_ms);
  ASSERT_EQ(at_server.size(), 1u);
  EXPECT_EQ(at_server[0].app->value, "agg:3");
  EXPECT_EQ(rig.agg->rounds_flushed_partial(), 1u);
  EXPECT_EQ(rig.agg->rounds_completed(), 0u);
  EXPECT_EQ(rig.agg->rounds_open(), 0u);
}

// Recorded delivery digest of a round with one missing worker: the partial
// aggregate reaches the server when the straggler timeout fires.
TEST(Aggregation, StragglerRoundDigestMatchesRecorded) {
  AggRig rig(4);
  sim::RunDigest digest(1);
  rig.server_ep->listen(90, [&](const ReceivedMessage& m) {
    testing::fold_delivery(digest, m.src, m.msg_id, m.bytes, m.completed_at);
  });
  rig.push_round(3, 80'000, /*contributors=*/3);
  rig.net.simulator().run(20_ms);
  EXPECT_EQ(rig.agg->rounds_flushed_partial(), 1u);
  EXPECT_EQ(digest.value(), 0xf20150b2a38435f8ULL);
}

TEST(Aggregation, InterleavedRoundsStaySeparate) {
  AggRig rig(2);
  std::vector<std::string> keys;
  rig.server_ep->listen(90, [&](const ReceivedMessage& m) { keys.push_back(m.app->key); });
  // Round 10: one contribution now; round 11: both; round 10's second later.
  core::MessageOptions o1;
  o1.dst_port = 90;
  o1.app = net::AppData{"grad:10", ""};
  rig.worker_eps[0]->send_message(rig.server->id(), 10'000, o1);
  rig.push_round(11, 10'000);
  rig.net.simulator().schedule(200_us, [&] {
    core::MessageOptions o2;
    o2.dst_port = 90;
    o2.app = net::AppData{"grad:10", ""};
    rig.worker_eps[1]->send_message(rig.server->id(), 10'000, o2);
  });
  rig.net.simulator().run(20_ms);
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], "grad:11");  // completed first
  EXPECT_EQ(keys[1], "grad:10");
  EXPECT_EQ(rig.agg->rounds_completed(), 2u);
}

// --------------------------------------------------------- link failures

/// A 100 B UDP datagram from `src` to port 40 of `dst`.
net::Packet datagram(net::NodeId src, net::NodeId dst) {
  net::Packet p;
  p.src = src;
  p.dst = dst;
  p.payload_bytes = 100;
  p.header_bytes = 28;  // UDP + IP
  p.flow_hash = (static_cast<std::uint64_t>(src) << 32) ^ dst;
  p.header = proto::UdpHeader{41, 40, 100};
  return p;
}

TEST(LinkFailure, DownLinkBlackholesAndUpRestores) {
  testing::HostPair t;
  int received = 0;
  t.b->set_udp_handler(40, [&](net::Packet&&) { ++received; });
  t.a->send(datagram(t.a->id(), t.b->id()));
  t.sim().run(1_ms);
  EXPECT_EQ(received, 1);

  t.a_to_sw->set_up(false);
  t.a->send(datagram(t.a->id(), t.b->id()));
  t.sim().run(2_ms);
  EXPECT_EQ(received, 1);  // blackholed
  EXPECT_EQ(t.a_to_sw->stats().pkts_dropped_down, 1u);

  t.a_to_sw->set_up(true);
  t.a->send(datagram(t.a->id(), t.b->id()));
  t.sim().run(3_ms);
  EXPECT_EQ(received, 2);
}

TEST(LinkFailure, FlapDiscardsQueuedPackets) {
  sim::Simulator simulator;
  net::Host sink(simulator, 9, "sink");
  net::Link link(simulator, "l", Bandwidth::gbps(1), 1_us,
                 std::make_unique<net::DropTailQueue>());
  link.connect_to(sink, 0);
  for (int i = 0; i < 10; ++i) {
    net::Packet p;
    p.src = 0;
    p.dst = 9;
    p.payload_bytes = 10'000;
    link.send(std::move(p));
  }
  EXPECT_GT(link.queue().len_pkts(), 0u);
  link.set_up(false);
  EXPECT_EQ(link.queue().len_pkts(), 0u);
}

TEST(LinkFailure, MessageAwareLbRoutesAroundDeadPath) {
  // Two paths; kill the preferred one mid-message. The policy must re-place
  // the pinned message on the survivor and the transfer must complete.
  net::Network net;
  auto* a = net.add_host("a");
  auto* b = net.add_host("b");
  auto* sw = net.add_switch("sw");
  net.connect(*a, *sw, Bandwidth::gbps(100), 1_us);
  auto p1 = net.connect(*sw, *b, Bandwidth::gbps(100), 1_us);
  auto p2 = net.connect(*sw, *b, Bandwidth::gbps(100), 2_us);
  net.build_routes();  // b: [p1, p2]
  sw->set_policy(std::make_unique<net::MessageAwarePolicy>());

  MtpEndpoint src(*a, {});
  MtpEndpoint dst(*b, {});
  std::int64_t got = 0;
  dst.listen(80, [&](const ReceivedMessage& m) { got += m.bytes; });
  src.send_message(b->id(), 5'000'000, {.dst_port = 80});
  net.simulator().schedule(20_us, [&] { p1.forward->set_up(false); });
  net.simulator().run(200_ms);
  EXPECT_EQ(got, 5'000'000);
  EXPECT_GT(p2.forward->stats().pkts_delivered, 1000u);
}

TEST(LinkFailure, MessageAwareLbFallsBackToTheCheapestPathWhenNoneIsUsable) {
  // Every path excluded or down: the policy falls back to all of them and
  // still picks the cheapest, which here is not the first candidate.
  net::Network net;
  auto* a = net.add_host("a");
  auto* b = net.add_host("b");
  auto* sw = net.add_switch("sw");
  net.connect(*a, *sw, Bandwidth::gbps(100), 1_us);
  auto slow = net.connect(*sw, *b, Bandwidth::gbps(100), 2_us);
  auto fast = net.connect(*sw, *b, Bandwidth::gbps(100), 1_us);
  slow.forward->set_pathlet({.id = 7, .feedback = proto::FeedbackType::kEcn});
  fast.forward->set_pathlet({.id = 8, .feedback = proto::FeedbackType::kEcn});
  net.build_routes();  // b: [slow, fast]
  sw->set_policy(std::make_unique<net::MessageAwarePolicy>());

  proto::MsgId msg = 0;
  auto send = [&](std::initializer_list<proto::PathRef> exclude) {
    net::Packet p;
    p.src = a->id();
    p.dst = b->id();
    p.payload_bytes = 100;
    auto& hdr = p.header.emplace<proto::MtpHeader>();
    hdr.msg_id = ++msg;
    hdr.msg_len_pkts = 1;
    hdr.path_exclude().assign(exclude);
    a->send(std::move(p));
    net.simulator().run();
  };
  send({{7, 0}, {8, 0}});  // both paths up, both excluded
  EXPECT_EQ(fast.forward->stats().pkts_delivered, 1u);
  EXPECT_EQ(slow.forward->stats().pkts_delivered, 0u);

  slow.forward->set_up(false);
  send({{8, 0}});  // the slow path down, the fast one excluded
  EXPECT_EQ(fast.forward->stats().pkts_delivered, 2u);
  EXPECT_EQ(slow.forward->stats().pkts_dropped_down, 0u);
}

TEST(LinkFailure, AutoExclusionKicksInAfterRepeatedTimeouts) {
  // Single path that dies: the endpoint must start excluding the pathlet it
  // learned (observable via the Path Exclude list on retransmissions).
  net::Network net;
  auto* a = net.add_host("a");
  auto* b = net.add_host("b");
  auto* sw = net.add_switch("sw");
  auto up = net.connect(*a, *sw, Bandwidth::gbps(100), 1_us);
  auto down = net.connect(*sw, *b, Bandwidth::gbps(100), 1_us);
  up.forward->set_pathlet({.id = 5, .feedback = proto::FeedbackType::kEcn});
  net.build_routes();
  core::MtpConfig cfg;
  cfg.auto_exclude_after_losses = 2;
  cfg.exclude_duration = 100_ms;
  MtpEndpoint src(*a, cfg);
  MtpEndpoint dst(*b, cfg);
  dst.listen(80, [](const ReceivedMessage&) {});
  src.send_message(b->id(), 50'000, {.dst_port = 80});
  net.simulator().run(1_ms);         // learn pathlet 5
  down.forward->set_up(false);       // then the path dies
  src.send_message(b->id(), 50'000, {.dst_port = 80});
  net.simulator().run(60_ms);
  // Pathlet 5 accumulated timeout losses and got excluded.
  EXPECT_GT(src.pkts_retransmitted(), 0u);
  // Send one more message; its packets must carry the exclusion.
  // (The simplest observable: the endpoint's exclusion map is active, which
  // we can see via a fresh packet's header by sniffing at the switch.)
  bool saw_exclusion = false;
  class Sniffer : public net::IngressProcessor {
   public:
    explicit Sniffer(bool& flag) : flag_(flag) {}
    bool process(net::Packet& pkt, net::Switch&) override {
      if (pkt.is_mtp() && !pkt.mtp().path_exclude().empty()) flag_ = true;
      return false;
    }
    bool& flag_;
  };
  sw->add_ingress(std::make_shared<Sniffer>(saw_exclusion));
  src.send_message(b->id(), 1'000, {.dst_port = 80});
  net.simulator().run(70_ms);
  EXPECT_TRUE(saw_exclusion);
}

TEST(LinkFailure, AutoExclusionNeverExcludesAVirtualPathlet) {
  // Same dying path as above. Once pathlet 5 is excluded the sender charges
  // the destination's virtual pathlet (high bit set), which keeps timing out.
  // No switch knows a virtual id, so it must never ride in Path Exclude.
  net::Network net;
  auto* a = net.add_host("a");
  auto* b = net.add_host("b");
  auto* sw = net.add_switch("sw");
  auto up = net.connect(*a, *sw, Bandwidth::gbps(100), 1_us);
  auto down = net.connect(*sw, *b, Bandwidth::gbps(100), 1_us);
  up.forward->set_pathlet({.id = 5, .feedback = proto::FeedbackType::kEcn});
  net.build_routes();
  class ExcludeLog : public net::IngressProcessor {
   public:
    bool process(net::Packet& pkt, net::Switch&) override {
      if (!pkt.is_mtp()) return false;
      for (const proto::PathRef& r : pkt.mtp().path_exclude()) ids.push_back(r.pathlet);
      return false;
    }
    std::vector<proto::PathletId> ids;
  };
  auto log = std::make_shared<ExcludeLog>();
  sw->add_ingress(log);
  core::MtpConfig cfg;
  cfg.auto_exclude_after_losses = 2;
  cfg.exclude_duration = 100_ms;
  MtpEndpoint src(*a, cfg);
  MtpEndpoint dst(*b, cfg);
  dst.listen(80, [](const ReceivedMessage&) {});
  src.send_message(b->id(), 50'000, {.dst_port = 80});
  net.simulator().run(1_ms);
  down.forward->set_up(false);
  src.send_message(b->id(), 50'000, {.dst_port = 80});
  net.simulator().run(60_ms);
  src.send_message(b->id(), 1'000, {.dst_port = 80});
  net.simulator().run(70_ms);
  ASSERT_FALSE(log->ids.empty());  // pathlet 5 was excluded
  for (const proto::PathletId id : log->ids) {
    EXPECT_EQ(id, 5u) << "excluded pathlet " << id;
  }
}

// ------------------------------------------------------------- fat-tree

TEST(FatTreeTraffic, AllPairsConnectivity) {
  net::Network net;
  net::FatTree fabric(net, {.k = 4});
  int received = 0;
  for (auto* h : fabric.hosts()) {
    h->set_udp_handler(40, [&](net::Packet&&) { ++received; });
  }
  int sent = 0;
  for (auto* src : fabric.hosts()) {
    for (auto* dst : fabric.hosts()) {
      if (src == dst) continue;
      src->send(datagram(src->id(), dst->id()));
      ++sent;
    }
  }
  net.simulator().run();
  EXPECT_EQ(received, sent);  // 16 hosts x 15 peers = 240 datagrams
}

TEST(FatTreeTraffic, EcmpUsesBothEdgeUplinks) {
  net::Network net;
  net::FatTree fabric(net, {.k = 4});
  testing::set_fabric_policy<net::EcmpPolicy>(fabric);
  net::Host* src = fabric.host(0, 0, 0);
  net::Host* dst = fabric.host(1, 0, 0);
  std::uint64_t received = 0;
  dst->set_udp_handler(40, [&](net::Packet&&) { ++received; });
  sim::Rng rng(21);
  // Many flows (varying hash), paced so the host uplink queue never drops:
  // the source edge should split them about evenly over its two uplinks.
  for (int i = 0; i < 400; ++i) {
    net.simulator().schedule(SimTime::nanoseconds(i * 100), [src, dst, &rng] {
      net::Packet p = datagram(src->id(), dst->id());
      p.flow_hash = rng.next_u64();
      src->send(std::move(p));
    });
  }
  net.simulator().run();
  EXPECT_EQ(received, 400u);
  for (int a = 0; a < 2; ++a) {
    EXPECT_GT(fabric.edge_uplink(0, 0, a)->stats().pkts_delivered, 150u)
        << "uplink to aggregation " << a << " underused";
  }
}

TEST(FatTreeTraffic, MtpTransferAcrossFabricWithUplinkFailure) {
  net::Network net;
  net::FatTree fabric(net, {.k = 4});
  testing::set_fabric_policy<net::MessageAwarePolicy>(fabric);
  MtpEndpoint src(*fabric.host(0, 0, 0), {});
  MtpEndpoint dst(*fabric.host(1, 0, 0), {});
  std::int64_t got = 0;
  dst.listen(80, [&](const ReceivedMessage& m) { got += m.bytes; });
  src.send_message(dst.node().id(), 2'000'000, {.dst_port = 80});
  net.simulator().schedule(10_us, [&] { fabric.edge_uplink(0, 0, 0)->set_up(false); });
  net.simulator().run(500_ms);
  EXPECT_EQ(got, 2'000'000);
}

// ------------------------------------------------------ message scheduling

TEST(SrptScheduling, FifoLetsLongOneFinishFirst) {
  testing::HostPair t(Bandwidth::gbps(1), 2_us);
  MtpEndpoint src(*t.a, {});  // default priority-FIFO
  MtpEndpoint dst(*t.b, {});
  std::vector<std::int64_t> completion_sizes;
  dst.listen(80, [&](const ReceivedMessage& m) { completion_sizes.push_back(m.bytes); });
  src.send_message(t.b->id(), 2'000'000, {.dst_port = 80});
  t.sim().run(100_us);
  src.send_message(t.b->id(), 20'000, {.dst_port = 80});
  t.sim().run(500_ms);
  ASSERT_EQ(completion_sizes.size(), 2u);
  EXPECT_EQ(completion_sizes[0], 2'000'000);  // FIFO: arrival order wins
}

}  // namespace
}  // namespace mtp
