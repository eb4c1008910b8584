// In-network computing device tests: terminating proxy, fair queues,
// trimming, fair-share policer, KVS cache, mutation offload, L7 LB, and the
// bulk/blob layer that rides on them.
#include <gtest/gtest.h>

#include <initializer_list>

#include "helpers.hpp"
#include "innetwork/device_endpoint.hpp"
#include "innetwork/fair_policer.hpp"
#include "innetwork/kvs_cache.hpp"
#include "innetwork/l7_lb.hpp"
#include "innetwork/mutation_offload.hpp"
#include "innetwork/queues.hpp"
#include "innetwork/tcp_proxy.hpp"
#include "mtp/bulk.hpp"
#include "mtp/endpoint.hpp"
#include "transport/apps.hpp"

namespace mtp::innetwork {
namespace {

using namespace mtp::sim::literals;
using core::MtpEndpoint;
using core::ReceivedMessage;
using sim::Bandwidth;
using sim::SimTime;

net::Packet mtp_data(net::NodeId src, net::NodeId dst, proto::MsgId msg,
                     std::uint32_t pkt, std::uint32_t total, std::uint32_t len,
                     proto::TrafficClassId tc = 0) {
  net::Packet p;
  p.src = src;
  p.dst = dst;
  p.payload_bytes = len;
  p.header_bytes = 64;
  p.tc = tc;
  proto::MtpHeader h;
  h.msg_id = msg;
  h.pkt_num = pkt;
  h.msg_len_pkts = total;
  h.msg_len_bytes = static_cast<std::uint64_t>(total) * len;
  h.pkt_len = len;
  h.tc = tc;
  p.header = h;
  return p;
}

// ------------------------------------------------------------------ queues
//
// Each case runs twice: on a standalone queue (private pool) and bound to a
// pool that other packets already occupy (the shared-pool tests below).

void wfq_equal_service(net::PacketPool* shared) {
  WfqQueue q({.per_tc_capacity_pkts = 1000});
  if (shared != nullptr) q.bind_pool(*shared);
  // TC1 floods 8x more than TC2.
  for (int i = 0; i < 800; ++i) q.enqueue(mtp_data(1, 9, i, 0, 1, 1000, 1));
  for (int i = 0; i < 100; ++i) q.enqueue(mtp_data(2, 9, 1000 + i, 0, 1, 1000, 2));
  int tc1 = 0, tc2 = 0;
  for (int i = 0; i < 200; ++i) {
    auto pkt = q.dequeue();
    ASSERT_TRUE(pkt.has_value());
    (pkt->tc == 1 ? tc1 : tc2)++;
  }
  // While both are backlogged, service alternates nearly equally.
  EXPECT_NEAR(tc1, tc2, 4);
}

void wfq_per_tc_isolation(net::PacketPool* shared) {
  WfqQueue q({.per_tc_capacity_pkts = 4});
  if (shared != nullptr) q.bind_pool(*shared);
  for (int i = 0; i < 10; ++i) q.enqueue(mtp_data(1, 9, i, 0, 1, 1000, 1));
  EXPECT_TRUE(q.enqueue(mtp_data(2, 9, 99, 0, 1, 1000, 2)));  // TC2 unaffected
  EXPECT_EQ(q.stats().dropped(), 6u);
  EXPECT_EQ(q.tc_len_pkts(1), 4u);
  EXPECT_EQ(q.tc_len_pkts(2), 1u);
}

void wfq_drains_completely(net::PacketPool* shared) {
  WfqQueue q({});
  if (shared != nullptr) q.bind_pool(*shared);
  for (int i = 0; i < 5; ++i) q.enqueue(mtp_data(1, 9, i, 0, 1, 500, i % 3));
  int n = 0;
  while (q.dequeue().has_value()) ++n;
  EXPECT_EQ(n, 5);
  EXPECT_EQ(q.len_pkts(), 0u);
  EXPECT_EQ(q.len_bytes(), 0);
}

void trims_mtp_data(net::PacketPool* shared) {
  TrimmingQueue q({.capacity_pkts = 2});
  if (shared != nullptr) q.bind_pool(*shared);
  q.enqueue(mtp_data(1, 9, 1, 0, 1, 1000));
  q.enqueue(mtp_data(1, 9, 2, 0, 1, 1000));
  q.enqueue(mtp_data(1, 9, 3, 0, 1, 1000));  // over capacity: trimmed
  EXPECT_EQ(q.trimmed(), 1u);
  EXPECT_EQ(q.stats().dropped(), 0u);
  // Trimmed header comes out FIRST (control lane priority).
  auto first = q.dequeue();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->payload_bytes, 0u);
  EXPECT_EQ(first->mtp().msg_id, 3u);
  EXPECT_EQ(first->mtp().pkt_len, 1000u);  // header still says what was lost
}

void non_mtp_overflow_drops(net::PacketPool* shared) {
  TrimmingQueue q({.capacity_pkts = 1});
  if (shared != nullptr) q.bind_pool(*shared);
  net::Packet p1;
  p1.payload_bytes = 500;
  net::Packet p2;
  p2.payload_bytes = 500;
  EXPECT_TRUE(q.enqueue(std::move(p1)));
  EXPECT_FALSE(q.enqueue(std::move(p2)));
  EXPECT_EQ(q.stats().dropped(), 1u);
}

// A trimmed header that finds the control lane full is dropped, and counts
// as a tail drop only: trimmed() counts headers the control lane took.
TEST(TrimmingQueue, TrimmedHeaderDroppedOnFullControlLaneIsNotCountedTrimmed) {
  TrimmingQueue q({.capacity_pkts = 1});
  ASSERT_TRUE(q.enqueue(mtp_data(1, 9, 0, 0, 1, 1000)));  // fills the data lane
  const auto lane = static_cast<proto::MsgId>(TrimmingQueue::kControlCapacityPkts);
  for (proto::MsgId m = 1; m <= lane; ++m) {
    ASSERT_TRUE(q.enqueue(mtp_data(1, 9, m, 0, 1, 1000)));  // trimmed into the lane
  }
  EXPECT_EQ(q.trimmed(), TrimmingQueue::kControlCapacityPkts);
  EXPECT_FALSE(q.enqueue(mtp_data(1, 9, lane + 1, 0, 1, 1000)));
  EXPECT_EQ(q.stats().tail_dropped, 1u);
  EXPECT_EQ(q.trimmed(), TrimmingQueue::kControlCapacityPkts);
  EXPECT_EQ(q.len_pkts(), TrimmingQueue::kControlCapacityPkts + 1);
}

TEST(WfqQueue, EqualServiceForUnequalArrivals) { wfq_equal_service(nullptr); }
TEST(WfqQueue, PerTcIsolationOnDrops) { wfq_per_tc_isolation(nullptr); }
TEST(WfqQueue, DrainsCompletely) { wfq_drains_completely(nullptr); }
TEST(TrimmingQueue, TrimsMtpDataInsteadOfDropping) { trims_mtp_data(nullptr); }
TEST(TrimmingQueue, NonMtpOverflowStillDrops) { non_mtp_overflow_drops(nullptr); }

/// Runs `cases` on queues bound to one pool that three packets of another
/// queue already occupy; each queue must hand its slots back when destroyed
/// and leave the resident packets untouched.
void run_on_shared_pool(std::initializer_list<void (*)(net::PacketPool*)> cases) {
  net::PacketPool pool;
  net::DropTailQueue resident;
  resident.bind_pool(pool);
  for (int i = 1; i <= 3; ++i) resident.enqueue(mtp_data(7, 9, 7000 + i, 0, 1, 100));
  for (auto* run : cases) {
    run(&pool);
    EXPECT_EQ(pool.live(), 3u);
  }
  for (int i = 1; i <= 3; ++i) {
    EXPECT_EQ(resident.dequeue()->mtp().msg_id, static_cast<proto::MsgId>(7000 + i));
  }
  EXPECT_EQ(pool.live(), 0u);
}

TEST(WfqQueue, CasesPassBoundToASharedPool) {
  run_on_shared_pool({wfq_equal_service, wfq_per_tc_isolation, wfq_drains_completely});
}

TEST(TrimmingQueue, CasesPassBoundToASharedPool) {
  run_on_shared_pool({trims_mtp_data, non_mtp_overflow_drops});
}

// -------------------------------------------------------------- tcp proxy

struct ProxyRig {
  net::Network net;
  net::Host* client;
  net::Host* proxy;
  net::Host* server;

  // client --100G-- proxy --40G-- server (the paper's Fig 2 rates).
  ProxyRig() {
    client = net.add_host("client");
    proxy = net.add_host("proxy");
    server = net.add_host("server");
    net.connect(*client, *proxy, Bandwidth::gbps(100), 1_us,
                {.capacity_pkts = 1024});
    net.connect(*proxy, *server, Bandwidth::gbps(40), 1_us,
                {.capacity_pkts = 1024});
    // The proxy is dual-homed: port 0 faces the client, port 1 the server.
    proxy->add_route(server->id(), 1);
  }
};

TEST(TcpProxy, RelaysBytesEndToEnd) {
  ProxyRig r;
  transport::TcpStack cs(*r.client, {});
  transport::TcpStack ps(*r.proxy, {});
  transport::TcpStack ss(*r.server, {});
  transport::TcpSink sink(ss, 80);
  TcpProxy proxy(ps, {.listen_port = 80, .backend = r.server->id(), .backend_port = 80});
  auto conn = cs.connect(r.proxy->id(), 80);
  conn->on_established = [&] {
    conn->send(200'000);
    conn->close();
  };
  r.net.simulator().run(50_ms);
  EXPECT_EQ(sink.bytes_received(), 200'000);
  EXPECT_EQ(proxy.bytes_relayed(), 200'000);
}

TEST(TcpProxy, UnlimitedWindowBufferGrowsWithRateMismatch) {
  ProxyRig r;
  transport::TcpStack cs(*r.client, {});
  transport::TcpStack ps(*r.proxy, {});  // default: effectively unlimited rwnd
  transport::TcpStack ss(*r.server, {});
  transport::TcpSink sink(ss, 80);
  TcpProxy proxy(ps, {.listen_port = 80, .backend = r.server->id(), .backend_port = 80});
  transport::TcpBulkSource src(cs, r.proxy->id(), 80);
  std::int64_t peak = 0;
  sim::PeriodicTask probe(r.net.simulator(), 20_us, [&] {
    peak = std::max(peak, proxy.buffer_occupancy());
  });
  probe.start();
  r.net.simulator().run(2_ms);
  // 100G in, 40G out: ~60Gb/s of imbalance accumulates in the proxy.
  // In 2ms that is ~15MB; require at least a few MB to show the trend.
  EXPECT_GT(peak, 3'000'000);
}

TEST(TcpProxy, LimitedWindowBoundsBufferButAddsHolLatency) {
  ProxyRig r;
  transport::TcpStack cs(*r.client, {});
  transport::TcpConfig pcfg;
  pcfg.rcv_buf_bytes = 100 * 1000;  // 100 packets
  transport::TcpStack ps(*r.proxy, pcfg);
  transport::TcpStack ss(*r.server, {});
  transport::TcpSink sink(ss, 80);
  TcpProxy proxy(ps, {.listen_port = 80,
                      .backend = r.server->id(),
                      .backend_port = 80,
                      .forward_buffer_bytes = 100 * 1000});
  transport::TcpBulkSource src(cs, r.proxy->id(), 80);
  std::int64_t peak = 0;
  sim::PeriodicTask probe(r.net.simulator(), 20_us, [&] {
    peak = std::max(peak, proxy.buffer_occupancy());
  });
  probe.start();
  r.net.simulator().run(2_ms);
  EXPECT_LT(peak, 250'000);  // bounded by rwnd + forward buffer
  EXPECT_GT(sink.bytes_received(), 1'000'000);  // still flowing at ~40G
}

// --------------------------------------------------------------- policer

struct PolicerRun {
  std::array<std::int64_t, 3> got{};  ///< delivered bytes per TC
  std::uint64_t policed = 0;          ///< packets the policer marked or dropped
  std::uint64_t digest = 0;           ///< every delivery, in order (fold_delivery)
};

/// Two senders (TC 1, TC 2) into one 10G bottleneck; tenant 2 sends 8x the
/// messages. Shared drop-tail queue + policer; MTP per-TC windows react.
PolicerRun run_policer_rig() {
  testing::Dumbbell t(2, Bandwidth::gbps(10), 2_us,
                      {.capacity_pkts = 256, .ecn_threshold_pkts = 40});
  t.bottleneck->set_pathlet({.id = 1, .feedback = proto::FeedbackType::kEcn});
  auto policer = std::make_shared<FairSharePolicer>(
      t.sim(), FairSharePolicer::Config{.egress = t.bottleneck});
  t.sw->add_ingress(policer);

  MtpEndpoint s1(*t.senders[0], {});
  MtpEndpoint s2(*t.senders[1], {});
  MtpEndpoint r(*t.receiver, {});
  PolicerRun run;
  sim::RunDigest digest(1);
  r.listen_any([&](const ReceivedMessage& m) {
    run.got[m.tc] += m.bytes;
    testing::fold_delivery(digest, m.src, m.msg_id, m.bytes, m.completed_at);
  });

  // Tenant 1: one outstanding 50KB message at a time. Tenant 2: eight.
  std::function<void()> feed1 = [&] {
    s1.send_message(t.receiver->id(), 50'000, {.tc = 1, .dst_port = 80},
                    [&](proto::MsgId, SimTime) { feed1(); });
  };
  std::function<void()> feed2 = [&] {
    s2.send_message(t.receiver->id(), 50'000, {.tc = 2, .dst_port = 80},
                    [&](proto::MsgId, SimTime) { feed2(); });
  };
  feed1();
  for (int i = 0; i < 8; ++i) feed2();
  t.sim().run(20_ms);
  run.policed = policer->marked() + policer->dropped();
  run.digest = digest.value();
  return run;
}

TEST(FairSharePolicer, EqualizesTwoMtpTenantsOnSharedQueue) {
  const PolicerRun run = run_policer_rig();
  const double g1 = static_cast<double>(run.got[1]);
  const double g2 = static_cast<double>(run.got[2]);
  EXPECT_GT(g1 + g2, 0);
  // Near-equal split despite the 8x message-count imbalance.
  EXPECT_GT(stats::jain_index({g1, g2}), 0.9);
  EXPECT_GT(run.policed, 0u);
}

// Recorded delivery digest of the policer rig: the policer's update period,
// queue floor, drop ratio and active-tenant fraction must keep their values.
TEST(FairSharePolicer, DeliveryDigestMatchesRecorded) {
  EXPECT_EQ(run_policer_rig().digest, 0x3bbce283312dae03ULL);
}

// -------------------------------------------------------------- kvs cache

struct CacheRig {
  testing::HostPair t;  // a = client, b = backend, sw between
  MtpEndpoint client;
  MtpEndpoint backend;
  std::shared_ptr<KvsCache> cache;
  std::uint64_t backend_requests = 0;

  CacheRig() : t(), client(*t.a, {}), backend(*t.b, {}) {
    cache = std::make_shared<KvsCache>(
        *t.sw, KvsCache::Config{.backend = t.b->id(), .service_port = 80});
    t.sw->add_ingress(cache);
    backend.listen(80, [this](const ReceivedMessage& m) {
      ++backend_requests;
      // Backend answers GETs with a 4KB value.
      core::MessageOptions opts;
      opts.dst_port = m.src_port;
      opts.app = net::AppData{m.app ? m.app->key : "", "value-from-backend"};
      backend.send_message(m.src, 4000, std::move(opts));
    });
  }
};

TEST(KvsCache, HitAnsweredInNetworkBackendBypassed) {
  CacheRig r;
  r.cache->put("hot", "cached-value", 4000);
  std::optional<ReceivedMessage> reply;
  r.client.listen(9000, [&](const ReceivedMessage& m) { reply = m; });
  core::MessageOptions opts;
  opts.src_port = 9000;
  opts.dst_port = 80;
  opts.app = net::AppData{"hot", ""};
  r.client.send_message(r.t.b->id(), 100, std::move(opts));
  r.t.sim().run(20_ms);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->bytes, 4000);
  EXPECT_EQ(reply->src, r.t.sw->id());  // answered by the switch, not b
  ASSERT_TRUE(reply->app.has_value());
  EXPECT_EQ(reply->app->value, "cached-value");
  EXPECT_EQ(r.backend_requests, 0u);
  EXPECT_EQ(r.cache->hits(), 1u);
  EXPECT_EQ(r.client.outstanding_messages(), 0u);  // request acked by cache
}

TEST(KvsCache, MissPassesThroughAndLearns) {
  CacheRig r;
  std::optional<ReceivedMessage> reply;
  r.client.listen(9000, [&](const ReceivedMessage& m) { reply = m; });
  core::MessageOptions opts;
  opts.src_port = 9000;
  opts.dst_port = 80;
  opts.app = net::AppData{"cold", ""};
  r.client.send_message(r.t.b->id(), 100, std::move(opts));
  r.t.sim().run(20_ms);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->src, r.t.b->id());  // backend answered
  EXPECT_EQ(r.backend_requests, 1u);
  EXPECT_EQ(r.cache->misses(), 1u);
  EXPECT_TRUE(r.cache->contains("cold"));  // learned from the response
}

TEST(KvsCache, SecondRequestForLearnedKeyHits) {
  CacheRig r;
  int replies = 0;
  std::vector<net::NodeId> reply_srcs;
  r.client.listen(9000, [&](const ReceivedMessage& m) {
    ++replies;
    reply_srcs.push_back(m.src);
  });
  auto ask = [&] {
    core::MessageOptions opts;
    opts.src_port = 9000;
    opts.dst_port = 80;
    opts.app = net::AppData{"warm", ""};
    r.client.send_message(r.t.b->id(), 100, std::move(opts));
  };
  ask();
  r.t.sim().run(10_ms);
  ask();
  r.t.sim().run(30_ms);
  EXPECT_EQ(replies, 2);
  EXPECT_EQ(r.backend_requests, 1u);  // second one served from the cache
  ASSERT_EQ(reply_srcs.size(), 2u);
  EXPECT_EQ(reply_srcs[1], r.t.sw->id());
}

TEST(KvsCache, LruEvictsWhenOverCapacity) {
  testing::HostPair t;
  KvsCache cache(*t.sw, {.backend = t.b->id(), .service_port = 80,
                         .capacity_entries = 2});
  cache.put("a", "1", 100);
  cache.put("b", "2", 100);
  cache.put("c", "3", 100);  // evicts "a"
  EXPECT_FALSE(cache.contains("a"));
  EXPECT_TRUE(cache.contains("b"));
  EXPECT_TRUE(cache.contains("c"));
  EXPECT_EQ(cache.entries(), 2u);
}

// -------------------------------------------------------- mutation offload

TEST(MutationOffload, CompressesMessageInFlight) {
  testing::HostPair t;
  MtpEndpoint src(*t.a, {});
  MtpEndpoint dst(*t.b, {});
  auto offload = std::make_shared<MutationOffload>(
      *t.sw, MutationOffload::Config{.match_port = 7000});
  t.sw->add_ingress(offload);

  std::optional<ReceivedMessage> got;
  dst.listen(7000, [&](const ReceivedMessage& m) { got = m; });
  bool sender_done = false;
  src.send_message(t.b->id(), 100'000, {.dst_port = 7000},
                   [&](proto::MsgId, SimTime) { sender_done = true; });
  t.sim().run(50_ms);
  // Sender completed against the offload; receiver got the compressed copy.
  EXPECT_TRUE(sender_done);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->bytes, 50'000);
  EXPECT_EQ(got->src, t.sw->id());
  EXPECT_EQ(offload->messages_mutated(), 1u);
  EXPECT_EQ(offload->bytes_in(), 100'000);
  EXPECT_EQ(offload->bytes_out(), 50'000);
}

TEST(MutationOffload, ExpandingTransformAlsoWorks) {
  testing::HostPair t;
  MtpEndpoint src(*t.a, {});
  MtpEndpoint dst(*t.b, {});
  auto offload = std::make_shared<MutationOffload>(
      *t.sw, MutationOffload::Config{.match_port = 7000},
      [](const DeviceMessage& m) { return m.bytes * 3; });  // serialization blowup
  t.sw->add_ingress(offload);
  std::optional<ReceivedMessage> got;
  dst.listen(7000, [&](const ReceivedMessage& m) { got = m; });
  src.send_message(t.b->id(), 10'000, {.dst_port = 7000});
  t.sim().run(50_ms);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->bytes, 30'000);
}

TEST(MutationOffload, OversizedMessagePassesThroughUntouched) {
  testing::HostPair t;
  MtpEndpoint src(*t.a, {});
  MtpEndpoint dst(*t.b, {});
  MutationOffload::Config cfg{.match_port = 7000};
  cfg.receiver.max_message_bytes = 50'000;  // budget smaller than the message
  auto offload = std::make_shared<MutationOffload>(*t.sw, cfg);
  t.sw->add_ingress(offload);
  std::optional<ReceivedMessage> got;
  dst.listen(7000, [&](const ReceivedMessage& m) { got = m; });
  src.send_message(t.b->id(), 200'000, {.dst_port = 7000});
  t.sim().run(50_ms);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->bytes, 200'000);       // unmodified
  EXPECT_EQ(got->src, t.a->id());       // straight from the sender
  EXPECT_EQ(offload->messages_mutated(), 0u);
}

// ------------------------------------------------------------------ l7 lb

TEST(L7LoadBalancer, SpreadsRequestsAcrossReplicas) {
  net::Network net;
  net::Host* client = net.add_host("client");
  net::Switch* sw = net.add_switch("lb");
  net::Host* r1 = net.add_host("r1");
  net::Host* r2 = net.add_host("r2");
  net.connect(*client, *sw, Bandwidth::gbps(100), 1_us);
  net.connect(*sw, *r1, Bandwidth::gbps(100), 1_us);
  net.connect(*sw, *r2, Bandwidth::gbps(100), 1_us);
  net.build_routes();
  const net::NodeId virtual_id = 1000;
  sw->add_ingress(std::make_shared<L7LoadBalancer>(L7LoadBalancer::Config{
      .virtual_service = virtual_id, .replicas = {r1->id(), r2->id()}}));

  MtpEndpoint c(*client, {});
  MtpEndpoint e1(*r1, {});
  MtpEndpoint e2(*r2, {});
  int n1 = 0, n2 = 0;
  e1.listen(80, [&](const ReceivedMessage&) { ++n1; });
  e2.listen(80, [&](const ReceivedMessage&) { ++n2; });
  int done = 0;
  for (int i = 0; i < 20; ++i) {
    c.send_message(virtual_id, 5000, {.dst_port = 80},
                   [&](proto::MsgId, SimTime) { ++done; });
  }
  net.simulator().run(50_ms);
  EXPECT_EQ(n1 + n2, 20);
  EXPECT_EQ(done, 20);  // replica ACKs complete the client's messages
  EXPECT_GT(n1, 5);     // both replicas participate
  EXPECT_GT(n2, 5);
}

// --------------------------------------------------------- trimming + mtp

TEST(TrimmingNdp, NacksTriggerFastRetransmitWithoutTimeouts) {
  // Bottleneck with a tiny trimming queue: overload trims instead of drops,
  // NACKs come back in ~1 RTT, and the transfer completes quickly.
  net::Network net;
  net::Host* a = net.add_host("a");
  net::Host* b = net.add_host("b");
  net::Switch* sw = net.add_switch("sw");
  net.connect(*a, *sw, Bandwidth::gbps(100), 1_us, {.capacity_pkts = 1024});
  net.connect_simplex(*sw, *b, Bandwidth::gbps(10), 1_us,
                      std::make_unique<TrimmingQueue>(
                          TrimmingQueue::Config{.capacity_pkts = 16}));
  net.connect_simplex(*b, *sw, Bandwidth::gbps(10), 1_us,
                      std::make_unique<net::DropTailQueue>());
  net.build_routes();

  MtpEndpoint src(*a, {});
  MtpEndpoint dst(*b, {});
  std::int64_t got = 0;
  dst.listen(80, [&](const ReceivedMessage& m) { got += m.bytes; });
  src.send_message(b->id(), 300'000, {.dst_port = 80});
  net.simulator().run(100_ms);
  EXPECT_EQ(got, 300'000);
  EXPECT_GT(src.pkts_retransmitted(), 0u);
}

// Recorded delivery digest of a 4:1 incast into a 16-packet trimming queue:
// trims, NACKs and retransmissions all shape the completion times.
TEST(TrimmingNdp, IncastDigestMatchesRecorded) {
  net::Network net;
  net::Switch* sw = net.add_switch("sw");
  net::Host* rcv = net.add_host("rcv");
  std::vector<net::Host*> senders;
  for (int i = 0; i < 4; ++i) {
    senders.push_back(net.add_host("h" + std::to_string(i)));
    net.connect(*senders.back(), *sw, Bandwidth::gbps(100), 1_us, {.capacity_pkts = 1024});
  }
  net.connect_simplex(*sw, *rcv, Bandwidth::gbps(10), 1_us,
                      std::make_unique<TrimmingQueue>(
                          TrimmingQueue::Config{.capacity_pkts = 16}));
  net.connect_simplex(*rcv, *sw, Bandwidth::gbps(10), 1_us,
                      std::make_unique<net::DropTailQueue>());
  net.build_routes();

  std::vector<std::unique_ptr<MtpEndpoint>> eps;
  for (net::Host* h : senders) eps.push_back(std::make_unique<MtpEndpoint>(*h, core::MtpConfig{}));
  MtpEndpoint dst(*rcv, {});
  sim::RunDigest digest(1);
  int delivered = 0;
  dst.listen(80, [&](const ReceivedMessage& m) {
    ++delivered;
    testing::fold_delivery(digest, m.src, m.msg_id, m.bytes, m.completed_at);
  });
  for (auto& ep : eps) {
    for (int m = 0; m < 2; ++m) ep->send_message(rcv->id(), 100'000, {.dst_port = 80});
  }
  net.simulator().run(100_ms);
  EXPECT_EQ(delivered, 8);
  EXPECT_EQ(digest.value(), 0x1d8528357b677bdeULL);
}

// ------------------------------------------------------------- bulk blobs

TEST(BulkChannel, BlobDeliveredAsIndependentMessages) {
  testing::HostPair t;
  MtpEndpoint src(*t.a, {});
  MtpEndpoint dst(*t.b, {});
  std::int64_t blob_bytes = 0;
  int blobs = 0;
  core::BulkReceiver rx(dst, 5000,
                        [&](net::NodeId, std::uint64_t, std::int64_t bytes, SimTime) {
                          ++blobs;
                          blob_bytes = bytes;
                        });
  core::BulkSender tx(src, t.b->id(), 5000);
  bool done = false;
  tx.send_blob(250'000, [&](std::uint64_t, SimTime) { done = true; });
  t.sim().run(100_ms);
  EXPECT_EQ(blobs, 1);
  EXPECT_EQ(blob_bytes, 250'000);
  EXPECT_TRUE(done);
}

TEST(BulkChannel, SurvivesLossAndSpraying) {
  // Two parallel paths with per-packet spraying and small queues: chunks
  // arrive reordered and some are dropped; the blob still completes.
  net::Network net;
  net::Host* a = net.add_host("a");
  net::Host* b = net.add_host("b");
  net::Switch* sw = net.add_switch("sw");
  net.connect(*a, *sw, Bandwidth::gbps(100), 1_us, {.capacity_pkts = 64});
  net.connect(*sw, *b, Bandwidth::gbps(10), 1_us, {.capacity_pkts = 16});
  net.connect(*sw, *b, Bandwidth::gbps(10), 2_us, {.capacity_pkts = 16});
  net.build_routes();  // b: [first sw->b link, second]
  sw->set_policy(std::make_unique<net::SprayPolicy>());

  MtpEndpoint src(*a, {});
  MtpEndpoint dst(*b, {});
  int blobs = 0;
  core::BulkReceiver rx(dst, 5000,
                        [&](net::NodeId, std::uint64_t, std::int64_t, SimTime) { ++blobs; });
  core::BulkSender tx(src, b->id(), 5000);
  tx.send_blob(500'000);
  net.simulator().run(200_ms);
  EXPECT_EQ(blobs, 1);
}

}  // namespace
}  // namespace mtp::innetwork
