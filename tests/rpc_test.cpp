// Tests for the RPC layer over MTP: request/response correlation, timeouts,
// concurrency, interposition-friendliness (L7 LB spreading calls), and
// priority propagation.
#include <gtest/gtest.h>

#include "helpers.hpp"
#include "innetwork/l7_lb.hpp"
#include "mtp/rpc.hpp"

namespace mtp::core {
namespace {

using namespace mtp::sim::literals;
using mtp::testing::HostPair;
using sim::Bandwidth;
using sim::SimTime;

struct RpcRig {
  HostPair t;
  MtpEndpoint client_ep;
  MtpEndpoint server_ep;
  RpcClient client;
  RpcServer server;

  RpcRig()
      : t(),
        client_ep(*t.a, {}),
        server_ep(*t.b, {}),
        client(client_ep, {.reply_port = 9000}),
        server(server_ep, 80) {}
};

TEST(Rpc, CallRoundTripsWithBody) {
  RpcRig r;
  r.server.handle("echo", [](const std::string&, std::int64_t req_bytes, net::NodeId) {
    return RpcServer::Response{req_bytes * 2, "pong"};
  });
  std::optional<RpcReply> reply;
  r.client.call(r.t.b->id(), 80, "echo", 1'000,
                [&](const RpcReply& rep) { reply = rep; });
  r.t.sim().run(10_ms);
  ASSERT_TRUE(reply.has_value());
  EXPECT_TRUE(reply->ok);
  EXPECT_EQ(reply->bytes, 2'000);
  EXPECT_EQ(reply->body, "pong");
  EXPECT_EQ(reply->responder, r.t.b->id());
  EXPECT_LT(reply->latency.us(), 50.0);
  EXPECT_EQ(r.server.requests_served(), 1u);
  EXPECT_EQ(r.client.inflight(), 0u);
}

TEST(Rpc, ConcurrentCallsCorrelateIndependently) {
  RpcRig r;
  r.server.handle("", [](const std::string& method, std::int64_t, net::NodeId) {
    // Response size encodes the method so the client can verify pairing.
    return RpcServer::Response{static_cast<std::int64_t>(method.size()) * 1'000,
                               method};
  });
  int done = 0;
  for (int i = 0; i < 20; ++i) {
    const std::string method(static_cast<std::size_t>(1 + i % 5), 'm');
    r.client.call(r.t.b->id(), 80, method, 500, [&, method](const RpcReply& rep) {
      EXPECT_TRUE(rep.ok);
      EXPECT_EQ(rep.body, method);
      EXPECT_EQ(rep.bytes, static_cast<std::int64_t>(method.size()) * 1'000);
      ++done;
    });
  }
  r.t.sim().run(50_ms);
  EXPECT_EQ(done, 20);
  EXPECT_EQ(r.client.completed(), 20u);
}

TEST(Rpc, UnknownMethodTimesOut) {
  RpcRig r;  // no handlers registered at all
  std::optional<RpcReply> reply;
  r.client.call(r.t.b->id(), 80, "nope", 100,
                [&](const RpcReply& rep) { reply = rep; });
  r.t.sim().run(50_ms);
  ASSERT_TRUE(reply.has_value());
  EXPECT_FALSE(reply->ok);
  EXPECT_EQ(r.client.timed_out(), 1u);
  EXPECT_EQ(r.client.inflight(), 0u);
}

TEST(Rpc, UnreachableServerTimesOut) {
  RpcRig r;
  bool failed = false;
  r.client.call(777 /* no route */, 80, "x", 100,
                [&](const RpcReply& rep) { failed = !rep.ok; });
  r.t.sim().run(50_ms);
  EXPECT_TRUE(failed);
}

TEST(Rpc, LargeRequestAndResponseBodies) {
  RpcRig r;
  r.server.handle("put", [](const std::string&, std::int64_t, net::NodeId) {
    return RpcServer::Response{2'000'000, "stored"};
  });
  std::optional<RpcReply> reply;
  RpcClient big_client(r.client_ep, {.reply_port = 9100, .timeout = 100_ms});
  big_client.call(r.t.b->id(), 80, "put", 1'000'000,
                  [&](const RpcReply& rep) { reply = rep; });
  r.t.sim().run(200_ms);
  ASSERT_TRUE(reply.has_value());
  EXPECT_TRUE(reply->ok);
  EXPECT_EQ(reply->bytes, 2'000'000);
}

TEST(Rpc, CallsSpreadAcrossReplicasThroughL7Lb) {
  // Inter-message independence through the RPC layer: a client calling a
  // virtual service gets answers from whichever replica the balancer chose.
  net::Network net;
  auto* client_host = net.add_host("client");
  auto* sw = net.add_switch("lb");
  auto* r1 = net.add_host("r1");
  auto* r2 = net.add_host("r2");
  net.connect(*client_host, *sw, Bandwidth::gbps(100), 1_us);
  net.connect(*sw, *r1, Bandwidth::gbps(100), 1_us);
  net.connect(*sw, *r2, Bandwidth::gbps(100), 1_us);
  net.build_routes();
  const net::NodeId service = 500;
  sw->add_ingress(std::make_shared<innetwork::L7LoadBalancer>(
      innetwork::L7LoadBalancer::Config{.virtual_service = service,
                                        .replicas = {r1->id(), r2->id()}}));

  MtpEndpoint ce(*client_host, {});
  MtpEndpoint e1(*r1, {});
  MtpEndpoint e2(*r2, {});
  RpcClient client(ce, {.reply_port = 9000});
  RpcServer s1(e1, 80);
  RpcServer s2(e2, 80);
  auto handler = [](const std::string&, std::int64_t, net::NodeId) {
    return RpcServer::Response{100, "ok"};
  };
  s1.handle("", handler);
  s2.handle("", handler);

  std::set<net::NodeId> responders;
  int ok = 0;
  for (int i = 0; i < 16; ++i) {
    client.call(service, 80, "get", 200, [&](const RpcReply& rep) {
      if (rep.ok) {
        ++ok;
        responders.insert(rep.responder);
      }
    });
  }
  net.simulator().run(50_ms);
  EXPECT_EQ(ok, 16);
  EXPECT_EQ(responders.size(), 2u);  // both replicas answered someone
}

TEST(Rpc, HighPriorityCallOvertakesUnderBacklog) {
  HostPair t(Bandwidth::gbps(1), 2_us);
  MtpEndpoint ce(*t.a, {});
  MtpEndpoint se(*t.b, {});
  RpcClient client(ce, {.reply_port = 9000, .timeout = 500_ms});
  RpcServer server(se, 80);
  server.handle("", [](const std::string&, std::int64_t, net::NodeId) {
    return RpcServer::Response{100, ""};
  });
  std::vector<int> completion_order;
  // Two bulky low-priority calls, then one small high-priority call.
  for (int i = 0; i < 2; ++i) {
    client.call(t.b->id(), 80, "bulk", 400'000,
                [&](const RpcReply&) { completion_order.push_back(0); });
  }
  t.sim().run(100_us);
  client.call(t.b->id(), 80, "urgent", 1'000,
              [&](const RpcReply&) { completion_order.push_back(9); }, 9);
  t.sim().run(500_ms);
  ASSERT_EQ(completion_order.size(), 3u);
  EXPECT_EQ(completion_order[0], 9);
}

}  // namespace
}  // namespace mtp::core
