// TCP edge cases: peers that vanish, zero-window stalls resolved by probes,
// bidirectional transfers, and ECN codepoint discipline.
#include <gtest/gtest.h>

#include "helpers.hpp"
#include "transport/apps.hpp"
#include "transport/tcp.hpp"

namespace mtp::transport {
namespace {

using namespace mtp::sim::literals;
using mtp::testing::HostPair;
using sim::Bandwidth;
using sim::SimTime;

TEST(TcpEdge, SenderAbortsWhenPeerVanishesMidTransfer) {
  HostPair t;
  TcpStack ca(*t.a, {});
  TcpStack cb(*t.b, {});
  TcpSink sink(cb, 80);
  auto client = ca.connect(t.b->id(), 80);
  bool closed = false;
  client->on_established = [&] { client->send(10'000'000); };
  client->on_closed = [&] { closed = true; };
  t.sim().run(500_us);  // transfer under way
  EXPECT_GT(client->bytes_delivered(), 0);
  t.sw_to_b->set_up(false);  // the server becomes unreachable
  t.sim().run(5'000_ms);
  // Exponential backoff runs out; the connection aborts instead of retrying
  // forever (and the stack forgets it).
  EXPECT_TRUE(closed);
  EXPECT_EQ(client->state(), TcpConnection::State::kClosed);
  EXPECT_EQ(ca.open_connections(), 0u);
}

// The stack owns a connection until it closes and no longer: a server-side
// connection that the application does not keep is destroyed on close.
TEST(TcpEdge, ClosedServerConnectionIsDestroyed) {
  HostPair t;
  TcpStack ca(*t.a, {});
  TcpStack cb(*t.b, {});
  std::weak_ptr<TcpConnection> server;
  std::int64_t received = 0;
  cb.listen(80, [&](std::shared_ptr<TcpConnection> c) {
    server = c;
    c->on_data = [&](std::int64_t bytes) { received += bytes; };
  });
  auto client = ca.connect(t.b->id(), 80);
  client->on_established = [&] {
    client->send(10'000);
    client->close();
  };
  t.sim().run(50_ms);
  EXPECT_EQ(received, 10'000);
  EXPECT_EQ(client->state(), TcpConnection::State::kClosed);
  EXPECT_TRUE(server.expired());
  EXPECT_EQ(cb.open_connections(), 0u);
  EXPECT_EQ(ca.open_connections(), 0u);
}

// The server's ACK path dies mid-transfer, so the server's RTO backs off to
// an abort. The abort removes the connection from the stack inside a timer
// callback while nothing else owns it; it must finish on a live object.
TEST(TcpEdge, RtoAbortOfUnownedServerConnectionIsClean) {
  HostPair t;
  TcpStack ca(*t.a, {});
  TcpStack cb(*t.b, {});
  std::weak_ptr<TcpConnection> server;
  bool closed = false;
  cb.listen(80, [&](std::shared_ptr<TcpConnection> c) {
    server = c;
    c->on_closed = [&] { closed = true; };
    c->send(10'000'000);
  });
  auto client = ca.connect(t.b->id(), 80);
  t.sim().run(500_us);  // handshake done, the server is streaming
  ASSERT_FALSE(server.expired());
  t.sw_to_b->set_up(false);  // the client's ACKs never reach the server
  t.sim().run(5'000_ms);
  EXPECT_TRUE(closed);
  EXPECT_TRUE(server.expired());
  EXPECT_EQ(cb.open_connections(), 0u);
}

TEST(TcpEdge, ZeroWindowProbeResumesAfterLongStall) {
  HostPair t;
  TcpConfig server_cfg;
  server_cfg.rcv_buf_bytes = 4'000;
  TcpStack ca(*t.a, {});
  TcpStack cb(*t.b, server_cfg);
  std::shared_ptr<TcpConnection> server;
  cb.listen(80, [&](std::shared_ptr<TcpConnection> c) {
    server = std::move(c);
    server->set_auto_consume(false);
  });
  auto client = ca.connect(t.b->id(), 80);
  client->on_established = [&] {
    client->send(20'000);
    client->close();
  };
  // Fill the 4KB receive buffer, then stall for a long time.
  t.sim().run(5_ms);
  ASSERT_NE(server, nullptr);
  // ~4KB buffered, plus a handful of accepted 1-byte zero-window probes.
  EXPECT_GE(server->available(), 4'000);
  EXPECT_LT(server->available(), 4'200);
  t.sim().run(50_ms);  // stalled on zero window, probes keep the conn alive
  ASSERT_NE(client->state(), TcpConnection::State::kClosed);
  // Drain; the transfer must finish.
  sim::PeriodicTask drain(t.sim(), 50_us, [&] {
    if (server->available() > 0) server->consume(server->available());
  });
  drain.start();
  t.sim().run(500_ms);
  EXPECT_EQ(client->bytes_delivered(), 20'000);
}

TEST(TcpEdge, SimultaneousBidirectionalTransfers) {
  HostPair t;
  TcpStack ca(*t.a, {});
  TcpStack cb(*t.b, {});
  TcpSink sink_b(cb, 80);
  TcpSink sink_a(ca, 81);
  auto ab = ca.connect(t.b->id(), 80);
  auto ba = cb.connect(t.a->id(), 81);
  ab->on_established = [&] {
    ab->send(300'000);
    ab->close();
  };
  ba->on_established = [&] {
    ba->send(500'000);
    ba->close();
  };
  t.sim().run(100_ms);
  EXPECT_EQ(sink_b.bytes_received(), 300'000);
  EXPECT_EQ(sink_a.bytes_received(), 500'000);
}

TEST(TcpEdge, ControlPacketsAreNotEcnCapable) {
  // SYN/pure-ACK packets must carry Not-ECT even on a DCTCP stack
  // (RFC 3168 discipline); data segments carry ECT.
  HostPair t;
  TcpConfig cfg;
  cfg.dctcp = true;
  TcpStack ca(*t.a, cfg);
  TcpStack cb(*t.b, cfg);
  bool saw_syn_ect = false, saw_data_ect = false;
  class Sniffer : public net::IngressProcessor {
   public:
    Sniffer(bool& syn_ect, bool& data_ect) : syn_ect_(syn_ect), data_ect_(data_ect) {}
    bool process(net::Packet& pkt, net::Switch&) override {
      if (!pkt.is_tcp()) return false;
      const auto& h = pkt.tcp();
      if (h.has(proto::kTcpSyn) && pkt.ecn != net::Ecn::kNotEct) syn_ect_ = true;
      if (h.payload > 0 && pkt.ecn == net::Ecn::kEct) data_ect_ = true;
      return false;
    }
    bool& syn_ect_;
    bool& data_ect_;
  };
  t.sw->add_ingress(std::make_shared<Sniffer>(saw_syn_ect, saw_data_ect));
  TcpSink sink(cb, 80);
  auto client = ca.connect(t.b->id(), 80);
  client->on_established = [&] {
    client->send(50'000);
    client->close();
  };
  t.sim().run(50_ms);
  EXPECT_FALSE(saw_syn_ect);
  EXPECT_TRUE(saw_data_ect);
  EXPECT_EQ(sink.bytes_received(), 50'000);
}

TEST(TcpEdge, ManySequentialConnectionsDoNotLeakState) {
  HostPair t;
  TcpStack ca(*t.a, {});
  TcpStack cb(*t.b, {});
  TcpSink sink(cb, 80);
  TcpPerMessageClient client(ca, t.b->id(), 80);
  int remaining = 50;
  std::function<void()> next = [&] {
    if (remaining-- <= 0) return;
    client.send_message(10'000, [&](SimTime, std::int64_t) { next(); });
  };
  next();
  t.sim().run(2'000_ms);
  EXPECT_EQ(client.completed(), 50u);
  EXPECT_EQ(sink.bytes_received(), 50 * 10'000);
  EXPECT_EQ(ca.open_connections(), 0u);
  EXPECT_EQ(cb.open_connections(), 0u);
}

}  // namespace
}  // namespace mtp::transport
