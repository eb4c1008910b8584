// Tests for mtp::fault — deterministic fault injection — and the recovery
// machinery it exercises: payload checksums, link flap accounting, MTP RTO
// backoff, pathlet exclusion around blackholes, TCP SYN recovery, device
// crash-with-state-wipe, L7 LB health ejection, and RPC retries.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "helpers.hpp"
#include "innetwork/kvs_cache.hpp"
#include "innetwork/l7_lb.hpp"
#include "mtp/endpoint.hpp"
#include "mtp/rpc.hpp"
#include "mtp/stream/stream.hpp"
#include "net/drop.hpp"
#include "net/fat_tree.hpp"
#include "telemetry/trace.hpp"
#include "transport/tcp.hpp"

namespace mtp::fault {
namespace {

using namespace mtp::sim::literals;
using core::MtpEndpoint;
using core::ReceivedMessage;
using mtp::testing::HostPair;
using sim::Bandwidth;
using sim::SimTime;

net::Packet mtp_data_pkt(std::uint32_t pkt_num = 0, std::uint32_t total = 4) {
  net::Packet p;
  p.src = 1;
  p.dst = 2;
  p.payload_bytes = 1000;
  p.header_bytes = 64;
  proto::MtpHeader h;
  h.msg_id = 42;
  h.pkt_num = pkt_num;
  h.msg_len_pkts = total;
  h.msg_len_bytes = static_cast<std::uint64_t>(total) * 1000;
  h.pkt_len = 1000;
  h.pkt_offset = static_cast<std::uint64_t>(pkt_num) * 1000;
  h.dst_port = 80;
  p.header = h;
  return p;
}

// ------------------------------------------------------- payload checksums

TEST(Checksum, UnstampedPacketAlwaysVerifies) {
  const net::Packet p = mtp_data_pkt();
  EXPECT_EQ(p.payload_fingerprint, 0u);
  EXPECT_TRUE(p.checksum_ok());  // 0 = "no NIC stamped it yet"
}

TEST(Checksum, StampedPacketVerifiesUntilCorrupted) {
  net::Packet p = mtp_data_pkt();
  p.stamp_fingerprint();
  EXPECT_NE(p.payload_fingerprint, 0u);
  EXPECT_TRUE(p.checksum_ok());
  p.corrupt();
  EXPECT_FALSE(p.checksum_ok());
}

TEST(Checksum, SurvivesDestinationRewrite) {
  // An L7 LB rewrites pkt.dst en route; the fingerprint must not cover it,
  // or every load-balanced packet would look corrupted at the replica.
  net::Packet p = mtp_data_pkt();
  p.stamp_fingerprint();
  p.dst = 99;
  EXPECT_TRUE(p.checksum_ok());
}

TEST(Checksum, CoversAppDataPayload) {
  net::Packet p = mtp_data_pkt();
  p.app = net::AppData{"key", "value"};
  p.stamp_fingerprint();
  EXPECT_TRUE(p.checksum_ok());
  p.app->value = "evil!";
  EXPECT_FALSE(p.checksum_ok());
}

TEST(Checksum, LinkStampsOnFirstHop) {
  HostPair t;
  std::optional<std::uint64_t> fp;
  MtpEndpoint a(*t.a, {});
  MtpEndpoint b(*t.b, {});
  b.listen(80, [](const ReceivedMessage&) {});
  a.send_message(t.b->id(), 2'000, {.dst_port = 80});
  t.sim().run(1_ms);
  EXPECT_EQ(b.msgs_delivered(), 1u);
  EXPECT_EQ(b.checksum_drops(), 0u);  // clean path: stamp always verifies
  (void)fp;
}

// ------------------------------------------------- Gilbert-Elliott model

TEST(GilbertElliott, SameSeedSameDecisionStream) {
  const GilbertElliott::Config cfg{.p_good_to_bad = 0.05,
                                   .p_bad_to_good = 0.2,
                                   .bad_loss = 0.3,
                                   .bad_corrupt = 0.3};
  GilbertElliott a(cfg), b(cfg);
  sim::Rng ra(77), rb(77);
  int faults = 0;
  for (int i = 0; i < 20'000; ++i) {
    const net::FaultAction fa = a.step(ra);
    ASSERT_EQ(fa, b.step(rb)) << "diverged at step " << i;
    if (fa != net::FaultAction::kNone) ++faults;
  }
  EXPECT_GT(faults, 0);  // the bad state actually bites
}

TEST(GilbertElliott, GoodStateIsCleanByDefault) {
  GilbertElliott ge({.p_good_to_bad = 0.0});
  sim::Rng rng(1);
  for (int i = 0; i < 1'000; ++i) {
    EXPECT_EQ(ge.step(rng), net::FaultAction::kNone);
  }
}

// --------------------------------------------------------- link flapping

TEST(FaultInjector, ScheduledFlapExecutesBothEdges) {
  HostPair t;
  FaultInjector inj(t.sim(), 1);
  inj.flap_link(*t.sw_to_b, 100_us, 200_us);
  EXPECT_EQ(inj.flaps_scheduled(), 1u);

  t.sim().schedule_at(150_us, [&] { EXPECT_FALSE(t.sw_to_b->is_up()); });
  t.sim().schedule_at(350_us, [&] { EXPECT_TRUE(t.sw_to_b->is_up()); });
  t.sim().run(1_ms);
  EXPECT_EQ(inj.flaps_executed(), 2u);  // down + up
  EXPECT_EQ(t.sw_to_b->stats().flaps, 1u);
}

TEST(FaultInjector, DownLinkDiscardsQueueAndCountsEverySend) {
  // Slow egress builds a queue at the switch; the flap must discard it and
  // count both the discards and the sends attempted while down.
  HostPair t(Bandwidth::gbps(1));
  telemetry::trace().clear();
  telemetry::TraceSink::set_enabled(true);
  MtpEndpoint a(*t.a, {});
  MtpEndpoint b(*t.b, {});
  b.listen(80, [](const ReceivedMessage&) {});
  a.send_message(t.b->id(), 200'000, {.dst_port = 80});
  FaultInjector inj(t.sim(), 1);
  inj.flap_link(*t.sw_to_b, 30_us, 500_us);
  t.sim().run(10_ms);
  telemetry::TraceSink::set_enabled(false);

  EXPECT_GT(t.sw_to_b->stats().pkts_dropped_down, 0u);
  EXPECT_EQ(b.msgs_delivered(), 1u);  // retransmission recovers everything
  // Both flap edges traced.
  EXPECT_EQ(telemetry::trace().count(telemetry::TraceEventType::kLinkFlap), 2u);
}

TEST(FaultInjector, RandomFlapsAreSeedDeterministicAndEndUp) {
  auto run = [](std::uint64_t seed) {
    HostPair t;
    FaultInjector inj(t.sim(), seed);
    inj.random_flaps(*t.sw_to_b, 100_us, 3_ms, /*mean_up=*/300_us,
                     /*mean_down=*/100_us);
    t.sim().run(10_ms);
    EXPECT_TRUE(t.sw_to_b->is_up());  // guaranteed back up at the horizon
    return std::pair{inj.digest(), inj.flaps_executed()};
  };
  const auto [d1, f1] = run(5);
  const auto [d2, f2] = run(5);
  const auto [d3, f3] = run(6);
  EXPECT_EQ(d1, d2);
  EXPECT_EQ(f1, f2);
  EXPECT_GT(f1, 0u);
  EXPECT_NE(d1, d3);  // different seed, different timeline
}

// ------------------------------------------------------- MTP RTO backoff

TEST(MtpRto, BackoffGrowsUnderBlackholeAndResetsOnProgress) {
  HostPair t;
  MtpEndpoint a(*t.a, {});
  MtpEndpoint b(*t.b, {});
  b.listen(80, [](const ReceivedMessage&) {});

  // Establish an RTT estimate on a clean path.
  a.send_message(t.b->id(), 4'000, {.dst_port = 80});
  t.sim().run(1_ms);
  ASSERT_EQ(b.msgs_delivered(), 1u);
  EXPECT_EQ(a.rto_backoff(), 1.0);

  // Blackhole the data direction and send again: consecutive timeout scans
  // must back the timer off exponentially (and stay capped).
  t.sw_to_b->set_up(false);
  a.send_message(t.b->id(), 4'000, {.dst_port = 80});
  t.sim().run(60_ms);
  EXPECT_GE(a.rto_backoff(), 8.0);
  EXPECT_LE(a.rto_backoff(), 64.0);

  // Restore: the message completes and SACK progress resets the backoff.
  t.sw_to_b->set_up(true);
  t.sim().run(1_s);
  EXPECT_EQ(b.msgs_delivered(), 2u);
  EXPECT_EQ(a.rto_backoff(), 1.0);
}

// ------------------------------------------------------- recovery edges

TEST(RecoveryEdge, TcpSynLostToDownLinkEventuallyConnects) {
  HostPair t;
  transport::TcpStack ca(*t.a, {});
  transport::TcpStack cb(*t.b, {});
  std::shared_ptr<transport::TcpConnection> server;
  cb.listen(80, [&](std::shared_ptr<transport::TcpConnection> c) { server = std::move(c); });

  t.a_to_sw->set_up(false);  // SYN will be blackholed
  auto client = ca.connect(t.b->id(), 80);
  t.sim().schedule_at(5_ms, [&] { t.a_to_sw->set_up(true); });
  t.sim().run(100_ms);

  EXPECT_EQ(client->state(), transport::TcpConnection::State::kEstablished);
  ASSERT_NE(server, nullptr);
  EXPECT_GT(client->timeouts(), 0u);  // the handshake had to be retried
}

TEST(RecoveryEdge, MtpMessageSpansMidTransferFlap) {
  HostPair t(Bandwidth::gbps(1));
  MtpEndpoint a(*t.a, {});
  MtpEndpoint b(*t.b, {});
  std::int64_t got = 0;
  int deliveries = 0;
  b.listen(80, [&](const ReceivedMessage& m) {
    ++deliveries;
    got = m.bytes;
  });
  int completions = 0;
  a.send_message(t.b->id(), 500'000, {.dst_port = 80},
                 [&](proto::MsgId, SimTime) { ++completions; });
  FaultInjector inj(t.sim(), 9);
  inj.flap_link(*t.sw_to_b, 1_ms, 1_ms);  // mid-transfer outage
  t.sim().run(200_ms);

  EXPECT_EQ(deliveries, 1);
  EXPECT_EQ(completions, 1);
  EXPECT_EQ(got, 500'000);
  EXPECT_EQ(b.corrupted_delivered(), 0u);
  EXPECT_EQ(t.sim().pending_events(), 0u);  // everything quiesced
}

TEST(RecoveryEdge, StreamSpansMidTransferFlapCompletesExactlyOnce) {
  // An mtp::stream (FEC on) straddling a 1 ms outage: MTP re-drives the
  // segment messages, the stream layer dedups, and every byte arrives
  // exactly once and in order.
  HostPair t(Bandwidth::gbps(1));
  MtpEndpoint a(*t.a, {});
  MtpEndpoint b(*t.b, {});
  stream::StreamConfig cfg;
  cfg.fec_k = 4;
  cfg.fec_r = 1;
  stream::StreamMux tx(a, 80, cfg);
  stream::StreamMux rx(b, 80, cfg);
  stream::Stream& s = tx.open(t.b->id(), 80);
  int completions = 0;
  s.on_complete = [&] { ++completions; };
  s.on_error = [&](stream::StreamError) { FAIL() << "stream error"; };
  std::vector<std::uint32_t> seqs;
  rx.on_segment = [&](net::NodeId, std::uint32_t, std::uint32_t seq, std::uint32_t,
                      const std::string&, bool) { seqs.push_back(seq); };
  int rx_completions = 0;
  rx.on_stream_complete = [&](net::NodeId, std::uint32_t) { ++rx_completions; };

  for (int rec = 0; rec < 100; ++rec) s.write(5'000);  // ~4 ms at 1 Gb/s
  s.finish();
  FaultInjector inj(t.sim(), 9);
  inj.flap_link(*t.sw_to_b, 1_ms, 1_ms);  // mid-transfer outage
  t.sim().run(2'000_ms);

  EXPECT_EQ(completions, 1);
  EXPECT_EQ(rx_completions, 1);
  ASSERT_EQ(seqs.size(), 500u);  // 100 records x 5 segments, exactly once
  for (std::size_t i = 0; i < seqs.size(); ++i) EXPECT_EQ(seqs[i], i);
  EXPECT_EQ(rx.stats().bytes_delivered, 500'000u);
  EXPECT_EQ(rx.stats().streams_failed, 0u);
  EXPECT_EQ(t.sim().pending_events(), 0u);  // everything quiesced
}

TEST(RecoveryEdge, StreamReceiverCrashSurfacesPeerResetExactlyOnce) {
  // The receiving mux crashes (state wipe) after the stream has acked
  // progress. On restart the rebuilt rx state reports a newer epoch with a
  // regressed cumulative ack — the sender must surface one clean
  // kPeerReset, never a hang and never a silent partial re-delivery.
  HostPair t(Bandwidth::gbps(1));
  MtpEndpoint a(*t.a, {});
  MtpEndpoint b(*t.b, {});
  stream::StreamMux tx(a, 80, {});
  stream::StreamMux rx(b, 80, {});
  stream::Stream& s = tx.open(t.b->id(), 80);
  std::vector<stream::StreamError> errors;
  s.on_error = [&](stream::StreamError e) { errors.push_back(e); };
  s.on_complete = [&] { FAIL() << "stream completed across a state wipe"; };

  for (int rec = 0; rec < 200; ++rec) s.write(5'000);  // ~8 ms at 1 Gb/s
  s.finish();
  FaultInjector inj(t.sim(), 17);
  inj.crash_device(
      "stream-rx", 2_ms, 10_ms, [&] { rx.crash(); }, [&] { rx.restart(); });
  t.sim().run(5'000_ms);

  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0], stream::StreamError::kPeerReset);
  EXPECT_TRUE(s.failed());
  EXPECT_EQ(tx.stats().streams_failed, 1u);
  EXPECT_EQ(rx.stats().streams_completed, 0u);
  EXPECT_EQ(inj.crashes(), 1u);
  EXPECT_EQ(inj.restarts(), 1u);
  EXPECT_EQ(t.sim().pending_events(), 0u);  // failure is clean: no timers leak
}

TEST(RecoveryEdge, SenderMuxCrashQuarantinesStreamsKeepingPointersValid) {
  // The *sending* device crashes mid-stream. Callers (scenario replay, app
  // fault handlers) hold raw Stream* across the wipe, so crash() must
  // quarantine sender streams — alive, failed, writes safe no-ops — rather
  // than destroy them (use-after-free on the next write).
  HostPair t(Bandwidth::gbps(1));
  MtpEndpoint a(*t.a, {});
  MtpEndpoint b(*t.b, {});
  stream::StreamMux tx(a, 80, {});
  stream::StreamMux rx(b, 80, {});
  stream::Stream& s = tx.open(t.b->id(), 80);
  int errors = 0;
  s.on_error = [&](stream::StreamError) { ++errors; };
  s.on_complete = [&] { FAIL() << "quarantined stream completed"; };

  for (int rec = 0; rec < 50; ++rec) s.write(5'000);  // ~2 ms at 1 Gb/s
  t.sim().run(1_ms);
  tx.crash();
  // Post-crash writes through the retained pointer: no-ops, not UAF.
  s.write(5'000);
  s.finish();
  EXPECT_TRUE(s.failed());
  EXPECT_EQ(errors, 0);  // the app died with the device: nothing to surface
  tx.restart();
  t.sim().run(5'000_ms);

  EXPECT_EQ(tx.stats().streams_failed, 0u);
  EXPECT_EQ(rx.stats().streams_completed, 0u);
  EXPECT_EQ(t.sim().pending_events(), 0u);  // quarantine cancelled all timers
}

TEST(RecoveryEdge, RepeatedTimeoutsExcludePathletAndRerouteAroundBlackhole) {
  // Fat-tree k=4, sender in pod 0, receiver in pod 1. Aggregation 0 of pod
  // 1 loses its downlink to the receiver's edge — invisible to the sender's
  // edge, whose forwarding policy keeps seeing a healthy uplink to
  // aggregation 0. Only the sender notices (timeouts), excludes the learned
  // pathlet, and its Path Exclude list steers the edge onto aggregation 1.
  net::Network net(4);
  net::FatTree ft(net, {.k = 4});
  mtp::testing::set_fabric_policy<net::MessageAwarePolicy>(ft);
  net::Link* via_agg0 = ft.edge_uplink(0, 0, 0);
  net::Link* via_agg1 = ft.edge_uplink(0, 0, 1);
  via_agg0->set_pathlet({.id = 1, .feedback = proto::FeedbackType::kEcn});
  via_agg1->set_pathlet({.id = 2, .feedback = proto::FeedbackType::kEcn});

  core::MtpConfig cfg;
  cfg.auto_exclude_after_losses = 2;
  cfg.exclude_duration = 20_ms;
  MtpEndpoint a(*ft.host(0, 0, 0), cfg);
  MtpEndpoint b(*ft.host(1, 0, 0), {});
  int deliveries = 0;
  b.listen(80, [&](const ReceivedMessage&) { ++deliveries; });

  // Learn the path (all traffic currently rides aggregation 0, the first
  // uplink).
  a.send_message(b.node().id(), 5'000, {.dst_port = 80});
  net.simulator().run(1_ms);
  ASSERT_EQ(deliveries, 1);
  const auto learned = a.current_path(b.node().id());
  ASSERT_FALSE(learned.empty());

  // Fail the far side of aggregation 0's paths (its port 0 faces edge 0)
  // and send another message.
  ft.agg(1, 0)->out_port(0)->set_up(false);
  const std::uint64_t agg1_before = via_agg1->stats().pkts_delivered;
  a.send_message(b.node().id(), 5'000, {.dst_port = 80});
  net.simulator().run(200_ms);

  EXPECT_EQ(deliveries, 2);  // rerouted and delivered despite the blackhole
  EXPECT_GT(via_agg1->stats().pkts_delivered, agg1_before);
}

TEST(RecoveryEdge, KvsCacheCrashMidRpcFailsOverToBackendExactlyOnce) {
  HostPair t(Bandwidth::gbps(1));
  MtpEndpoint client_ep(*t.a, {});
  MtpEndpoint server_ep(*t.b, {});
  core::RpcClient client(client_ep, {.reply_port = 9000,
                                     .timeout = 3_ms,
                                     .max_retries = 3,
                                     .retry_seed = 21});
  core::RpcServer server(server_ep, 80);
  server.handle("k", [](const std::string&, std::int64_t, net::NodeId) {
    return core::RpcServer::Response{200'000, "from-backend"};
  });
  auto cache = std::make_shared<innetwork::KvsCache>(
      *t.sw, innetwork::KvsCache::Config{.backend = t.b->id(), .service_port = 80});
  cache->put("k", "from-cache", 200'000);
  t.sw->add_ingress(cache);

  std::vector<core::RpcReply> replies;
  client.call(t.b->id(), 80, "k", 1'000,
              [&](const core::RpcReply& r) { replies.push_back(r); });

  // Crash the cache while its 200 KB reply is mid-flight (1.6 ms at 1 Gb/s).
  FaultInjector inj(t.sim(), 17);
  inj.crash_device(
      "kvs", 300_us, 20_ms, [&] { cache->crash(); }, [&] { cache->restart(); });
  t.sim().run(500_ms);

  ASSERT_EQ(replies.size(), 1u);  // exactly one callback, no duplicate reply
  EXPECT_TRUE(replies[0].ok);
  EXPECT_EQ(replies[0].body, "from-backend");  // retry missed through to b
  EXPECT_EQ(replies[0].responder, t.b->id());
  EXPECT_GE(client.retries(), 1u);
  EXPECT_EQ(client.completed(), 1u);
  EXPECT_EQ(client.timed_out(), 0u);
  EXPECT_EQ(cache->crashes(), 1u);
  EXPECT_EQ(inj.crashes(), 1u);
  EXPECT_EQ(inj.restarts(), 1u);
  EXPECT_EQ(cache->receiver().corrupted_delivered(), 0u);
}

TEST(RecoveryEdge, RpcRetriesAcrossLinkFlap) {
  HostPair t;
  MtpEndpoint client_ep(*t.a, {});
  MtpEndpoint server_ep(*t.b, {});
  // Budget: the endpoint-global Karn backoff means a blackhole that catches
  // several messages un-blocks them one doubled-RTO at a time, so the reply
  // can take a few extra milliseconds after the link returns. The retry
  // schedule must out-live that, not race it.
  core::RpcClient client(client_ep, {.reply_port = 9000,
                                     .timeout = 3_ms,
                                     .max_retries = 4,
                                     .retry_backoff_cap = 8_ms,
                                     .retry_seed = 8});
  core::RpcServer server(server_ep, 80);
  server.handle("", [](const std::string&, std::int64_t, net::NodeId) {
    return core::RpcServer::Response{1'000, "ok"};
  });

  t.sw_to_b->set_up(false);
  t.sim().schedule_at(2_ms, [&] { t.sw_to_b->set_up(true); });
  int callbacks = 0;
  bool ok = false;
  client.call(t.b->id(), 80, "ping", 1'000, [&](const core::RpcReply& r) {
    ++callbacks;
    ok = r.ok;
  });
  t.sim().run(200_ms);

  EXPECT_EQ(callbacks, 1);
  EXPECT_TRUE(ok);
  EXPECT_GE(client.retries(), 1u);
  EXPECT_EQ(client.completed(), 1u);
}

// ------------------------------------------------------- L7 LB ejection

TEST(L7Lb, EjectedReplicaReceivesNoNewRequests) {
  net::Network net(1);
  net::Switch* sw = net.add_switch("lb");
  innetwork::L7LoadBalancer lb({.virtual_service = 50, .replicas = {60, 61}});

  auto request = [&](proto::MsgId id) {
    net::Packet p;
    p.src = 1;
    p.dst = 50;
    p.payload_bytes = 1000;
    proto::MtpHeader h;
    h.msg_id = id;
    h.msg_len_pkts = 1;
    h.msg_len_bytes = 1000;
    h.pkt_len = 1000;
    p.header = h;
    lb.process(p, *sw);
    return p.dst;
  };

  lb.set_replica_up(0, false);
  for (proto::MsgId id = 1; id <= 8; ++id) {
    EXPECT_EQ(request(id), 61u);  // everything avoids the ejected replica
  }
  // All replicas down: fall back to best-overall rather than blackholing.
  lb.set_replica_up(1, false);
  const net::NodeId any = request(9);
  EXPECT_TRUE(any == 60 || any == 61);
  // Recovery: replica 0 returns and takes traffic again.
  lb.set_replica_up(0, true);
  lb.set_replica_up(1, true);
  bool saw_60 = false;
  for (proto::MsgId id = 10; id <= 20; ++id) saw_60 |= (request(id) == 60u);
  EXPECT_TRUE(saw_60);
}

// ----------------------------------------------- corruption under faults

TEST(Impairment, MtpNeverDeliversCorruptedPayloads) {
  HostPair t;
  telemetry::trace().clear();
  telemetry::TraceSink::set_enabled(true);
  MtpEndpoint a(*t.a, {});
  MtpEndpoint b(*t.b, {});
  int deliveries = 0;
  b.listen(80, [&](const ReceivedMessage&) { ++deliveries; });
  FaultInjector inj(t.sim(), 23);
  inj.impair_link(*t.sw_to_b, {.p_good_to_bad = 0.2,
                               .p_bad_to_good = 0.1,
                               .bad_loss = 0.1,
                               .bad_corrupt = 0.5});
  a.send_message(t.b->id(), 100'000, {.dst_port = 80});
  t.sim().run(500_ms);
  telemetry::TraceSink::set_enabled(false);

  EXPECT_EQ(deliveries, 1);
  EXPECT_GT(inj.pkts_corrupted(), 0u);
  EXPECT_GT(b.checksum_drops(), 0u);
  EXPECT_EQ(b.corrupted_delivered(), 0u);  // the headline invariant
  EXPECT_GT(telemetry::trace().count(telemetry::TraceEventType::kCorrupt), 0u);
  std::uint64_t traced_checksum_drops = 0;
  for (const telemetry::TraceEvent& ev : telemetry::trace().events()) {
    traced_checksum_drops += ev.type == telemetry::TraceEventType::kDrop &&
                             ev.value == static_cast<std::uint64_t>(net::DropReason::kChecksum);
  }
  EXPECT_EQ(traced_checksum_drops, b.checksum_drops());
}

TEST(Impairment, TcpDropsCorruptedSegmentsAndStillCompletes) {
  HostPair t;
  transport::TcpStack ca(*t.a, {});
  transport::TcpStack cb(*t.b, {});
  std::shared_ptr<transport::TcpConnection> server;
  std::int64_t got = 0;
  cb.listen(80, [&](std::shared_ptr<transport::TcpConnection> c) {
    server = std::move(c);
    server->on_data = [&](std::int64_t bytes) { got += bytes; };
  });
  FaultInjector inj(t.sim(), 31);
  inj.impair_link(*t.sw_to_b, {.p_good_to_bad = 0.1,
                               .p_bad_to_good = 0.1,
                               .bad_loss = 0.0,
                               .bad_corrupt = 0.5});
  auto client = ca.connect(t.b->id(), 80);
  client->on_established = [&] { client->send(100'000); };
  t.sim().run(500_ms);

  EXPECT_EQ(got, 100'000);
  EXPECT_GT(cb.checksum_drops(), 0u);
}

TEST(Impairment, ClearRestoresACleanLink) {
  HostPair t;
  FaultInjector inj(t.sim(), 2);
  inj.impair_link(*t.sw_to_b, {.p_good_to_bad = 1.0, .bad_loss = 1.0});
  inj.clear_impairment(*t.sw_to_b);
  MtpEndpoint a(*t.a, {});
  MtpEndpoint b(*t.b, {});
  b.listen(80, [](const ReceivedMessage&) {});
  a.send_message(t.b->id(), 10'000, {.dst_port = 80});
  t.sim().run(10_ms);
  EXPECT_EQ(b.msgs_delivered(), 1u);
  EXPECT_EQ(inj.pkts_dropped(), 0u);
}

// --------------------------------------------- device receiver checksum

TEST(DeviceReceiver, NacksCorruptedPacketsAndNeverAccumulatesThem) {
  net::Network net(1);
  net::Switch* sw = net.add_switch("dev");
  net::Host* h = net.add_host("h");
  net.connect(*sw, *h, Bandwidth::gbps(10), 1_us);
  net.build_routes();
  innetwork::DeviceReceiver rx(*sw, {});

  net::Packet bad = mtp_data_pkt(0, 1);
  bad.stamp_fingerprint();
  bad.corrupt();
  EXPECT_FALSE(rx.on_data(bad).has_value());
  EXPECT_EQ(rx.checksum_drops(), 1u);
  EXPECT_EQ(rx.corrupted_delivered(), 0u);

  net::Packet good = mtp_data_pkt(0, 1);
  good.stamp_fingerprint();
  EXPECT_TRUE(rx.on_data(good).has_value());  // clean copy still completes
}

}  // namespace
}  // namespace mtp::fault
