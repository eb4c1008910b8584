// mtp::telemetry tests: registry lifecycle and lookup, trace ring semantics,
// event names, end-to-end event ordering on a real transfer, and run-report
// rendering.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <thread>

#include "fault/fault.hpp"
#include "innetwork/aggregation.hpp"
#include "innetwork/device_endpoint.hpp"
#include "innetwork/fair_policer.hpp"
#include "innetwork/kvs_cache.hpp"
#include "innetwork/l7_lb.hpp"
#include "mtp/endpoint.hpp"
#include "mtp/rpc.hpp"
#include "mtp/stream/stream.hpp"
#include "net/network.hpp"
#include "stats/stats.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/report.hpp"
#include "telemetry/trace.hpp"
#include "transport/homa.hpp"
#include "transport/tcp.hpp"

namespace mtp::telemetry {
namespace {

using namespace mtp::sim::literals;

/// Every test starts from a clean, disabled sink and leaves it that way —
/// the sink is process-global state shared with every other test.
class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TraceSink::set_enabled(false);
    trace().set_capacity(1 << 16);  // also clears
  }
  void TearDown() override {
    TraceSink::set_enabled(false);
    trace().set_capacity(1 << 16);
  }
};

TraceEvent make_event(std::uint64_t msg_id, TraceEventType type = TraceEventType::kTx) {
  TraceEvent ev;
  ev.t = sim::SimTime::nanoseconds(static_cast<std::int64_t>(msg_id));
  ev.type = type;
  ev.component = "test";
  ev.msg_id = msg_id;
  return ev;
}

// ---------------------------------------------------------------- registry

TEST_F(TelemetryTest, RegistryProviderAppearsInSnapshotAndDeregistersOnDrop) {
  auto& reg = MetricRegistry::global();
  const std::size_t before = reg.provider_count();
  double live = 7;
  {
    Registration r = reg.add("widget", "w0", [&](std::vector<MetricSample>& out) {
      out.push_back({"spins", MetricKind::kCounter, live});
    });
    EXPECT_EQ(reg.provider_count(), before + 1);

    RegistrySnapshot snap = reg.snapshot();
    ASSERT_TRUE(snap.value("widget", "w0", "spins").has_value());
    EXPECT_EQ(*snap.value("widget", "w0", "spins"), 7);

    // Snapshots sample live state: the provider is re-polled each time.
    live = 8;
    EXPECT_EQ(*reg.snapshot().value("widget", "w0", "spins"), 8);
  }
  EXPECT_EQ(reg.provider_count(), before);
  EXPECT_FALSE(reg.snapshot().value("widget", "w0", "spins").has_value());
}

TEST_F(TelemetryTest, RegistrationIsMovable) {
  auto& reg = MetricRegistry::global();
  const std::size_t before = reg.provider_count();
  Registration outer;
  {
    Registration inner = reg.add("widget", "w1", [](std::vector<MetricSample>& out) {
      out.push_back({"x", MetricKind::kGauge, 1});
    });
    outer = std::move(inner);
    EXPECT_FALSE(inner.active());  // NOLINT(bugprone-use-after-move)
  }
  // The provider survived its original handle's scope via the move.
  EXPECT_EQ(reg.provider_count(), before + 1);
  EXPECT_TRUE(outer.active());
  outer.reset();
  EXPECT_EQ(reg.provider_count(), before);
}

TEST_F(TelemetryTest, SnapshotKeepsRegistrationOrderAcrossInterleavedRemovals) {
  auto& reg = MetricRegistry::global();
  const std::size_t before = reg.provider_count();
  std::vector<Registration> regs;
  std::vector<int> live;  // expected survivors, in registration order
  auto add = [&](int v) {
    regs.push_back(reg.add("order", "p" + std::to_string(v), [v](std::vector<MetricSample>& out) {
      out.push_back({"v", MetricKind::kGauge, static_cast<double>(v)});
    }));
    live.push_back(v);
  };
  auto remove = [&](int v) {
    regs[static_cast<std::size_t>(v)].reset();
    std::erase(live, v);
  };
  auto check = [&](const char* phase) {
    SCOPED_TRACE(phase);
    EXPECT_EQ(reg.provider_count(), before + live.size());
    std::vector<int> seen;
    const RegistrySnapshot snap = reg.snapshot();
    for (std::size_t i = 0; i < snap.size(); ++i) {
      const ProviderView p = snap.provider(i);
      if (p.component != "order") continue;
      ASSERT_EQ(p.values.size(), 1u);
      const int v = static_cast<int>(p.values[0]);
      EXPECT_EQ(p.instance, "p" + std::to_string(v));
      seen.push_back(v);
    }
    EXPECT_EQ(seen, live);
  };

  for (int v = 0; v < 40; ++v) add(v);
  for (int v = 0; v < 40; v += 3) remove(v);  // under half dead: no compaction
  check("every third removed");
  for (int v = 40; v < 50; ++v) add(v);
  remove(45);
  check("added after removals");
  for (int v = 1; v < 40; v += 2) remove(v);  // crosses half: compacts
  check("compacted");
  remove(45);  // already removed: a no-op
  for (int v = 50; v < 55; ++v) add(v);
  for (int v = 40; v < 55; v += 4) remove(v);
  check("added and removed after compaction");
  regs.clear();
  live.clear();
  check("all removed");
}

TEST_F(TelemetryTest, SnapshotTotalSumsAcrossInstances) {
  auto& reg = MetricRegistry::global();
  auto mk = [&](const char* inst, double v) {
    return reg.add("widget", inst, [v](std::vector<MetricSample>& out) {
      out.push_back({"spins", MetricKind::kCounter, v});
    });
  };
  Registration a = mk("a", 3), b = mk("b", 4);
  EXPECT_EQ(reg.snapshot().total("widget", "spins"), 7);
  EXPECT_EQ(reg.snapshot().total("widget", "absent"), 0);
}

TEST_F(TelemetryTest, SnapshotJsonEscapesAndRenders) {
  auto& reg = MetricRegistry::global();
  Registration r = reg.add("widget", "quo\"te", [](std::vector<MetricSample>& out) {
    out.push_back({"spins", MetricKind::kCounter, 42});
  });
  const std::string json = reg.snapshot().to_json();
  EXPECT_NE(json.find("\"quo\\\"te\""), std::string::npos);
  EXPECT_NE(json.find("\"spins\":42"), std::string::npos);
}

// A snapshot owns its labels: one taken on a thread reads the same after
// the thread's registry (thread_local) and its providers are gone.
TEST_F(TelemetryTest, SnapshotOutlivesTheThreadThatTookIt) {
  RegistrySnapshot snap;
  std::thread([&snap] {
    auto& reg = MetricRegistry::global();  // this thread's own registry
    const std::string inst = "a-label-longer-than-fifteen-chars";
    Registration a = reg.add("widget", inst, [](std::vector<MetricSample>& out) {
      out.push_back({"spins", MetricKind::kCounter, 3});
      out.push_back({"load", MetricKind::kGauge, 0.5});
    });
    Registration b = reg.add("widget", "another-long-instance-label", [](std::vector<MetricSample>& out) {
      out.push_back({"spins", MetricKind::kCounter, 4});
    });
    snap = reg.snapshot();
  }).join();
  EXPECT_EQ(snap.value("widget", "a-label-longer-than-fifteen-chars", "load"), 0.5);
  EXPECT_EQ(snap.value("widget", "another-long-instance-label", "spins"), 4);
  EXPECT_EQ(snap.total("widget", "spins"), 7);
  EXPECT_EQ(snap.to_json(), R"json([
    {"component":"widget","instance":"a-label-longer-than-fifteen-chars","metrics":{"spins":3,"load":0.5}},
    {"component":"widget","instance":"another-long-instance-label","metrics":{"spins":4}}
  ])json");
}

// Providers that append the same names and kinds share one schema, even
// when the names come from different strings with the same text.
TEST_F(TelemetryTest, SnapshotProvidersWithOneMetricListShareOneSchema) {
  static const char kSpins[] = "spins";  // not the literal's storage
  auto& reg = MetricRegistry::global();
  auto mk = [&](const char* inst, const char* name, MetricKind kind) {
    return reg.add("share", inst, [name, kind](std::vector<MetricSample>& out) {
      out.push_back({name, kind, 1});
      out.push_back({"load", MetricKind::kGauge, 2});
    });
  };
  Registration a = mk("a", "spins", MetricKind::kCounter);
  Registration b = mk("b", "spins", MetricKind::kCounter);
  Registration c = mk("c", kSpins, MetricKind::kCounter);
  Registration d = mk("d", "spins", MetricKind::kGauge);
  const RegistrySnapshot snap = reg.snapshot();
  std::map<std::string_view, const MetricName*> schema;
  for (std::size_t i = 0; i < snap.size(); ++i) {
    const ProviderView p = snap.provider(i);
    if (p.component == "share") schema[p.instance] = p.metrics.data();
  }
  ASSERT_EQ(schema.size(), 4u);
  EXPECT_EQ(schema["a"], schema["b"]);
  EXPECT_EQ(schema["a"], schema["c"]);
  EXPECT_NE(schema["a"], schema["d"]);  // same names, another kind
  EXPECT_EQ(snap.total("share", "spins"), 4);
}

TEST_F(TelemetryTest, SnapshotReadsAProviderWhoseMetricListChanges) {
  auto& reg = MetricRegistry::global();
  bool grown = false;
  Registration before = reg.add("shape", "before", [](std::vector<MetricSample>& out) {
    out.push_back({"x", MetricKind::kCounter, 1});
  });
  Registration r = reg.add("shape", "changing", [&grown](std::vector<MetricSample>& out) {
    if (grown) out.push_back({"extra", MetricKind::kGauge, 2.5});
    out.push_back({"x", MetricKind::kCounter, grown ? 20.0 : 10.0});
  });
  Registration after = reg.add("shape", "after", [](std::vector<MetricSample>& out) {
    out.push_back({"x", MetricKind::kCounter, 100});
  });
  const RegistrySnapshot small = reg.snapshot();
  grown = true;
  const RegistrySnapshot big = reg.snapshot();
  EXPECT_EQ(small.value("shape", "changing", "x"), 10);
  EXPECT_FALSE(small.value("shape", "changing", "extra").has_value());
  EXPECT_EQ(small.total("shape", "x"), 111);
  EXPECT_EQ(big.value("shape", "changing", "x"), 20);
  EXPECT_EQ(big.value("shape", "changing", "extra"), 2.5);
  EXPECT_EQ(big.value("shape", "after", "x"), 100);
  EXPECT_EQ(big.total("shape", "x"), 121);
  EXPECT_NE(big.to_json().find(
                R"("instance":"changing","metrics":{"extra":2.5,"x":20}})"),
            std::string::npos);
}

TEST_F(TelemetryTest, SnapshotRunsEachCallbackOnce) {
  auto& reg = MetricRegistry::global();
  int calls = 0;
  Registration r = reg.add("counting", "c0", [&calls](std::vector<MetricSample>& out) {
    ++calls;
    out.push_back({"calls", MetricKind::kCounter, static_cast<double>(calls)});
  });
  const RegistrySnapshot first = reg.snapshot();
  EXPECT_EQ(calls, 1);
  const RegistrySnapshot second = reg.snapshot();
  EXPECT_EQ(calls, 2);
  // Reading a snapshot never polls a provider.
  EXPECT_EQ(first.value("counting", "c0", "calls"), 1);
  EXPECT_EQ(second.total("counting", "calls"), 2);
  (void)second.to_json();
  EXPECT_EQ(calls, 2);
}

// A sim::ParallelSweep worker registers a whole fabric per job and tears it
// down again; labels of dead providers must not pile up in its registry.
TEST_F(TelemetryTest, RegistryLabelStorageStaysBoundedAcrossRounds) {
  MetricRegistry reg;  // fresh, as a worker's is at its first job
  std::size_t bound = 0;
  for (int round = 0; round < 20; ++round) {
    SCOPED_TRACE(round);
    std::vector<Registration> regs;
    for (int i = 0; i < 10'000; ++i) {
      char name[32];
      std::snprintf(name, sizeof(name), "round%02d-link%05d", round, i);  // new labels each round
      regs.push_back(reg.add("link", name, [](std::vector<MetricSample>&) {}));
    }
    const std::size_t populated = reg.label_bytes();
    if (round == 1) bound = populated;  // round 0 has not yet grown its free list
    if (round > 1) {
      EXPECT_LE(populated, bound);
    }
    regs.clear();
    EXPECT_EQ(reg.provider_count(), 0u);
    EXPECT_LE(reg.label_bytes(), populated);
  }
}

// Byte-for-byte pin of the registry JSON a RunReport embeds: every provider
// of a small MTP rig, in registration order, counters as integers and gauges
// at full precision. Snapshot storage may change; this text may not.
TEST_F(TelemetryTest, SnapshotJsonGoldenForMtpRig) {
  net::Network net;
  net::Host* alice = net.add_host("alice");
  net::Host* bob = net.add_host("bob");
  net::Switch* sw = net.add_switch("tor");
  net.connect(*alice, *sw, sim::Bandwidth::gbps(10), 1_us, {.capacity_pkts = 16});
  net.connect(*sw, *bob, sim::Bandwidth::gbps(10), 1_us, {.capacity_pkts = 16});
  net.build_routes();
  core::MtpEndpoint tx(*alice, {});
  core::MtpEndpoint rx(*bob, {});
  rx.listen(80, [](const core::ReceivedMessage&) {});
  for (int i = 0; i < 3; ++i) tx.send_message(bob->id(), 20'000, {.dst_port = 80});
  net.simulator().run(sim::SimTime::microseconds(20));

  const std::string golden = R"json([
    {"component":"host","instance":"alice","metrics":{"unhandled_packets":0,"misdelivered_packets":0}},
    {"component":"host","instance":"bob","metrics":{"unhandled_packets":0,"misdelivered_packets":0}},
    {"component":"switch","instance":"tor","metrics":{"no_route_drops":0}},
    {"component":"link","instance":"alice->tor","metrics":{"pkts_delivered":23,"bytes_delivered":24472,"pkts_dropped_down":0,"pkts_dropped_fault":0,"pkts_corrupted":0,"flaps":0,"backlog_bytes":17024,"up":1,"fluid_reserved_bps":0}},
    {"component":"queue","instance":"alice->tor","metrics":{"enqueued":39,"dequeued":24,"dropped":5,"ecn_marked":0,"bytes_dropped":5320,"tail_dropped":5,"policer_dropped":0,"len_pkts":15,"len_bytes":15960}},
    {"component":"link","instance":"tor->alice","metrics":{"pkts_delivered":18,"bytes_delivered":1368,"pkts_dropped_down":0,"pkts_dropped_fault":0,"pkts_corrupted":0,"flaps":0,"backlog_bytes":0,"up":1,"fluid_reserved_bps":0}},
    {"component":"queue","instance":"tor->alice","metrics":{"enqueued":18,"dequeued":18,"dropped":0,"ecn_marked":0,"bytes_dropped":0,"tail_dropped":0,"policer_dropped":0,"len_pkts":0,"len_bytes":0}},
    {"component":"link","instance":"tor->bob","metrics":{"pkts_delivered":21,"bytes_delivered":22344,"pkts_dropped_down":0,"pkts_dropped_fault":0,"pkts_corrupted":0,"flaps":0,"backlog_bytes":1064,"up":1,"fluid_reserved_bps":0}},
    {"component":"queue","instance":"tor->bob","metrics":{"enqueued":22,"dequeued":22,"dropped":0,"ecn_marked":0,"bytes_dropped":0,"tail_dropped":0,"policer_dropped":0,"len_pkts":0,"len_bytes":0}},
    {"component":"link","instance":"bob->tor","metrics":{"pkts_delivered":20,"bytes_delivered":1520,"pkts_dropped_down":0,"pkts_dropped_fault":0,"pkts_corrupted":0,"flaps":0,"backlog_bytes":0,"up":1,"fluid_reserved_bps":0}},
    {"component":"queue","instance":"bob->tor","metrics":{"enqueued":20,"dequeued":20,"dropped":0,"ecn_marked":0,"bytes_dropped":0,"tail_dropped":0,"policer_dropped":0,"len_pkts":0,"len_bytes":0}},
    {"component":"mtp","instance":"alice","metrics":{"pkts_sent":44,"pkts_retransmitted":0,"acks_sent":0,"msgs_delivered":0,"outstanding_messages":3,"known_pathlets":1,"srtt_us":9.859,"checksum_drops":0,"rto_backoff":1,"excluded_pathlets":0}},
    {"component":"mtp","instance":"bob","metrics":{"pkts_sent":0,"pkts_retransmitted":0,"acks_sent":20,"msgs_delivered":1,"outstanding_messages":0,"known_pathlets":0,"srtt_us":0,"checksum_drops":0,"rto_backoff":1,"excluded_pathlets":0}}
  ])json";
  EXPECT_EQ(MetricRegistry::global().snapshot().to_json(), golden);
}

// One rig that builds every provider kind in src/ and reads each one once:
// a provider that stops reporting, or gains or loses a metric, changes its
// pinned name list. The per-priority `sheds_priN` counters of the shed
// guards are omitted while zero, so an idle rig lists none.
TEST_F(TelemetryTest, EveryProviderKindReportsItsMetricNames) {
  net::Network net;
  net::Host* h0 = net.add_host("h0");
  net::Host* h1 = net.add_host("h1");
  net::Host* h2 = net.add_host("h2");
  net::Switch* sw = net.add_switch("sw");
  net::Link* up0 = net.connect(*h0, *sw, sim::Bandwidth::gbps(10), 1_us, {}).forward;
  net.connect(*h1, *sw, sim::Bandwidth::gbps(10), 1_us, {});
  net.connect(*h2, *sw, sim::Bandwidth::gbps(10), 1_us, {});
  net.build_routes();

  core::MtpConfig mc;
  mc.overload.enabled = true;  // registers the `overload` provider
  core::MtpEndpoint mtp_ep(*h0, mc);
  transport::TcpStack tcp(*h1, {});
  transport::HomaEndpoint homa(*h2);
  innetwork::FairSharePolicer policer(net.simulator(), {.egress = up0});
  innetwork::KvsCache cache(*sw, {.backend = h1->id()});
  innetwork::AggregationOffload agg(*sw, {.server = h1->id(), .fan_in = 2});
  innetwork::L7LoadBalancer lb({.virtual_service = h2->id(), .replicas = {h1->id()}});
  core::RpcClient rpc(mtp_ep, {.reply_port = 9000, .retry_budget_ratio = 0.1});
  stream::StreamMux mux(mtp_ep, 7);
  fault::FaultInjector faults(net.simulator(), 1);

  std::map<std::string, std::vector<std::string>> names;
  const RegistrySnapshot snap = MetricRegistry::global().snapshot();
  for (std::size_t i = 0; i < snap.size(); ++i) {
    const ProviderView p = snap.provider(i);
    std::vector<std::string> list;
    for (const MetricName& m : p.metrics) list.emplace_back(m.name);
    auto [it, fresh] = names.try_emplace(std::string(p.component), list);
    if (!fresh) {
      EXPECT_EQ(it->second, list) << p.component << " " << p.instance;
    }
  }

  const std::map<std::string, std::vector<std::string>> expected = {
      {"aggregation",
       {"rounds_completed", "rounds_flushed_partial", "rounds_open", "crashes", "sheds",
        "expired_sheds"}},
      {"fault",
       {"flaps_scheduled", "flaps_executed", "crashes", "restarts", "pkts_dropped",
        "pkts_corrupted"}},
      {"homa",
       {"pkts_sent", "pkts_retransmitted", "grants_issued", "acks_sent", "msgs_delivered",
        "outstanding_messages", "active_incoming", "srtt_us", "checksum_drops"}},
      {"host", {"unhandled_packets", "misdelivered_packets"}},
      {"kvs_cache",
       {"hits", "misses", "entries", "crashes", "sheds", "expired_sheds"}},
      {"l7_lb", {"requests_assigned", "crashes"}},
      {"link",
       {"pkts_delivered", "bytes_delivered", "pkts_dropped_down", "pkts_dropped_fault",
        "pkts_corrupted", "flaps", "backlog_bytes", "up", "fluid_reserved_bps"}},
      {"mtp",
       {"pkts_sent", "pkts_retransmitted", "acks_sent", "msgs_delivered",
        "outstanding_messages", "known_pathlets", "srtt_us", "checksum_drops",
        "rto_backoff", "excluded_pathlets"}},
      {"overload",
       {"grants_issued", "busy_rejects_sent", "msgs_rejected", "deadline_expiries",
        "service_rate_gbps", "active_senders"}},
      {"policer", {"marked", "dropped", "fair_rate_bps"}},
      {"queue",
       {"enqueued", "dequeued", "dropped", "ecn_marked", "bytes_dropped", "tail_dropped",
        "policer_dropped", "len_pkts", "len_bytes"}},
      {"rpc_client",
       {"completed", "timed_out", "retries", "hedges", "rejected", "retry_budget_tokens",
        "retry_budget_exhausted"}},
      {"stream",
       {"segments_sent", "parity_sent", "stream_retx", "segments_delivered",
        "fec_repairs", "arq_recovered", "dup_segments", "gap_events", "feedback_sent",
        "streams_completed", "streams_failed", "rx_buffered"}},
      {"switch", {"no_route_drops"}},
      {"tcp",
       {"pkts_sent", "retransmits", "timeouts", "checksum_drops", "open_connections"}},
  };
  EXPECT_EQ(names, expected);
}

// ------------------------------------------------------------------- sink

TEST_F(TelemetryTest, EnabledFlagGatesInstrumentation) {
  // The flag is the contract every hook checks before building an event;
  // with it off, an instrumented simulation records nothing.
  EXPECT_FALSE(TraceSink::enabled());

  net::Network net;
  net::Host* a = net.add_host("a");
  net::Host* b = net.add_host("b");
  net.connect(*a, *b, sim::Bandwidth::gbps(10), 1_us, {.capacity_pkts = 16});
  core::MtpEndpoint tx(*a, {});
  core::MtpEndpoint rx(*b, {});
  rx.listen(80, [](const core::ReceivedMessage&) {});
  tx.send_message(b->id(), 5'000, {.dst_port = 80});
  net.simulator().run();

  EXPECT_GT(tx.pkts_sent(), 0u);
  EXPECT_EQ(trace().size(), 0u);
  EXPECT_EQ(trace().recorded(), 0u);
}

TEST_F(TelemetryTest, RingBoundsMemoryAndOverwritesOldest) {
  TraceSink::set_enabled(true);
  trace().set_capacity(8);
  for (std::uint64_t i = 0; i < 20; ++i) trace().record(make_event(i));
  EXPECT_EQ(trace().size(), 8u);
  EXPECT_EQ(trace().capacity(), 8u);
  EXPECT_EQ(trace().recorded(), 20u);

  const auto events = trace().events();
  ASSERT_EQ(events.size(), 8u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].msg_id, 12 + i) << "oldest-first order after wrap";
  }
}

TEST_F(TelemetryTest, CountByType) {
  TraceSink::set_enabled(true);
  trace().record(make_event(1, TraceEventType::kTx));
  trace().record(make_event(2, TraceEventType::kTx));
  trace().record(make_event(3, TraceEventType::kDrop));
  EXPECT_EQ(trace().count(TraceEventType::kTx), 2u);
  EXPECT_EQ(trace().count(TraceEventType::kDrop), 1u);
  EXPECT_EQ(trace().count(TraceEventType::kRto), 0u);
}

TEST_F(TelemetryTest, EventTypeNamesRoundTrip) {
  std::set<std::string> names;
  for (int i = 0; i <= static_cast<int>(TraceEventType::kHedge); ++i) {
    const std::string name = to_string(static_cast<TraceEventType>(i));
    EXPECT_NE(name, "?") << "type " << i << " has no name";
    EXPECT_TRUE(names.insert(name).second) << "duplicate name " << name;
  }
}

// ----------------------------------------------------- end-to-end transfer

TEST_F(TelemetryTest, TwoHostTransferProducesOrderedEvents) {
  TraceSink::set_enabled(true);

  net::Network net;
  net::Host* alice = net.add_host("alice");
  net::Host* bob = net.add_host("bob");
  net::Switch* sw = net.add_switch("tor");
  net.connect(*alice, *sw, sim::Bandwidth::gbps(100), 1_us, {.capacity_pkts = 128});
  net.connect(*sw, *bob, sim::Bandwidth::gbps(100), 1_us, {.capacity_pkts = 128});
  net.build_routes();

  core::MtpEndpoint tx(*alice, {});
  core::MtpEndpoint rx(*bob, {});
  rx.listen(80, [](const core::ReceivedMessage&) {});
  const proto::MsgId msg = tx.send_message(bob->id(), 50'000, {.dst_port = 80});
  net.simulator().run();

  const std::uint32_t total_pkts = 50;  // 50'000 bytes / 1000 MSS
  ASSERT_EQ(tx.pkts_sent(), total_pkts);
  ASSERT_EQ(tx.pkts_retransmitted(), 0u);

  // Per-(link, packet) lifecycle: every data packet on the first hop was
  // enqueued, dequeued, serialized and delivered, in that time order.
  std::map<std::uint32_t, std::map<TraceEventType, sim::SimTime>> uplink;
  for (const auto& ev : trace().events()) {
    if (ev.component == "alice->tor" && ev.msg_id == msg) {
      uplink[ev.pkt_num][ev.type] = ev.t;
    }
  }
  ASSERT_EQ(uplink.size(), total_pkts);
  for (const auto& [pkt, stages] : uplink) {
    ASSERT_TRUE(stages.contains(TraceEventType::kEnqueue)) << "pkt " << pkt;
    ASSERT_TRUE(stages.contains(TraceEventType::kDequeue)) << "pkt " << pkt;
    ASSERT_TRUE(stages.contains(TraceEventType::kTx)) << "pkt " << pkt;
    ASSERT_TRUE(stages.contains(TraceEventType::kRx)) << "pkt " << pkt;
    EXPECT_LE(stages.at(TraceEventType::kEnqueue), stages.at(TraceEventType::kDequeue));
    EXPECT_LE(stages.at(TraceEventType::kDequeue), stages.at(TraceEventType::kTx));
    EXPECT_LE(stages.at(TraceEventType::kTx), stages.at(TraceEventType::kRx));
  }

  // ACK events come from the receiving endpoint and match its counter.
  EXPECT_EQ(trace().count(TraceEventType::kAck), rx.acks_sent());
  EXPECT_GT(rx.acks_sent(), 0u);
  // Clean run: no drops, losses or NACKs.
  EXPECT_EQ(trace().count(TraceEventType::kDrop), 0u);
  EXPECT_EQ(trace().count(TraceEventType::kRto), 0u);
  EXPECT_EQ(trace().count(TraceEventType::kNack), 0u);

  // The registry agrees with the component accessors while the rig is alive.
  const RegistrySnapshot snap = MetricRegistry::global().snapshot();
  EXPECT_EQ(*snap.value("mtp", "alice", "pkts_sent"), static_cast<double>(tx.pkts_sent()));
  EXPECT_EQ(*snap.value("mtp", "bob", "acks_sent"), static_cast<double>(rx.acks_sent()));
  EXPECT_EQ(*snap.value("mtp", "bob", "msgs_delivered"), 1.0);
  EXPECT_GE(*snap.value("link", "alice->tor", "pkts_delivered"),
            static_cast<double>(total_pkts));
  EXPECT_EQ(*snap.value("queue", "alice->tor", "dropped"), 0.0);
  EXPECT_EQ(*snap.value("host", "bob", "unhandled_packets"), 0.0);
  EXPECT_EQ(*snap.value("switch", "tor", "no_route_drops"), 0.0);
}

// -------------------------------------------------------------- drop sites

/// alice - tor - bob at 1 Gb/s, routes built.
struct DropRig {
  net::Network net;
  net::Host* alice = net.add_host("alice");
  net::Host* bob = net.add_host("bob");
  net::Switch* sw = net.add_switch("tor");
  net::Link* uplink = nullptr;

  DropRig() {
    uplink = net.connect(*alice, *sw, sim::Bandwidth::gbps(1), 1_us, {.capacity_pkts = 64})
                 .forward;
    net.connect(*sw, *bob, sim::Bandwidth::gbps(1), 1_us, {.capacity_pkts = 64});
    net.build_routes();
  }

  net::Packet packet(net::NodeId dst) const {
    net::Packet p;
    p.src = alice->id();
    p.dst = dst;
    p.payload_bytes = 1000;
    return p;
  }
};

TEST_F(TelemetryTest, NoRouteDropIsTraced) {
  TraceSink::set_enabled(true);
  DropRig rig;
  const net::NodeId nowhere = 999;
  ASSERT_TRUE(rig.sw->route_candidates(nowhere).empty());
  for (int i = 0; i < 3; ++i) rig.sw->send(rig.packet(nowhere));
  rig.sw->send(rig.packet(rig.bob->id()));  // routed: no drop

  ASSERT_EQ(rig.sw->no_route_drops(), 3u);
  EXPECT_EQ(trace().count(TraceEventType::kDrop), 3u);
  for (const auto& ev : trace().events()) {
    if (ev.type != TraceEventType::kDrop) continue;
    EXPECT_EQ(ev.component, "tor");
    EXPECT_EQ(ev.dst, nowhere);
  }
}

TEST_F(TelemetryTest, LinkDownDiscardIsTraced) {
  TraceSink::set_enabled(true);
  DropRig rig;
  // One packet starts serializing; the other nine wait in the queue.
  for (int i = 0; i < 10; ++i) rig.uplink->send(rig.packet(rig.bob->id()));
  const std::size_t queued = rig.uplink->queue().len_pkts();
  ASSERT_EQ(queued, 9u);
  ASSERT_EQ(trace().count(TraceEventType::kDrop), 0u);

  rig.uplink->set_up(false);
  ASSERT_EQ(rig.uplink->stats().pkts_dropped_down, queued);
  EXPECT_EQ(trace().count(TraceEventType::kDrop), queued);
  for (const auto& ev : trace().events()) {
    if (ev.type != TraceEventType::kDrop) continue;
    EXPECT_EQ(ev.component, "alice->tor");
    EXPECT_EQ(ev.dst, rig.bob->id());
  }
}

TEST_F(TelemetryTest, HostDiscardIsTraced) {
  TraceSink::set_enabled(true);
  DropRig rig;  // bob has no TCP stack, no MTP endpoint and no UDP port bound
  net::Packet tcp = rig.packet(rig.bob->id());
  tcp.header = proto::TcpHeader{};
  net::Packet mtp = rig.packet(rig.bob->id());
  mtp.header = proto::MtpHeader{};
  net::Packet udp = rig.packet(rig.bob->id());
  udp.header = proto::UdpHeader{};
  net::Packet unknown = rig.packet(rig.bob->id());
  net::Packet misdelivered = rig.packet(rig.alice->id());
  rig.bob->receive(std::move(tcp), 0);
  rig.bob->receive(std::move(mtp), 0);
  rig.bob->receive(std::move(udp), 0);
  rig.bob->receive(std::move(unknown), 0);
  rig.bob->receive(std::move(misdelivered), 0);

  EXPECT_EQ(rig.bob->unhandled_packets(), 4u);
  EXPECT_EQ(rig.bob->misdelivered_packets(), 1u);
  EXPECT_EQ(trace().count(TraceEventType::kDrop), 5u);
  for (const auto& ev : trace().events()) {
    if (ev.type != TraceEventType::kDrop) continue;
    EXPECT_EQ(ev.component, "bob");
    EXPECT_EQ(ev.src, rig.alice->id());
  }
}

// Every receiver that verifies payload checksums traces its drop the same
// way: one kChecksumDrop per corrupted packet, named after the node.
TEST_F(TelemetryTest, ChecksumDropIsTracedAtEveryReceiver) {
  TraceSink::set_enabled(true);
  DropRig rig;
  auto corrupted = [&](net::Host* from, net::Host* to, auto header) {
    net::Packet p = rig.packet(to->id());
    p.src = from->id();
    p.header = header;
    p.stamp_fingerprint();
    p.corrupt();
    return p;
  };
  proto::MtpHeader data;
  data.msg_id = 1;
  data.msg_len_bytes = 1000;
  data.msg_len_pkts = 1;
  data.pkt_len = 1000;
  auto expect_one = [](const char* node) {
    SCOPED_TRACE(node);
    EXPECT_EQ(trace().count(TraceEventType::kChecksumDrop), 1u);
    for (const auto& ev : trace().events()) {
      if (ev.type != TraceEventType::kChecksumDrop) continue;
      EXPECT_EQ(ev.component, node);
    }
    trace().clear();
  };
  {
    core::MtpEndpoint mtp_ep(*rig.bob, {});
    rig.bob->receive(corrupted(rig.alice, rig.bob, data), 0);
    EXPECT_EQ(mtp_ep.checksum_drops(), 1u);
    expect_one("bob");
  }
  {
    transport::HomaEndpoint homa(*rig.bob);
    rig.bob->receive(corrupted(rig.alice, rig.bob, data), 0);
    EXPECT_EQ(homa.checksum_drops(), 1u);
    expect_one("bob");
  }
  {
    transport::TcpStack tcp(*rig.alice, {});
    rig.alice->receive(corrupted(rig.bob, rig.alice, proto::TcpHeader{}), 0);
    EXPECT_EQ(tcp.total_checksum_drops(), 1u);
    expect_one("alice");
  }
  {
    innetwork::DeviceReceiver device(*rig.sw, {});
    EXPECT_FALSE(device.on_data(corrupted(rig.alice, rig.bob, data)).has_value());
    EXPECT_EQ(device.checksum_drops(), 1u);
    expect_one("tor");
  }
}

TEST_F(TelemetryTest, BusyRejectRecordsOneEventForTheRejectedPacket) {
  // The kBusy event describes the data packet the node turned away, all of
  // it: the sender, the rejecting destination, the message and packet, its
  // size, class and flow, and the reject's flags.
  TraceSink::set_enabled(true);
  DropRig rig;
  net::Packet data = rig.packet(rig.bob->id());
  proto::MtpHeader h;
  h.msg_id = 7;
  h.pkt_num = 3;
  h.msg_len_pkts = 5;
  h.dst_port = 80;
  h.src_port = 9;
  data.header = h;
  data.tc = 2;
  data.flow_hash = 0xabc;
  const net::Packet reply =
      transport::make_busy_reject(data, *rig.bob, proto::kOverloadBusy);
  EXPECT_EQ(reply.dst, rig.alice->id());
  ASSERT_EQ(trace().size(), 1u);
  const TraceEvent ev = trace().events().front();
  EXPECT_EQ(ev.type, TraceEventType::kBusy);
  EXPECT_EQ(ev.component, "bob");
  EXPECT_EQ(ev.src, rig.alice->id());
  EXPECT_EQ(ev.dst, rig.bob->id());
  EXPECT_EQ(ev.msg_id, 7u);
  EXPECT_EQ(ev.pkt_num, 3u);
  EXPECT_EQ(ev.bytes, data.size_bytes());
  EXPECT_EQ(ev.tc, 2);
  EXPECT_EQ(ev.flow, 0xabcu);
  EXPECT_EQ(ev.value, proto::kOverloadBusy);
}

// ----------------------------------------------------------------- report

TEST_F(TelemetryTest, RunReportRendersSectionsScalarsAndRegistry) {
  auto& reg = MetricRegistry::global();
  Registration r = reg.add("widget", "w0", [](std::vector<MetricSample>& out) {
    out.push_back({"spins", MetricKind::kCounter, 11});
  });

  stats::FctRecorder fct;
  fct.record(10_us, 1'000);    // short
  fct.record(20_us, 1'000);    // short
  fct.record(500_us, 900'000); // long

  RunReport report("unit_test");
  auto& sec = report.section("scheme_a");
  sec.add_scalar("goodput_gbps", 87.5);
  sec.add_text("note", "hello \"world\"");
  sec.add_fct("fct", fct, /*split_bytes=*/100'000);
  sec.set_registry(reg.snapshot());
  report.section("scheme_b").add_scalar("goodput_gbps", 42.0);

  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"experiment\": \"unit_test\""), std::string::npos);
  EXPECT_NE(json.find("\"schema\": \"mtp.telemetry.run_report/v1\""), std::string::npos);
  EXPECT_NE(json.find("\"scheme_a\""), std::string::npos);
  EXPECT_NE(json.find("\"scheme_b\""), std::string::npos);
  EXPECT_NE(json.find("\"goodput_gbps\":87.5"), std::string::npos);
  EXPECT_NE(json.find("hello \\\"world\\\""), std::string::npos);
  EXPECT_NE(json.find("\"spins\":11"), std::string::npos);
  // FCT summary with the short/long split present.
  EXPECT_NE(json.find("\"count\":3"), std::string::npos);
  EXPECT_NE(json.find("\"short\""), std::string::npos);
  EXPECT_NE(json.find("\"long\""), std::string::npos);

  // Section lookup is get-or-create: the same name returns the same section.
  report.section("scheme_a").add_scalar("extra", 1.0);
  EXPECT_NE(report.to_json().find("\"extra\":1"), std::string::npos);
}

TEST_F(TelemetryTest, RunReportWritesFile) {
  RunReport report("file_test");
  report.section("only").add_scalar("x", 3.0);
  const std::string path = ::testing::TempDir() + "telemetry_file_test.json";
  ASSERT_TRUE(report.write_file(path));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char buf[4096];
  const std::size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  buf[n] = '\0';
  EXPECT_NE(std::string(buf).find("\"file_test\""), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mtp::telemetry
