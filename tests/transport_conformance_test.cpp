// Transport conformance battery.
//
// Every transport ScenarioBuilder::transport() can name — MTP, TCP, DCTCP,
// the Homa-style receiver-driven transport and the MPTCP subflow model —
// must honor the same contract behind the transport::Transport API:
//
//   1. exactly-once completion: every submitted message fires its done
//      callback exactly once (aborts count, like TCP's per-message client);
//   2. FCT monotonicity: on an idle path, a bigger message never finishes
//      faster than a smaller one;
//   3. liveness under faults: a mid-run link flap delays but never loses
//      completions;
//   4. shard invariance: the (fct, bytes) completion multiset is identical
//      at 1, 2 and 4 space shards;
//   5. slot conservation: every Scenario::run boundary checks that each
//      shard's packet pool holds exactly what its queues and links hold,
//      and once a run quiesces no pool holds a packet;
//   6. recorded digests: the clean, link-flap and ECN-marking completion
//      digests and the transport_metrics() roll-ups match the values
//      recorded in kRecorded.
//
// The suite is parameterized by transport name; a transport added to
// transport::make_fleet joins the Zoo instantiation and kRecorded.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "helpers.hpp"
#include "scenario/scenario.hpp"
#include "workload/workload.hpp"

namespace mtp::scenario {
namespace {

class TransportConformance : public ::testing::TestWithParam<const char*> {};

/// After a run to quiescence: no packet slot is live on any shard.
void expect_pools_drained(Scenario& s) {
  EXPECT_EQ(s.network().unaccounted_packet_slots(), 0u);
  EXPECT_EQ(mtp::testing::live_packets(s.network()), 0u);
}

workload::ArrivalSchedule spaced_schedule(int per_sender, int senders,
                                          std::int64_t bytes, sim::SimTime gap) {
  workload::ArrivalSchedule sched;
  sim::SimTime t = 1_us;
  for (int m = 0; m < per_sender; ++m) {
    for (int s = 0; s < senders; ++s) {
      sched.add(t, static_cast<std::uint32_t>(s), bytes);
      t += gap;
    }
  }
  return sched;
}

TEST_P(TransportConformance, EveryMessageCompletesExactlyOnce) {
  auto s = ScenarioBuilder()
               .seed(11)
               .topology(topo::incast(4))
               .transport(GetParam())
               .workload(spaced_schedule(3, 4, 20'000, 5_us))
               .build();
  EXPECT_EQ(s->transport_name(), GetParam());
  s->run();
  expect_pools_drained(*s);
  EXPECT_EQ(s->fct().count(), 12u);
  EXPECT_EQ(s->replayed(), 12u);
  std::uint64_t completed = 0;
  for (std::size_t i = 0; i < s->num_senders(); ++i) {
    completed += s->sender(i).completed();
  }
  EXPECT_EQ(completed, 12u);
  const transport::TransportMetrics m = s->transport_metrics();
  EXPECT_EQ(m.msgs_completed, 12u);
  EXPECT_GT(m.pkts_sent, 0u);
}

TEST_P(TransportConformance, FctGrowsWithMessageSize) {
  auto s = ScenarioBuilder()
               .seed(5)
               .topology(topo::incast(1))
               .transport(GetParam())
               .build();
  // One message at a time, 1 ms apart — far longer than any FCT here, so
  // each size runs on an idle network.
  constexpr std::int64_t kSizes[] = {2'000, 16'000, 64'000, 256'000};
  std::vector<sim::SimTime> fct(4);
  auto& sim = s->simulator();
  for (int i = 0; i < 4; ++i) {
    sim.schedule_keyed_at(
        sim::SimTime::microseconds(1'000 * (i + 1)), 0x7e57c0deULL + i,
        [&s, &fct, &kSizes, i] {
          s->sender(0).send_message(
              kSizes[i], [&fct, i](sim::SimTime t, std::int64_t) { fct[i] = t; });
        });
  }
  s->run();
  expect_pools_drained(*s);
  for (int i = 0; i < 4; ++i) {
    ASSERT_GT(fct[i].ns(), 0) << "message " << i << " never completed";
  }
  for (int i = 1; i < 4; ++i) {
    EXPECT_GE(fct[i].ns(), fct[i - 1].ns())
        << kSizes[i] << "B finished faster than " << kSizes[i - 1] << "B";
  }
}

/// ECMP over dual paths; the first path dies at 60 us for 300 us, while the
/// workload is still arriving. Returns (fct_digest, completions).
std::tuple<std::uint64_t, std::size_t> flap_run(const char* transport) {
  auto s = ScenarioBuilder()
               .seed(9)
               .topology(topo::dual_path(2))
               .forwarding(Forwarding::kEcmp)
               .transport(transport)
               .workload(spaced_schedule(5, 2, 40'000, 10_us))
               .flap(0, 60_us, 300_us)
               .build();
  // 20 us slices through the flap: each run(until) checks slot conservation
  // while the flap discards queued packets.
  for (sim::SimTime t = 20_us; t < 1_ms; t += 20_us) s->run(t);
  s->run();
  expect_pools_drained(*s);
  return {s->fct_digest(), s->fct().count()};
}

TEST_P(TransportConformance, CompletesAcrossLinkFlap) {
  // Recovery may be slow (RTO backoff) but every message must still complete.
  EXPECT_EQ(std::get<1>(flap_run(GetParam())), 10u);
}

/// incast(4) with sender i placed on shard i mod shards; switch + receiver
/// on shard 0. Node creation ORDER is identical for every shard count (only
/// placement differs), which the sharded engine's determinism contract
/// requires.
TopologyFn sharded_incast(int senders) {
  return [=](net::Network& net) {
    const net::DropTailQueue::Config q{.capacity_pkts = 128, .ecn_threshold_pkts = 20};
    Topology t;
    net::Switch* sw = net.add_switch("sw");
    net::Host* rcv = net.add_host("recv");
    for (int i = 0; i < senders; ++i) {
      net.set_build_shard(static_cast<unsigned>(i) % net.shards());
      net::Host* h = net.add_host("h" + std::to_string(i));
      t.senders.push_back(h);
      net.connect(*h, *sw, sim::Bandwidth::gbps(100), 1_us, q);
    }
    net.set_build_shard(0);
    auto down = net.connect(*sw, *rcv, sim::Bandwidth::gbps(100), 1_us, q);
    net.build_routes();
    t.receiver = rcv;
    t.lb_switches = {sw};
    t.paths = {down.forward};
    t.fault_links = {down.forward};
    return t;
  };
}

std::unique_ptr<Scenario> digest_rig(const char* transport, unsigned shards) {
  auto s = ScenarioBuilder()
               .seed(21)
               .shards(shards)
               .topology(sharded_incast(4))
               .transport(transport)
               .workload(spaced_schedule(4, 4, 12'000, 3_us))
               .build();
  s->run();
  expect_pools_drained(*s);
  return s;
}

std::tuple<std::uint64_t, std::size_t> digest_run(const char* transport,
                                                  unsigned shards) {
  const auto s = digest_rig(transport, shards);
  return {s->fct_digest(), s->fct().count()};
}

/// incast(8) with 4 x 200 KB per sender, 1 us apart: the receiver downlink
/// crosses its ECN threshold, so DCTCP's window cuts show in the digest
/// (the digest_run and flap rigs never mark, and give TCP and DCTCP the
/// same value).
std::unique_ptr<Scenario> ecn_rig(const char* transport) {
  auto s = ScenarioBuilder()
               .seed(21)
               .topology(topo::incast(8))
               .transport(transport)
               .workload(spaced_schedule(4, 8, 200'000, 1_us))
               .build();
  s->run();
  expect_pools_drained(*s);
  EXPECT_EQ(s->fct().count(), 32u);
  return s;
}

std::uint64_t ecn_run(const char* transport) { return ecn_rig(transport)->fct_digest(); }

TEST_P(TransportConformance, FctDigestInvariantAcrossShardCounts) {
  const auto one = digest_run(GetParam(), 1);
  EXPECT_EQ(std::get<1>(one), 16u);
  for (unsigned shards : {2u, 4u}) {
    EXPECT_EQ(digest_run(GetParam(), shards), one) << shards << " shards";
  }
}

/// Recorded completion digests: the one-shard digest_run() and the link-flap
/// rig (which drives Homa's retransmit timer and grant-loss probe, and MTP's
/// loss recovery), the ECN-marking ecn_run() rig, and the
/// transport_metrics() roll-up of the one-shard digest_run() and ecn_run()
/// rigs. A refactor that keeps behaviour keeps every value; a change that
/// moves one changes behaviour and must say so.
struct RecordedDigests {
  const char* transport;
  std::uint64_t clean;
  std::uint64_t flap;
  std::uint64_t ecn;
  transport::TransportMetrics clean_metrics;
  transport::TransportMetrics ecn_metrics;
};
constexpr RecordedDigests kRecorded[] = {
    {"mtp", 0xf1e2db6086cef11eULL, 0x16cbf3c551aa1945ULL, 0x6f8cc2ac9874e82eULL,
     {16, 192, 0, 0, 0}, {32, 6783, 383, 0, 0}},
    {"tcp", 0x1f2e1bff84661784ULL, 0xd829ee2bc850094aULL, 0xf37e8ef52ea0ba01ULL,
     {16, 496, 0, 0, 0}, {32, 30994, 768, 37, 0}},
    {"dctcp", 0x1f2e1bff84661784ULL, 0xd829ee2bc850094aULL, 0x42511bd78d3c8551ULL,
     {16, 496, 0, 0, 0}, {32, 28930, 475, 27, 0}},
    {"homa", 0x9145e59eed44cdf0ULL, 0xc582cf4c0db86db6ULL, 0x32a735b41213e0ffULL,
     {16, 192, 0, 0, 0}, {32, 6771, 371, 0, 4671}},
    {"mptcp", 0x004a0b1d11739facULL, 0x29f171843687b35fULL, 0x1e48e5ba6e751713ULL,
     {16, 832, 0, 0, 0}, {32, 30445, 880, 297, 0}},
};

const RecordedDigests* recorded(const std::string& name) {
  const auto* rec = std::find_if(std::begin(kRecorded), std::end(kRecorded),
                                 [&](const RecordedDigests& r) { return name == r.transport; });
  return rec == std::end(kRecorded) ? nullptr : rec;
}

TEST_P(TransportConformance, FctDigestMatchesRecorded) {
  const auto* rec = recorded(GetParam());
  ASSERT_NE(rec, nullptr) << "no recorded digests for " << GetParam();
  EXPECT_EQ(std::get<0>(digest_run(GetParam(), 1)), rec->clean);
  EXPECT_EQ(std::get<0>(flap_run(GetParam())), rec->flap);
}

TEST_P(TransportConformance, EcnRigDigestMatchesRecorded) {
  const auto* rec = recorded(GetParam());
  ASSERT_NE(rec, nullptr) << "no recorded digests for " << GetParam();
  EXPECT_EQ(ecn_run(GetParam()), rec->ecn);
}

void expect_metrics_eq(const transport::TransportMetrics& got,
                       const transport::TransportMetrics& want) {
  EXPECT_EQ(got.msgs_completed, want.msgs_completed);
  EXPECT_EQ(got.pkts_sent, want.pkts_sent);
  EXPECT_EQ(got.retransmits, want.retransmits);
  EXPECT_EQ(got.timeouts, want.timeouts);
  EXPECT_EQ(got.grants_issued, want.grants_issued);
}

TEST_P(TransportConformance, MetricsMatchRecorded) {
  const auto* rec = recorded(GetParam());
  ASSERT_NE(rec, nullptr) << "no recorded metrics for " << GetParam();
  {
    SCOPED_TRACE("digest_run rig");
    expect_metrics_eq(digest_rig(GetParam(), 1)->transport_metrics(), rec->clean_metrics);
  }
  {
    SCOPED_TRACE("ecn rig");
    expect_metrics_eq(ecn_rig(GetParam())->transport_metrics(), rec->ecn_metrics);
  }
}

TEST(TransportZoo, EcnRigSeparatesDctcpFromTcp) {
  EXPECT_NE(recorded("tcp")->ecn, recorded("dctcp")->ecn);
  EXPECT_NE(ecn_run("tcp"), ecn_run("dctcp"));
}

// A closed-loop incast (16 senders, 1-64 KB messages, one receiver) on the
// TCP family re-arms an RTO on nearly every ACK. The timer wheel holds one
// simulator event however many buckets those arms touch, so the event heap
// holds the in-flight link deliveries and little else: sampled every 10 us,
// it stays within 2 entries per link plus 2.
TEST(TransportZoo, TcpIncastHeapStaysNearLinkCount) {
  for (const char* name : {"dctcp", "mptcp"}) {
    SCOPED_TRACE(name);
    constexpr int kSenders = 16;
    auto s = ScenarioBuilder().seed(3).topology(topo::incast(kSenders)).transport(name).build();
    const workload::SizeDist sizes = workload::SizeDist::bounded_pareto(1'000, 64'000, 1.2);
    sim::Rng rng(11);
    sim::Simulator& sim = s->simulator();
    const sim::SimTime span = 3_ms;
    int completed = 0;
    std::function<void(int)> send_next = [&](int i) {
      if (sim.now() >= span) return;
      s->sender(static_cast<std::size_t>(i)).send_message(
          sizes.sample(rng), [&, i](sim::SimTime, std::int64_t) {
            ++completed;
            send_next(i);
          });
    };
    for (int i = 0; i < kSenders; ++i) send_next(i);
    const std::size_t bound = 2 * s->network().link_count() + 2;
    std::size_t max_pending = 0;
    for (sim::SimTime t = 10_us; t <= span + 10_ms; t += 10_us) {
      s->run(t);
      max_pending = std::max(max_pending, sim.pending_events());
    }
    EXPECT_GT(completed, 1'000);
    EXPECT_LE(max_pending, bound) << "links: " << s->network().link_count();
  }
}

INSTANTIATE_TEST_SUITE_P(Zoo, TransportConformance,
                         ::testing::Values("mtp", "tcp", "dctcp", "homa",
                                           "mptcp"),
                         [](const auto& info) { return std::string(info.param); });

// --- transport names ---------------------------------------------------------

TEST(TransportRegistry, UnknownNameFailsListingRegistered) {
  ScenarioBuilder b;
  b.seed(1).topology(topo::incast(1)).transport("quic");
  try {
    b.build();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("quic"), std::string::npos);
    for (const char* n : {"mtp", "tcp", "dctcp", "homa", "mptcp"}) {
      EXPECT_NE(what.find(n), std::string::npos) << n << " missing from: " << what;
    }
  }
}

}  // namespace
}  // namespace mtp::scenario
