// sim::flow fluid model: analytic rate/completion checks, exact conservation,
// the flow-vs-packet oracle, shard invariance under link flaps, and the
// hybrid-fidelity gates (foreground FCT agreement + bulk event-cost ratio).
#include <gtest/gtest.h>

#include <vector>

#include "scenario/hybrid.hpp"
#include "scenario/scenario.hpp"
#include "sim/flow/fluid.hpp"

namespace mtp {
namespace {

using namespace mtp::sim::literals;
using sim::flow::FluidModel;

/// Bare model with cap fraction 1/1 so expectations are round numbers.
FluidModel::Config full_cap() {
  FluidModel::Config cfg;
  cfg.capacity_num = 1;
  cfg.capacity_den = 1;
  return cfg;
}

TEST(Fluid, SingleFlowExactCompletion) {
  sim::Simulator s;
  FluidModel fm(s, full_cap());
  const auto c = fm.add_conduit(10'000'000'000LL);  // 10 Gbps
  // 1.25 MB = 10^7 bits at 10 Gbps -> exactly 1 ms.
  fm.add_flow(5_us, {c}, 1'250'000);
  fm.start();
  s.run();
  EXPECT_TRUE(fm.flow_done(0));
  EXPECT_EQ(fm.flow_finish(0).ns(), (5_us).ns() + 1'000'000);
  EXPECT_EQ(fm.flow_delivered_bits(0), 10'000'000);
  EXPECT_EQ(fm.delivered_bits(c), 10'000'000);
  EXPECT_EQ(fm.violations(), 0u);
  EXPECT_EQ(fm.reserved_bps(c), 0);  // released on completion
}

TEST(Fluid, MaxMinThreeFlowsTwoConduits) {
  sim::Simulator s;
  FluidModel fm(s, full_cap());
  const auto a = fm.add_conduit(10'000'000'000LL);  // 10 Gbps
  const auto b = fm.add_conduit(20'000'000'000LL);  // 20 Gbps
  const std::int64_t big = 1'000'000'000;           // long-lived
  fm.add_flow(sim::SimTime::zero(), {a}, big);
  fm.add_flow(sim::SimTime::zero(), {a, b}, big);
  fm.add_flow(sim::SimTime::zero(), {b}, big);
  fm.start();
  s.run(1_us);
  // Progressive filling: A is the bottleneck (10/2 = 5 each for flows 0 and
  // 1), then flow 2 takes B's residual 20 - 5 = 15.
  EXPECT_EQ(fm.rate_bps(0), 5'000'000'000LL);
  EXPECT_EQ(fm.rate_bps(1), 5'000'000'000LL);
  EXPECT_EQ(fm.rate_bps(2), 15'000'000'000LL);
  EXPECT_EQ(fm.reserved_bps(a), 10'000'000'000LL);
  EXPECT_EQ(fm.reserved_bps(b), 20'000'000'000LL);
}

TEST(Fluid, RateCapFreezesBelowFairShare) {
  sim::Simulator s;
  FluidModel fm(s, full_cap());
  const auto c = fm.add_conduit(10'000'000'000LL);
  fm.add_flow(sim::SimTime::zero(), {c}, 1'000'000'000);
  fm.add_flow(sim::SimTime::zero(), {c}, 1'000'000'000, /*rate_cap_bps=*/2'000'000'000LL);
  fm.start();
  s.run(1_us);
  // The capped flow freezes at its cap; the other takes the rest.
  EXPECT_EQ(fm.rate_bps(0), 8'000'000'000LL);
  EXPECT_EQ(fm.rate_bps(1), 2'000'000'000LL);
}

TEST(Fluid, ArrivalReallocatesAndCompletionReleases) {
  sim::Simulator s;
  FluidModel fm(s, full_cap());
  const auto c = fm.add_conduit(10'000'000'000LL);
  // Flow 0: 10^7 bits. Alone it would finish at 1 ms; flow 1 (same size)
  // arrives at 0.4 ms and halves its rate.
  fm.add_flow(sim::SimTime::zero(), {c}, 1'250'000);
  fm.add_flow(400_us, {c}, 1'250'000);
  fm.start();
  s.run();
  // Flow 0: 4e6 bits by 0.4 ms, then 5 Gbps. Remaining 6e6 bits -> 1.2 ms
  // more -> 1.6 ms. Flow 1: at flow 0's finish it has 6e6 bits delivered,
  // 4e6 left at full 10 Gbps -> 2.0 ms.
  EXPECT_EQ(fm.flow_finish(0).ns(), 1'600'000);
  EXPECT_EQ(fm.flow_finish(1).ns(), 2'000'000);
  EXPECT_EQ(fm.violations(), 0u);
  EXPECT_EQ(fm.delivered_bits(c), 20'000'000);
}

TEST(Fluid, CapacityEventReshapesCompletion) {
  sim::Simulator s;
  FluidModel fm(s, full_cap());
  const auto c = fm.add_conduit(10'000'000'000LL);
  // 2e6 bits at 10 Gbps would finish at 200 us; halving the link at 100 us
  // leaves 1e6 bits at 5 Gbps -> 300 us total.
  fm.add_flow(sim::SimTime::zero(), {c}, 250'000);
  fm.set_capacity_at(100_us, c, 5'000'000'000LL);
  fm.start();
  s.run();
  EXPECT_EQ(fm.flow_finish(0).ns(), 300'000);
  EXPECT_EQ(fm.violations(), 0u);
}

TEST(Fluid, DownConduitStallsAndResumes) {
  sim::Simulator s;
  FluidModel fm(s, full_cap());
  const auto c = fm.add_conduit(10'000'000'000LL);
  // Without the flap: done at 200 us. Down over [50us, 150us): the stall
  // shifts completion by exactly the downtime -> 300 us.
  fm.add_flow(sim::SimTime::zero(), {c}, 250'000);
  fm.set_capacity_at(50_us, c, 0);
  fm.set_capacity_at(150_us, c, 10'000'000'000LL);
  fm.start();
  s.run();
  EXPECT_EQ(fm.flow_finish(0).ns(), 300'000);
  EXPECT_EQ(fm.rate_bps(0), 0);
  EXPECT_EQ(fm.violations(), 0u);
}

TEST(Fluid, ZeroByteFlowCompletesOnArrival) {
  sim::Simulator s;
  FluidModel fm(s, full_cap());
  const auto c = fm.add_conduit(1'000'000'000LL);
  bool done = false;
  sim::SimTime when;
  fm.add_flow(7_us, {c}, 0, 0, [&](std::uint32_t, sim::SimTime at) {
    done = true;
    when = at;
  });
  fm.start();
  s.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(when.ns(), (7_us).ns());
}

TEST(Fluid, ConservationAcrossStaggeredMesh) {
  // 24 flows over 6 conduits with staggered arrivals and a mid-run capacity
  // dip: when everything completes, per-conduit delivered bits must equal
  // the sum over flows routed through the conduit, bit-exact.
  sim::Simulator s;
  FluidModel fm(s, full_cap());
  std::vector<std::uint32_t> cs;
  for (int i = 0; i < 6; ++i) {
    cs.push_back(fm.add_conduit(10'000'000'000LL + i * 1'000'000'000LL));
  }
  struct Spec {
    std::vector<std::uint32_t> path;
    std::int64_t bytes;
  };
  std::vector<Spec> specs;
  std::uint64_t rng = 12345;
  auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  for (int f = 0; f < 24; ++f) {
    const std::uint32_t a = static_cast<std::uint32_t>(next() % 6);
    std::uint32_t b = static_cast<std::uint32_t>(next() % 6);
    if (b == a) b = (b + 1) % 6;
    Spec sp;
    sp.path = {cs[a], cs[b]};
    sp.bytes = 50'000 + static_cast<std::int64_t>(next() % 200'000);
    fm.add_flow(sim::SimTime::nanoseconds(static_cast<std::int64_t>(next() % 50'000)),
                sp.path, sp.bytes, (f % 3 == 0) ? 3'000'000'000LL : 0);
    specs.push_back(std::move(sp));
  }
  fm.set_capacity_at(30_us, cs[0], 2'000'000'000LL);
  fm.set_capacity_at(60_us, cs[0], 10'000'000'000LL);
  fm.start();
  s.run();

  EXPECT_EQ(fm.completed(), 24u);
  EXPECT_EQ(fm.violations(), 0u);
  std::vector<std::int64_t> expect(6, 0);
  for (std::size_t f = 0; f < specs.size(); ++f) {
    EXPECT_EQ(fm.flow_delivered_bits(static_cast<std::uint32_t>(f)),
              specs[f].bytes * 8);
    for (const std::uint32_t c : specs[f].path) expect[c] += specs[f].bytes * 8;
  }
  for (int c = 0; c < 6; ++c) {
    EXPECT_EQ(fm.delivered_bits(cs[c]), expect[c]) << "conduit " << c;
    EXPECT_EQ(fm.reserved_bps(cs[c]), 0) << "conduit " << c;
  }
}

TEST(Fluid, EventCostIsIndependentOfTransferSize) {
  // The whole point: a 100 MB transfer costs the same handful of model
  // events as a 1 KB one (packet-level would cost ~100k packet events).
  sim::Simulator s;
  FluidModel fm(s, full_cap());
  const auto c = fm.add_conduit(100'000'000'000LL);
  fm.add_flow(sim::SimTime::zero(), {c}, 100'000'000);
  fm.start();
  s.run();
  EXPECT_TRUE(fm.flow_done(0));
  EXPECT_LE(fm.events_scheduled(), 4u);
}

// --- scenario-level: residual serialization, oracle, shard invariance -----

TEST(FlowScenario, FluidReservationInflatesForegroundSerialization) {
  auto make = [](bool with_bulk) {
    workload::ArrivalSchedule sched;
    sim::SimTime t = 100_us;
    for (int m = 0; m < 20; ++m) {
      sched.add(t, 1, 100'000);
      t += 30_us;
    }
    scenario::ScenarioBuilder b;
    b.seed(5)
        .topology(scenario::topo::shared_bottleneck())
        .transport("mtp")
        .workload(std::move(sched));
    if (with_bulk) {
      b.bulk_mode(scenario::BulkMode::kFlowLevel)
          .bulk_transfer({.at = sim::SimTime::zero(),
                          .src = 0,
                          .dst = scenario::kBulkToReceiver,
                          .bytes = 100'000'000,  // outlives the workload
                          .rate_cap_bps = 0});
    }
    return b.build();
  };
  auto base = make(false);
  base->run();
  auto loaded = make(true);
  loaded->run();
  // An uncapped fluid flow claims 95% of the bottleneck; the foreground
  // drains at the 5% residual, so its FCTs must inflate massively.
  EXPECT_EQ(base->fct().count(), 20u);
  EXPECT_EQ(loaded->fct().count(), 20u);
  EXPECT_GT(loaded->fct().p50_us(), 5.0 * base->fct().p50_us());
  // And the reservation is visible at the link itself.
  auto* fm = loaded->flow_model();
  ASSERT_NE(fm, nullptr);
  EXPECT_TRUE(fm->flow_done(0) || fm->rate_bps(0) > 0);
}

TEST(FlowScenario, OracleFlowMatchesPacedPacketCompletionTimes) {
  // Same three rate-capped transfers, run packet-paced and fluid. Caps sum
  // below every link's rate, so contention never distorts either side, and
  // the completion times must agree to within the per-packet effects the
  // fluid model abstracts away (serialization, propagation, headers).
  const std::vector<workload::BulkTransfer> bulk = {
      {.at = 10_us, .src = 0, .dst = scenario::kBulkToReceiver, .bytes = 2'000'000,
       .rate_cap_bps = 10'000'000'000LL},
      {.at = 10_us, .src = 1, .dst = scenario::kBulkToReceiver, .bytes = 5'000'000,
       .rate_cap_bps = 20'000'000'000LL},
      {.at = 200_us, .src = 2, .dst = scenario::kBulkToReceiver, .bytes = 1'000'000,
       .rate_cap_bps = 5'000'000'000LL},
  };
  auto run = [&](scenario::BulkMode mode) {
    auto s = scenario::ScenarioBuilder()
                 .seed(5)
                 .topology(scenario::topo::incast(4))
                 .transport("mtp")
                 .bulk_mode(mode)
                 .bulk_transfers(bulk)
                 .build();
    s->run();
    return s->bulk_completions();
  };
  const auto pkt = run(scenario::BulkMode::kPacket);
  const auto flow = run(scenario::BulkMode::kFlowLevel);
  ASSERT_EQ(pkt.size(), bulk.size());
  ASSERT_EQ(flow.size(), bulk.size());
  for (std::size_t i = 0; i < bulk.size(); ++i) {
    EXPECT_EQ(pkt[i].first, flow[i].first);
    const double p = static_cast<double>(pkt[i].second.ns());
    const double f = static_cast<double>(flow[i].second.ns());
    const double dur_pkt = p - static_cast<double>(bulk[i].at.ns());
    EXPECT_LT(std::abs(p - f) / dur_pkt, 0.02)
        << "transfer " << i << ": packet " << p << " ns vs flow " << f << " ns";
  }
}

TEST(FlowScenario, FlowModeUsesFarFewerEventsThanPacket) {
  auto run = [&](scenario::BulkMode mode) {
    auto s = scenario::ScenarioBuilder()
                 .seed(5)
                 .topology(scenario::topo::incast(4))
                 .transport("mtp")
                 .bulk_mode(mode)
                 .bulk_transfer({.at = 10_us, .src = 0,
                                 .dst = scenario::kBulkToReceiver,
                                 .bytes = 10'000'000,
                                 .rate_cap_bps = 20'000'000'000LL})
                 .build();
    return s->run();
  };
  const std::uint64_t pkt_events = run(scenario::BulkMode::kPacket);
  const std::uint64_t flow_events = run(scenario::BulkMode::kFlowLevel);
  EXPECT_GE(pkt_events, 5 * flow_events)
      << "packet " << pkt_events << " vs flow " << flow_events;
}

TEST(FlowScenario, ShardInvariantAcrossFlapsAndSeeds) {
  // Chaos gate: a fat-tree bulk ring with a link flap mid-run, over several
  // seeds and shard counts. Completion times, re-solve counts and the
  // violation counter must be bit-identical for every partitioning.
  for (const std::uint64_t seed : {11ull, 23ull, 47ull}) {
    struct Snap {
      std::vector<std::pair<std::uint32_t, sim::SimTime>> done;
      std::uint64_t resolves = 0;
      std::uint64_t violations = 0;
    };
    auto run = [&](unsigned shards) {
      auto s = scenario::ScenarioBuilder()
                   .seed(seed)
                   .shards(shards)
                   .topology(scenario::topo::fat_tree({.k = 4}))
                   .transport("mtp")
                   .bulk_mode(scenario::BulkMode::kFlowLevel)
                   .bulk_transfers(workload::bulk_ring(
                       16, 12, 400'000 + static_cast<std::int64_t>(seed) * 1000, 5,
                       sim::SimTime::microseconds(2), 15'000'000'000LL))
                   .flap(0, 30_us, 40_us)
                   .build();
      s->run();
      Snap snap;
      snap.done = s->bulk_completions();
      snap.resolves = s->flow_model(0)->resolves();
      snap.violations = s->flow_model(0)->violations();
      return snap;
    };
    const Snap s1 = run(1);
    for (const unsigned n : {2u, 4u}) {
      const Snap sn = run(n);
      EXPECT_EQ(s1.done, sn.done) << "seed " << seed << " shards " << n;
      EXPECT_EQ(s1.resolves, sn.resolves) << "seed " << seed << " shards " << n;
      EXPECT_EQ(sn.violations, 0u) << "seed " << seed << " shards " << n;
    }
    ASSERT_EQ(s1.done.size(), 12u) << "seed " << seed;
    EXPECT_EQ(s1.violations, 0u);
  }
}

// --- hybrid fidelity gates (the PR's acceptance criteria) -----------------

TEST(HybridFidelity, Fig3ForegroundPercentilesAgreeWithin5Pct) {
  const auto r = scenario::hybrid::fig3_fidelity();
  EXPECT_EQ(r.bulk_count, 4u);
  EXPECT_GT(r.fg_count, 0u);
  EXPECT_LT(r.fct_delta_pct, 5.0)
      << "p50 pkt/flow " << r.p50_packet << "/" << r.p50_flow << " p99 "
      << r.p99_packet << "/" << r.p99_flow;
  EXPECT_GE(r.bulk_event_ratio, 5.0);
  // The background must actually bite: loaded percentiles above the no-bulk
  // control in both representations.
  EXPECT_GT(r.p99_packet, r.p99_none);
  EXPECT_GT(r.p99_flow, r.p99_none);
}

TEST(HybridFidelity, Fig7ForegroundPercentilesAgreeWithin5Pct) {
  const auto r = scenario::hybrid::fig7_fidelity();
  EXPECT_EQ(r.bulk_count, 1u);
  EXPECT_LT(r.fct_delta_pct, 5.0)
      << "p50 pkt/flow " << r.p50_packet << "/" << r.p50_flow << " p99 "
      << r.p99_packet << "/" << r.p99_flow;
  EXPECT_GE(r.bulk_event_ratio, 5.0);
  EXPECT_GT(r.p99_packet, r.p99_none);
  EXPECT_GT(r.p99_flow, r.p99_none);
}

TEST(HybridFidelity, TenantIsolationDigestShardInvariant) {
  // k=8 keeps the test fast; bench_scale runs the k=32 version.
  const auto r1 = scenario::hybrid::tenant_isolation(/*k=*/8, /*shards=*/1);
  const auto r2 = scenario::hybrid::tenant_isolation(/*k=*/8, /*shards=*/2);
  const auto r4 = scenario::hybrid::tenant_isolation(/*k=*/8, /*shards=*/4);
  EXPECT_EQ(r1.fg_completed, r1.fg_sent);
  EXPECT_EQ(r1.bulk_completed, r1.bulk_count);
  EXPECT_EQ(r1.digest, r2.digest);
  EXPECT_EQ(r1.digest, r4.digest);
  EXPECT_EQ(r1.fg_completed, r2.fg_completed);
  EXPECT_EQ(r1.fg_completed, r4.fg_completed);
}

}  // namespace
}  // namespace mtp
