#include "scenario/hybrid.hpp"

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <vector>

namespace mtp::scenario::hybrid {

namespace {

enum class Mode { kNone, kPacket, kFlow };

struct ModeRun {
  double p50_us = 0, p99_us = 0;
  std::uint64_t events = 0;
  std::size_t fg_count = 0;
  std::size_t bulk_completed = 0;
};

/// One experiment, one bulk representation. The builder closure declares
/// everything except the bulk mode; kNone skips the transfers entirely.
template <typename MakeBuilder>
ModeRun run_mode(MakeBuilder&& make, const std::vector<workload::BulkTransfer>& bulk,
                 Mode mode) {
  ScenarioBuilder b = make();
  if (mode != Mode::kNone) {
    b.bulk_transfers(bulk).bulk_mode(mode == Mode::kFlow ? BulkMode::kFlowLevel
                                                         : BulkMode::kPacket);
  }
  auto s = b.build();
  ModeRun r;
  r.events = s->run();
  r.fg_count = s->fct().count();
  r.p50_us = s->fct().p50_us();
  r.p99_us = s->fct().p99_us();
  r.bulk_completed = s->bulk_completed();
  return r;
}

template <typename MakeBuilder>
FidelityResult fidelity(MakeBuilder&& make,
                        const std::vector<workload::BulkTransfer>& bulk) {
  const ModeRun none = run_mode(make, bulk, Mode::kNone);
  const ModeRun pkt = run_mode(make, bulk, Mode::kPacket);
  const ModeRun flow = run_mode(make, bulk, Mode::kFlow);

  FidelityResult r;
  r.p50_none = none.p50_us;
  r.p99_none = none.p99_us;
  r.p50_packet = pkt.p50_us;
  r.p99_packet = pkt.p99_us;
  r.p50_flow = flow.p50_us;
  r.p99_flow = flow.p99_us;
  r.events_none = none.events;
  r.events_packet = pkt.events;
  r.events_flow = flow.events;
  r.fg_count = flow.fg_count;
  r.bulk_count = flow.bulk_completed;
  const double d50 = std::abs(flow.p50_us - pkt.p50_us) / pkt.p50_us * 100.0;
  const double d99 = std::abs(flow.p99_us - pkt.p99_us) / pkt.p99_us * 100.0;
  r.fct_delta_pct = d50 > d99 ? d50 : d99;
  const double bulk_pkt = static_cast<double>(pkt.events) - static_cast<double>(none.events);
  double bulk_flow = static_cast<double>(flow.events) - static_cast<double>(none.events);
  if (bulk_flow < 1.0) bulk_flow = 1.0;  // fluid bulk can cost ~no events at all
  r.bulk_event_ratio = bulk_pkt / bulk_flow;
  return r;
}

}  // namespace

FidelityResult fig3_fidelity(std::uint64_t seed) {
  // Foreground: Fig 3's incast rig in its CC-governed regime — two rounds
  // of 8 x 1 MB transfers, senders staggered 30 us apart, so for ~1 ms all
  // eight flows share the residual downlink under congestion control. Each
  // FCT is throughput-dominated over hundreds of RTTs — the fluid model's
  // validity regime. (A synchronized sub-RTT inrush is deliberately NOT the
  // foreground here: it overflows the 128-packet queue into timeout
  // territory, and a FIFO queue lets a transient burst cut ahead of future
  // paced bulk packets, which continuous rate reservation cannot express;
  // docs/scale.md quantifies the error of that regime.)
  workload::ArrivalSchedule sched;
  sim::SimTime t = 20_us;
  for (int m = 0; m < 2; ++m) {
    for (std::uint32_t s = 0; s < 8; ++s) {
      sched.add(t + sim::SimTime::microseconds(s * 30), s, 1'000'000);
    }
    t += 2'000_us;
  }
  // Background: four 8 MB streams rate-capped at 10 Gbps from senders 4..7
  // into the shared downlink (40 of 100 Gbps, so the foreground keeps a
  // residual in both representations). They outlast the foreground span.
  std::vector<workload::BulkTransfer> bulk;
  for (std::uint32_t i = 0; i < 4; ++i) {
    bulk.push_back({.at = sim::SimTime::zero(),
                    .src = 4 + i,
                    .dst = kBulkToReceiver,
                    .bytes = 8'000'000,
                    .rate_cap_bps = 10'000'000'000LL});
  }
  auto make = [seed, &sched] {
    ScenarioBuilder b;
    b.seed(seed)
        .topology(topo::incast(8))
        .transport("mtp")
        .workload(sched);
    return b;
  };
  return fidelity(make, bulk);
}

FidelityResult fig7_fidelity(std::uint64_t seed) {
  // Foreground: tenant1's burst stream across the shared 100G bottleneck —
  // 80 x 100 KB messages, 20 us apart. Each burst's FCT is dominated by
  // draining the bottleneck at the residual rate (again: the regime where
  // the two background representations must agree).
  workload::ArrivalSchedule sched;
  sim::SimTime t = 20_us;
  for (int m = 0; m < 80; ++m) {
    sched.add(t, 0, 100'000);
    t += 20_us;
  }
  // Background: tenant2 runs one 4 MB bulk stream capped at 40 Gbps.
  std::vector<workload::BulkTransfer> bulk{{.at = sim::SimTime::zero(),
                                            .src = 1,
                                            .dst = kBulkToReceiver,
                                            .bytes = 4'000'000,
                                            .rate_cap_bps = 40'000'000'000LL}};
  auto make = [seed, &sched] {
    ScenarioBuilder b;
    b.seed(seed)
        .topology(topo::shared_bottleneck())
        .transport("mtp")
        .workload(sched);
    return b;
  };
  return fidelity(make, bulk);
}

TenantIsolationResult tenant_isolation(int k, unsigned shards, int msgs_per_host) {
  using Clock = std::chrono::steady_clock;
  const int hosts = k * k * k / 4;

  // Foreground: every host bursts msgs_per_host x 10 KB MTP messages to the
  // host 37 ranks away within the first 10 us (bench_scale's pattern).
  workload::ArrivalSchedule sched;
  for (int m = 0; m < msgs_per_host; ++m) {
    const sim::SimTime at = sim::SimTime::nanoseconds(1 + m * 10'000 / msgs_per_host);
    for (int h = 0; h < hosts; ++h) {
      sched.add(at, static_cast<std::uint32_t>(h), 10'000);
    }
  }
  // Background: one fluid transfer per 8 hosts, 4 MB capped at 20 Gbps, to
  // the host half a fabric away — enough concurrent rate processes that
  // edge, aggregation and core conduits all carry reservations.
  std::vector<workload::BulkTransfer> bulk;
  for (int i = 0; i < hosts / 8; ++i) {
    bulk.push_back({.at = sim::SimTime::nanoseconds(1 + i * 200),
                    .src = static_cast<std::uint32_t>(i * 8),
                    .dst = static_cast<std::uint32_t>((i * 8 + hosts / 2) % hosts),
                    .bytes = 4'000'000,
                    .rate_cap_bps = 20'000'000'000LL});
  }

  auto s = ScenarioBuilder()
               .seed(7)
               .shards(shards)
               .topology(topo::fat_tree({.k = k}))
               .forwarding(Forwarding::kEcmp)
               .transport("mtp")
               .workload(std::move(sched))
               .bulk_transfers(bulk)
               .bulk_mode(BulkMode::kFlowLevel)
               .build();

  TenantIsolationResult r;
  r.hosts = hosts;
  r.shards = shards;
  r.fg_sent = static_cast<std::size_t>(hosts) * msgs_per_host;
  r.bulk_count = bulk.size();

  // Completion counters per shard and digest cells per source host, each
  // written only by the shard that owns it.
  struct alignas(64) ShardCount {
    std::uint64_t completed = 0;
  };
  std::vector<ShardCount> done(shards);
  sim::RunDigest digest(hosts);

  Scenario* sp = s.get();
  s->set_arrival_handler([sp, &done, &digest, hosts](const workload::ArrivalSchedule::Arrival& a) {
    const int src = static_cast<int>(a.src);
    const auto dst = sp->topo().senders[(src + 37) % hosts]->id();
    auto* counter = &done[sp->network().shard_of(*sp->topo().senders[src])];
    sp->mtp_sender(a.src)->send_message(
        dst, a.bytes, {.dst_port = 80},
        [counter, &digest, src](proto::MsgId, sim::SimTime fct) {
          ++counter->completed;
          digest.add(src, static_cast<std::uint64_t>(fct.ns()));
        });
  });

  const auto t0 = Clock::now();
  r.events = s->run(50_ms);
  r.wall_sec = std::chrono::duration<double>(Clock::now() - t0).count();
  r.events_per_sec = static_cast<double>(r.events) / r.wall_sec;
  r.pkt_hops = s->network().pkt_hops();
  r.hops_per_sec = static_cast<double>(r.pkt_hops) / r.wall_sec;
  for (const ShardCount& d : done) r.fg_completed += d.completed;
  // Bulk completions, sorted by transfer index, fold in after the join: same
  // (index, ns) on every shard count or the digest differs.
  for (const auto& [idx, at] : s->bulk_completions()) {
    digest.add(0, idx);
    digest.add(0, static_cast<std::uint64_t>(at.ns()));
    ++r.bulk_completed;
  }
  r.digest = digest.value();
  return r;
}

}  // namespace mtp::scenario::hybrid
