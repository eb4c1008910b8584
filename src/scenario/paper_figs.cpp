#include "scenario/paper_figs.hpp"

#include <array>

#include "innetwork/fair_policer.hpp"
#include "innetwork/queues.hpp"

namespace mtp::scenario {

void add_transport_metrics(telemetry::RunReport::Section& sec,
                           const std::string& name,
                           const transport::TransportMetrics& m) {
  sec.add_text("transport", name);
  sec.add_scalar("msgs_completed", static_cast<double>(m.msgs_completed));
  sec.add_scalar("pkts_sent", static_cast<double>(m.pkts_sent));
  sec.add_scalar("retransmits", static_cast<double>(m.retransmits));
  sec.add_scalar("timeouts", static_cast<double>(m.timeouts));
  sec.add_scalar("grants_issued", static_cast<double>(m.grants_issued));
}

namespace {

Fig5Result summarize_fig5(const stats::ThroughputMeter& meter, sim::SimTime flip_period,
                          sim::SimTime duration) {
  Fig5Result r;
  r.series = meter.series();
  r.avg_gbps = static_cast<double>(meter.total_bytes()) * 8.0 / duration.sec() / 1e9;
  double fast_sum = 0, slow_sum = 0;
  std::size_t fast_n = 0, slow_n = 0;
  for (const auto& s : r.series) {
    // Phase parity at the *send* time: samples lag by ~RTT, which is tiny
    // (4us) next to the 384us phases; attribute by receive-window start.
    const auto phase = (s.start.ns() / flip_period.ns()) % 2;
    if (phase == 0) {
      fast_sum += s.gbps;
      ++fast_n;
    } else {
      slow_sum += s.gbps;
      ++slow_n;
    }
  }
  r.fast_phase_gbps = fast_n ? fast_sum / static_cast<double>(fast_n) : 0;
  r.slow_phase_gbps = slow_n ? slow_sum / static_cast<double>(slow_n) : 0;
  return r;
}

}  // namespace

Fig5Result run_fig5(const std::string& transport, sim::SimTime duration,
                    sim::SimTime flip_period, sim::SimTime sample) {
  auto s = ScenarioBuilder()
               .topology(topo::two_path_flip())
               .forwarding(Forwarding::kAlternating, flip_period)
               .transport(transport)
               .bulk()
               .goodput_window(sample)
               .build();
  s->run(duration);
  Fig5Result r = summarize_fig5(*s->goodput(), flip_period, duration);
  r.transport = s->transport_name();
  r.metrics = s->transport_metrics();
  r.registry = s->snapshot();
  return r;
}

Fig5Result run_fig5_dctcp(sim::SimTime duration, sim::SimTime flip_period,
                          sim::SimTime sample) {
  return run_fig5("dctcp", duration, flip_period, sample);
}

Fig5Result run_fig5_mtp(sim::SimTime duration, sim::SimTime flip_period,
                        proto::FeedbackType feedback, bool pathlets_per_path,
                        sim::SimTime sample) {
  auto s = ScenarioBuilder()
               .topology(topo::two_path_flip())
               .forwarding(Forwarding::kAlternating, flip_period)
               .transport("mtp")
               .bulk()
               .goodput_window(sample)
               .build();
  s->topo().paths[0]->set_pathlet({.id = 1, .feedback = feedback, .rcp_rtt = 10_us});
  s->topo().paths[1]->set_pathlet(
      {.id = pathlets_per_path ? 2u : 1u, .feedback = feedback, .rcp_rtt = 10_us});
  s->run(duration);
  Fig5Result r = summarize_fig5(*s->goodput(), flip_period, duration);
  r.transport = s->transport_name();
  r.metrics = s->transport_metrics();
  r.registry = s->snapshot();
  return r;
}

Fig6Result run_fig6(const std::string& scheme, int messages, std::uint64_t seed,
                    std::int64_t max_msg_bytes) {
  // Workload: skewed sizes (10KB..max); the two senders offer one aggregate
  // Poisson stream at ~130% of a single path, so balancing is required.
  workload::SizeDist sizes = workload::SizeDist::skewed(10'000, max_msg_bytes);
  sim::Rng rng(seed * 7919 + 1);
  std::vector<std::int64_t> msg_sizes(static_cast<std::size_t>(messages));
  for (auto& sz : msg_sizes) sz = sizes.sample(rng);
  workload::ArrivalSchedule sched;
  {
    const double mean_bytes = sizes.mean();
    const double rate_bytes_per_sec = 1.30 * 100e9 / 8.0;
    const sim::SimTime mean_gap = sim::SimTime::from_seconds(mean_bytes / rate_bytes_per_sec);
    sim::SimTime t = 10_us;
    for (std::size_t i = 0; i < msg_sizes.size(); ++i) {
      sched.add(t, static_cast<std::uint32_t>(rng.uniform_int(0, 1)), msg_sizes[i]);
      t += rng.exponential_time(mean_gap);
    }
  }

  // scheme -> (transport, fabric policy). Homa assumes a spraying fabric
  // (its receiver reassembles out-of-order packets); MPTCP relies on
  // per-flow ECMP to land its subflows on distinct paths.
  const std::string transport = scheme == "mtp-lb"  ? "mtp"
                                : scheme == "homa"  ? "homa"
                                : scheme == "mptcp" ? "mptcp"
                                                    : "dctcp";
  const Forwarding fwd = scheme == "spray" || scheme == "homa"
                             ? Forwarding::kSpray
                         : scheme == "mtp-lb" ? Forwarding::kMessageAware
                                              : Forwarding::kEcmp;
  auto s = ScenarioBuilder()
               .seed(seed)
               .topology(topo::dual_path(/*senders=*/2))
               .forwarding(fwd)
               .transport(transport)
               .workload(std::move(sched))
               .build();
  s->run();

  Fig6Result result;
  result.scheme = scheme;
  result.transport = s->transport_name();
  result.metrics = s->transport_metrics();
  result.registry = s->snapshot();
  const stats::FctRecorder& fct = s->fct();
  result.messages = fct.count();
  if (fct.count() > 0) {
    result.p50_us = fct.p50_us();
    result.p99_us = fct.p99_us();
    result.mean_us = fct.mean_us();
  }
  const double a = static_cast<double>(s->topo().paths[0]->stats().bytes_delivered);
  const double b = static_cast<double>(s->topo().paths[1]->stats().bytes_delivered);
  result.path_a_bytes_frac = (a + b) > 0 ? a / (a + b) : 0;
  result.fct = fct;
  return result;
}

Fig7Result run_fig7(const std::string& system, sim::SimTime duration) {
  // Two tenant sender hosts share one switch and a 100G/10us bottleneck to
  // the receiver. Tenant 2 runs 8x the message streams of tenant 1.
  std::function<std::unique_ptr<net::Queue>()> queue;
  if (system == "dctcp-queues") {
    queue = [] {
      return std::make_unique<innetwork::WfqQueue>(innetwork::WfqQueue::Config{
          .per_tc_capacity_pkts = 512, .ecn_threshold_pkts = 100});
    };
  }
  const bool mtp = system == "mtp-fairshare";
  auto s = ScenarioBuilder()
               .seed(42)
               .topology(topo::shared_bottleneck(std::move(queue)))
               .transport(mtp ? "mtp" : "dctcp")
               .sender_tcs({1, 2})
               .build();

  Fig7Result result;
  result.system = system;
  std::array<std::int64_t, 3> delivered{};
  net::Link* bottleneck = s->topo().paths[0];

  if (mtp) {
    bottleneck->set_pathlet({.id = 1, .feedback = proto::FeedbackType::kEcn});
    auto policer = std::make_shared<innetwork::FairSharePolicer>(
        s->simulator(), innetwork::FairSharePolicer::Config{.egress = bottleneck});
    s->topo().lb_switches[0]->add_ingress(policer);
    // Count per-tenant delivered payload via per-message completion. Each
    // stream keeps two 1MB messages outstanding so completion round-trips
    // don't bubble the pipe.
    constexpr std::int64_t kMsgBytes = 1'000'000;
    // The scenario owns the self-rescheduling generators; the callbacks hold
    // only raw pointers, so no generator keeps itself alive via a
    // shared_ptr cycle once the run ends.
    std::vector<std::unique_ptr<std::function<void()>>> generators;
    auto feed = [&](std::size_t sender_idx, proto::TrafficClassId tc, int streams) {
      for (int st = 0; st < 2 * streams; ++st) {
        generators.push_back(std::make_unique<std::function<void()>>());
        std::function<void()>* again = generators.back().get();
        *again = [&s, sender_idx, tc, &delivered, again] {
          s->sender(sender_idx)
              .send_message(kMsgBytes,
                            [tc, &delivered, again](sim::SimTime, std::int64_t bytes) {
                              delivered[tc] += bytes;
                              (*again)();
                            });
        };
        (*again)();
      }
    };
    feed(0, 1, 1);
    feed(1, 2, 8);
    s->run(duration);
    result.registry = s->snapshot();
  } else {
    // DCTCP tenants: tenant 1 has one long flow, tenant 2 has eight (the
    // paper's "8x the number of messages" expressed as flow count).
    std::vector<std::unique_ptr<transport::TcpSink>> sinks;
    std::vector<std::unique_ptr<transport::TcpBulkSource>> sources;
    auto tenant_flows = [&](std::size_t sender_idx, int flows, proto::PortNum base_port) {
      for (int f = 0; f < flows; ++f) {
        const proto::PortNum port = static_cast<proto::PortNum>(base_port + f);
        sinks.push_back(std::make_unique<transport::TcpSink>(*s->tcp_receiver(), port));
        sources.push_back(std::make_unique<transport::TcpBulkSource>(
            *s->tcp_sender(sender_idx), s->topo().receiver->id(), port));
      }
    };
    tenant_flows(0, 1, 8000);
    tenant_flows(1, 8, 9000);
    s->run(duration);
    result.registry = s->snapshot();
    std::int64_t b1 = 0, b2 = 0;
    for (std::size_t i = 0; i < sinks.size(); ++i) {
      if (i == 0) {
        b1 += sinks[i]->bytes_received();
      } else {
        b2 += sinks[i]->bytes_received();
      }
    }
    delivered[1] = b1;
    delivered[2] = b2;
  }

  result.tenant1_gbps =
      static_cast<double>(delivered[1]) * 8.0 / duration.sec() / 1e9;
  result.tenant2_gbps =
      static_cast<double>(delivered[2]) * 8.0 / duration.sec() / 1e9;
  result.jain = stats::jain_index({result.tenant1_gbps, result.tenant2_gbps});
  return result;
}

// ------------------------------------------------------- fault recovery

namespace {

void finish_fault_run(FaultRecoveryResult& r) {
  const auto series = r.meter.series();
  double pre_sum = 0;
  int pre_n = 0;
  double dur_sum = 0;
  int dur_n = 0;
  for (const auto& s : series) {
    if (s.start >= 1_ms && s.start < kFaultFlapAt) {
      pre_sum += s.gbps;
      ++pre_n;
    } else if (s.start >= kFaultFlapAt && s.start < kFaultFlapAt + kFaultFlapFor) {
      dur_sum += s.gbps;
      ++dur_n;
    }
  }
  r.pre_fault_gbps = pre_n > 0 ? pre_sum / pre_n : 0;
  r.during_fault_gbps = dur_n > 0 ? dur_sum / dur_n : 0;
  for (const auto& s : series) {
    if (s.start < kFaultFlapAt) continue;
    if (s.gbps >= 0.8 * r.pre_fault_gbps) {
      r.recovery_us = (s.start + kFaultWindow - kFaultFlapAt).us();
      break;
    }
  }
}

}  // namespace

FaultRecoveryResult run_fault_recovery(const std::string& transport) {
  const bool mtp = transport == "mtp";
  const bool homa = transport == "homa";
  const bool mptcp = transport == "mptcp";
  const sim::SimTime horizon = 16_ms;
  ScenarioBuilder b;
  b.seed(42)
      .topology(topo::dual_hop_fabric())
      // MTP gets message-aware switches. Homa runs under its native
      // spraying fabric, MPTCP under per-flow ECMP so its subflows spread.
      // The TCP run keeps the default static first-candidate policy, which
      // pins the flow to the swA path the way an ECMP hash would.
      .forwarding(mtp     ? Forwarding::kMessageAware
                  : homa  ? Forwarding::kSpray
                  : mptcp ? Forwarding::kEcmp
                          : Forwarding::kStatic)
      .goodput_window(kFaultWindow)
      .flap(/*link=*/0, kFaultFlapAt, kFaultFlapFor);
  if (mtp || homa) {
    if (mtp) {
      core::MtpConfig cfg;
      cfg.auto_exclude_after_losses = 2;
      cfg.exclude_duration = 2_ms;
      b.transport("mtp").mtp_config(cfg);
    } else {
      b.transport("homa");
    }
    // Offered load: one 32 KB message every 12.8 us = 20 Gb/s, under either
    // path's solo capacity so the surviving path can carry everything.
    workload::ArrivalSchedule sched;
    for (sim::SimTime t = sim::SimTime::zero(); t < 12_ms;
         t += sim::SimTime::nanoseconds(12'800)) {
      sched.add(t, 0, 32'768);
    }
    b.workload(std::move(sched));
  } else {
    b.transport(mptcp ? "mptcp" : "dctcp").bulk(40'000'000);
  }
  auto s = b.build();
  s->run(horizon);
  FaultRecoveryResult res;
  res.meter = *s->goodput();
  res.metrics = s->transport_metrics();
  finish_fault_run(res);
  return res;
}

OverheadResult run_overhead(std::uint32_t ack_coalesce, std::uint32_t selective_every) {
  net::Network net(5);
  net::Host* a = net.add_host("a");
  net::Host* b = net.add_host("b");
  net::Switch* sw = net.add_switch("sw");
  auto up = net.connect(*a, *sw, sim::Bandwidth::gbps(10), 2_us,
                        {.capacity_pkts = 256, .ecn_threshold_pkts = 40});
  net.connect(*sw, *b, sim::Bandwidth::gbps(10), 2_us,
              {.capacity_pkts = 256, .ecn_threshold_pkts = 40});
  net.build_routes();
  up.forward->set_pathlet({.id = 1,
                           .feedback = proto::FeedbackType::kEcn,
                           .selective_every = selective_every});
  core::MtpConfig cfg;
  cfg.ack_coalesce = ack_coalesce;
  core::MtpEndpoint src(*a, cfg);
  core::MtpEndpoint dst(*b, cfg);
  dst.listen(80, [](const core::ReceivedMessage&) {});

  // Sniff data-header sizes at the switch.
  struct Sniffer : net::IngressProcessor {
    std::uint64_t bytes = 0, pkts = 0;
    bool process(net::Packet& pkt, net::Switch&) override {
      if (pkt.is_mtp() && !pkt.mtp().is_ack()) {
        bytes += transport::mtp_header_bytes(pkt.mtp());
        ++pkts;
      }
      return false;
    }
  };
  auto sniffer = std::make_shared<Sniffer>();
  sw->add_ingress(sniffer);

  OverheadResult r;
  src.send_message(b->id(), 5'000'000, {.dst_port = 80},
                   [&r](proto::MsgId, sim::SimTime fct) { r.fct_ms = fct.ms(); });
  net.simulator().run(sim::SimTime::milliseconds(200));
  r.acks = dst.acks_sent();
  r.avg_data_header_bytes =
      sniffer->pkts ? static_cast<double>(sniffer->bytes) / sniffer->pkts : 0;
  return r;
}

}  // namespace mtp::scenario
