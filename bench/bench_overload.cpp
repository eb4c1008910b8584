// Metastable-failure bench: crash-recovery retry storm and 8:1 incast on a
// k=8 fat-tree, with the mtp::overload defenses off vs on.
//
// Storm rig: one RPC server (5 us service time, bounded 256-deep app queue,
// capacity 200k rps) takes ~0.85x capacity of open-loop load from 8 clients
// in different pods, plus a low-rate high-priority prober. The server app
// crashes at 1 ms for 500 us (the transport keeps ACKing — requests are
// delivered, never answered), which lights a retry storm. Undefended
// clients (timeouts + 2 retries, no budget, no deadline) push offered load
// to ~3x capacity; once the app queue's delay exceeds client pendency,
// every served request's caller has already given up, and the retry inflow
// keeps the queue pinned — goodput collapses and *stays* collapsed after
// the trigger is gone. The defended run turns on receiver-driven grants,
// deadline propagation (expired work shed at the server before service),
// and per-client retry budgets: the same trigger, but the backlog drains
// and goodput recovers.
//
// Headline gates (scripts/check.sh overload-smoke vs BENCH_scale.json):
//   goodput over the post-recovery window [4 ms, 10 ms] as % of capacity —
//   disabled must collapse below its ceiling, enabled must recover above
//   its floor; p99 latency of the admitted high-priority prober at most
//   overload_p99_ratio_max x an uncongested baseline; and the defended-run
//   digest must repeat on a rerun and be identical at 1/2/4 space shards
//   (hard fail).
//
//   --smoke   key=value output for scripts/check.sh:
//             overload_calls, overload_goodput_disabled_pct,
//             overload_goodput_enabled_pct, overload_p99_base_us,
//             overload_p99_hi_us, overload_p99_ratio, overload_digest_match
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "mtp/endpoint.hpp"
#include "mtp/rpc.hpp"
#include "net/fat_tree.hpp"
#include "net/network.hpp"
#include "sim/random.hpp"
#include "stats/table.hpp"
#include "telemetry/report.hpp"

using namespace mtp;
using namespace mtp::sim::literals;
using core::MtpConfig;
using core::MtpEndpoint;
using core::RpcClient;
using core::RpcReply;
using core::RpcServer;
using sim::SimTime;

namespace {

constexpr int kClients = 8;
constexpr std::uint64_t kSeed = 11;
const SimTime kServiceTime = SimTime::microseconds(5);  // capacity 200k rps
const SimTime kCrashAt = 1_ms;
const SimTime kRestartAt = SimTime::microseconds(1'500);
const SimTime kLoadEnd = 10_ms;
const SimTime kWindowStart = 4_ms;  // post-recovery measurement window
const SimTime kWindowEnd = 10_ms;
constexpr std::int64_t kMeanIntervalNs = 47'000;  // per client: ~0.85x capacity
constexpr std::int64_t kProbeIntervalNs = 97'000;

using sim::mix64;

double capacity_rps() { return 1e9 / static_cast<double>(kServiceTime.ns()); }

struct StormResult {
  double goodput_pct = 0;  ///< ok completions in window vs capacity
  double p99_hi_us = 0;    ///< prober (priority 1) p99, ok-in-window only
  std::uint64_t ok = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t rejected = 0;
  std::uint64_t retries = 0;
  std::uint64_t served = 0;
  std::uint64_t server_shed = 0;
  std::uint64_t queue_drops = 0;
  std::uint64_t grants = 0;
  std::uint64_t digest = 0;
  std::size_t leaked_events = 0;
};

/// One storm run. `defended` switches every overload control at once (the
/// bench's whole point is the package, not one knob); `load`/`crash` off
/// gives the uncongested prober-only baseline for the p99 ratio gate.
StormResult run_storm(bool defended, bool load, bool crash, unsigned shards) {
  net::Network net(kSeed, shards);
  net::FatTree ft(net, {.k = 8});
  net::Host* server_host = ft.host(0, 0, 0);
  std::vector<net::Host*> client_hosts;
  for (int p = 0; p < kClients; ++p) client_hosts.push_back(ft.host(p, 1, 0));
  net::Host* prober_host = ft.host(4, 2, 2);

  MtpConfig cfg;
  cfg.overload.enabled = defended;
  auto server_ep = std::make_unique<MtpEndpoint>(*server_host, cfg);
  auto prober_ep = std::make_unique<MtpEndpoint>(*prober_host, cfg);
  std::vector<std::unique_ptr<MtpEndpoint>> eps;
  for (net::Host* h : client_hosts) eps.push_back(std::make_unique<MtpEndpoint>(*h, cfg));

  RpcServer server(*server_ep, 80);
  server.set_service_model({.service_time = kServiceTime,
                            .queue_limit = 256,
                            .shed_expired = defended});
  server.handle("", [](const std::string&, std::int64_t, net::NodeId) {
    return RpcServer::Response{512, "ok"};
  });
  sim::Simulator& server_sim = net.simulator(net.shard_of(*server_host));
  if (crash) {
    server_sim.schedule_at(kCrashAt, [&server] { server.crash(); });
    server_sim.schedule_at(kRestartAt, [&server] { server.restart(); });
  }

  RpcClient::Config cc;
  cc.reply_port = 9000;
  cc.timeout = SimTime::microseconds(160);
  cc.max_retries = 2;
  cc.retry_backoff_cap = SimTime::microseconds(320);
  if (defended) {
    cc.retry_budget_ratio = 0.1;
    cc.retry_budget_burst = 8.0;
    cc.deadline = SimTime::microseconds(300);
  }
  std::vector<std::unique_ptr<RpcClient>> clients;
  for (int i = 0; i < kClients; ++i) {
    RpcClient::Config c = cc;
    c.retry_seed = kSeed * 131 + static_cast<std::uint64_t>(i);
    clients.push_back(std::make_unique<RpcClient>(*eps[i], c));
  }
  // The prober stands in for latency-sensitive foreground traffic: admitted
  // at protected priority, never retried, no deadline to shed it by.
  RpcClient prober(*prober_ep, {.reply_port = 9000, .timeout = 10_ms});

  // Per-client slots and digest cells, written only on the client host's
  // shard so the sharded runs stay race-free and the digest is seed-pure.
  struct alignas(64) Slot {
    std::uint64_t ok_in_window = 0;
  };
  std::vector<Slot> slot(kClients);
  sim::RunDigest digest(kClients);
  struct alignas(64) ProbeSlot {
    std::vector<std::int64_t> ok_latency_ns;  // completions inside the window
  };
  ProbeSlot probe;

  // Open-loop load: schedules derive from the seed alone, issued on the
  // sending host's shard.
  if (load) {
    for (int i = 0; i < kClients; ++i) {
      sim::Rng rng(mix64(kSeed * 977 + static_cast<std::uint64_t>(i)));
      sim::Simulator& s = net.simulator(net.shard_of(*client_hosts[i]));
      RpcClient* cl = clients[i].get();
      MtpEndpoint* ep = eps[i].get();
      Slot* sl = &slot[i];
      std::int64_t t = rng.uniform_int(0, kMeanIntervalNs);
      while (t < kLoadEnd.ns()) {
        s.schedule_at(SimTime::nanoseconds(t), [cl, ep, sl, &digest, i, server_host] {
          cl->call(server_host->id(), 80, "work", 512,
                   [ep, sl, &digest, i](const RpcReply& r) {
                     const SimTime now = ep->node().simulator().now();
                     if (r.ok && now >= kWindowStart && now < kWindowEnd) {
                       ++sl->ok_in_window;
                     }
                     digest.add(i, r.ok);
                     digest.add(i, r.rejected);
                     digest.add(i, static_cast<std::uint64_t>(r.latency.ns()));
                   });
        });
        // Jittered inter-arrival: mean kMeanIntervalNs, +-10%.
        t += kMeanIntervalNs * 9 / 10 + rng.uniform_int(0, kMeanIntervalNs / 5);
      }
    }
  }
  {
    sim::Simulator& s = net.simulator(net.shard_of(*prober_host));
    MtpEndpoint* ep = prober_ep.get();
    for (std::int64_t t = 50'000; t < kLoadEnd.ns(); t += kProbeIntervalNs) {
      s.schedule_at(SimTime::nanoseconds(t), [&prober, ep, &probe, server_host] {
        prober.call(server_host->id(), 80, "probe", 512,
                    [ep, &probe](const RpcReply& r) {
                      const SimTime now = ep->node().simulator().now();
                      if (r.ok && now >= kWindowStart && now < kWindowEnd) {
                        probe.ok_latency_ns.push_back(r.latency.ns());
                      }
                    },
                    /*priority=*/1);
      });
    }
  }

  net.run(50_ms);

  StormResult res;
  for (const auto& cl : clients) {
    res.ok += cl->completed();
    res.timeouts += cl->timed_out();
    res.rejected += cl->rejected();
    res.retries += cl->retries();
  }
  std::uint64_t ok_in_window = 0;
  for (const Slot& s : slot) ok_in_window += s.ok_in_window;
  ok_in_window += probe.ok_latency_ns.size();
  const double window_s =
      static_cast<double>((kWindowEnd - kWindowStart).ns()) / 1e9;
  res.goodput_pct =
      100.0 * static_cast<double>(ok_in_window) / (capacity_rps() * window_s);
  if (!probe.ok_latency_ns.empty()) {
    std::sort(probe.ok_latency_ns.begin(), probe.ok_latency_ns.end());
    const std::size_t idx =
        std::min(probe.ok_latency_ns.size() - 1,
                 static_cast<std::size_t>(0.99 * static_cast<double>(probe.ok_latency_ns.size())));
    res.p99_hi_us = static_cast<double>(probe.ok_latency_ns[idx]) / 1e3;
  }
  res.served = server.requests_served();
  res.server_shed = server.shed_expired();
  res.queue_drops = server.queue_drops();
  res.grants = server_ep->grants_issued();
  for (unsigned sh = 0; sh < net.shards(); ++sh) {
    res.leaked_events += net.simulator(sh).pending_events();
  }
  for (const std::uint64_t v :
       {res.ok, res.timeouts, res.rejected, res.retries, res.served, res.server_shed,
        res.queue_drops, server_ep->busy_rejects_sent(), probe.ok_latency_ns.size()}) {
    digest.add(0, v);
  }
  res.digest = digest.value();
  return res;
}

struct IncastResult {
  double fct_us = 0;  ///< last message's completion
  std::uint64_t grants = 0;
  bool all_delivered = false;
};

/// 8:1 incast across pods: with admission on, the receiver's grants pace
/// the senders instead of the last-hop queue absorbing the burst.
IncastResult run_incast(bool on) {
  net::Network net(kSeed, 1);
  net::FatTree ft(net, {.k = 8});
  net::Host* rx_host = ft.host(0, 3, 3);
  MtpConfig cfg;
  cfg.overload.enabled = on;
  cfg.overload.admission.grant_horizon = 10_us;
  MtpEndpoint rx(*rx_host, cfg);
  std::uint64_t delivered = 0;
  rx.listen_any([&](const core::ReceivedMessage&) { ++delivered; });
  std::vector<std::unique_ptr<MtpEndpoint>> eps;
  SimTime last_fct;
  for (int p = 0; p < 8; ++p) {
    eps.push_back(std::make_unique<MtpEndpoint>(*ft.host(p, 2, 1), cfg));
    eps.back()->send_message(rx_host->id(), 500'000, {.dst_port = 80},
                             [&last_fct](proto::MsgId, SimTime fct) {
                               last_fct = std::max(last_fct, fct);
                             });
  }
  net.run(500_ms);
  IncastResult r;
  r.fct_us = static_cast<double>(last_fct.ns()) / 1e3;
  r.grants = rx.grants_issued();
  r.all_delivered = delivered == 8;
  return r;
}

int run_smoke() {
  // Every metric is simulated time, deterministic per seed: one run each.
  const StormResult dis = run_storm(false, true, true, 1);
  const StormResult ena = run_storm(true, true, true, 1);
  const StormResult base = run_storm(true, false, false, 1);

  // Hard gate: the defended run's digest repeats on a second shards=1 run
  // (nondeterminism guard) and is identical at 2 and 4 shards.
  const std::uint64_t d1 = run_storm(true, true, true, 1).digest;
  const std::uint64_t d2 = run_storm(true, true, true, 2).digest;
  const std::uint64_t d4 = run_storm(true, true, true, 4).digest;
  const bool digest_match = ena.digest == d1 && d1 == d2 && d2 == d4;

  std::printf("overload_calls=%llu\n",
              static_cast<unsigned long long>(ena.ok + ena.timeouts + ena.rejected));
  std::printf("overload_goodput_disabled_pct=%.2f\n", dis.goodput_pct);
  std::printf("overload_goodput_enabled_pct=%.2f\n", ena.goodput_pct);
  std::printf("overload_p99_base_us=%.2f\n", base.p99_hi_us);
  std::printf("overload_p99_hi_us=%.2f\n", ena.p99_hi_us);
  std::printf("overload_p99_ratio=%.2f\n",
              base.p99_hi_us > 0 ? ena.p99_hi_us / base.p99_hi_us : 0.0);
  std::printf("overload_retries_disabled=%llu\n",
              static_cast<unsigned long long>(dis.retries));
  std::printf("overload_retries_enabled=%llu\n",
              static_cast<unsigned long long>(ena.retries));
  std::printf("overload_server_shed=%llu\n",
              static_cast<unsigned long long>(ena.server_shed));
  std::printf("overload_digest_match=%d\n", digest_match ? 1 : 0);
  std::printf("overload_leaked_events=%zu\n", dis.leaked_events + ena.leaked_events);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--smoke") == 0) return run_smoke();

  std::printf("=== Metastable retry storm on a k=8 fat-tree: overload "
              "defenses off vs on ===\n\n");
  telemetry::RunReport report("overload");
  stats::Table table({"defenses", "goodput (%)", "prober p99 (us)", "ok",
                      "timeouts", "rejected", "retries", "served", "shed",
                      "queue drops"});
  const StormResult base = run_storm(true, false, false, 1);
  for (const bool defended : {false, true}) {
    const StormResult r = run_storm(defended, true, true, 1);
    table.add_row({defended ? "on" : "off", stats::format("%.1f", r.goodput_pct),
                   stats::format("%.1f", r.p99_hi_us),
                   stats::format("%llu", (unsigned long long)r.ok),
                   stats::format("%llu", (unsigned long long)r.timeouts),
                   stats::format("%llu", (unsigned long long)r.rejected),
                   stats::format("%llu", (unsigned long long)r.retries),
                   stats::format("%llu", (unsigned long long)r.served),
                   stats::format("%llu", (unsigned long long)r.server_shed),
                   stats::format("%llu", (unsigned long long)r.queue_drops)});
    auto& sec = report.section(defended ? "storm/defended" : "storm/undefended");
    sec.add_scalar("goodput_pct", r.goodput_pct);
    sec.add_scalar("p99_hi_us", r.p99_hi_us);
    sec.add_scalar("retries", static_cast<double>(r.retries));
    sec.add_scalar("server_shed", static_cast<double>(r.server_shed));
  }
  table.print();
  std::printf("\nUncongested prober baseline p99: %.1f us\n", base.p99_hi_us);

  std::printf("\n=== 8:1 cross-pod incast: receiver-driven admission ===\n\n");
  stats::Table itable({"admission", "last FCT (us)", "grants", "complete"});
  for (const bool on : {false, true}) {
    const IncastResult r = run_incast(on);
    itable.add_row({on ? "on" : "off", stats::format("%.1f", r.fct_us),
                    stats::format("%llu", (unsigned long long)r.grants),
                    r.all_delivered ? "yes" : "NO"});
    auto& sec = report.section(on ? "incast/admission" : "incast/plain");
    sec.add_scalar("fct_us", r.fct_us);
    sec.add_scalar("grants", static_cast<double>(r.grants));
  }
  itable.print();
  std::printf("\nThe collapse is metastable: the crash lasts 500 us, but the "
              "undefended goodput stays collapsed long after the trigger is "
              "gone — served work whose caller already gave up plus retry "
              "inflow above capacity is a self-sustaining state.\n");
  report.write();
  return 0;
}
