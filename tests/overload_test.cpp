// mtp::overload suite: admission grants, the one deadline/watermark shed
// rule at receivers and devices, device busy-rejects, retry budgets,
// hedging, and a seeded metastable-failure chaos harness whose digests must
// be identical at 1, 2 and 4 space shards.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "helpers.hpp"
#include "innetwork/kvs_cache.hpp"
#include "mtp/endpoint.hpp"
#include "mtp/overload/admission.hpp"
#include "mtp/overload/retry_budget.hpp"
#include "mtp/overload/shed_guard.hpp"
#include "mtp/rpc.hpp"
#include "net/fat_tree.hpp"
#include "sim/random.hpp"

namespace mtp {
namespace {

using namespace mtp::sim::literals;
using core::MessageOptions;
using core::MtpConfig;
using core::MtpEndpoint;
using core::ReceivedMessage;
using core::RpcClient;
using core::RpcReply;
using core::RpcServer;
using mtp::testing::Dumbbell;
using mtp::testing::HostPair;
using sim::Bandwidth;
using sim::SimTime;

MtpConfig cfg_default() { return MtpConfig{}; }

using sim::mix64;

// --- Unit: retry budget token bucket.

TEST(RetryBudget, AccruesPerSuccessAndSpendsPerRetry) {
  overload::RetryBudget b({.ratio = 0.5, .burst = 2.0});
  EXPECT_DOUBLE_EQ(b.tokens(), 2.0);
  EXPECT_TRUE(b.try_spend());
  EXPECT_TRUE(b.try_spend());
  EXPECT_FALSE(b.try_spend());  // burst gone, nothing earned yet
  EXPECT_EQ(b.spent(), 2u);
  EXPECT_EQ(b.exhausted(), 1u);
  b.on_success();
  b.on_success();  // 2 successes x 0.5 = one retry token
  EXPECT_TRUE(b.try_spend());
  EXPECT_FALSE(b.try_spend());
}

TEST(RetryBudget, TokensCapAtBurst) {
  overload::RetryBudget b({.ratio = 1.0, .burst = 3.0});
  for (int i = 0; i < 100; ++i) b.on_success();
  EXPECT_DOUBLE_EQ(b.tokens(), 3.0);
}

// --- Unit: receiver admission rate estimate and grant sizing.

TEST(Admission, GrantTracksServiceRateSplitAcrossSenders) {
  overload::Admission adm({.rate_window = 20_us,
                           .ewma_alpha = 0.3,
                           .grant_horizon = 50_us,
                           .min_grant_bytes = 1000,
                           .max_grant_bytes = 1 << 20,
                           .sender_idle_timeout = 500_us});
  // Two senders deliver 1000 B every microsecond for 100 us: 1 B/ns total.
  SimTime t;
  for (int i = 0; i < 100; ++i) {
    adm.on_delivered(i % 2 == 0 ? 10 : 11, 1000, t);
    t = t + 1_us;
  }
  EXPECT_EQ(adm.active_senders(), 2u);
  EXPECT_NEAR(adm.rate_gbps(), 8.0, 1.0);  // 1 B/ns = 8 Gbps
  // grant = rate * horizon / senders = 1 * 50000 / 2 = 25 KB.
  const std::int64_t g = adm.grant_bytes(t);
  EXPECT_GT(g, 20'000);
  EXPECT_LT(g, 30'000);
  // A long silent gap decays the rate estimate and prunes idle senders; the
  // next grant is sized from the decayed rate split over the floor-of-one
  // remaining sender.
  const double rate_before = adm.rate_gbps();
  const std::int64_t after_idle = adm.grant_bytes(t + 10_ms);
  EXPECT_LT(adm.rate_gbps(), rate_before);
  EXPECT_EQ(adm.active_senders(), 1u);
  EXPECT_NEAR(static_cast<double>(after_idle),
              adm.rate_gbps() / 8.0 * 50'000.0, 1.0);
}

// --- Unit: the shed rule's defaults. An MTP receiver sheds only expired
// work unless a watermark is set; a device's rule is 64/256.

TEST(ShedGuard, DefaultRulesShedOnlyExpiredAtReceiversAndWatermarkAtDevices) {
  const SimTime now = 10_us;
  const overload::ShedRule receiver;
  EXPECT_EQ(overload::shed_verdict(receiver, 1'000'000, 0, 0, now), 0);
  EXPECT_EQ(overload::shed_verdict(receiver, 0, 1, 1'000, now),
            proto::kOverloadBusy | proto::kOverloadExpired);
  EXPECT_EQ(overload::shed_verdict(receiver, 0, 1, 20'000, now), 0);  // not yet due
  const overload::ShedRule device = overload::ShedConfig{}.rule;
  EXPECT_EQ(overload::shed_verdict(device, 63, 0, 0, now), 0);
  EXPECT_EQ(overload::shed_verdict(device, 64, 0, 0, now), proto::kOverloadBusy);
  EXPECT_EQ(overload::shed_verdict(device, 255, 1, 0, now), 0);
  EXPECT_EQ(overload::shed_verdict(device, 256, 1, 0, now), proto::kOverloadBusy);
  EXPECT_FALSE(overload::ShedConfig{}.enabled);
}

// --- Unit: shed guard priority and deadline rules.

TEST(ShedGuard, WatermarkPriorityAndDeadlineRules) {
  overload::ShedGuard g({.enabled = true,
                         .rule = {.shed_expired = true,
                                  .high_watermark = 2,
                                  .hard_limit = 4,
                                  .protect_priority = 1}});
  const SimTime now = 10_us;
  EXPECT_EQ(g.decide(1, 0, 0, now), 0);  // under watermark: accept
  EXPECT_EQ(g.decide(3, 0, 0, now), proto::kOverloadBusy);  // low pri over mark
  EXPECT_EQ(g.decide(3, 1, 0, now), 0);  // protected priority survives
  EXPECT_EQ(g.decide(5, 1, 0, now), proto::kOverloadBusy);  // hard limit: all
  // Expired work is shed regardless of load (deadline 1 us < now 10 us).
  EXPECT_EQ(g.decide(0, 1, 1'000, now),
            proto::kOverloadBusy | proto::kOverloadExpired);
  EXPECT_EQ(g.sheds(), 3u);
  EXPECT_EQ(g.expired_sheds(), 1u);
  EXPECT_EQ(g.sheds_at_priority(0), 1u);
  EXPECT_EQ(g.sheds_at_priority(1), 2u);
}

// --- Unit: queue drop-split accounting never loses a drop.

TEST(QueueDropSplit, CausesSumToTotalDropped) {
  net::DropTailQueue q({.capacity_pkts = 2});
  auto mk = [] {
    net::Packet p;
    p.payload_bytes = 1000;
    return p;
  };
  EXPECT_TRUE(q.enqueue(mk()));
  EXPECT_TRUE(q.enqueue(mk()));
  EXPECT_FALSE(q.enqueue(mk()));  // tail drop
  q.note_policer_drop(mk());
  const net::QueueStats& s = q.stats();
  EXPECT_EQ(s.tail_dropped, 1u);
  EXPECT_EQ(s.policer_dropped, 1u);
  EXPECT_EQ(s.dropped, s.tail_dropped + s.policer_dropped);
}

// --- Transport: receiver-driven grants pace an 8:1 incast.

struct IncastOutcome {
  std::uint64_t delivered = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t completions = 0;
  std::uint64_t grants = 0;
  std::uint64_t tail_drops = 0;
};

IncastOutcome run_incast(bool overload_on) {
  Dumbbell t(8, Bandwidth::gbps(10), 1_us, {.capacity_pkts = 64});
  MtpConfig cfg;
  cfg.overload.enabled = overload_on;
  cfg.overload.admission.grant_horizon = 10_us;
  std::vector<std::unique_ptr<MtpEndpoint>> eps;
  for (net::Host* h : t.senders) eps.push_back(std::make_unique<MtpEndpoint>(*h, cfg));
  MtpEndpoint rx(*t.receiver, cfg);
  IncastOutcome out;
  std::set<std::pair<net::NodeId, proto::MsgId>> seen;
  rx.listen_any([&](const ReceivedMessage& m) {
    ++out.delivered;
    if (!seen.emplace(m.src, m.msg_id).second) ++out.duplicates;
  });
  for (auto& ep : eps) {
    ep->send_message(t.receiver->id(), 200'000, {.dst_port = 80},
                     [&out](proto::MsgId, SimTime) { ++out.completions; });
  }
  t.sim().run(500_ms);
  out.grants = rx.grants_issued();
  out.tail_drops = t.bottleneck->queue().stats().tail_dropped;
  // Drop-split invariant on the bottleneck: nothing discarded untagged.
  const net::QueueStats& qs = t.bottleneck->queue().stats();
  EXPECT_EQ(qs.dropped, qs.tail_dropped + qs.policer_dropped);
  EXPECT_EQ(t.sim().pending_events(), 0u);
  return out;
}

TEST(OverloadTransport, GrantPacingDeliversIncastWithFewerDrops) {
  const IncastOutcome off = run_incast(false);
  const IncastOutcome on = run_incast(true);
  for (const IncastOutcome* o : {&off, &on}) {
    EXPECT_EQ(o->delivered, 8u);
    EXPECT_EQ(o->completions, 8u);
    EXPECT_EQ(o->duplicates, 0u);
  }
  EXPECT_EQ(off.grants, 0u);
  EXPECT_GT(on.grants, 0u);
  // Grant pacing must not make the last-hop queue worse.
  EXPECT_LE(on.tail_drops, off.tail_drops);
}

// --- Transport: deadline-expired work is rejected before service,
// exactly once, and the sender aborts instead of retransmitting.

TEST(OverloadTransport, DeadlineExpiredRejectedNeverDelivered) {
  HostPair t(Bandwidth::gbps(10));
  MtpConfig cfg;
  cfg.overload.enabled = true;
  MtpEndpoint a(*t.a, cfg);
  MtpEndpoint b(*t.b, cfg);
  std::uint64_t delivered = 0;
  b.listen_any([&](const ReceivedMessage&) { ++delivered; });
  std::uint64_t rejected = 0;
  bool reject_expired = false;
  a.on_rejected = [&](proto::MsgId, net::NodeId, bool expired) {
    ++rejected;
    reject_expired = expired;
  };
  std::uint64_t completions = 0;
  // Deadline 100 ns, one-way delay 2 us: expired on arrival.
  a.send_message(t.b->id(), 10'000,
                 {.dst_port = 80, .deadline = SimTime::nanoseconds(100)},
                 [&](proto::MsgId, SimTime) { ++completions; });
  t.sim().run(500_ms);
  EXPECT_EQ(delivered, 0u);
  EXPECT_EQ(completions, 0u);  // an aborted message never "completes"
  EXPECT_EQ(rejected, 1u);
  EXPECT_TRUE(reject_expired);
  EXPECT_EQ(a.msgs_rejected(), 1u);
  EXPECT_EQ(b.deadline_expiries(), 1u);
  EXPECT_GE(b.busy_rejects_sent(), 1u);
  EXPECT_EQ(t.sim().pending_events(), 0u);
}

// --- Transport: receiver watermark sheds low priority, protects high.

TEST(OverloadTransport, WatermarkShedsLowPriorityProtectsHigh) {
  Dumbbell t(4, Bandwidth::gbps(1), 5_us);
  MtpConfig cfg;
  cfg.overload.enabled = true;
  MtpConfig rx_cfg = cfg;
  rx_cfg.overload.shed.high_watermark = 1;
  rx_cfg.overload.shed.protect_priority = 1;
  std::vector<std::unique_ptr<MtpEndpoint>> eps;
  for (net::Host* h : t.senders) eps.push_back(std::make_unique<MtpEndpoint>(*h, cfg));
  MtpEndpoint rx(*t.receiver, rx_cfg);

  std::set<std::pair<net::NodeId, proto::MsgId>> delivered;
  std::uint64_t delivered_high = 0;
  rx.listen_any([&](const ReceivedMessage& m) {
    EXPECT_TRUE(delivered.emplace(m.src, m.msg_id).second) << "duplicate delivery";
    if (m.priority > 0) ++delivered_high;
  });
  std::set<std::pair<net::NodeId, proto::MsgId>> rejected;
  for (std::size_t i = 0; i < eps.size(); ++i) {
    eps[i]->on_rejected = [&rejected, src = t.senders[i]->id()](
                              proto::MsgId id, net::NodeId, bool) {
      rejected.emplace(src, id);
    };
  }
  // Senders 0-1 are low priority, 2-3 high; two 30 KB messages each.
  for (std::size_t i = 0; i < eps.size(); ++i) {
    const std::uint8_t pri = i < 2 ? 0 : 1;
    for (int m = 0; m < 2; ++m) {
      eps[i]->send_message(t.receiver->id(), 30'000,
                           {.priority = pri, .dst_port = 80});
    }
  }
  t.sim().run(500_ms);
  EXPECT_EQ(delivered_high, 4u) << "protected priority must not be shed";
  EXPECT_GE(rejected.size(), 1u) << "watermark never fired";
  EXPECT_EQ(delivered.size() + rejected.size(), 8u);
  for (const auto& key : rejected) {
    EXPECT_FALSE(delivered.contains(key)) << "message both rejected and delivered";
  }
  EXPECT_EQ(t.sim().pending_events(), 0u);
}

// --- Devices: kvs cache sheds low priority with explicit busy-rejects and
// serves the protected priority from the cache.

TEST(OverloadDevices, KvsCacheShedsLowPriorityAndServesProtected) {
  HostPair t(Bandwidth::gbps(10));
  innetwork::KvsCache::Config kc;
  kc.backend = t.b->id();
  kc.service_port = 80;
  kc.shed = {.enabled = true,
             .rule = {.shed_expired = true,
                      .high_watermark = 0,  // everything below protect_priority sheds
                      .hard_limit = 1000,
                      .protect_priority = 1}};
  auto cache = std::make_shared<innetwork::KvsCache>(*t.sw, kc);
  cache->put("hot", "v", 2'000);
  t.sw->add_ingress(cache);

  MtpConfig cfg;
  cfg.overload.enabled = true;
  MtpEndpoint client(*t.a, cfg);
  MtpEndpoint backend(*t.b, cfg);
  std::uint64_t replies = 0;
  client.listen_any([&](const ReceivedMessage&) { ++replies; });
  std::uint64_t rejected = 0;
  client.on_rejected = [&](proto::MsgId, net::NodeId, bool) { ++rejected; };

  // 12 low-priority GETs, 10 us apart: all shed.
  for (int i = 0; i < 12; ++i) {
    t.sim().schedule_at(SimTime::microseconds(10 * i), [&] {
      client.send_message(t.b->id(), 2'000,
                          {.priority = 0,
                           .src_port = 9001,
                           .dst_port = 80,
                           .app = net::AppData{"hot", ""}});
    });
  }
  // 5 protected-priority GETs: they pass the guard and hit the cache.
  for (int i = 0; i < 5; ++i) {
    t.sim().schedule_at(SimTime::microseconds(400 + 10 * i), [&] {
      client.send_message(t.b->id(), 2'000,
                          {.priority = 1,
                           .src_port = 9001,
                           .dst_port = 80,
                           .app = net::AppData{"hot", ""}});
    });
  }
  t.sim().run(500_ms);

  EXPECT_EQ(rejected, 12u);
  EXPECT_EQ(client.msgs_rejected(), 12u);
  EXPECT_EQ(cache->shed_guard().sheds(), 12u);
  EXPECT_EQ(replies, 5u) << "protected GETs must be served from the cache";
  EXPECT_EQ(cache->hits(), 5u);
  EXPECT_EQ(cache->shed_guard().sheds_at_priority(0), 12u);
  EXPECT_EQ(cache->shed_guard().sheds_at_priority(1), 0u);
  EXPECT_EQ(t.sim().pending_events(), 0u);
}

// --- RPC: propagated deadlines shed expired work at the server before
// service; the context-aware handler sees the deadline.

TEST(OverloadRpc, ServerShedsExpiredQueuedWork) {
  HostPair t(Bandwidth::gbps(10));
  MtpConfig cfg;
  cfg.overload.enabled = true;
  cfg.overload.shed.shed_expired = false;  // let the *server queue* do the shedding
  MtpEndpoint client_ep(*t.a, cfg);
  MtpEndpoint server_ep(*t.b, cfg);
  RpcClient client(client_ep, {.reply_port = 9000,
                               .timeout = 5_ms,
                               .max_retries = 0,
                               .deadline = 250_us});
  RpcServer server(server_ep, 80);
  server.set_service_model({.service_time = 100_us, .queue_limit = 16,
                            .shed_expired = true});
  std::uint64_t saw_deadline = 0;
  server.handle_ex("work", [&](const RpcServer::RequestContext& ctx) {
    if (ctx.deadline.ns() > 0) ++saw_deadline;
    return RpcServer::Response{1'000, "ok"};
  });
  const int kCalls = 5;
  std::vector<int> cb(kCalls, 0);
  std::uint64_t ok = 0;
  for (int i = 0; i < kCalls; ++i) {
    client.call(t.b->id(), 80, "work", 1'000, [&, i](const RpcReply& r) {
      ++cb[i];
      if (r.ok) ++ok;
    });
  }
  t.sim().run(500_ms);
  for (int i = 0; i < kCalls; ++i) EXPECT_EQ(cb[i], 1) << "call " << i;
  // 100 us service against a 250 us deadline: three fit, two expire queued.
  EXPECT_EQ(server.requests_served(), 3u);
  EXPECT_EQ(server.shed_expired(), 2u);
  EXPECT_EQ(ok, 3u);
  EXPECT_EQ(client.completed(), 3u);
  EXPECT_EQ(client.timed_out(), 2u);
  EXPECT_EQ(saw_deadline, 3u) << "deadline must propagate into the handler";
  EXPECT_EQ(t.sim().pending_events(), 0u);
}

// --- RPC: the retry budget converts a retry storm into fail-fast.

TEST(OverloadRpc, RetryBudgetCapsStormAgainstDeadServer) {
  HostPair t(Bandwidth::gbps(10));
  MtpEndpoint client_ep(*t.a, cfg_default());
  MtpEndpoint server_ep(*t.b, cfg_default());
  RpcServer server(server_ep, 80);
  server.handle("", [](const std::string&, std::int64_t, net::NodeId) {
    return RpcServer::Response{1'000, "ok"};
  });
  server.crash();  // transport still ACKs; the app never answers

  RpcClient unbudgeted(client_ep, {.reply_port = 9000,
                                   .timeout = 100_us,
                                   .max_retries = 3,
                                   .retry_seed = 7});
  RpcClient budgeted(client_ep, {.reply_port = 9001,
                                 .timeout = 100_us,
                                 .max_retries = 3,
                                 .retry_seed = 7,
                                 .retry_budget_ratio = 0.1,
                                 .retry_budget_burst = 2.0});
  const int kCalls = 5;
  std::vector<int> cb_a(kCalls, 0), cb_b(kCalls, 0);
  for (int i = 0; i < kCalls; ++i) {
    unbudgeted.call(t.b->id(), 80, "m", 1'000,
                    [&cb_a, i](const RpcReply&) { ++cb_a[i]; });
    budgeted.call(t.b->id(), 80, "m", 1'000,
                  [&cb_b, i](const RpcReply&) { ++cb_b[i]; });
  }
  t.sim().run(500_ms);
  for (int i = 0; i < kCalls; ++i) {
    EXPECT_EQ(cb_a[i], 1);
    EXPECT_EQ(cb_b[i], 1);
  }
  EXPECT_EQ(unbudgeted.retries(), 15u);  // 5 calls x 3 retries: the storm
  EXPECT_LE(budgeted.retries(), 2u);     // the whole burst allowance, no more
  ASSERT_NE(budgeted.retry_budget(), nullptr);
  EXPECT_GE(budgeted.retry_budget()->exhausted(), 1u);
  EXPECT_EQ(budgeted.timed_out(), static_cast<std::uint64_t>(kCalls));
  EXPECT_EQ(t.sim().pending_events(), 0u);
}

// --- RPC: hedged requests are budget-guarded and complete exactly once.

TEST(OverloadRpc, HedgesAreBudgetGuardedAndExactlyOnce) {
  HostPair t(Bandwidth::gbps(10));
  MtpEndpoint client_ep(*t.a, cfg_default());
  MtpEndpoint server_ep(*t.b, cfg_default());
  RpcServer server(server_ep, 80);
  server.set_service_model({.service_time = 50_us, .queue_limit = 32});
  server.handle("", [](const std::string&, std::int64_t, net::NodeId) {
    return RpcServer::Response{1'000, "ok"};
  });
  RpcClient hedger(client_ep, {.reply_port = 9000,
                               .timeout = 10_ms,
                               .retry_budget_ratio = 1.0,
                               .retry_budget_burst = 10.0,
                               .hedge_after = 20_us});
  RpcClient starved(client_ep, {.reply_port = 9001,
                                .timeout = 10_ms,
                                .retry_budget_ratio = 0.01,
                                .retry_budget_burst = 0.5,  // < 1: never a hedge
                                .hedge_after = 20_us});
  const int kCalls = 3;
  std::vector<int> cb_h(kCalls, 0), cb_s(kCalls, 0);
  for (int i = 0; i < kCalls; ++i) {
    t.sim().schedule_at(SimTime::microseconds(200 * i), [&, i] {
      hedger.call(t.b->id(), 80, "m", 1'000,
                  [&cb_h, i](const RpcReply& r) {
                    ++cb_h[i];
                    EXPECT_TRUE(r.ok);
                  });
      starved.call(t.b->id(), 80, "m", 1'000,
                   [&cb_s, i](const RpcReply& r) {
                     ++cb_s[i];
                     EXPECT_TRUE(r.ok);
                   });
    });
  }
  t.sim().run(500_ms);
  for (int i = 0; i < kCalls; ++i) {
    EXPECT_EQ(cb_h[i], 1) << "hedged call must complete exactly once";
    EXPECT_EQ(cb_s[i], 1);
  }
  EXPECT_EQ(hedger.hedges(), static_cast<std::uint64_t>(kCalls));
  EXPECT_EQ(starved.hedges(), 0u) << "an exhausted budget must veto hedging";
  ASSERT_NE(starved.retry_budget(), nullptr);
  EXPECT_GE(starved.retry_budget()->exhausted(), 1u);
  EXPECT_EQ(t.sim().pending_events(), 0u);
}

// ---------------------------------------------------------------------------
// Seeded overload chaos harness on a sharded k=4 fat-tree, one host per pod
// (three clients and a server): RPC retry storms around a server crash, raw
// traffic under receiver watermarks, and a shed-guarded kvs cache — with all
// folds shard-local so the digest is a pure function of the seed,
// independent of the shard count.
// ---------------------------------------------------------------------------

struct OvChaosResult {
  std::uint64_t digest = 0;
  std::uint64_t rpc_ok = 0;
  std::uint64_t rpc_timeout = 0;
  std::uint64_t rpc_rejected = 0;
  std::uint64_t served = 0;
  std::uint64_t server_shed = 0;
  std::uint64_t cache_sheds = 0;
  std::uint64_t msgs_rejected = 0;
  std::size_t leaked_events = 0;
  bool callbacks_exactly_once = true;
  bool msgs_exactly_once = true;
  bool reject_and_deliver = false;
  /// A priority-1 raw message or GET was busy-rejected. None carries a
  /// deadline and no hard limit is within reach, so the shed rule must
  /// let every one of them through.
  bool protected_rejected = false;
};

OvChaosResult run_overload_chaos(std::uint64_t seed, unsigned shards) {
  net::Network net(seed, shards);
  net::FatTree ft(net, {.k = 4, .link_delay = 5_us});
  const std::vector<net::Host*> hosts = mtp::testing::host_per_pod(ft);
  const std::size_t kHosts = 4;
  net::Host* server_host = hosts[3];

  MtpConfig client_cfg;
  client_cfg.overload.enabled = true;
  client_cfg.overload.shed.high_watermark = 3;  // raw traffic hits the watermark
  MtpConfig server_cfg;
  server_cfg.overload.enabled = true;
  server_cfg.overload.shed.high_watermark = 6;

  // One digest cell per host: every runtime fold lives on the shard owning
  // the host.
  sim::RunDigest digest(kHosts);

  // Raw (non-RPC) messages: index -> outcome flags. `delivered` is written
  // by the receiving host's shard, `completed`/`rejected` by the sender's —
  // distinct fields, so the parallel run stays race-free. `priority` is set
  // before the run.
  struct alignas(64) MsgSlot {
    std::uint64_t delivered = 0;
    std::uint64_t completed = 0;
    std::uint64_t rejected = 0;
    std::uint8_t priority = 0;
  };
  const int kRaw = 18;   // client <-> client messages
  const int kGets = 18;  // GETs fronted by the shed-guarded cache
  std::vector<MsgSlot> msg_slot(kRaw + kGets);

  std::vector<std::unique_ptr<MtpEndpoint>> eps;
  // Per-sender map from transport msg id -> raw-message index, touched only
  // on that sender's shard (send + reject hooks both run there).
  std::vector<std::unordered_map<proto::MsgId, int>> msg_index(kHosts);
  for (std::size_t h = 0; h < kHosts; ++h) {
    auto ep = std::make_unique<MtpEndpoint>(
        *hosts[h], h == 3 ? server_cfg : client_cfg);
    ep->listen_any([&digest, h, &msg_slot](const ReceivedMessage& m) {
      if (!m.app) return;
      const std::string& key = m.app->key;
      int idx = -1;
      if (key.rfind("raw:", 0) == 0) idx = std::stoi(key.substr(4));
      if (key.rfind("get:", 0) == 0) idx = std::stoi(key.substr(4));
      if (idx < 0) return;
      ++msg_slot[idx].delivered;
      digest.add(h, m.src);
      digest.add(h, m.msg_id);
      digest.add(h, static_cast<std::uint64_t>(m.bytes));
    });
    ep->on_rejected = [&digest, h, &msg_slot, mi = &msg_index[h]](
                          proto::MsgId id, net::NodeId, bool expired) {
      auto it = mi->find(id);
      if (it != mi->end()) {
        ++msg_slot[it->second].rejected;
        digest.add(h, id);
        digest.add(h, expired);
      }
    };
    eps.push_back(std::move(ep));
  }

  // Shed-guarded kvs cache on the server's edge, fronting server port 81.
  innetwork::KvsCache::Config kc;
  kc.backend = server_host->id();
  kc.service_port = 81;
  kc.shed = {.enabled = true,
             .rule = {.shed_expired = true,
                      .high_watermark = 0,
                      .hard_limit = 1000,
                      .protect_priority = 1}};
  auto cache = std::make_shared<innetwork::KvsCache>(*ft.edge(3, 0), kc);
  for (int k = 0; k < 4; ++k) cache->put("k" + std::to_string(k), "v", 3'000);
  ft.edge(3, 0)->add_ingress(cache);

  // RPC: three clients against one server that crashes mid-run. Requests
  // are still ACKed by the transport while the app is down — the classic
  // retry-storm trigger the budgets must contain.
  RpcServer server(*eps[3], 80);
  server.set_service_model({.service_time = 15_us, .queue_limit = 8,
                            .shed_expired = true});
  server.handle("", [](const std::string&, std::int64_t, net::NodeId) {
    return RpcServer::Response{2'000, "ok"};
  });
  sim::Simulator& server_sim = net.simulator(net.shard_of(*server_host));
  server_sim.schedule_at(1_ms, [&server] { server.crash(); });
  server_sim.schedule_at(SimTime::microseconds(1'800), [&server] { server.restart(); });

  std::vector<std::unique_ptr<RpcClient>> clients;
  const int kCalls = 30;
  std::vector<int> cb(kCalls, 0);
  for (std::size_t h = 0; h < 3; ++h) {
    clients.push_back(std::make_unique<RpcClient>(
        *eps[h], RpcClient::Config{.reply_port = 9000,
                                   .timeout = 150_us,
                                   .max_retries = 3,
                                   .retry_seed = seed * 31 + h,
                                   .retry_budget_ratio = 0.2,
                                   .retry_budget_burst = 4.0,
                                   .deadline = 600_us}));
  }

  // Everything below derives from `seed` alone; sends fire on the shard
  // owning the sending host.
  sim::Rng rng(mix64(seed ^ 0xabcdefULL));
  for (int i = 0; i < kCalls; ++i) {
    const auto c = static_cast<std::size_t>(rng.uniform_int(0, 2));
    const std::int64_t bytes = rng.uniform_int(1, 20'000);
    const std::uint8_t pri = rng.bernoulli(0.5) ? 1 : 0;
    const SimTime at = SimTime::nanoseconds(rng.uniform_int(0, 3'000'000));
    RpcClient* cl = clients[c].get();
    net.simulator(net.shard_of(*hosts[c]))
        .schedule_at(at, [cl, &digest, c, &cb, i, bytes, pri, server_host] {
          cl->call(server_host->id(), 80, "m", bytes,
                   [&digest, c, &cb, i](const RpcReply& r) {
                     ++cb[i];
                     digest.add(c, r.ok);
                     digest.add(c, r.rejected);
                     digest.add(c, static_cast<std::uint64_t>(r.latency.ns()));
                   });
        });
  }
  for (int i = 0; i < kRaw; ++i) {
    const auto src = static_cast<std::size_t>(rng.uniform_int(0, 2));
    std::size_t dst = static_cast<std::size_t>(rng.uniform_int(0, 1));
    if (dst >= src) ++dst;  // uniform over the other two clients
    const std::int64_t bytes = rng.uniform_int(1, 40'000);
    const std::uint8_t pri = rng.bernoulli(0.4) ? 1 : 0;
    msg_slot[i].priority = pri;
    const SimTime at = SimTime::nanoseconds(rng.uniform_int(0, 3'000'000));
    MtpEndpoint* ep = eps[src].get();
    net::Host* to = hosts[dst];
    auto* mi = &msg_index[src];
    auto* ms = &msg_slot[i];
    net.simulator(net.shard_of(*hosts[src]))
        .schedule_at(at, [ep, to, bytes, pri, i, mi, ms] {
          MessageOptions opts;
          opts.priority = pri;
          opts.dst_port = 7;
          opts.app = net::AppData{"raw:" + std::to_string(i), ""};
          const proto::MsgId mid = ep->send_message(
              to->id(), bytes, std::move(opts),
              [ms](proto::MsgId, SimTime) { ++ms->completed; });
          mi->emplace(mid, i);
        });
  }
  for (int g = 0; g < kGets; ++g) {
    const int i = kRaw + g;
    const auto src = static_cast<std::size_t>(rng.uniform_int(0, 2));
    const std::uint8_t pri = g % 2 == 0 ? 0 : 1;  // pri0 guaranteed: sheds fire
    msg_slot[i].priority = pri;
    const std::string key = "k" + std::to_string(rng.uniform_int(0, 3));
    const SimTime at = SimTime::nanoseconds(rng.uniform_int(0, 3'000'000));
    MtpEndpoint* ep = eps[src].get();
    auto* mi = &msg_index[src];
    auto* ms = &msg_slot[i];
    net.simulator(net.shard_of(*hosts[src]))
        .schedule_at(at, [ep, key, pri, i, mi, ms, server_host] {
          MessageOptions opts;
          opts.priority = pri;
          opts.src_port = 9002;
          opts.dst_port = 81;
          opts.app = net::AppData{key, "get:" + std::to_string(i)};
          const proto::MsgId mid = ep->send_message(
              server_host->id(), 3'000, std::move(opts),
              [ms](proto::MsgId, SimTime) { ++ms->completed; });
          mi->emplace(mid, i);
        });
  }

  net.run(500_ms);

  OvChaosResult res;
  for (int i = 0; i < kCalls; ++i) {
    if (cb[i] != 1) res.callbacks_exactly_once = false;
  }
  for (const MsgSlot& m : msg_slot) {
    if (m.delivered > 1 || m.completed + m.rejected != 1) {
      res.msgs_exactly_once = false;
    }
    if (m.delivered > 0 && m.rejected > 0) res.reject_and_deliver = true;
    if (m.priority >= 1 && m.rejected > 0) res.protected_rejected = true;
  }
  for (const auto& cl : clients) {
    res.rpc_ok += cl->completed();
    res.rpc_timeout += cl->timed_out();
    res.rpc_rejected += cl->rejected();
  }
  res.served = server.requests_served();
  res.server_shed = server.shed_expired();
  res.cache_sheds = cache->shed_guard().sheds();
  for (const auto& ep : eps) res.msgs_rejected += ep->msgs_rejected();
  for (unsigned sh = 0; sh < net.shards(); ++sh) {
    res.leaked_events += net.simulator(sh).pending_events();
  }
  for (const std::uint64_t v :
       {res.rpc_ok, res.rpc_timeout, res.rpc_rejected, res.served, res.server_shed,
        res.cache_sheds, res.msgs_rejected, eps[3]->busy_rejects_sent(),
        eps[3]->grants_issued()}) {
    digest.add(0, v);
  }
  res.digest = digest.value();
  return res;
}

// Named to match the tsan lane's -R 'Sharded' filter: shard workers fold
// into adjacent slots and exchange packets while TSan watches.
TEST(OverloadChaosSharded, TwelveSeedsSatisfyAllInvariants) {
  std::uint64_t total_cache_sheds = 0;
  std::uint64_t total_rejected = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const OvChaosResult r = run_overload_chaos(seed, /*shards=*/2);
    EXPECT_TRUE(r.callbacks_exactly_once) << "seed " << seed;
    EXPECT_TRUE(r.msgs_exactly_once) << "seed " << seed;
    EXPECT_FALSE(r.reject_and_deliver)
        << "seed " << seed << ": message both rejected and delivered";
    EXPECT_FALSE(r.protected_rejected)
        << "seed " << seed << ": protected-priority message shed";
    EXPECT_EQ(r.rpc_ok + r.rpc_timeout + r.rpc_rejected, 30u) << "seed " << seed;
    EXPECT_EQ(r.leaked_events, 0u) << "seed " << seed;
    total_cache_sheds += r.cache_sheds;
    total_rejected += r.msgs_rejected;
  }
  // The harness must actually exercise the overload paths it guards.
  EXPECT_GT(total_cache_sheds, 0u);
  EXPECT_GT(total_rejected, 0u);
}

TEST(OverloadChaosSharded, DigestsIdenticalAcrossShardCounts) {
  for (const std::uint64_t seed : {1ull, 7ull, 11ull}) {
    const OvChaosResult one = run_overload_chaos(seed, 1);
    for (const unsigned shards : {2u, 4u}) {
      const OvChaosResult r = run_overload_chaos(seed, shards);
      EXPECT_EQ(r.digest, one.digest) << "seed " << seed << " x" << shards;
      EXPECT_EQ(r.rpc_ok, one.rpc_ok) << "seed " << seed << " x" << shards;
      EXPECT_EQ(r.served, one.served) << "seed " << seed << " x" << shards;
      EXPECT_EQ(r.cache_sheds, one.cache_sheds) << "seed " << seed << " x" << shards;
      EXPECT_EQ(r.msgs_rejected, one.msgs_rejected)
          << "seed " << seed << " x" << shards;
    }
  }
}

}  // namespace
}  // namespace mtp
