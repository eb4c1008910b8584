// The paper's Figure 1, end to end: a dynamic-website cluster where
// in-network computing accelerates document lookups.
//
//   clients --- ToR switch --- [ (1) in-network cache            ]
//                              [ (2a) L7 load balancer           ] --- 3 storage replicas
//                              [ (3a) ECN pathlet feedback       ]
//
// Clients issue GET RPCs against a *virtual service address*. At the ToR:
//   (1)  hot keys are answered by the in-network cache — the backends never
//        see them;
//   (2a) misses are load-balanced per request across three storage replicas
//        (whole messages, never packets — inter-message independence);
//   (3a) the replica links carry ECN pathlets, so client congestion windows
//        are per-resource.
// The printout shows the cache absorbing the hot set at switch latency while
// misses spread evenly across the replicas.
//
//   $ ./examples/fig1_full_stack
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "innetwork/kvs_cache.hpp"
#include "innetwork/l7_lb.hpp"
#include "mtp/rpc.hpp"
#include "net/network.hpp"
#include "stats/stats.hpp"

using namespace mtp;
using namespace mtp::sim::literals;

int main() {
  net::Network net(4242);
  net::Host* client_host = net.add_host("client");
  net::Switch* tor = net.add_switch("tor");
  std::vector<net::Host*> replicas;
  net.connect(*client_host, *tor, sim::Bandwidth::gbps(100), 1_us,
              {.capacity_pkts = 256, .ecn_threshold_pkts = 40});
  std::vector<net::Link*> replica_links;
  for (int i = 0; i < 3; ++i) {
    net::Host* r = net.add_host("replica" + std::to_string(i));
    replicas.push_back(r);
    auto d = net.connect(*tor, *r, sim::Bandwidth::gbps(100), 5_us,
                         {.capacity_pkts = 256, .ecn_threshold_pkts = 40});
    replica_links.push_back(d.forward);
    // (3a) each replica link is its own pathlet with ECN feedback.
    d.forward->set_pathlet({.id = static_cast<proto::PathletId>(10 + i),
                            .feedback = proto::FeedbackType::kEcn});
  }
  net.build_routes();

  // (1) the cache fronts the *virtual service address*. Ingress processors
  // run in registration order, so the cache is added first: it must see
  // requests before the balancer rewrites their destination.
  const net::NodeId kService = 9999;
  auto cache = std::make_shared<innetwork::KvsCache>(
      *tor, innetwork::KvsCache::Config{.backend = kService,
                                        .service_port = 80,
                                        .capacity_entries = 8,
                                        .learn_from_responses = false});
  tor->add_ingress(cache);

  // (2a) L7 balancer behind the cache: misses get spread across replicas.
  auto lb = std::make_shared<innetwork::L7LoadBalancer>(
      innetwork::L7LoadBalancer::Config{.virtual_service = kService,
                                        .service_port = 80,
                                        .replicas = {replicas[0]->id(),
                                                     replicas[1]->id(),
                                                     replicas[2]->id()}});
  tor->add_ingress(lb);
  // Preload the hot set.
  for (int k = 0; k < 4; ++k) {
    cache->put("doc:" + std::to_string(k), "cached-doc", 8'000);
  }

  // Replicas: identical RPC servers answering 8KB documents.
  core::MtpEndpoint client_ep(*client_host, {});
  std::vector<std::unique_ptr<core::MtpEndpoint>> replica_eps;
  std::vector<std::unique_ptr<core::RpcServer>> servers;
  std::array<int, 3> served{};
  for (int i = 0; i < 3; ++i) {
    replica_eps.push_back(std::make_unique<core::MtpEndpoint>(*replicas[i], core::MtpConfig{}));
    servers.push_back(std::make_unique<core::RpcServer>(*replica_eps[i], 80));
    servers[static_cast<std::size_t>(i)]->handle(
        "", [i, &served](const std::string&, std::int64_t, net::NodeId) {
          ++served[static_cast<std::size_t>(i)];
          return core::RpcServer::Response{8'000, "doc-from-replica"};
        });
  }

  // Client: 400 GETs; hot keys doc:0..3 (60%), cold keys doc:4..63 (40%).
  core::RpcClient rpc(client_ep, {.reply_port = 9000, .timeout = 50_ms});
  stats::FctRecorder hot_lat, cold_lat;
  int cache_answers = 0, replica_answers = 0, failures = 0;
  sim::Rng rng(7);
  int issued = 0;
  std::function<void()> issue = [&] {
    if (issued >= 400) return;
    ++issued;
    const bool hot = rng.bernoulli(0.6);
    const int k = hot ? static_cast<int>(rng.uniform_int(0, 3))
                      : static_cast<int>(rng.uniform_int(4, 63));
    rpc.call(kService, 80, "doc:" + std::to_string(k), 200,
             [&, hot](const core::RpcReply& rep) {
               if (!rep.ok) {
                 ++failures;
                 return;
               }
               (rep.responder == tor->id() ? cache_answers : replica_answers)++;
               (hot ? hot_lat : cold_lat).record(rep.latency, rep.bytes);
             });
    net.simulator().schedule(5_us, issue);
  };
  issue();
  net.simulator().run(200_ms);

  std::printf("=== Figure 1 full stack: cache + L7 LB + pathlet feedback ===\n\n");
  std::printf("requests issued:        %d (failures: %d)\n", issued, failures);
  std::printf("answered by the switch: %d (cache hits: %llu)\n", cache_answers,
              static_cast<unsigned long long>(cache->hits()));
  std::printf("answered by replicas:   %d  [r0=%d r1=%d r2=%d]\n", replica_answers,
              served[0], served[1], served[2]);
  if (hot_lat.count() > 0 && cold_lat.count() > 0) {
    std::printf("\nhot-key GET latency:  p50 %6.1f us   p99 %6.1f us (mostly in-network)\n",
                hot_lat.p50_us(), hot_lat.p99_us());
    std::printf("cold-key GET latency: p50 %6.1f us   p99 %6.1f us (replica round trip)\n",
                cold_lat.p50_us(), cold_lat.p99_us());
  }
  std::printf("\npathlet windows learned by the client:\n");
  for (int i = 0; i < 3; ++i) {
    if (const auto* cc = client_ep.pathlet_cc(static_cast<proto::PathletId>(10 + i), 0)) {
      std::printf("  replica link %d: algorithm=%s window=%lld B\n", i,
                  cc->name().c_str(), static_cast<long long>(cc->window_bytes()));
    }
  }
  return 0;
}
