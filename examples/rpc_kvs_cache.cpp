// In-network KVS cache (the paper's Figure 1 motivating scenario).
//
// A client issues GET requests (independent MTP messages carrying the key in
// AppData) to a storage backend through a ToR switch. The switch hosts a
// NetCache-style cache: hot keys are answered directly by the switch —
// the backend never sees them — while cold keys pass through and are learned
// from the backend's responses.
//
// The example prints per-key latencies showing the cache cutting the RTT and
// offloading the backend, with a Zipf-ish skewed key popularity.
//
//   $ ./examples/rpc_kvs_cache
#include <cstdio>
#include <string>

#include "innetwork/kvs_cache.hpp"
#include "mtp/endpoint.hpp"
#include "net/network.hpp"
#include "sim/random.hpp"
#include "stats/stats.hpp"

using namespace mtp;
using namespace mtp::sim::literals;

int main() {
  net::Network net(2026);
  net::Host* client = net.add_host("client");
  net::Host* backend = net.add_host("backend");
  net::Switch* tor = net.add_switch("tor");
  // The backend is intentionally far away (50 us): cache hits pay only the
  // 2 us client<->switch hop.
  net.connect(*client, *tor, sim::Bandwidth::gbps(100), 1_us);
  net.connect(*tor, *backend, sim::Bandwidth::gbps(100), 50_us);
  net.build_routes();

  auto cache = std::make_shared<innetwork::KvsCache>(
      *tor, innetwork::KvsCache::Config{.backend = backend->id(),
                                        .service_port = 80,
                                        .capacity_entries = 64});
  tor->add_ingress(cache);

  core::MtpEndpoint c(*client, {});
  core::MtpEndpoint b(*backend, {});

  // Backend: answers GETs with an 8 KB value after 5 us of "storage work".
  b.listen(80, [&](const core::ReceivedMessage& req) {
    net.simulator().schedule(5_us, [&, req] {
      core::MessageOptions opts;
      opts.dst_port = req.src_port;
      opts.app = net::AppData{req.app ? req.app->key : "?", "backend-value"};
      b.send_message(req.src, 8'192, std::move(opts));
    });
  });

  // Client: issues 200 GETs over a skewed popularity distribution
  // (16 keys; key k chosen with probability ~ 1/(k+1)).
  stats::FctRecorder cache_lat, backend_lat;
  int outstanding = 0, issued = 0;
  sim::Rng rng(99);
  std::unordered_map<std::string, sim::SimTime> sent_at;

  c.listen(9000, [&](const core::ReceivedMessage& reply) {
    const std::string& key = reply.app ? reply.app->key : "?";
    const sim::SimTime lat = net.simulator().now() - sent_at[key];
    if (reply.src == tor->id()) {
      cache_lat.record(lat, reply.bytes);
    } else {
      backend_lat.record(lat, reply.bytes);
    }
    --outstanding;
  });

  std::function<void()> issue = [&] {
    if (issued >= 200) return;
    ++issued;
    ++outstanding;
    // Skewed key choice: repeatedly halve the range.
    int k = 0;
    while (k < 15 && rng.bernoulli(0.5)) ++k;
    const std::string key = "user:" + std::to_string(k);
    sent_at[key] = net.simulator().now();
    core::MessageOptions opts;
    opts.src_port = 9000;
    opts.dst_port = 80;
    opts.app = net::AppData{key, ""};
    c.send_message(backend->id(), 128, std::move(opts));
    net.simulator().schedule(2_us, issue);
  };
  issue();

  net.simulator().run();

  std::printf("=== in-network KVS cache ===\n");
  std::printf("requests issued:       %d\n", issued);
  std::printf("cache hits:            %llu (answered by the switch)\n",
              static_cast<unsigned long long>(cache->hits()));
  std::printf("cache misses:          %llu (served by the backend, then learned)\n",
              static_cast<unsigned long long>(cache->misses()));
  std::printf("cached entries:        %zu\n", cache->entries());
  if (cache_lat.count() > 0 && backend_lat.count() > 0) {
    std::printf("\nGET latency, cache hit:    p50 %.1f us   p99 %.1f us\n",
                cache_lat.p50_us(), cache_lat.p99_us());
    std::printf("GET latency, backend path: p50 %.1f us   p99 %.1f us\n",
                backend_lat.p50_us(), backend_lat.p99_us());
    std::printf("\nhit/miss latency ratio: %.1fx faster from the cache\n",
                backend_lat.p50_us() / cache_lat.p50_us());
  }
  return 0;
}
