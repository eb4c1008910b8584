// Quickstart: the smallest end-to-end MTP program.
//
// Builds a two-host network, sends independent messages (no connection
// setup), and prints completion times and pathlet state. Start here.
//
//   $ ./examples/quickstart
#include <cstdio>

#include "mtp/endpoint.hpp"
#include "net/network.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

using namespace mtp;
using namespace mtp::sim::literals;

int main() {
  // 0. Turn on packet-event tracing (off by default; zero cost when off).
  telemetry::TraceSink::set_enabled(true);
  // 1. A network: two hosts joined by a switch; 100 Gb/s links, 1 us delay.
  net::Network net;
  net::Host* alice = net.add_host("alice");
  net::Host* bob = net.add_host("bob");
  net::Switch* sw = net.add_switch("tor");
  auto up = net.connect(*alice, *sw, sim::Bandwidth::gbps(100), 1_us,
                        {.capacity_pkts = 128, .ecn_threshold_pkts = 20});
  net.connect(*sw, *bob, sim::Bandwidth::gbps(100), 1_us,
              {.capacity_pkts = 128, .ecn_threshold_pkts = 20});
  net.build_routes();

  // Give the uplink a pathlet so the endpoints learn per-resource
  // congestion state (DCTCP-style ECN feedback here).
  up.forward->set_pathlet({.id = 1, .feedback = proto::FeedbackType::kEcn});

  // 2. MTP endpoints. No listen/accept handshake: messages just arrive.
  core::MtpEndpoint tx(*alice, {});
  core::MtpEndpoint rx(*bob, {});
  rx.listen(80, [&](const core::ReceivedMessage& m) {
    std::printf("[bob]   got message %llu: %lld bytes (priority %u, from port %u)\n",
                static_cast<unsigned long long>(m.msg_id),
                static_cast<long long>(m.bytes), m.priority, m.src_port);
  });

  // 3. Send three independent messages, one of them high priority.
  for (int i = 0; i < 3; ++i) {
    core::MessageOptions opts;
    opts.dst_port = 80;
    opts.priority = (i == 2) ? 7 : 0;  // the last one jumps the queue
    tx.send_message(bob->id(), 500'000, std::move(opts),
                    [i](proto::MsgId id, sim::SimTime fct) {
                      std::printf("[alice] message %llu (#%d) delivered in %s\n",
                                  static_cast<unsigned long long>(id), i,
                                  fct.to_string().c_str());
                    });
  }

  // 4. Run to quiescence.
  net.simulator().run();

  std::printf("\nsimulated time: %s, packets sent: %llu (%llu retransmitted)\n",
              net.simulator().now().to_string().c_str(),
              static_cast<unsigned long long>(tx.pkts_sent()),
              static_cast<unsigned long long>(tx.pkts_retransmitted()));
  const auto path = tx.current_path(bob->id());
  std::printf("learned path to bob: %zu pathlet(s)", path.size());
  for (auto p : path) std::printf(" #%u", p);
  if (const auto* cc = tx.pathlet_cc(1, 0)) {
    std::printf("; pathlet 1 runs '%s', window %lld bytes\n", cc->name().c_str(),
                static_cast<long long>(cc->window_bytes()));
  } else {
    std::printf("\n");
  }

  // 5. Telemetry: every component registered itself in the global metric
  // registry; read one metric and dump the first few trace events as JSONL.
  const telemetry::RegistrySnapshot snap = telemetry::MetricRegistry::global().snapshot();
  if (const auto v = snap.value("link", "alice->tor", "pkts_delivered")) {
    std::printf("registry: link alice->tor delivered %.0f packets\n", *v);
  }
  std::printf("registry: %.0f acks across all MTP endpoints\n",
              snap.total("mtp", "acks_sent"));

  const auto& sink = telemetry::trace();
  std::printf("\ntrace: %zu events recorded (first 5 as JSONL):\n", sink.size());
  const auto events = sink.events();
  for (std::size_t i = 0; i < events.size() && i < 5; ++i) {
    std::printf("  %s\n", telemetry::to_json(events[i]).c_str());
  }
  return 0;
}
