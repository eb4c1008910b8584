// Bulk blobs over a multipath fabric with packet trimming.
//
// Demonstrates two MTP mechanisms together (paper §3.1.2 + §4/NDP):
//   - blob mode: a 20 MB transfer is cut into single-packet messages that
//     the network may spray freely across parallel paths (inter-message
//     independence means reordering between chunks is harmless);
//   - NDP-style trimming queues: on overload the switch trims payloads
//     instead of dropping, receivers NACK, and senders retransmit in ~1 RTT.
//
//   $ ./examples/multipath_bulk
#include <cstdio>

#include "innetwork/queues.hpp"
#include "mtp/bulk.hpp"
#include "mtp/endpoint.hpp"
#include "net/forwarding.hpp"
#include "net/network.hpp"

using namespace mtp;
using namespace mtp::sim::literals;

int main() {
  net::Network net;
  net::Host* src_host = net.add_host("src");
  net::Host* dst_host = net.add_host("dst");
  net::Switch* fabric = net.add_switch("fabric");

  net.connect(*src_host, *fabric, sim::Bandwidth::gbps(100), 1_us,
              {.capacity_pkts = 512});
  // Four parallel 25G paths with small trimming queues.
  std::vector<innetwork::TrimmingQueue*> queues;
  for (int i = 0; i < 4; ++i) {
    auto q = std::make_unique<innetwork::TrimmingQueue>(
        innetwork::TrimmingQueue::Config{.capacity_pkts = 32});
    queues.push_back(q.get());
    net.connect_simplex(*fabric, *dst_host, sim::Bandwidth::gbps(25),
                        sim::SimTime::microseconds(1 + i), std::move(q));
  }
  net.connect_simplex(*dst_host, *fabric, sim::Bandwidth::gbps(100), 1_us,
                      std::make_unique<net::DropTailQueue>());
  net.build_routes();  // dst: the four paths
  fabric->set_policy(std::make_unique<net::SprayPolicy>());

  core::MtpEndpoint tx(*src_host, {});
  core::MtpEndpoint rx(*dst_host, {});

  int blobs_done = 0;
  core::BulkReceiver receiver(
      rx, 5000,
      [&](net::NodeId, std::uint64_t blob, std::int64_t bytes, sim::SimTime elapsed) {
        ++blobs_done;
        std::printf("[dst] blob %llu reassembled: %lld bytes in %s (%.1f Gb/s)\n",
                    static_cast<unsigned long long>(blob),
                    static_cast<long long>(bytes), elapsed.to_string().c_str(),
                    static_cast<double>(bytes) * 8.0 / elapsed.sec() / 1e9);
      });
  core::BulkSender sender(tx, dst_host->id(), 5000);

  const std::int64_t kBlob = 20'000'000;
  sender.send_blob(kBlob, [&](std::uint64_t blob, sim::SimTime elapsed) {
    std::printf("[src] blob %llu fully acknowledged after %s\n",
                static_cast<unsigned long long>(blob), elapsed.to_string().c_str());
  });

  net.simulator().run();

  std::uint64_t trimmed = 0;
  for (auto* q : queues) trimmed += q->trimmed();
  std::printf("\nblobs completed:      %d\n", blobs_done);
  std::printf("chunks sent:          %llu packets (%llu retransmitted)\n",
              static_cast<unsigned long long>(tx.pkts_sent()),
              static_cast<unsigned long long>(tx.pkts_retransmitted()));
  std::printf("payloads trimmed:     %llu (NACKed and recovered in ~1 RTT)\n",
              static_cast<unsigned long long>(trimmed));
  std::printf("aggregate path rate:  4 x 25G, blob spread across all paths\n");
  return 0;
}
