#include "net/queue.hpp"

#include <stdexcept>

#include "telemetry/metrics.hpp"

namespace mtp::net {

void Queue::bind_pool(PacketPool& pool) {
  if (!empty()) throw std::logic_error("Queue::bind_pool: queue holds packets");
  pool_ = &pool;
  own_pool_.reset();
}

PacketPool& Queue::make_private_pool() {
  own_pool_ = std::make_unique<PacketPool>();
  pool_ = own_pool_.get();
  return *pool_;
}

void Queue::append_metrics(std::vector<telemetry::MetricSample>& out) const {
  using telemetry::MetricKind;
  out.push_back({"enqueued", MetricKind::kCounter, static_cast<double>(stats_.enqueued)});
  out.push_back({"dequeued", MetricKind::kCounter, static_cast<double>(stats_.dequeued)});
  out.push_back({"dropped", MetricKind::kCounter, static_cast<double>(stats_.dropped())});
  out.push_back({"ecn_marked", MetricKind::kCounter, static_cast<double>(stats_.ecn_marked)});
  out.push_back({"bytes_dropped", MetricKind::kCounter,
                 static_cast<double>(stats_.bytes_dropped)});
  out.push_back({"tail_dropped", MetricKind::kCounter,
                 static_cast<double>(stats_.tail_dropped)});
  out.push_back({"policer_dropped", MetricKind::kCounter,
                 static_cast<double>(stats_.policer_dropped)});
  out.push_back({"len_pkts", MetricKind::kGauge, static_cast<double>(len_pkts())});
  out.push_back({"len_bytes", MetricKind::kGauge, static_cast<double>(len_bytes())});
}

}  // namespace mtp::net
