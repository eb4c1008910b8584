#include "net/drop.hpp"

#include "net/link.hpp"  // packet_trace_event

namespace mtp::net {

void drop(std::uint64_t& counter, DropReason reason, sim::SimTime now,
          const std::string& component, const Packet& pkt) {
  ++counter;
  drop(reason, now, component, pkt);
}

void drop(DropReason reason, sim::SimTime now, const std::string& component, const Packet& pkt) {
  if (!telemetry::TraceSink::enabled()) return;
  auto ev = packet_trace_event(now, telemetry::TraceEventType::kDrop, component, pkt);
  ev.value = static_cast<std::uint64_t>(reason);
  telemetry::trace().record(std::move(ev));
}

}  // namespace mtp::net
