#include "fault/fault.hpp"

#include <algorithm>

#include "telemetry/trace.hpp"

namespace mtp::fault {

namespace {
using sim::mix64;

std::uint64_t hash_name(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

// Content-derived packet identity for digest folds: built from the headers
// alone, so it is the same whichever shard transmitted the packet.
std::uint64_t packet_identity(const net::Packet& pkt) {
  std::uint64_t h = pkt.flow_hash ^ (std::uint64_t{pkt.size_bytes()} << 1);
  if (pkt.is_mtp()) {
    h ^= mix64((std::uint64_t{pkt.mtp().msg_id} << 20) ^ pkt.mtp().pkt_num);
  }
  return h;
}
}  // namespace

FaultInjector::FaultInjector(sim::Simulator& sim, std::uint64_t seed, std::string name)
    : sim_(sim), seed_(seed), name_(std::move(name)) {
  metrics_ = telemetry::MetricRegistry::global().add(
      "fault", name_, [this](std::vector<telemetry::MetricSample>& out) {
        using telemetry::MetricKind;
        out.push_back({"flaps_scheduled", MetricKind::kCounter,
                       static_cast<double>(flaps_scheduled_)});
        out.push_back({"flaps_executed", MetricKind::kCounter,
                       static_cast<double>(flaps_executed())});
        out.push_back({"crashes", MetricKind::kCounter, static_cast<double>(crashes())});
        out.push_back({"restarts", MetricKind::kCounter, static_cast<double>(restarts())});
        out.push_back({"pkts_dropped", MetricKind::kCounter,
                       static_cast<double>(pkts_dropped())});
        out.push_back({"pkts_corrupted", MetricKind::kCounter,
                       static_cast<double>(pkts_corrupted())});
      });
}

FaultInjector::~FaultInjector() {
  // Detach impairment hooks: the links may outlive this injector and the
  // hooks capture `this`.
  for (auto& [link, st] : impaired_) link->set_fault_hook(nullptr);
}

std::uint64_t FaultInjector::derive_seed() {
  return mix64(seed_ ^ mix64(++streams_));
}

std::size_t FaultInjector::flap_cell(net::Link& link) {
  auto it = flap_cells_.find(&link);
  if (it == flap_cells_.end()) it = flap_cells_.emplace(&link, digest_.new_cell()).first;
  return it->second;
}

void FaultInjector::set_link_state(net::Link& link, std::size_t cell, bool up) {
  flaps_executed_.fetch_add(1, std::memory_order_relaxed);
  digest_.add(cell, static_cast<std::uint64_t>(link.simulator().now().ns()) * 2 + (up ? 1 : 0));
  link.set_up(up);
}

void FaultInjector::flap_link(net::Link& link, sim::SimTime down_at,
                              sim::SimTime down_for) {
  ++flaps_scheduled_;
  digest_.add(kScheduleCell, hash_name(link.name()));
  digest_.add(kScheduleCell, static_cast<std::uint64_t>(down_at.ns()));
  digest_.add(kScheduleCell, static_cast<std::uint64_t>(down_for.ns()));
  net::Link* l = &link;
  const std::size_t cell = flap_cell(link);
  // Flap events run on the link's own simulator: under sim::sharded that is
  // the shard whose worker thread owns the link's queue and stats.
  link.simulator().schedule_at(down_at, [this, l, cell] { set_link_state(*l, cell, false); });
  link.simulator().schedule_at(down_at + down_for,
                               [this, l, cell] { set_link_state(*l, cell, true); });
}

void FaultInjector::random_flaps(net::Link& link, sim::SimTime start,
                                 sim::SimTime horizon, sim::SimTime mean_up,
                                 sim::SimTime mean_down) {
  // Pre-generate the whole alternating schedule now, from a stream derived
  // for this call: bounded, deterministic by call order, and independent of
  // anything that happens while the simulation runs.
  sim::Rng rng(derive_seed());
  sim::SimTime t = start + rng.exponential_time(mean_up);
  while (t < horizon) {
    sim::SimTime down = std::max(sim::SimTime::microseconds(1),
                                 rng.exponential_time(mean_down));
    // Guarantee the link is back up at or before the horizon so traffic in
    // flight at the end of the fault window can complete.
    if (t + down > horizon) down = horizon - t;
    if (down <= sim::SimTime::zero()) break;
    flap_link(link, t, down);
    t = t + down + rng.exponential_time(mean_up);
  }
}

void FaultInjector::impair_link(net::Link& link, GilbertElliott::Config model) {
  auto st = std::make_unique<Impairment>(model, derive_seed(), digest_.new_cell());
  Impairment* s = st.get();
  impaired_[&link] = std::move(st);
  link.set_fault_hook([this, s](const net::Packet& pkt) {
    const net::FaultAction action = s->chain.step(s->rng);
    if (action != net::FaultAction::kNone) {
      digest_.add(s->cell, packet_identity(pkt) * 4 + static_cast<std::uint64_t>(action));
      if (action == net::FaultAction::kDrop) {
        pkts_dropped_.fetch_add(1, std::memory_order_relaxed);
      } else {
        pkts_corrupted_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    return action;
  });
}

void FaultInjector::clear_impairment(net::Link& link) {
  link.set_fault_hook(nullptr);
  impaired_.erase(&link);
}

void FaultInjector::crash_device(std::string name, sim::SimTime at,
                                 sim::SimTime down_for, std::function<void()> crash_fn,
                                 std::function<void()> restart_fn) {
  crash_device(sim_, std::move(name), at, down_for, std::move(crash_fn),
               std::move(restart_fn));
}

void FaultInjector::crash_device(sim::Simulator& on, std::string name, sim::SimTime at,
                                 sim::SimTime down_for, std::function<void()> crash_fn,
                                 std::function<void()> restart_fn) {
  digest_.add(kScheduleCell, hash_name(name));
  digest_.add(kScheduleCell, static_cast<std::uint64_t>(at.ns()));
  digest_.add(kScheduleCell, static_cast<std::uint64_t>(down_for.ns()));
  const std::size_t cell = digest_.new_cell();
  sim::Simulator* s = &on;
  auto trace_crash = [s](const std::string& who, bool restart) {
    if (!telemetry::TraceSink::enabled()) return;
    telemetry::TraceEvent ev;
    ev.t = s->now();
    ev.type = telemetry::TraceEventType::kCrash;
    ev.component = who;
    ev.value = restart ? 1 : 0;
    telemetry::trace().record(ev);
  };
  on.schedule_at(at, [this, s, cell, name, crash_fn = std::move(crash_fn), trace_crash] {
    crashes_.fetch_add(1, std::memory_order_relaxed);
    digest_.add(cell, static_cast<std::uint64_t>(s->now().ns()));
    trace_crash(name, /*restart=*/false);
    if (crash_fn) crash_fn();
  });
  on.schedule_at(at + down_for,
                 [this, s, cell, name, restart_fn = std::move(restart_fn), trace_crash] {
                   restarts_.fetch_add(1, std::memory_order_relaxed);
                   digest_.add(cell, static_cast<std::uint64_t>(s->now().ns()) | 1);
                   trace_crash(name, /*restart=*/true);
                   if (restart_fn) restart_fn();
                 });
}

}  // namespace mtp::fault
