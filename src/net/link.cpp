#include "net/link.hpp"

#include <cassert>

#include "net/drop.hpp"

namespace mtp::net {

namespace {
// Budget guard promised by sim/task.hpp: a delivery-style closure capturing a
// whole Packet by value (plus a timestamp) must run from Task's inline
// buffer. The Link's own hot path captures only `this`, but protocol and
// device code is free to capture packets — growing Packet past the budget
// must be a compile error here, not a silent heap-per-event perf cliff.
struct PacketClosureProbe {
  Packet pkt;
  sim::SimTime deadline;
  void operator()() {}
};
static_assert(sim::Task::fits_inline<PacketClosureProbe>(),
              "net::Packet no longer fits sim::Task's inline buffer; "
              "grow sim::Task::kInlineBytes or shrink Packet");
// The size the docs quote (docs/perf.md, docs/scale.md, sim/task.hpp). A
// layout change must update them along with this line.
static_assert(sizeof(Packet) == 144, "net::Packet changed size; update the docs");
}  // namespace

Link::~Link() {
  // Return every held slot: the pool may be shared and outlive this link.
  // A lazy link's serializing packet is already in an in-flight cell.
  if (tx_ != kNoPacket && !lazy_) (void)pool_.take(tx_);
  while (!in_flight_.empty()) (void)pool_.take(in_flight_.pop_front().pkt);
}

void Link::register_metrics() {
  using telemetry::MetricKind;
  auto& registry = telemetry::MetricRegistry::global();
  link_metrics_ = registry.add("link", name_, [this](std::vector<telemetry::MetricSample>& out) {
    settle();
    out.push_back({"pkts_delivered", MetricKind::kCounter,
                   static_cast<double>(stats_.pkts_delivered)});
    out.push_back({"bytes_delivered", MetricKind::kCounter,
                   static_cast<double>(stats_.bytes_delivered)});
    out.push_back({"pkts_dropped_down", MetricKind::kCounter,
                   static_cast<double>(stats_.pkts_dropped_down)});
    out.push_back({"pkts_dropped_fault", MetricKind::kCounter,
                   static_cast<double>(stats_.pkts_dropped_fault)});
    out.push_back({"pkts_corrupted", MetricKind::kCounter,
                   static_cast<double>(stats_.pkts_corrupted)});
    out.push_back({"flaps", MetricKind::kCounter,
                   static_cast<double>(stats_.flaps)});
    out.push_back({"backlog_bytes", MetricKind::kGauge,
                   static_cast<double>(backlog_bytes())});
    out.push_back({"up", MetricKind::kGauge, up_ ? 1.0 : 0.0});
    out.push_back({"fluid_reserved_bps", MetricKind::kGauge,
                   static_cast<double>(fluid_reserved_bps_)});
  });
  queue_metrics_ = registry.add("queue", name_, [this](std::vector<telemetry::MetricSample>& out) {
    settle();
    queue_->append_metrics(out);
  });
}

telemetry::TraceEvent packet_trace_event(sim::SimTime t, telemetry::TraceEventType type,
                                         const std::string& component, const Packet& pkt) {
  telemetry::TraceEvent ev;
  ev.t = t;
  ev.type = type;
  ev.component = component;
  ev.src = pkt.src;
  ev.dst = pkt.dst;
  ev.bytes = pkt.size_bytes();
  ev.tc = pkt.tc;
  ev.flow = pkt.flow_hash;
  if (pkt.is_mtp()) {
    ev.msg_id = pkt.mtp().msg_id;
    ev.pkt_num = pkt.mtp().pkt_num;
  }
  return ev;
}

void Link::set_pathlet(PathletConfig cfg) {
  pathlet_.emplace(cfg, bandwidth_);
  if (cfg.feedback == proto::FeedbackType::kRate) {
    rcp_task_ = std::make_unique<sim::PeriodicTask>(sim_, PathletState::kRcpPeriod, [this] {
      settle();
      pathlet_->periodic_update(queue_->len_bytes());
    });
    rcp_task_->start();
  }
}

void Link::set_up(bool up) {
  if (up == up_) return;
  settle();
  up_ = up;
  if (telemetry::TraceSink::enabled()) {
    telemetry::TraceEvent ev;
    ev.t = sim_.now();
    ev.type = telemetry::TraceEventType::kLinkFlap;
    ev.component = name_;
    ev.value = up_ ? 1 : 0;
    telemetry::trace().record(ev);
  }
  if (!up_) {
    ++stats_.flaps;
    // Discard queued packets on the flap.
    while (const std::optional<Packet> pkt = queue_->dequeue()) {
      drop(stats_.pkts_dropped_down, DropReason::kLinkDown, sim_.now(), name_, *pkt);
    }
  } else {
    try_transmit(sim_.now());
  }
}

void Link::send(Packet&& pkt) {
  assert(dst_ != nullptr && "Link::connect_to must be called before send");
  settle();
  if (!up_) {
    drop(stats_.pkts_dropped_down, DropReason::kLinkDown, sim_.now(), name_, pkt);
    return;
  }
  // NIC checksum offload: the first link a packet crosses stamps the payload
  // fingerprint, so every sender (MTP, TCP, UDP, in-network devices) is
  // covered without per-stack stamping code.
  if (pkt.payload_fingerprint == 0) pkt.stamp_fingerprint();
  if (fault_hook_) {
    switch (fault_hook_(pkt)) {
      case FaultAction::kNone:
        break;
      case FaultAction::kDrop:
        drop(stats_.pkts_dropped_fault, DropReason::kFault, sim_.now(), name_, pkt);
        return;
      case FaultAction::kCorrupt:
        pkt.corrupt();
        ++stats_.pkts_corrupted;
        if (telemetry::TraceSink::enabled()) {
          telemetry::trace().record(
              packet_trace_event(sim_.now(), telemetry::TraceEventType::kCorrupt, name_, pkt));
        }
        break;
    }
  }
  // Per-hop scratch: when the packet was queued here, and whether it arrived
  // already CE-marked (so this pathlet is not blamed for upstream marks).
  pkt.hop_enqueued_at = sim_.now();
  pkt.hop_was_ce = pkt.ecn == Ecn::kCe;
  if (pathlet_) pathlet_->on_arrival(pkt.size_bytes());
  if (telemetry::TraceSink::enabled()) {
    // An accepted packet moves into the queue, so snapshot its event now and
    // tell a mark from the queue's ecn_marked delta afterwards. A rejected
    // packet stays in `pkt`; the queue counted the drop, the link traces it.
    telemetry::TraceEvent ev =
        packet_trace_event(sim_.now(), telemetry::TraceEventType::kEnqueue, name_, pkt);
    const std::uint64_t marked = queue_->stats().ecn_marked;
    if (!queue_->enqueue(std::move(pkt))) {
      drop(DropReason::kQueueFull, sim_.now(), name_, pkt);
      return;
    }
    if (queue_->stats().ecn_marked > marked) {
      telemetry::TraceEvent mark = ev;
      mark.type = telemetry::TraceEventType::kEcnMark;
      telemetry::trace().record(mark);
    }
    telemetry::trace().record(ev);
  } else if (!queue_->enqueue(std::move(pkt))) {
    return;
  }
  try_transmit(sim_.now());
}

void Link::stamp(Packet& pkt, sim::SimTime queue_delay) {
  if (!pathlet_ || !pkt.is_mtp()) return;
  auto& hdr = pkt.mtp();
  if (hdr.is_ack()) return;  // feedback is collected on the data path only
  const bool marked_here = pkt.ecn == Ecn::kCe && !pkt.hop_was_ce;
  if (!pathlet_->should_stamp(marked_here, queue_delay)) return;
  hdr.path_feedback().push_back(
      {pathlet_->config().id, hdr.tc, pathlet_->make_feedback(marked_here, queue_delay)});
}

void Link::try_transmit(sim::SimTime t) {
  if (tx_ != kNoPacket) return;
  // The packet stays in its pool slot; only the handle leaves the queue.
  tx_ = queue_->dequeue_handle();
  if (tx_ == kNoPacket) return;
  const Packet& pkt = pool_[tx_];
  if (telemetry::TraceSink::enabled()) {
    telemetry::trace().record(
        packet_trace_event(t, telemetry::TraceEventType::kDequeue, name_, pkt));
  }
  // Queueing delay (excluding this packet's own serialization time).
  tx_qdelay_ = t - pkt.hop_enqueued_at;
  const std::uint32_t size = pkt.size_bytes();
  in_flight_bytes_ += size;
  // Serialization runs at the residual rate: line rate minus whatever the
  // fluid flow model has reserved on this link (bandwidth_ itself when no
  // reservation is active — the common case costs one load and a compare).
  tx_end_ = t + residual_bandwidth().serialization_delay(size);
  if (lazy_) {
    // On the wire now; the end is settled when someone next looks.
    push_in_flight(tx_end_ + delay_, tx_);
  } else {
    sim_.schedule_keyed_at(tx_end_, finish_key(), [this] { finish_tx(); });
  }
}

// Serialization finished: the wire has the whole packet. Exactly one
// serialization runs at a time, and its packet is tx_.
void Link::finish_tx() {
  const sim::SimTime t = tx_end_;
  const PacketHandle h = tx_;
  tx_ = kNoPacket;
  Packet& pkt = pool_[h];
  in_flight_bytes_ -= pkt.size_bytes();
  stamp(pkt, tx_qdelay_);
  stats_.pkts_delivered++;
  stats_.bytes_delivered += pkt.size_bytes();
  if (telemetry::TraceSink::enabled()) {
    telemetry::trace().record(
        packet_trace_event(t, telemetry::TraceEventType::kTx, name_, pkt));
  }
  // Keyed delivery (key = link uid + tx counter): deliveries at equal
  // timestamps execute in link-uid order on every engine, which is what
  // keeps serial and sharded runs bit-identical — FIFO tie-breaking would
  // encode cross-shard scheduling history into the timeline. Per-link
  // deliveries are FIFO in time: serialization ends are strictly ordered
  // onto a fixed propagation delay. A lazy link pushed its cell at the start.
  if (!lazy_) {
    const sim::SimTime deliver_at = t + delay_;
    if (remote_sink_) {
      // Cross-shard hop: the packet leaves this shard's pool and the
      // receiving shard schedules the delivery, one event per packet.
      // Sender-side accounting (stats, kTx) is already done above.
      remote_sink_(pool_.take(h), deliver_at, delivery_key(next_tx_seq()));
    } else {
      push_in_flight(deliver_at, h);
    }
  }
  try_transmit(t);
}

void Link::deliver_front() {
  settle();  // the front packet's end, at least, has happened
  const InFlight f = in_flight_.pop_front();
  Packet& pkt = pool_[f.pkt];
  if (telemetry::TraceSink::enabled()) {
    telemetry::trace().record(
        packet_trace_event(sim_.now(), telemetry::TraceEventType::kRx, name_, pkt));
  }
  // Arm the next propagating packet's delivery at its own time and key
  // before receive(), so a receiver that re-enters this link (e.g. a
  // loopback forward) sees a consistent ring.
  if (!in_flight_.empty()) arm_delivery(in_flight_.front());
  // The receiver moves the packet straight out of its slot (into the next
  // hop's slot, or its own storage); the slot is released only afterwards,
  // so nothing the receiver sends can be handed this slot mid-move. A
  // receiver that consumes a packet in place (an ACK's SACK lists, say)
  // leaves its heap blocks in the slot: free them now, not at the slot's
  // reuse.
  dst_->receive(std::move(pkt), dst_in_port_);
  pkt.header = std::monostate{};
  pkt.app.reset();
  pool_.release(f.pkt);
}

}  // namespace mtp::net
