// Unidirectional link: egress queue + serializer + propagation delay.
//
// A duplex cable is modelled as two Links. The link owns its egress queue;
// the sending node calls send(), the link transmits packets back-to-back at
// line rate and delivers each to the peer node after the propagation delay.
//
// If the link carries a pathlet (set_pathlet), departing MTP data packets
// get a (Path ID, TC, Feedback) TLV appended — see net/pathlet.hpp.
//
// Lazy departures. On a FIFO link a packet's serialization start and end are
// fixed once its predecessor's end is known, so an end-of-serialization event
// would carry no information. When such a link starts a packet it computes
// the end, puts the packet on the wire (its in-flight cell) at once, and
// schedules nothing more: one heap event per hop, the delivery. An end is
// *settled* — stamp, stats, kTx, and the start of the next queued packet at
// that end's time — by whatever next reads or writes the link, its queue or
// its pathlet, at the rank the end's event would have had (a serialization
// end ranks after every other keyed event at its timestamp and before every
// FIFO one; sim/simulator.hpp). A link keeps one finish event per packet
// when its queue is not FIFO, when its propagation delay is zero (the
// delivery would rank before the end), or when it hands packets to another
// shard (the handoff must happen at the end).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "net/node.hpp"
#include "net/packet.hpp"
#include "net/pathlet.hpp"
#include "net/queue.hpp"
#include "sim/ring.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace mtp::net {

struct LinkStats {
  std::uint64_t pkts_delivered = 0;
  std::uint64_t bytes_delivered = 0;
  std::uint64_t pkts_dropped_down = 0;   ///< sends attempted while the link was down
                                         ///< plus queued packets discarded on a flap
  std::uint64_t pkts_dropped_fault = 0;  ///< dropped by the injected fault hook
  std::uint64_t pkts_corrupted = 0;      ///< payload-damaged by the fault hook
  std::uint64_t flaps = 0;               ///< down transitions seen by set_up()
};

/// The trace event for `pkt` at `t`, emitted by `component` (a link or node
/// name). It reads only its arguments, so a receiving shard's worker thread
/// may build one for a remote delivery.
telemetry::TraceEvent packet_trace_event(sim::SimTime t, telemetry::TraceEventType type,
                                         const std::string& component, const Packet& pkt);

/// What an injected per-packet fault does to a packet entering the link.
enum class FaultAction : std::uint8_t { kNone, kDrop, kCorrupt };

class Link {
 public:
  /// Packets wait in `pool` (Network passes its shard's pool) from send()
  /// until delivery; the link binds `queue` to it. Without a pool the link
  /// makes a private one. A shared pool must outlive the link.
  Link(sim::Simulator& simulator, std::string name, sim::Bandwidth bandwidth,
       sim::SimTime propagation_delay, std::unique_ptr<Queue> queue,
       PacketPool* pool = nullptr)
      : sim_(simulator),
        uid_(simulator.next_link_uid()),
        name_(std::move(name)),
        bandwidth_(bandwidth),
        delay_(propagation_delay),
        own_pool_(pool == nullptr ? std::make_unique<PacketPool>() : nullptr),
        pool_(pool == nullptr ? *own_pool_ : *pool),
        queue_(std::move(queue)) {
    queue_->bind_pool(pool_);
    lazy_ = lazy_capable();
    register_metrics();
  }
  ~Link();

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Wire the receiving end. Must be called before the first send().
  void connect_to(Node& dst, PortIndex dst_in_port) {
    dst_ = &dst;
    dst_in_port_ = dst_in_port;
  }

  /// Attach a pathlet to this link. Starts the RCP control loop if the
  /// pathlet's feedback type is kRate.
  void set_pathlet(PathletConfig cfg);

  /// Hand a packet to the link for transmission. May drop (queue policy).
  void send(Packet&& pkt);

  const std::string& name() const { return name_; }
  /// The simulator this link's events run on — the *sender's* shard under
  /// sim::sharded. Fault machinery uses this to schedule flaps on the shard
  /// that owns the link.
  sim::Simulator& simulator() const { return sim_; }
  sim::Bandwidth bandwidth() const { return bandwidth_; }
  sim::SimTime propagation_delay() const { return delay_; }
  Queue& queue() {
    settle();
    return *queue_;
  }
  const Queue& queue() const {
    settle();
    return *queue_;
  }
  const LinkStats& stats() const {
    settle();
    return stats_;
  }
  const PathletState* pathlet() const { return pathlet_ ? &*pathlet_ : nullptr; }
  Node* peer() const { return dst_; }

  /// Bytes currently committed to this link: in-queue plus in-serialization.
  /// Used by load-aware forwarding policies.
  std::int64_t backlog_bytes() const {
    settle();
    return queue_->len_bytes() + in_flight_bytes_;
  }

  /// Packets this link holds in its pool: queued, serializing, or
  /// propagating to a same-shard peer. A cross-shard packet leaves the pool
  /// when its serialization ends. A lazy link's serializing packet already
  /// has its in-flight cell.
  std::size_t held_packets() const {
    settle();
    return queue_->len_pkts() + (tx_ != kNoPacket && !lazy_ ? 1 : 0) + in_flight_.size();
  }

  /// Capacity reservation (sim::flow fluid bulk transfers). The reserved
  /// rate is bandwidth a fluid flow is currently "transmitting" at; packet
  /// traffic serializes into the residual, so a bulk rate process inflates
  /// packet serialization delay exactly as competing bulk packets would,
  /// without one event per bulk packet. Clamped so packets always keep at
  /// least 1% of line rate (a reservation must slow packets, not wedge
  /// them). Only the shard that owns the link may call this (the fluid
  /// model installs its apply hook on the owning replica only).
  void set_fluid_reserved(std::int64_t bps) {
    settle();
    const std::int64_t cap = bandwidth_.bits_per_sec();
    fluid_reserved_bps_ = bps < 0 ? 0 : (bps > cap ? cap : bps);
  }
  std::int64_t fluid_reserved_bps() const { return fluid_reserved_bps_; }

  /// Line rate minus the fluid reservation, floored at 1% of line rate —
  /// what packet-level traffic serializes at.
  sim::Bandwidth residual_bandwidth() const {
    if (fluid_reserved_bps_ == 0) return bandwidth_;
    const std::int64_t cap = bandwidth_.bits_per_sec();
    std::int64_t floor_bps = cap / 100;
    if (floor_bps < 1) floor_bps = 1;
    const std::int64_t residual = cap - fluid_reserved_bps_;
    return sim::Bandwidth::bps(residual > floor_bps ? residual : floor_bps);
  }

  /// Failure injection: a down link blackholes every send (packets already
  /// in flight still arrive — the fiber was cut behind them). Queued packets
  /// are discarded on the transition, as on a real port flap.
  void set_up(bool up);
  bool is_up() const { return up_; }

  /// Per-packet fault injection (mtp::fault drives this with a seeded
  /// Gilbert-Elliott chain): consulted on every send while the link is up.
  /// kDrop models a bit error that killed the whole frame; kCorrupt damages
  /// the payload but lets the packet through (receivers catch it by
  /// checksum). Empty hook = clean link.
  using FaultHook = std::function<FaultAction(const Packet&)>;
  void set_fault_hook(FaultHook hook) { fault_hook_ = std::move(hook); }

  /// Canonical link identity, the high bits of every delivery key (see
  /// delivery ordering below). Defaults to a per-simulator counter; Network
  /// overrides it with a topology-global counter so keys stay unique across
  /// shards no matter how the network is partitioned. Must be < 2^34.
  std::uint64_t uid() const { return uid_; }
  void set_uid(std::uint64_t uid) { uid_ = uid; }

  /// In-port index this link delivers into on peer() (set by connect_to).
  PortIndex peer_in_port() const { return dst_in_port_; }

  /// Cross-shard handoff: when set, a packet finishing serialization is
  /// passed to the sink — with its delivery time and canonical delivery
  /// key — instead of being scheduled on this (the sender-side) simulator.
  /// The sharded engine's drain schedules it on the receiving shard.
  using RemoteSink =
      std::function<void(Packet&&, sim::SimTime deliver_at, std::uint64_t key)>;
  /// Wiring only: call before the first send().
  void set_remote_sink(RemoteSink sink) {
    remote_sink_ = std::move(sink);
    lazy_ = lazy_capable();
  }

 private:
  bool lazy_capable() const {
    return queue_->fifo() && delay_ > sim::SimTime::zero() && !remote_sink_;
  }
  /// Settle every serialization end that has happened for the running
  /// event. Logically const: the link's observable state at now() does not
  /// change, it is only brought up to date.
  void settle() const {
    while (lazy_ && tx_ != kNoPacket && sim_.passed(tx_end_, finish_key())) {
      const_cast<Link*>(this)->finish_tx();
    }
  }
  /// Start the next queued packet at `t` (now, or a settled end's time).
  void try_transmit(sim::SimTime t);
  /// The serializing packet's end, at tx_end_: the finish event of a link
  /// that keeps one, or a settle.
  void finish_tx();
  void deliver_front();
  void stamp(Packet& pkt, sim::SimTime queue_delay);
  void register_metrics();

  /// A packet on the wire: serialization has ended and it propagates until
  /// deliver_at. The packet itself stays in its pool slot; the cell carries
  /// the handle, so per-hop events capture only `this` and a hop moves the
  /// packet once into the pool (send) and once out (the receiver's own
  /// store, straight from the slot). Each delivery runs as a *keyed* event
  /// at its deliver_at: key = (uid << 28) | per-link tx counter, so at equal
  /// timestamps deliveries execute in link-uid order — derived from
  /// topology, not from scheduling history, which is what keeps serial and
  /// sharded runs bit-identical (sim/sharded/engine.hpp). Per-link
  /// deliver_at is strictly increasing (serialization is >= 1ns), so the
  /// counter only disambiguates events of *different* links.
  ///
  /// Deliveries are chained: only the front cell has an event in the heap.
  /// A cell is pushed when its packet's serialization starts (lazy link) or
  /// ends (a link with finish events). The push arms the delivery when no
  /// earlier packet is on the wire; otherwise deliver_front arms it, at the
  /// cell's own (deliver_at, key), when its predecessor leaves. The late
  /// insertion cannot reorder anything: the heap pops in (when, seq) order,
  /// keyed events do not consume the FIFO counter, and the predecessor runs
  /// strictly earlier — so every event popped before it would have popped
  /// before it anyway. A link holds one heap entry however many packets
  /// are on the wire.
  ///
  /// A cell stores the 28-bit tx counter, not the whole key: the uid half
  /// is the link's own, so 16-byte cells rebuild the key when armed.
  struct InFlight {
    sim::SimTime deliver_at;  ///< serialization end + propagation
    std::uint32_t seq = 0;    ///< tx counter: the key's low 28 bits
    PacketHandle pkt = kNoPacket;
  };
  // One cell per packet on a wire; docs/perf.md quotes the size.
  static_assert(sizeof(InFlight) == 16, "Link::InFlight changed size; update docs/perf.md");

  void arm_delivery(const InFlight& f) {
    sim_.schedule_keyed_at(f.deliver_at, delivery_key(f.seq), [this] { deliver_front(); });
  }
  void push_in_flight(sim::SimTime deliver_at, PacketHandle h) {
    in_flight_.push_back(InFlight{deliver_at, next_tx_seq(), h});
    if (in_flight_.size() == 1) arm_delivery(in_flight_.front());
  }

  std::uint64_t delivery_key(std::uint32_t seq) const { return (uid_ << 28) | seq; }
  std::uint64_t finish_key() const { return sim::kFinishKeyBase | uid_; }
  std::uint32_t next_tx_seq() { return ++tx_seq_ & 0x0fffffff; }

  sim::Simulator& sim_;
  std::uint64_t uid_;
  std::uint32_t tx_seq_ = 0;  ///< low bits of the delivery key
  std::string name_;
  sim::Bandwidth bandwidth_;
  sim::SimTime delay_;
  std::unique_ptr<PacketPool> own_pool_;  ///< standalone links only
  PacketPool& pool_;
  std::unique_ptr<Queue> queue_;  ///< after the pools: destroyed first
  Node* dst_ = nullptr;
  PortIndex dst_in_port_ = 0;
  PacketHandle tx_ = kNoPacket;  ///< the serializing packet, if any
  sim::SimTime tx_end_;          ///< when its serialization ends
  bool lazy_ = false;            ///< settles ends instead of scheduling them
  bool up_ = true;
  std::int64_t fluid_reserved_bps_ = 0;  ///< sim::flow capacity reservation
  sim::RingBuffer<InFlight> in_flight_{8};  ///< on the wire, front = next to deliver
  sim::SimTime tx_qdelay_;  ///< serializing packet's queueing delay, for the pathlet stamp
  std::int64_t in_flight_bytes_ = 0;
  RemoteSink remote_sink_;
  LinkStats stats_;
  FaultHook fault_hook_;
  std::optional<PathletState> pathlet_;
  std::unique_ptr<sim::PeriodicTask> rcp_task_;
  telemetry::Registration link_metrics_;
  telemetry::Registration queue_metrics_;
};

}  // namespace mtp::net
