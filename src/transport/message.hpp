// The message core every message transport shares. MTP hosts, the Homa-style
// transport and in-network devices move messages the same way (the paper's
// Fig 1 puts one message layer in hosts and devices alike); this header holds
// those mechanics, and each transport keeps only its policy:
//
//   - RtoEstimator and message_flow_hash: RTT estimation and the ECMP hash;
//   - MsgKey and Tombstones: a receiver's message identity and its bounded
//     memory of messages it has finished with;
//   - Reassembly: which packets of an incoming message have arrived;
//   - mtp_header_bytes: the accounted size of every MTP header;
//   - make_reply, make_busy_reject and make_data: the ACK, busy-reject and
//     data packet skeletons;
//   - OutboundMessage, OutboundRing and complete_outbound: a sender's
//     per-message record, the table that finds it by id, and its retirement.
//
// The arithmetic (and its order) is what the recorded completion digests were
// produced with; changing a constant or an operation order moves every
// transport's fct_digest.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <unordered_set>
#include <vector>

#include "net/link.hpp"
#include "net/node.hpp"
#include "net/packet.hpp"
#include "sim/ring.hpp"
#include "sim/time.hpp"
#include "sim/timer_wheel.hpp"
#include "telemetry/trace.hpp"

namespace mtp::transport {

/// Retransmission-timeout bounds MTP and TCP share. Homa keeps its own
/// ceiling (HomaEndpoint::kMaxRto).
inline constexpr sim::SimTime kMinRto = sim::SimTime::microseconds(200);
inline constexpr sim::SimTime kMaxRto = sim::SimTime::milliseconds(100);

/// Smoothed RTT and RTT variance from Karn-filtered samples (RFC 6298 with
/// alpha = 1/8, beta = 1/4). Callers feed only samples from packets that were
/// never retransmitted.
struct RtoEstimator {
  sim::SimTime srtt;
  sim::SimTime rttvar;
  bool valid = false;

  void sample(sim::SimTime s) {
    if (!valid) {
      srtt = s;
      rttvar = s / 2;
      valid = true;
    } else {
      const sim::SimTime err = s >= srtt ? s - srtt : srtt - s;
      rttvar = rttvar.scaled(0.75) + err.scaled(0.25);
      srtt = srtt.scaled(0.875) + s.scaled(0.125);
    }
  }

  /// Message-transport timeout: 2*srtt + 4*rttvar (5*min_rto before the
  /// first sample), times the backoff multiplier, clamped to [min, max].
  sim::SimTime rto(sim::SimTime min_rto, sim::SimTime max_rto, double backoff) const {
    sim::SimTime r = valid ? srtt * 2 + rttvar * 4 : min_rto.scaled(5.0);
    r = r.scaled(backoff);
    r = std::max(r, min_rto);
    r = std::min(r, max_rto);
    return r;
  }
};

/// ECMP hash over (src, src port, dst, dst port). Constant per 4-tuple, so a
/// message keeps one path under ECMP unless the forwarding layer sprays.
inline std::uint64_t message_flow_hash(net::NodeId a, proto::PortNum ap, net::NodeId b,
                                       proto::PortNum bp) {
  std::uint64_t h = (static_cast<std::uint64_t>(a) << 48) ^
                    (static_cast<std::uint64_t>(b) << 32) ^
                    (static_cast<std::uint64_t>(ap) << 16) ^ bp;
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  return h;
}

/// Tombstones a host receiver keeps per set (delivered, busy-rejected).
inline constexpr std::size_t kHostTombstones = 1 << 14;

/// A message as its receiver names it: ids are only unique per sender.
struct MsgKey {
  net::NodeId src;
  proto::MsgId id;
  bool operator==(const MsgKey&) const = default;
};
struct MsgKeyHash {
  std::size_t operator()(const MsgKey& k) const {
    return std::hash<std::uint64_t>()((static_cast<std::uint64_t>(k.src) << 32) ^ k.id);
  }
};

/// Messages a receiver has finished with (delivered or rejected), so it can
/// re-ACK or re-reject their retransmissions. Bounded: past `capacity` the
/// oldest entry is forgotten first. Holds no memory until the first insert.
class Tombstones {
 public:
  explicit Tombstones(std::size_t capacity) : capacity_(capacity) { assert(capacity > 0); }

  bool contains(const MsgKey& k) const { return !set_.empty() && set_.contains(k); }
  void insert(const MsgKey& k) {
    if (!set_.insert(k).second) return;
    // Evict before pushing, so a full set's ring never doubles past capacity.
    if (fifo_.size() == capacity_) {
      set_.erase(fifo_.front());
      fifo_.pop_front();
    }
    fifo_.push_back(k);
  }
  void clear() {
    set_.clear();
    fifo_.clear();
  }

 private:
  std::size_t capacity_;
  std::unordered_set<MsgKey, MsgKeyHash> set_;
  sim::RingBuffer<MsgKey> fifo_;
};

/// Which packets of an incoming message have arrived.
struct Reassembly {
  std::vector<bool> have;
  std::uint32_t received = 0;
  std::uint32_t total_pkts = 0;

  /// Every packet carries its message's length, so a receiver can refuse a
  /// malformed header (no packets, or a packet number past the end) before
  /// it allocates anything.
  static bool well_formed(const proto::MtpHeader& h) {
    return h.msg_len_pkts != 0 && h.pkt_num < h.msg_len_pkts;
  }
  void start(std::uint32_t pkts) {
    have.assign(pkts, false);
    total_pkts = pkts;
  }
  /// Record packet `pkt`; false for a duplicate or an out-of-range number.
  bool add(std::uint32_t pkt) {
    if (pkt >= total_pkts || have[pkt]) return false;
    have[pkt] = true;
    ++received;
    return true;
  }
  bool complete() const { return received == total_pkts; }
};

/// Accounted fixed MTP header + IP overhead per packet.
inline constexpr std::uint32_t kMtpBaseHeaderBytes = 64;

/// Accounted wire size of an MTP header: the fixed part plus 5 B per excluded
/// pathlet, 14 B per path-feedback TLV (stamped en route or echoed) and 12 B
/// per SACK or NACK entry. Data packets, ACKs and busy-rejects, from hosts and
/// devices alike, are billed by this one rule, on a fresh header before any
/// switch stamps it.
inline std::uint32_t mtp_header_bytes(const proto::MtpHeader& h) {
  return kMtpBaseHeaderBytes +
         static_cast<std::uint32_t>(h.path_exclude().size() * 5 +
                                    (h.path_feedback().size() +
                                     h.ack_path_feedback().size()) * 14 +
                                    (h.sack().size() + h.nack().size()) * 12);
}

/// Reply skeleton for `data`, sent by `self`: an ACK back to the sender with
/// ports swapped, the message fields copied, the reverse 4-tuple's flow hash,
/// and the data packet's TC and priority. Callers add SACK/NACK lists, path
/// feedback, grants or reject flags, and the header size.
inline net::Packet make_reply(const net::Packet& data, net::NodeId self) {
  const auto& dh = data.mtp();
  net::Packet p;
  p.src = self;
  p.dst = data.src;
  p.tc = data.tc;
  p.priority = data.priority;
  p.flow_hash = message_flow_hash(self, dh.dst_port, data.src, dh.src_port);
  auto& hdr = p.header.emplace<proto::MtpHeader>();
  hdr.src_port = dh.dst_port;
  hdr.dst_port = dh.src_port;
  hdr.type = proto::MtpPacketType::kAck;
  hdr.msg_id = dh.msg_id;
  hdr.tc = dh.tc;
  hdr.priority = dh.priority;
  hdr.msg_len_bytes = dh.msg_len_bytes;
  hdr.msg_len_pkts = dh.msg_len_pkts;
  hdr.pkt_num = dh.pkt_num;
  return p;
}

/// MTP ACK of `data` from `self`: the reply skeleton, the data packet's
/// accumulated path feedback echoed into the ACK's feedback list (the core
/// of pathlet congestion control; with coalescing the freshest packet's
/// feedback stands in for the batch, paper §4: "feedback can be
/// aggregated"), the given SACK and NACK lists, and the billed header size.
/// The three lists share one block, sized once.
inline net::Packet make_ack(const net::Packet& data, net::NodeId self,
                            std::span<const proto::SackEntry> sacks,
                            std::span<const proto::SackEntry> nacks) {
  net::Packet p = make_reply(data, self);
  auto& hdr = p.mtp();
  const auto feedback = data.mtp().path_feedback();
  hdr.lists.reserve({0, 0, feedback.size(), sacks.size(), nacks.size()});
  hdr.ack_path_feedback().assign(feedback);
  hdr.sack().assign(sacks);
  hdr.nack().assign(nacks);
  p.header_bytes = mtp_header_bytes(hdr);
  return p;
}

/// Busy-reject of `data` by `self` (an MTP receiver or an in-network device):
/// a reply whose overload block carries `flags`. The trace records one kBusy
/// event for the rejected data packet, `value` = flags. The sender aborts the
/// message. Callers keep their own counters.
inline net::Packet make_busy_reject(const net::Packet& data, net::Node& self,
                                    std::uint8_t flags) {
  net::Packet p = make_reply(data, self.id());
  p.mtp().overload.ensure().flags = flags;
  p.header_bytes = mtp_header_bytes(p.mtp());
  if (telemetry::TraceSink::enabled()) {
    telemetry::TraceEvent ev = net::packet_trace_event(
        self.simulator().now(), telemetry::TraceEventType::kBusy, self.name(), data);
    ev.value = flags;
    telemetry::trace().record(ev);
  }
  return p;
}

/// Sender-side state of one packet.
enum class PktState : std::uint8_t { kUnsent, kInflight, kSacked, kLost };

/// Per-packet sender record in 16 bytes: when the packet last left, its
/// state, the Karn bit, and a 16-bit field the transport owns (MTP keeps the
/// path the packet was charged to there).
struct PktMeta {
  sim::SimTime sent_at;
  std::uint16_t aux = 0;
  std::uint8_t flags = 0;  ///< bits 0-1: PktState, bit 2: retransmitted (Karn)
};
static_assert(sizeof(PktMeta) == 16);

/// A sender's record of one outgoing message: its packetization and one
/// PktMeta per packet. `Options` carries the transport's per-message
/// submission fields and must provide src_port, dst_port and tc.
template <class Options>
struct OutboundMessage {
  using DoneFn = std::function<void(proto::MsgId, sim::SimTime fct)>;

  proto::MsgId id = 0;
  Options opts;
  std::int64_t total_bytes = 0;
  net::NodeId dst = net::kInvalidNode;
  std::uint32_t total_pkts = 0;
  std::uint32_t next_unsent = 0;  ///< packets below were sent at least once
  std::uint32_t sacked = 0;
  std::vector<PktMeta> pkts;
  sim::SimTime started_at;
  sim::TimerId retx_timer;  ///< null while no retransmit timer is pending
  DoneFn done;

  /// Split `bytes` into `mss`-sized packets, all unsent.
  void packetize(std::int64_t bytes, std::uint32_t mss) {
    total_bytes = bytes;
    total_pkts = static_cast<std::uint32_t>((bytes + mss - 1) / mss);
    pkts.assign(total_pkts, PktMeta{});
  }
  std::uint64_t pkt_offset(std::uint32_t pkt, std::uint32_t mss) const {
    return static_cast<std::uint64_t>(pkt) * mss;
  }
  std::uint32_t pkt_len(std::uint32_t pkt, std::uint32_t mss) const {
    return static_cast<std::uint32_t>(std::min<std::uint64_t>(
        mss, static_cast<std::uint64_t>(total_bytes) - pkt_offset(pkt, mss)));
  }

  PktState state(std::uint32_t pkt) const {
    return static_cast<PktState>(pkts[pkt].flags & 0x3);
  }
  void set_state(std::uint32_t pkt, PktState s) {
    pkts[pkt].flags =
        static_cast<std::uint8_t>((pkts[pkt].flags & ~0x3u) | static_cast<std::uint8_t>(s));
  }
  bool retransmitted(std::uint32_t pkt) const { return (pkts[pkt].flags & 0x4) != 0; }
  /// Packet `pkt` leaves at `now`. A retransmission sets the Karn bit, which
  /// stays set for the life of the message.
  void mark_sent(std::uint32_t pkt, sim::SimTime now, bool is_retx) {
    set_state(pkt, PktState::kInflight);
    pkts[pkt].sent_at = now;
    if (is_retx) pkts[pkt].flags |= 0x4;
  }

  /// Arm the retransmit timer for `deadline`, calling fn(owner, id). Never
  /// in the past or at the current instant: a deadline that has passed still
  /// needs a fresh wheel tick so the expiry check runs from a clean event,
  /// and an `== now` arm would re-fire at this timestamp forever when the
  /// oldest packet sits exactly at its deadline.
  void arm_retx(sim::Simulator& sim, sim::SimTime deadline, sim::TimerWheel::FireFn fn,
                void* owner) {
    const sim::SimTime floor = sim.now() + sim.timers().granularity();
    retx_timer = sim.timers().arm(std::max(deadline, floor), fn, owner, id);
  }
};

/// A sender's outgoing messages, found by id without hashing. A sender issues
/// ids in order, so the table is a ring covering the ids from the oldest
/// outstanding message to the newest: a lookup is one subtraction and one
/// array read. Each record is its own allocation, so a Msg& stays valid while
/// other messages come and go, and a finished message's memory goes back to
/// the allocator at once, for any endpoint to reuse. The ring costs 8 B per
/// id in its span, including finished ids behind an older message that is
/// still outstanding, and it never shrinks.
template <class Msg>
class OutboundRing {
 public:
  using mapped_type = Msg;

  std::size_t size() const { return live_; }
  Msg* find(proto::MsgId id) { return at(id); }

  /// A fresh record for `id`, which must follow every id inserted before it
  /// with no gap.
  Msg& insert(proto::MsgId id) {
    if (span_ == 0) base_ = id;
    assert(id == base_ + span_);
    if (span_ == ring_.size()) grow();
    std::unique_ptr<Msg>& cell = ring_[(head_ + span_) & (ring_.size() - 1)];
    cell = std::make_unique<Msg>();
    ++span_;
    ++live_;
    return *cell;
  }

  /// Destroy `id`'s record.
  void erase(proto::MsgId id) {
    if (at(id) == nullptr) return;
    ring_[(head_ + (id - base_)) & (ring_.size() - 1)].reset();
    --live_;
    while (span_ > 0 && !ring_[head_]) {  // advance past finished ids
      head_ = (head_ + 1) & (ring_.size() - 1);
      ++base_;
      --span_;
    }
  }

  /// Call f(Msg&) on every record, in id order.
  template <class F>
  void for_each(F&& f) {
    for (std::size_t i = 0; i < span_; ++i) {
      if (Msg* m = ring_[(head_ + i) & (ring_.size() - 1)].get()) f(*m);
    }
  }

  void clear() {
    for (std::size_t i = 0; i < span_; ++i) ring_[(head_ + i) & (ring_.size() - 1)].reset();
    span_ = 0;
    live_ = 0;
  }

 private:
  Msg* at(proto::MsgId id) const {
    if (id - base_ >= span_) return nullptr;  // below base_ wraps to a huge offset
    return ring_[(head_ + (id - base_)) & (ring_.size() - 1)].get();
  }

  /// Double the ring (power-of-two capacity), unrolling it to start at 0.
  void grow() {
    std::vector<std::unique_ptr<Msg>> bigger(ring_.empty() ? 8 : 2 * ring_.size());
    for (std::size_t i = 0; i < span_; ++i) {
      bigger[i] = std::move(ring_[(head_ + i) & (ring_.size() - 1)]);
    }
    ring_ = std::move(bigger);
    head_ = 0;
  }

  std::vector<std::unique_ptr<Msg>> ring_;
  std::size_t head_ = 0;   ///< ring_ position of base_
  proto::MsgId base_ = 0;  ///< oldest id in the span
  std::size_t span_ = 0;   ///< ids [base_, base_ + span_) are covered
  std::size_t live_ = 0;   ///< records held
};

/// Retire a fully acknowledged message: cancel its timer, erase it from
/// `outgoing` (keyed by message id), then fire its DoneFn with the FCT — last,
/// so the callback may send.
template <class Map>
void complete_outbound(Map& outgoing, typename Map::mapped_type& msg, sim::Simulator& sim) {
  const sim::SimTime fct = sim.now() - msg.started_at;
  auto done = std::move(msg.done);
  const proto::MsgId id = msg.id;
  sim.timers().cancel(msg.retx_timer);
  outgoing.erase(id);  // msg is dangling beyond this point
  if (done) done(id, fct);
}

/// Data packet `pkt` of `msg`, sent by `self`, with its MTP header: ECN
/// capable, on the message's 4-tuple flow hash, at `priority` in both the
/// packet and the header. Callers add packet-0 extras and the header size.
template <class Options>
net::Packet make_data(net::NodeId self, const OutboundMessage<Options>& msg,
                      std::uint32_t pkt, std::uint32_t mss, std::uint8_t priority) {
  net::Packet p;
  p.src = self;
  p.dst = msg.dst;
  p.payload_bytes = msg.pkt_len(pkt, mss);
  p.ecn = net::Ecn::kEct;
  p.tc = msg.opts.tc;
  p.priority = priority;
  p.flow_hash = message_flow_hash(self, msg.opts.src_port, msg.dst, msg.opts.dst_port);
  auto& hdr = p.header.emplace<proto::MtpHeader>();
  hdr.src_port = msg.opts.src_port;
  hdr.dst_port = msg.opts.dst_port;
  hdr.type = proto::MtpPacketType::kData;
  hdr.msg_id = msg.id;
  hdr.priority = priority;
  hdr.tc = msg.opts.tc;
  hdr.msg_len_bytes = static_cast<std::uint64_t>(msg.total_bytes);
  hdr.msg_len_pkts = msg.total_pkts;
  hdr.pkt_num = pkt;
  hdr.pkt_offset = msg.pkt_offset(pkt, mss);
  hdr.pkt_len = p.payload_bytes;
  return p;
}

}  // namespace mtp::transport
