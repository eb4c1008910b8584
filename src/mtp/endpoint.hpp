// MtpEndpoint: the MTP transport attached to one node (paper §3): a host, or
// a switch whose in-network devices send and acknowledge messages.
//
// Message transport (§3.1.2):
//   - Messages are independent; no connection setup. send_message() packetizes
//     and transmits immediately.
//   - Every packet carries the message id, total length in bytes and packets,
//     and its own number/offset — so any device can read it and make
//     per-message decisions with bounded state.
//   - Acknowledgement and retransmission are per (Msg ID, Pkt Num): receivers
//     SACK every packet, NACK trimmed ones, and senders retransmit unacked
//     packets after an adaptive timeout.
//
// Pathlet congestion control (§3.1.3):
//   - Links stamp (Path ID, TC, Feedback) TLVs onto data packets; receivers
//     echo them in ACKs.
//   - The endpoint keeps one PathletCc per (pathlet, TC) — state is shared by
//     all messages/destinations crossing that pathlet, which is the paper's
//     coarser-than-flow isolation granularity.
//   - A packet is admitted when every pathlet on its destination's current
//     path has window headroom; it is "charged" to those pathlets until
//     acknowledged or declared lost.
//   - Persistently congested pathlets can be excluded: their ids ride in the
//     Path Exclude header list and exclusion-aware switches route around them.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "mtp/cc_algorithm.hpp"
#include "mtp/overload/admission.hpp"
#include "mtp/overload/shed_guard.hpp"
#include "net/node.hpp"
#include "sim/ring.hpp"
#include "sim/simulator.hpp"
#include "sim/timer_wheel.hpp"
#include "telemetry/metrics.hpp"
#include "transport/message.hpp"

namespace mtp::core {

/// Consecutive-timeout window: RTO backoff doubles at most once per this
/// period, no matter how many messages expire inside it. (Historically the
/// retransmit-scan period; timers now live on the simulator's timer wheel
/// and fire per message — see docs/scale.md.)
inline constexpr sim::SimTime kRetxScanPeriod = sim::SimTime::microseconds(100);
/// Receiver-side gap NACKs: when packet N of a message arrives and packet
/// K < N - threshold is still missing, NACK K once so the sender
/// retransmits in ~1 RTT instead of waiting out the timeout. The threshold
/// absorbs benign reordering.
inline constexpr std::uint32_t kNackGapThreshold = 16;
/// Coalesced ACK batches flush at least this often, so senders never stall.
inline constexpr sim::SimTime kAckFlushTimeout = sim::SimTime::microseconds(20);
/// mtp::overload blind-start credit per destination before the first grant
/// arrives.
inline constexpr std::int64_t kUnsolicitedGrantBytes = 16000;

struct MtpConfig {
  std::uint32_t mss = 1000;  ///< payload bytes per packet; also the CC's mss

  /// Automatically exclude a pathlet after this many consecutive timeout
  /// losses on it (0 disables auto-exclusion).
  int auto_exclude_after_losses = 0;
  sim::SimTime exclude_duration = sim::SimTime::milliseconds(1);

  /// ACK coalescing (paper §4 "Packet Header Overheads": feedback can be
  /// aggregated): batch up to this many SACKs per source into one ACK.
  /// 1 = ack every packet. Batches flush on the Nth packet, on message
  /// completion, on any NACK, and on a kAckFlushTimeout timer.
  std::uint32_t ack_coalesce = 1;

  /// mtp::overload — receiver-driven admission + busy-reject shedding.
  /// Disabled by default: existing runs are byte-identical with the
  /// subsystem compiled in (no grants stamped, no pacing, no sheds).
  struct OverloadControl {
    bool enabled = false;
    /// Receiver service-rate EWMA and grant sizing (see overload/admission).
    overload::AdmissionConfig admission;
    /// Busy-reject rule for fresh messages; the work it counts is messages
    /// under reassembly. By default it sheds only deadline-expired messages:
    /// the watermark and hard limit are off (grants still pace senders).
    overload::ShedRule shed;
  };
  OverloadControl overload;
};

struct MessageOptions {
  std::uint8_t priority = 0;
  proto::TrafficClassId tc = 0;
  proto::PortNum src_port = 0;
  proto::PortNum dst_port = 0;
  std::optional<net::AppData> app;  ///< rides on packet 0 (request key, ...)
  std::optional<proto::StreamHeader> stream;  ///< rides on packet 0 (mtp::stream)
  /// Absolute deadline carried in the header overload block on packet 0
  /// (zero = none). Devices and receivers shed the message once expired.
  sim::SimTime deadline;
};

/// A completed incoming message handed to the application.
struct ReceivedMessage {
  net::NodeId src = net::kInvalidNode;
  proto::MsgId msg_id = 0;
  std::int64_t bytes = 0;
  std::uint8_t priority = 0;
  proto::TrafficClassId tc = 0;
  proto::PortNum src_port = 0;
  proto::PortNum dst_port = 0;
  std::optional<net::AppData> app;
  std::optional<proto::StreamHeader> stream;
  sim::SimTime deadline;  ///< absolute deadline the sender stamped (0 = none)
  sim::SimTime first_pkt_at;
  sim::SimTime completed_at;
};

class MtpEndpoint {
 public:
  using MessageHandler = std::function<void(const ReceivedMessage&)>;
  using DoneFn = std::function<void(proto::MsgId, sim::SimTime fct)>;

  MtpEndpoint(net::Node& node, MtpConfig cfg = {});
  ~MtpEndpoint();
  MtpEndpoint(const MtpEndpoint&) = delete;
  MtpEndpoint& operator=(const MtpEndpoint&) = delete;

  /// Send an independent message of `bytes` payload to `dst`. Returns its id.
  proto::MsgId send_message(net::NodeId dst, std::int64_t bytes,
                            MessageOptions opts = {}, DoneFn on_delivered = {});

  /// Deliver completed messages addressed to `port` to `handler`.
  void listen(proto::PortNum port, MessageHandler handler);
  /// Catch-all for ports without a specific listener.
  void listen_any(MessageHandler handler) { default_handler_ = std::move(handler); }

  /// Fine-grained goodput hook: fires once per *new* (non-duplicate) data
  /// packet with its payload size. Experiments meter receive rate with this
  /// rather than waiting for whole messages.
  std::function<void(std::int64_t bytes)> on_payload;

  /// Fires when an outgoing message is busy-rejected by the receiver or an
  /// in-network device (explicit kBusy NACK, never a silent drop). `expired`
  /// means the rejecter shed it because its deadline had passed. The message
  /// is aborted — its DoneFn will never fire — so RPC layers can fail fast
  /// or consult their retry budget instead of burning the full timeout.
  std::function<void(proto::MsgId, net::NodeId dst, bool expired)> on_rejected;

  /// Drop every outgoing message unfinished (a device crash with state
  /// wipe): in-flight packets are uncharged, timers cancelled, and neither
  /// DoneFn nor on_rejected fires. The message-id counter is kept, so later
  /// messages are never taken for ones a peer already delivered.
  void abandon_all();

  /// Ask the network to avoid `pathlet` for `duration` (Path Exclude list).
  void exclude_pathlet(proto::PathletId pathlet, sim::SimTime duration);

  // --- Introspection (tests, experiments).
  const PathletCc* pathlet_cc(proto::PathletId id, proto::TrafficClassId tc) const;
  /// Pathlets with a live congestion-control algorithm (charge-only entries
  /// that never saw feedback or loss don't count).
  std::size_t known_pathlets() const {
    std::size_t n = 0;
    for (const auto& [key, st] : cc_) n += st.algo != nullptr;
    return n;
  }
  std::size_t outstanding_messages() const { return outgoing_.size(); }
  std::uint64_t pkts_sent() const { return pkts_sent_; }
  std::uint64_t pkts_retransmitted() const { return pkts_retx_; }
  std::uint64_t msgs_delivered() const { return msgs_delivered_; }
  /// Packets dropped on payload checksum mismatch (fault injection).
  std::uint64_t checksum_drops() const { return checksum_drops_; }
  /// Corrupted packets that *passed* verification — must stay 0; the chaos
  /// harness asserts on it (ground truth vs the checksum mechanism).
  std::uint64_t corrupted_delivered() const { return corrupted_delivered_; }
  /// Current RTO backoff multiplier (1.0 = no consecutive timeouts).
  double rto_backoff() const { return rto_backoff_; }
  // --- mtp::overload counters (all zero while overload control is off).
  /// Outgoing messages aborted by a busy-reject.
  std::uint64_t msgs_rejected() const { return msgs_rejected_; }
  /// Busy-rejects this endpoint emitted as a receiver.
  std::uint64_t busy_rejects_sent() const { return busy_rejects_sent_; }
  /// ACKs stamped with an admission grant.
  std::uint64_t grants_issued() const { return grants_issued_; }
  /// Fresh messages shed because their deadline had already passed.
  std::uint64_t deadline_expiries() const { return deadline_expiries_; }
  const overload::Admission& admission() const { return admission_; }
  sim::SimTime srtt() const { return rtt_.srtt; }
  const MtpConfig& config() const { return cfg_; }
  net::Node& node() { return node_; }
  /// Current path (pathlet ids) learned for a destination; empty if unknown.
  std::vector<proto::PathletId> current_path(net::NodeId dst) const;

 private:
  // --- Interned paths: the (pathlet, tc) sets packets get charged to.
  // Path 0 is always the default path {kDefaultPathlet}. Destinations with
  // no feedback yet get a per-destination virtual pathlet (high bit set) so
  // their TCP-like default windows evolve independently.
  static constexpr proto::PathletId kVirtualPathletFlag = 0x8000'0000;
  using PathIndex = std::uint16_t;
  struct CcKey {
    proto::PathletId pathlet;
    proto::TrafficClassId tc;
    bool operator==(const CcKey&) const = default;
  };
  struct CcKeyHash {
    std::size_t operator()(const CcKey& k) const {
      return std::hash<std::uint64_t>()(
          (static_cast<std::uint64_t>(k.pathlet) << 8) | k.tc);
    }
  };

  /// FIFO of packet numbers. A vector with a head cursor rather than a
  /// sim::RingBuffer: like the ring it holds no memory until used (an empty
  /// libstdc++ std::deque owns a 512-byte chunk, which would dominate idle
  /// per-message footprint at scale), but it is 8 B smaller in a record whose
  /// size is pinned, and it iterates as one contiguous span. Its buffer
  /// restarts at the front whenever it drains, so it is only ever as long as
  /// the packets pushed since the message last had none queued.
  class PktFifo {
   public:
    bool empty() const { return head_ == q_.size(); }
    std::size_t size() const { return q_.size() - head_; }
    std::uint32_t front() const { return q_[head_]; }
    const std::uint32_t* begin() const { return q_.data() + head_; }
    const std::uint32_t* end() const { return q_.data() + q_.size(); }
    void push_back(std::uint32_t v) { q_.push_back(v); }
    void pop_front() {
      if (++head_ == q_.size()) {  // drained: restart at the buffer's front
        q_.clear();
        head_ = 0;
      }
    }

   private:
    std::vector<std::uint32_t> q_;
    std::size_t head_ = 0;
  };

  /// MessageOptions without the packet-0 payloads: what every packet of a
  /// message needs.
  struct SendOptions {
    std::uint8_t priority = 0;
    proto::TrafficClassId tc = 0;
    proto::PortNum src_port = 0;
    proto::PortNum dst_port = 0;
    sim::SimTime deadline;
  };
  /// The packet-0 payloads, boxed so that only messages carrying one pay for
  /// them: inline, they took 160 B of every record.
  struct Packet0Payload {
    std::optional<net::AppData> app;
    std::optional<proto::StreamHeader> stream;
  };
  struct SendGroup;

  /// Shared message core plus MTP's retransmit FIFOs and send-queue state.
  struct OutgoingMessage : transport::OutboundMessage<SendOptions> {
    PktFifo retx_queue;
    /// Packet numbers in transmission order; the front is always the oldest
    /// in-flight packet, so expiry checks are O(1) until a loss.
    PktFifo inflight_fifo;
    std::unique_ptr<Packet0Payload> pkt0;  ///< null unless app or stream is set
    SendGroup* group = nullptr;  ///< its send queue, set by send_message
    /// True while the message sits in its SendGroup queue (has packets to
    /// send but may be window-blocked). Guards against double-enqueue.
    bool send_queued = false;

    /// The path a packet was charged to, kept in its PktMeta aux field.
    PathIndex& charged_path(std::uint32_t pkt) { return pkts[pkt].aux; }
  };
  // Every outstanding message pays for this record (k=8 bursts keep 51k of
  // them); a field added here shows in bytes_per_idle_msg (bench_scale).
  static_assert(sizeof(OutgoingMessage) == 208, "OutgoingMessage changed size");

  struct IncomingMessage : transport::Reassembly {
    std::uint32_t gap_checked = 0;  ///< packets below this were gap-NACKed once
    std::int64_t total_bytes = 0;
    std::uint8_t priority = 0;
    proto::TrafficClassId tc = 0;
    proto::PortNum src_port = 0;
    proto::PortNum dst_port = 0;
    std::optional<net::AppData> app;
    std::optional<proto::StreamHeader> stream;
    std::uint64_t deadline_ns = 0;  ///< from the packet-0 overload block
    sim::SimTime first_pkt_at;
  };

  void on_packet(net::Packet&& pkt);
  void on_data(net::Packet&& pkt);
  void on_ack(const net::Packet& pkt);
  struct PendingAck;
  void queue_ack(const net::Packet& data, bool nack,
                 std::vector<proto::SackEntry> gap_nacks, bool flush_now);
  void emit_ack(const net::Packet& data, std::span<const proto::SackEntry> sacks,
                std::span<const proto::SackEntry> nacks);
  void flush_acks();
  struct CcState;
  void pump();
  /// Send msg's pending retransmissions then unsent packets while admission
  /// allows. Returns false if it stopped blocked with work remaining; `full`
  /// is then the pathlet state whose window refused the packet, or null if
  /// the overload grant did.
  bool service_msg(OutgoingMessage& msg, CcState*& full);
  bool try_send_pkt(OutgoingMessage& msg, std::uint32_t pkt, bool is_retx, CcState*& full);
  void send_data_pkt(OutgoingMessage& msg, std::uint32_t pkt);
  void on_retx_timer(proto::MsgId id);
  static void retx_fire(void* self, std::uint64_t id);  ///< wheel trampoline
  sim::SimTime rto() const {
    return rtt_.rto(transport::kMinRto, transport::kMaxRto, rto_backoff_);
  }

  /// The algorithm of `st`, created from `type_hint` if it has none yet. The
  /// caller is about to update it, so groups parked on `st` wake.
  PathletCc& cc(CcState& st, proto::FeedbackType type_hint);
  /// Apply on_loss at most once per RTT to each (pathlet, TC) of `path`.
  void penalize(PathIndex path, proto::TrafficClassId tc, LossKind kind);
  PathIndex intern_path(const std::vector<proto::PathletId>& pathlets);
  /// The CcState of each pathlet of `path` for `tc`, in path order.
  std::span<CcState* const> cc_states(PathIndex path, proto::TrafficClassId tc);
  /// The first state on `path` whose window cannot take `bytes` more, or
  /// null if the packet is admitted.
  CcState* admit(PathIndex path, proto::TrafficClassId tc, std::int64_t bytes);
  void charge(PathIndex path, proto::TrafficClassId tc, std::int64_t bytes);
  void uncharge(PathIndex path, proto::TrafficClassId tc, std::int64_t bytes);
  /// Record that `dst` now sends on a different path (or none).
  void path_changed(net::NodeId dst);
  /// Append the pathlets still excluded to `hdr`'s Path Exclude list,
  /// forgetting the expired ones.
  void stamp_exclusions(proto::MtpHeader& hdr);

  // --- mtp::overload: receiver grants pace the sender per destination, and
  // busy-rejects abort outgoing messages instead of letting them time out.
  bool grant_admit(net::NodeId dst, std::int64_t bytes);
  void grant_charge(net::NodeId dst, std::int64_t bytes);
  void grant_uncharge(net::NodeId dst, std::int64_t bytes);
  void abort_outgoing(proto::MsgId id, bool expired);
  /// Uncharge msg's in-flight packets and cancel its timer, before it is
  /// dropped unfinished.
  void release(OutgoingMessage& msg);
  void reject_message(const transport::MsgKey& key, const net::Packet& data,
                      std::uint8_t flags);
  void send_busy_reject(const net::Packet& data, std::uint8_t flags);

  net::Node& node_;
  MtpConfig cfg_;
  sim::Simulator& sim_;

  /// Everything the sender tracks per (pathlet, TC). Each interned path
  /// keeps pointers to its states (Path::states), so admit/charge/uncharge do
  /// no lookup. A state with no `algo` admits up to the initial window; the
  /// algorithm is created on first feedback/ack/loss. `last_decrease`
  /// rate-limits multiplicative decreases — losses within one RTT are a
  /// single congestion event and must cut the window once. `wakes` counts
  /// the changes that may let a refused packet fit (an uncharge, an algorithm
  /// update); a SendGroup parked on the state sleeps until it moves.
  struct CcState {
    std::unique_ptr<PathletCc> algo;
    std::int64_t inflight = 0;
    sim::SimTime last_decrease;
    std::uint32_t wakes = 0;
    bool decreased_once = false;
  };

  /// An interned path: its pathlets and their CcStates, pathlets.size() per
  /// TC at index tc * pathlets.size() (null until that TC is first used).
  struct Path {
    std::vector<proto::PathletId> pathlets;
    std::vector<CcState*> states;
  };

  /// Pending-send queue for one (dst, tc, priority) bucket. Admission is
  /// per-(path, tc) and a message's path is a pure function of its
  /// destination, so when the front of a group is window-blocked the rest of
  /// the group is too: pump() stops the group after one failed admit and
  /// moves on. That makes a pump cost O(groups + packets actually sent)
  /// instead of O(all queued messages) — the property that keeps 100k
  /// concurrent messages serviceable (the old global scan re-sorted and
  /// re-visited every parked message on every ack).
  ///
  /// A group whose front packet did not fit a pathlet window also parks on
  /// the CcState that refused it, and pump() skips it until one of these
  /// happens: that state wakes (an uncharge, or an algorithm update from
  /// feedback, an ack or a loss); the destination's current path changes;
  /// or the front packet changes (an urgent enqueue, a lost packet SACKed
  /// late, or the front message being aborted). A parked front message
  /// still has a lost packet to resend, so it completes only through a late
  /// SACK of its last lost packet, which wakes the group; abandon_all()
  /// uncharges every packet in flight, which wakes every parked group.
  /// Invariant: a parked group's front packet is not admissible. It holds
  /// because nothing else loosens admission — charging only tightens it — so
  /// the skipped attempt would have failed, and pump() sends exactly what a
  /// scan of every group would. check_parked() asserts it on every pump.
  /// Groups blocked by an overload grant do not park.
  struct SendGroup {
    net::NodeId dst;
    proto::TrafficClassId tc = 0;
    std::uint8_t priority = 0;
    sim::RingBuffer<proto::MsgId> q;  ///< FIFO; retransmit-bearing messages jump the line
    const CcState* parked_on = nullptr;
    std::uint32_t parked_wakes = 0;  ///< parked_on->wakes when it parked

    bool parked() const { return parked_on && parked_on->wakes == parked_wakes; }
    void park(const CcState& st) {
      parked_on = &st;
      parked_wakes = st.wakes;
    }
    void unpark() { parked_on = nullptr; }
  };
  SendGroup& group_for(const OutgoingMessage& msg);
  /// Queue msg for pump service. `urgent` puts it at the front of its group
  /// (retransmissions unblock completion, mirroring the old retx-first rule).
  void enqueue_send(OutgoingMessage& msg, bool urgent);
  /// msg's next packet to send may have changed: wake its group.
  static void front_changed(OutgoingMessage& msg) { msg.group->unpark(); }
  /// Asserts the parked-group invariant (a no-op under NDEBUG).
  void check_parked();

  // --- Sender.
  proto::MsgId next_msg_id_ = 1;
  transport::OutboundRing<OutgoingMessage> outgoing_;
  /// Groups ordered by (priority desc, creation); few in practice. Stable
  /// pointers — indexed by group_index_.
  std::vector<std::unique_ptr<SendGroup>> groups_;
  std::unordered_map<std::uint64_t, SendGroup*> group_index_;
  /// Never erased: paths keep pointers to the states (map nodes are stable).
  std::unordered_map<CcKey, CcState, CcKeyHash> cc_;
  std::vector<Path> paths_;  ///< interned path table
  /// Sparse: a dense per-destination table grows as hosts² over a fleet.
  std::unordered_map<net::NodeId, PathIndex> current_path_;
  std::unordered_map<proto::PathletId, sim::SimTime> excluded_until_;
  std::unordered_map<proto::PathletId, int> consecutive_losses_;
  transport::RtoEstimator rtt_;
  /// Exponential RTO backoff under consecutive timeouts (capped ×64,
  /// clamped to kMaxRto by rto()); reset by any new SACK progress. Karn-safe:
  /// rtt_ only ever learns from non-retransmitted packets.
  double rto_backoff_ = 1.0;
  static constexpr double kMaxRtoBackoff = 64.0;
  /// Per-message wheel timers can expire many messages inside what used to
  /// be one scan tick; the backoff doubles at most once per scan period.
  sim::SimTime last_backoff_at_;
  std::uint64_t pkts_sent_ = 0;
  std::uint64_t pkts_retx_ = 0;
  std::uint64_t checksum_drops_ = 0;
  std::uint64_t corrupted_delivered_ = 0;

  /// Per-destination admission credit (sender side of mtp::overload). The
  /// receiver's grant caps new in-flight bytes; inflight == 0 always admits
  /// one packet so a zero/stale grant can never wedge a sender.
  struct DstGrant {
    std::int64_t grant = 0;
    std::int64_t inflight = 0;
  };
  std::unordered_map<net::NodeId, DstGrant> grants_;
  std::uint64_t msgs_rejected_ = 0;

  // --- Receiver.
  std::unordered_map<transport::MsgKey, IncomingMessage, transport::MsgKeyHash> incoming_;
  transport::Tombstones completed_{transport::kHostTombstones};
  std::unordered_map<proto::PortNum, MessageHandler> handlers_;
  MessageHandler default_handler_;
  std::uint64_t msgs_delivered_ = 0;

  /// ACK coalescing state: the next ACK to each source, built from the most
  /// recent data packet (template) plus accumulated SACK entries.
  struct PendingAck {
    net::Packet last_data;  ///< template: ports, feedback echo, tc, priority
    std::vector<proto::SackEntry> sacks;
    std::vector<proto::SackEntry> nacks;
  };
  std::unordered_map<net::NodeId, PendingAck> pending_acks_;
  std::unique_ptr<sim::PeriodicTask> ack_flush_task_;
  std::uint64_t acks_sent_ = 0;

  /// Receiver side of mtp::overload: service-rate EWMA feeding grants, plus
  /// the busy-rejected tombstones that quench retransmissions of messages
  /// this endpoint refused (a message must never be both rejected and
  /// delivered, so rejects are remembered exactly like completions).
  overload::Admission admission_;
  transport::Tombstones rejected_{transport::kHostTombstones};
  std::uint64_t busy_rejects_sent_ = 0;
  std::uint64_t grants_issued_ = 0;
  std::uint64_t deadline_expiries_ = 0;

  telemetry::Registration metrics_;
  telemetry::Registration overload_metrics_;

 public:
  std::uint64_t acks_sent() const { return acks_sent_; }
};

}  // namespace mtp::core
