// Message-level machinery for in-network compute devices.
//
// A device that terminates MTP messages (cache answering a request,
// mutation offload re-emitting a transformed message) needs two halves:
//
//   DeviceReceiver — acts as the MTP receiver for messages the device
//     consumes: ACKs every packet (so the original sender completes and
//     stops retransmitting) and reassembles per-message state. Thanks to
//     MTP's per-packet message attributes, this needs only bounded state:
//     the device can reject messages larger than its buffer budget *on the
//     first packet* (the header carries Msg Len) and let them pass through.
//
//   DeviceSender — injects new messages from the switch with lightweight
//     reliability: a fixed per-message window, retransmission on NACK or
//     timeout, bounded retries. Congestion control is intentionally simple
//     (devices sit at line rate next to their egress queue).
//
// Both halves run on the shared message core (transport/message.hpp), the
// same tombstones, reassembly, packet builders and sender record MTP and Homa
// hosts use; only the policy above is device-specific.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>

#include "net/switch.hpp"
#include "sim/simulator.hpp"
#include "telemetry/trace.hpp"
#include "transport/message.hpp"

namespace mtp::innetwork {

/// Payload bytes per device-emitted packet.
inline constexpr std::uint32_t kDeviceMss = 1000;
/// Accounted header overhead of every packet a device emits.
inline constexpr std::uint32_t kDeviceHeaderBytes = 64;
/// Tombstones a DeviceReceiver keeps per set (delivered, busy-rejected).
inline constexpr std::size_t kDeviceTombstones = 1 << 12;

/// Reassembled message a device consumed (mirrors core::ReceivedMessage but
/// lives here so innetwork does not depend on the endpoint library).
struct DeviceMessage {
  net::NodeId src = net::kInvalidNode;
  net::NodeId dst = net::kInvalidNode;  ///< where the message was headed
  proto::MsgId msg_id = 0;
  std::int64_t bytes = 0;
  std::uint8_t priority = 0;
  proto::TrafficClassId tc = 0;
  proto::PortNum src_port = 0;
  proto::PortNum dst_port = 0;
  std::optional<net::AppData> app;
};

class DeviceReceiver {
 public:
  struct Config {
    /// Messages larger than this pass through untouched (bounded buffering —
    /// the paper's "low buffering and computation requirements").
    std::int64_t max_message_bytes = 1 << 20;
  };

  DeviceReceiver(net::Switch& sw, Config cfg) : sw_(sw), cfg_(cfg) {}

  /// True if the device is willing to consume this message (fits budget).
  bool admissible(const proto::MtpHeader& hdr) const {
    return hdr.msg_len_bytes <= static_cast<std::uint64_t>(cfg_.max_message_bytes);
  }

  /// True if this receiver already adopted the message (partial or recently
  /// completed). Devices that select messages by AppData — which rides only
  /// on packet 0 — use this to keep consuming the remaining packets.
  bool tracking(net::NodeId src, proto::MsgId id) const {
    const transport::MsgKey key{src, id};
    return partial_.contains(key) || completed_.contains(key);
  }

  /// Consume a data packet: ACK it to the sender and accumulate. Returns the
  /// completed message once all packets arrived. Corrupted packets are
  /// NACKed and never accumulated — an in-network device must not compute on
  /// damaged payloads (the checksum stands in for end-host verification).
  std::optional<DeviceMessage> on_data(const net::Packet& pkt) {
    const auto& hdr = pkt.mtp();
    const transport::MsgKey key{pkt.src, hdr.msg_id};
    if (!pkt.checksum_ok()) {
      ++checksum_drops_;
      ack(pkt, /*nack=*/true);
      return std::nullopt;
    }
    if (pkt.corrupted) ++corrupted_delivered_;  // checksum missed real damage
    ack(pkt, /*nack=*/false);
    if (completed_.contains(key)) return std::nullopt;  // dup of delivered msg
    if (!transport::Reassembly::well_formed(hdr)) return std::nullopt;

    auto [it, fresh] = partial_.try_emplace(key);
    auto& st = it->second;
    if (fresh) {
      st.start(hdr.msg_len_pkts);
      st.msg.src = pkt.src;
      st.msg.dst = pkt.dst;
      st.msg.msg_id = hdr.msg_id;
      st.msg.bytes = static_cast<std::int64_t>(hdr.msg_len_bytes);
      st.msg.priority = hdr.priority;
      st.msg.tc = hdr.tc;
      st.msg.src_port = hdr.src_port;
      st.msg.dst_port = hdr.dst_port;
    }
    if (pkt.app) st.msg.app = *pkt.app;
    st.add(hdr.pkt_num);
    if (!st.complete()) return std::nullopt;
    DeviceMessage done = std::move(st.msg);
    partial_.erase(it);
    completed_.insert(key);
    return done;
  }

  /// Drop all reassembly state (crash with state wipe). In-flight messages
  /// will be re-offered from packet 0 by the sender's retransmissions.
  void clear() {
    partial_.clear();
    completed_.clear();
  }

  std::uint64_t checksum_drops() const { return checksum_drops_; }
  /// Corrupted payloads that passed verification — must stay 0.
  std::uint64_t corrupted_delivered() const { return corrupted_delivered_; }
  /// Messages currently under reassembly (overload shedding's work measure).
  std::size_t partials() const { return partial_.size(); }

  /// True if this device busy-rejected the message (overload shed). Devices
  /// check before adopting so every retransmission is re-rejected — a shed
  /// message must never be partially reassembled later.
  bool rejected(net::NodeId src, proto::MsgId id) const {
    return rejected_.contains({src, id});
  }

  /// Busy-reject a message: explicit NACK-style refusal in the MTP header
  /// overload block (never a silent drop). The sender aborts the message and
  /// surfaces the reject to its RPC layer. Remembered like a completion so
  /// retransmissions are quenched, bounded by the same cache budget.
  void busy_reject(const net::Packet& data, std::uint8_t flags) {
    const auto& dh = data.mtp();
    rejected_.insert({data.src, dh.msg_id});
    ++busy_rejects_;
    net::Packet p = transport::make_reply(data, sw_.id());
    p.header_bytes = kDeviceHeaderBytes;
    p.mtp().overload.ensure().flags = flags;
    if (telemetry::TraceSink::enabled()) {
      telemetry::TraceEvent ev;
      ev.t = sw_.simulator().now();
      ev.type = telemetry::TraceEventType::kBusy;
      ev.component = sw_.name();
      ev.src = sw_.id();
      ev.dst = data.src;
      ev.msg_id = dh.msg_id;
      ev.pkt_num = dh.pkt_num;
      ev.bytes = data.size_bytes();
      ev.tc = data.tc;
      ev.value = flags;
      telemetry::trace().record(ev);
    }
    sw_.inject(std::move(p));
  }

  std::uint64_t busy_rejects() const { return busy_rejects_; }

  /// Emit an ACK (or NACK) for a data packet, as an MTP receiver would.
  void ack(const net::Packet& data, bool nack) {
    net::Packet p = transport::make_reply(data, sw_.id());
    p.header_bytes = kDeviceHeaderBytes;
    auto& hdr = p.mtp();
    hdr.ack_path_feedback() = data.mtp().path_feedback();
    (nack ? hdr.nack() : hdr.sack()).push_back({hdr.msg_id, hdr.pkt_num});
    sw_.inject(std::move(p));
  }

 private:
  struct Partial : transport::Reassembly {
    DeviceMessage msg;
  };

  net::Switch& sw_;
  Config cfg_;
  std::unordered_map<transport::MsgKey, Partial, transport::MsgKeyHash> partial_;
  transport::Tombstones completed_{kDeviceTombstones};
  transport::Tombstones rejected_{kDeviceTombstones};
  std::uint64_t checksum_drops_ = 0;
  std::uint64_t corrupted_delivered_ = 0;
  std::uint64_t busy_rejects_ = 0;
};

class DeviceSender {
 public:
  struct Config {
    sim::SimTime retx_timeout = sim::SimTime::microseconds(500);
    int max_retries = 5;
    /// Packets in flight per message: the device self-clocks on ACKs rather
    /// than dumping whole messages into its egress queue.
    std::uint32_t window_pkts = 64;
  };

  // The retransmit timer runs only while messages are outstanding so idle
  // devices leave the event queue empty.
  DeviceSender(net::Switch& sw, Config cfg) : sw_(sw), cfg_(cfg) {
    task_ = std::make_unique<sim::PeriodicTask>(sw_.simulator(), cfg_.retx_timeout,
                                                [this] { retx_scan(); });
  }

  struct SendOptions {
    std::uint8_t priority = 0;
    proto::TrafficClassId tc = 0;
    proto::PortNum src_port = 0;
    proto::PortNum dst_port = 0;
    std::optional<net::AppData> app;
  };

  proto::MsgId send(net::NodeId dst, std::int64_t bytes, SendOptions opts) {
    const proto::MsgId id = next_id_++;
    Outgoing& m = outgoing_[id];
    m.id = id;
    m.dst = dst;
    m.opts = std::move(opts);
    m.packetize(bytes, kDeviceMss);
    // Open a window's worth; each SACK clocks out the next unsent packet.
    while (m.next_unsent < m.total_pkts && m.next_unsent < cfg_.window_pkts) {
      emit(m, m.next_unsent++);
    }
    m.last_tx = sw_.simulator().now();
    if (!task_->running()) task_->start();
    return id;
  }

  /// Feed ACK packets addressed to this switch. Returns true if consumed.
  bool handle_ack(const net::Packet& pkt) {
    if (!pkt.is_mtp() || !pkt.mtp().is_ack()) return false;
    const auto& hdr = pkt.mtp();
    bool consumed = false;
    for (const auto& e : hdr.sack()) {
      auto it = outgoing_.find(e.msg_id);
      if (it == outgoing_.end()) continue;
      consumed = true;
      Outgoing& m = it->second;
      if (m.unsacked(e.pkt_num)) {
        m.set_state(e.pkt_num, transport::PktState::kSacked);
        ++m.sacked;
        m.last_tx = sw_.simulator().now();  // forward progress
        if (m.next_unsent < m.total_pkts) emit(m, m.next_unsent++);
      }
      if (m.sacked == m.total_pkts) outgoing_.erase(it);
    }
    for (const auto& e : hdr.nack()) {
      auto it = outgoing_.find(e.msg_id);
      if (it == outgoing_.end()) continue;
      consumed = true;
      if (it->second.unsacked(e.pkt_num)) emit(it->second, e.pkt_num);
    }
    return consumed;
  }

  std::size_t outstanding() const { return outgoing_.size(); }
  std::uint64_t messages_sent() const { return next_id_ - 1; }
  std::uint64_t messages_abandoned() const { return abandoned_; }

  /// Abandon all in-flight messages and stop the retransmit timer (crash
  /// with state wipe). Peers see the messages simply stop arriving.
  void clear() {
    outgoing_.clear();
    if (task_->running()) task_->stop();
  }

 private:
  /// Packets are only ever unsent or sacked here: the window and the scan
  /// below need nothing finer.
  struct Outgoing : transport::OutboundMessage<SendOptions> {
    sim::SimTime last_tx;
    int retries = 0;

    /// In range and not yet SACKed (the bound check drops stray entries).
    bool unsacked(std::uint32_t pkt) const {
      return pkt < total_pkts && state(pkt) != transport::PktState::kSacked;
    }
  };

  void emit(const Outgoing& msg, std::uint32_t pkt_num) {
    net::Packet p = transport::make_data(sw_.id(), msg, pkt_num, kDeviceMss, msg.opts.priority);
    p.header_bytes = kDeviceHeaderBytes;
    if (pkt_num == 0 && msg.opts.app) p.app = *msg.opts.app;
    sw_.inject(std::move(p));
  }

  void retx_scan() {
    if (outgoing_.empty()) {
      task_->stop();
      return;
    }
    const sim::SimTime now = sw_.simulator().now();
    for (auto it = outgoing_.begin(); it != outgoing_.end();) {
      Outgoing& msg = it->second;
      if (now - msg.last_tx < cfg_.retx_timeout) {
        ++it;
        continue;
      }
      if (++msg.retries > cfg_.max_retries) {
        ++abandoned_;
        it = outgoing_.erase(it);
        continue;
      }
      // Retransmit a window's worth of the oldest unacked packets.
      std::uint32_t budget = cfg_.window_pkts;
      for (std::uint32_t k = 0; k < msg.next_unsent && budget > 0; ++k) {
        if (msg.unsacked(k)) {
          emit(msg, k);
          --budget;
        }
      }
      msg.last_tx = now;
      ++it;
    }
  }

  net::Switch& sw_;
  Config cfg_;
  std::unordered_map<proto::MsgId, Outgoing> outgoing_;
  proto::MsgId next_id_ = 1;
  std::uint64_t abandoned_ = 0;
  std::unique_ptr<sim::PeriodicTask> task_;
};

}  // namespace mtp::innetwork
