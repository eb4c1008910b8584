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
//     reliability: per-message unacked sets, retransmission on NACK or
//     timeout, bounded retries. Congestion control is intentionally simple
//     (devices sit at line rate next to their egress queue).
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "net/switch.hpp"
#include "sim/simulator.hpp"
#include "telemetry/trace.hpp"

namespace mtp::innetwork {

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
    std::size_t completed_cache = 1 << 12;
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
    const Key key{src, id};
    return partial_.contains(key) || completed_.contains(key);
  }

  /// Consume a data packet: ACK it to the sender and accumulate. Returns the
  /// completed message once all packets arrived. Corrupted packets are
  /// NACKed and never accumulated — an in-network device must not compute on
  /// damaged payloads (the checksum stands in for end-host verification).
  std::optional<DeviceMessage> on_data(const net::Packet& pkt) {
    const auto& hdr = pkt.mtp();
    const Key key{pkt.src, hdr.msg_id};
    if (!pkt.checksum_ok()) {
      ++checksum_drops_;
      ack(pkt, /*nack=*/true);
      return std::nullopt;
    }
    if (pkt.corrupted) ++corrupted_delivered_;  // checksum missed real damage
    ack(pkt, /*nack=*/false);
    if (completed_.contains(key)) return std::nullopt;  // dup of delivered msg
    if (hdr.msg_len_pkts == 0 || hdr.pkt_num >= hdr.msg_len_pkts) return std::nullopt;

    auto [it, fresh] = partial_.try_emplace(key);
    auto& st = it->second;
    if (fresh) {
      st.have.assign(hdr.msg_len_pkts, false);
      st.total_pkts = hdr.msg_len_pkts;
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
    if (!st.have[hdr.pkt_num]) {
      st.have[hdr.pkt_num] = true;
      ++st.received;
    }
    if (st.received != st.total_pkts) return std::nullopt;
    DeviceMessage done = std::move(st.msg);
    partial_.erase(it);
    completed_.insert(key);
    completed_fifo_.push_back(key);
    while (completed_fifo_.size() > cfg_.completed_cache) {
      completed_.erase(completed_fifo_.front());
      completed_fifo_.pop_front();
    }
    return done;
  }

  /// Drop all reassembly state (crash with state wipe). In-flight messages
  /// will be re-offered from packet 0 by the sender's retransmissions.
  void clear() {
    partial_.clear();
    completed_.clear();
    completed_fifo_.clear();
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
    return !rejected_.empty() && rejected_.contains(Key{src, id});
  }

  /// Busy-reject a message: explicit NACK-style refusal in the MTP header
  /// overload block (never a silent drop). The sender aborts the message and
  /// surfaces the reject to its RPC layer. Remembered like a completion so
  /// retransmissions are quenched, bounded by the same cache budget.
  void busy_reject(const net::Packet& data, std::uint8_t flags) {
    const auto& dh = data.mtp();
    const Key key{data.src, dh.msg_id};
    if (rejected_.insert(key).second) {
      rejected_fifo_.push_back(key);
      while (rejected_fifo_.size() > cfg_.completed_cache) {
        rejected_.erase(rejected_fifo_.front());
        rejected_fifo_.pop_front();
      }
    }
    ++busy_rejects_;
    net::Packet p;
    p.src = sw_.id();
    p.dst = data.src;
    p.header_bytes = 64;
    p.tc = data.tc;
    p.priority = data.priority;
    proto::MtpHeader hdr;
    hdr.src_port = dh.dst_port;
    hdr.dst_port = dh.src_port;
    hdr.type = proto::MtpPacketType::kAck;
    hdr.msg_id = dh.msg_id;
    hdr.tc = dh.tc;
    hdr.msg_len_bytes = dh.msg_len_bytes;
    hdr.msg_len_pkts = dh.msg_len_pkts;
    hdr.pkt_num = dh.pkt_num;
    hdr.overload.ensure().flags = flags;
    p.header = std::move(hdr);
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
    const auto& dh = data.mtp();
    net::Packet p;
    p.src = sw_.id();
    p.dst = data.src;
    p.header_bytes = 64;
    p.tc = data.tc;
    p.priority = data.priority;
    proto::MtpHeader hdr;
    hdr.src_port = dh.dst_port;
    hdr.dst_port = dh.src_port;
    hdr.type = proto::MtpPacketType::kAck;
    hdr.msg_id = dh.msg_id;
    hdr.tc = dh.tc;
    hdr.msg_len_bytes = dh.msg_len_bytes;
    hdr.msg_len_pkts = dh.msg_len_pkts;
    hdr.pkt_num = dh.pkt_num;
    hdr.ack_path_feedback() = dh.path_feedback();
    if (nack) {
      hdr.nack().push_back({dh.msg_id, dh.pkt_num});
    } else {
      hdr.sack().push_back({dh.msg_id, dh.pkt_num});
    }
    p.header = std::move(hdr);
    sw_.inject(std::move(p));
  }

 private:
  struct Key {
    net::NodeId src;
    proto::MsgId id;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      return std::hash<std::uint64_t>()((static_cast<std::uint64_t>(k.src) << 32) ^ k.id);
    }
  };
  struct Partial {
    std::vector<bool> have;
    std::uint32_t received = 0;
    std::uint32_t total_pkts = 0;
    DeviceMessage msg;
  };

  net::Switch& sw_;
  Config cfg_;
  std::unordered_map<Key, Partial, KeyHash> partial_;
  std::unordered_set<Key, KeyHash> completed_;
  std::deque<Key> completed_fifo_;
  std::unordered_set<Key, KeyHash> rejected_;
  std::deque<Key> rejected_fifo_;
  std::uint64_t checksum_drops_ = 0;
  std::uint64_t corrupted_delivered_ = 0;
  std::uint64_t busy_rejects_ = 0;
};

// Helper: DeviceMessage carries bytes; packet count comes from headers.
inline std::uint32_t device_msg_pkts(std::int64_t bytes, std::uint32_t mss) {
  return static_cast<std::uint32_t>((bytes + mss - 1) / mss);
}

class DeviceSender {
 public:
  struct Config {
    std::uint32_t mss = 1000;
    std::uint32_t header_bytes = 64;
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
    Outgoing msg;
    msg.dst = dst;
    msg.bytes = bytes;
    msg.opts = std::move(opts);
    msg.total_pkts = device_msg_pkts(bytes, cfg_.mss);
    for (std::uint32_t k = 0; k < msg.total_pkts; ++k) msg.unsacked.insert(k);
    auto [it, ok] = outgoing_.emplace(id, std::move(msg));
    (void)ok;
    Outgoing& m = it->second;
    // Open a window's worth; each SACK clocks out the next unsent packet.
    while (m.next_unsent < m.total_pkts && m.next_unsent < cfg_.window_pkts) {
      emit(id, m, m.next_unsent++);
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
      if (m.unsacked.erase(e.pkt_num) != 0) {
        m.last_tx = sw_.simulator().now();  // forward progress
        if (m.next_unsent < m.total_pkts) emit(e.msg_id, m, m.next_unsent++);
      }
      if (m.unsacked.empty()) outgoing_.erase(it);
    }
    for (const auto& e : hdr.nack()) {
      auto it = outgoing_.find(e.msg_id);
      if (it == outgoing_.end()) continue;
      consumed = true;
      if (it->second.unsacked.contains(e.pkt_num)) emit(e.msg_id, it->second, e.pkt_num);
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
  struct Outgoing {
    net::NodeId dst;
    std::int64_t bytes;
    SendOptions opts;
    std::uint32_t total_pkts;
    std::uint32_t next_unsent = 0;
    std::unordered_set<std::uint32_t> unsacked;
    sim::SimTime last_tx;
    int retries = 0;
  };

  void emit(proto::MsgId id, Outgoing& msg, std::uint32_t pkt_num) {
    net::Packet p;
    p.src = sw_.id();
    p.dst = msg.dst;
    const std::int64_t off = static_cast<std::int64_t>(pkt_num) * cfg_.mss;
    p.payload_bytes = static_cast<std::uint32_t>(
        std::min<std::int64_t>(cfg_.mss, msg.bytes - off));
    p.header_bytes = cfg_.header_bytes;
    p.ecn = net::Ecn::kEct;
    p.tc = msg.opts.tc;
    p.priority = msg.opts.priority;
    proto::MtpHeader hdr;
    hdr.src_port = msg.opts.src_port;
    hdr.dst_port = msg.opts.dst_port;
    hdr.msg_id = id;
    hdr.priority = msg.opts.priority;
    hdr.tc = msg.opts.tc;
    hdr.msg_len_bytes = static_cast<std::uint64_t>(msg.bytes);
    hdr.msg_len_pkts = msg.total_pkts;
    hdr.pkt_num = pkt_num;
    hdr.pkt_offset = static_cast<std::uint64_t>(off);
    hdr.pkt_len = p.payload_bytes;
    if (pkt_num == 0 && msg.opts.app) p.app = *msg.opts.app;
    p.header = std::move(hdr);
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
        if (msg.unsacked.contains(k)) {
          emit(it->first, msg, k);
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
