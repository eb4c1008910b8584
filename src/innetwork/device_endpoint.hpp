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
//     It impersonates the message's destination, so it is not an endpoint.
//
//   A core::MtpEndpoint on the device's switch — sends the messages the
//     device originates (replies, aggregates, transformed payloads) under
//     the same reliability and pathlet congestion control as a host. The
//     switch hands it the ACKs addressed to itself.
//
// DeviceReceiver runs on the shared message core (transport/message.hpp),
// the same tombstones, reassembly and packet builders MTP and Homa hosts use.
//
// One MtpEndpoint per switch: a switch has one MTP handler, so at most one
// message-sending device may sit on it.
#pragma once

#include <optional>
#include <unordered_map>

#include "mtp/endpoint.hpp"
#include "net/drop.hpp"
#include "net/switch.hpp"
#include "transport/message.hpp"

namespace mtp::innetwork {

/// Tombstones a DeviceReceiver keeps per set (delivered, busy-rejected).
inline constexpr std::size_t kDeviceTombstones = 1 << 12;

/// Reassembled message a device consumed. The device is not its
/// destination, so it also records where the message was headed.
struct DeviceMessage : core::ReceivedMessage {
  net::NodeId dst = net::kInvalidNode;
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
      net::drop(checksum_drops_, net::DropReason::kChecksum, sw_.simulator().now(),
                sw_.name(), pkt);
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
    rejected_.insert({data.src, data.mtp().msg_id});
    ++busy_rejects_;
    sw_.send(transport::make_busy_reject(data, sw_, flags));
  }

  std::uint64_t busy_rejects() const { return busy_rejects_; }

  /// Emit an ACK (or NACK) for a data packet, as an MTP receiver would.
  void ack(const net::Packet& data, bool nack) {
    const proto::SackEntry self[] = {{data.mtp().msg_id, data.mtp().pkt_num}};
    sw_.send(nack ? transport::make_ack(data, sw_.id(), {}, self)
                  : transport::make_ack(data, sw_.id(), self, {}));
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

}  // namespace mtp::innetwork
