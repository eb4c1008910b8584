// Homa-style receiver-driven message transport (Montazeri et al., SIGCOMM'18;
// the "replace TCP in the datacenter" bar the paper's evaluation must clear).
//
// Mechanisms modelled:
//   - Unscheduled first window: a sender blasts the first kRttBytes of every
//     message immediately at the highest priority — short messages complete
//     in one RTT with no handshake and no grant round-trip.
//   - Receiver-issued grants: bytes beyond the unscheduled window are sent
//     only when the receiver grants them. The receiver keeps its active
//     messages in SRPT order (fewest remaining bytes first) and grants the
//     top kOvercommit messages one kRttBytes of lookahead each, so the
//     downlink stays busy while the schedule still favors short messages.
//   - Priority remapping: unscheduled packets ride the top priority level;
//     granted packets carry the priority the receiver assigned by SRPT rank,
//     mapped onto the existing per-packet priority/TC fields.
//
// Wire format: the MTP header is reused verbatim (msg_id/len/pkt_num for
// data, SACK lists for acks, the overload block's grant_bytes for grant
// offsets) — so Homa packets get header parsing, checksum fingerprints, and
// switch-side message visibility for free. A HomaEndpoint claims the host's
// MTP protocol handler; a scenario runs either MTP or Homa on a host, never
// both.
#pragma once

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "net/host.hpp"
#include "sim/simulator.hpp"
#include "sim/timer_wheel.hpp"
#include "telemetry/metrics.hpp"
#include "transport/message.hpp"

namespace mtp::transport {

/// Per-message submission metadata (mirrors core::MessageOptions' subset the
/// receiver-driven protocol uses).
struct HomaOptions {
  proto::TrafficClassId tc = 0;
  proto::PortNum src_port = 0;
  proto::PortNum dst_port = 0;
};

/// One Homa transport attached to one host (sender and receiver roles).
class HomaEndpoint {
 public:
  /// A completed incoming message: source, payload size.
  using MessageHandler = std::function<void(net::NodeId src, std::int64_t bytes)>;
  using DoneFn = std::function<void(proto::MsgId, sim::SimTime fct)>;

  static constexpr std::uint32_t kMss = 1000;         ///< payload bytes per packet
  static constexpr std::uint32_t kHeaderBytes = 40;  ///< accounted fixed header overhead
  /// Unscheduled window and per-grant lookahead: roughly one
  /// bandwidth-delay product (25 KB ~ 100G x 2us RTT).
  static constexpr std::int64_t kRttBytes = 25'000;
  /// Messages granted concurrently (Homa's overcommitment degree): keeps the
  /// downlink busy when the top choice's sender stalls.
  static constexpr int kOvercommit = 2;
  static constexpr std::uint8_t kUnscheduledPriority = 7;  ///< highest level, short messages
  static constexpr std::uint8_t kSchedPriorities = 4;  ///< scheduled levels 0..n-1 by SRPT rank
  /// RTO ceiling; the floor is the shared kMinRto.
  static constexpr sim::SimTime kMaxRto = sim::SimTime::milliseconds(5);

  explicit HomaEndpoint(net::Host& host);
  ~HomaEndpoint();
  HomaEndpoint(const HomaEndpoint&) = delete;
  HomaEndpoint& operator=(const HomaEndpoint&) = delete;

  proto::MsgId send_message(net::NodeId dst, std::int64_t bytes,
                            HomaOptions opts = {}, DoneFn on_delivered = {});
  void listen(proto::PortNum port, MessageHandler handler);

  /// Fires once per new (non-duplicate) data packet with its payload size.
  std::function<void(std::int64_t bytes)> on_payload;

  // --- Introspection.
  std::uint64_t pkts_sent() const { return pkts_sent_; }
  std::uint64_t pkts_retransmitted() const { return pkts_retx_; }
  std::uint64_t msgs_delivered() const { return msgs_delivered_; }
  std::uint64_t grants_issued() const { return grants_issued_; }
  std::uint64_t acks_sent() const { return acks_sent_; }
  std::uint64_t checksum_drops() const { return checksum_drops_; }
  std::size_t outstanding_messages() const { return outgoing_.size(); }
  sim::SimTime srtt() const { return rtt_.srtt; }
  net::Host& host() { return host_; }

 private:
  /// Shared message core plus Homa's grant, cursor and backoff state.
  struct OutMsg : OutboundMessage<HomaOptions> {
    std::uint32_t cursor = 0;  ///< all packets below are sacked
    std::int64_t granted = 0;  ///< bytes the receiver allows (incl. unscheduled)
    std::uint8_t sched_prio = 0;  ///< priority the latest grant assigned
    double backoff = 1.0;
  };

  struct InMsg : Reassembly {
    std::int64_t total_bytes = 0;
    std::int64_t received_bytes = 0;
    std::int64_t granted = 0;  ///< highest grant offset sent so far
    proto::TrafficClassId tc = 0;
    proto::PortNum src_port = 0;
    proto::PortNum dst_port = 0;
    sim::SimTime first_pkt_at;
  };

  /// SRPT order with deterministic ties: (remaining bytes, source, msg id).
  using SrptKey = std::tuple<std::int64_t, net::NodeId, proto::MsgId>;

  void on_packet(net::Packet&& pkt);
  void on_data(net::Packet&& pkt);
  void on_ack(const net::Packet& pkt);
  void pump(OutMsg& msg);
  void send_data_pkt(OutMsg& msg, std::uint32_t pkt, bool is_retx);
  void emit_ack(const net::Packet& data);
  void send_grant(const MsgKey& key, InMsg& msg, std::int64_t offset,
                  std::uint8_t prio);
  /// Re-rank the active set and extend grants for the top kOvercommit.
  void issue_grants();
  void on_retx_timer(proto::MsgId id);
  static void retx_fire(void* self, std::uint64_t id);
  sim::SimTime rto(const OutMsg& msg) const {
    return rtt_.rto(kMinRto, kMaxRto, msg.backoff);
  }

  net::Host& host_;
  sim::Simulator& sim_;

  // --- Sender.
  proto::MsgId next_msg_id_ = 1;
  std::unordered_map<proto::MsgId, OutMsg> outgoing_;
  RtoEstimator rtt_;
  std::uint64_t pkts_sent_ = 0;
  std::uint64_t pkts_retx_ = 0;
  std::uint64_t checksum_drops_ = 0;

  // --- Receiver.
  std::unordered_map<MsgKey, InMsg, MsgKeyHash> incoming_;
  std::set<SrptKey> active_;  ///< incomplete messages in SRPT grant order
  Tombstones completed_{kHostTombstones};
  std::unordered_map<proto::PortNum, MessageHandler> handlers_;
  std::uint64_t msgs_delivered_ = 0;
  std::uint64_t grants_issued_ = 0;
  std::uint64_t acks_sent_ = 0;

  telemetry::Registration metrics_;
};

}  // namespace mtp::transport
