// The simulated packet.
//
// Packets carry metadata (sizes, ECN codepoint) plus a protocol header held
// in a variant. Payload bytes are modelled as a count, not a buffer — the
// experiments only depend on sizes and timing. Where payload *content*
// matters (the in-network KVS cache, mutation offloads), the content rides in
// the header's application fields or in the KeyValue annotation below.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <variant>

#include "proto/mtp_header.hpp"
#include "proto/tcp_header.hpp"
#include "proto/types.hpp"
#include "sim/slot_pool.hpp"
#include "sim/time.hpp"

namespace mtp::net {

/// Node address. The simulator uses flat addressing: one id per node.
using NodeId = std::uint32_t;
inline constexpr NodeId kInvalidNode = 0xffffffff;

/// Port index within a node (attachment point of a link).
using PortIndex = std::uint32_t;

/// IP ECN codepoint (RFC 3168). Queues mark kEct* -> kCe above threshold.
enum class Ecn : std::uint8_t { kNotEct = 0, kEct = 1, kCe = 3 };

/// Optional application payload annotation used by in-network compute
/// devices (KVS cache keys, etc.). Carried alongside the header because the
/// simulation does not materialize payload bytes.
struct AppData {
  std::string key;    ///< KVS key, request name, ...
  std::string value;  ///< KVS value or response body
  bool operator==(const AppData&) const = default;
};

struct Packet {
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  std::uint32_t payload_bytes = 0;  ///< application payload carried
  std::uint32_t header_bytes = 0;   ///< accounted header overhead on the wire
  Ecn ecn = Ecn::kNotEct;
  proto::TrafficClassId tc = 0;
  std::uint8_t priority = 0;

  // --- Per-hop scratch space owned by the Link currently carrying the
  // packet (with hop_enqueued_at below); reset on every send(). Not part of
  // the wire format. The two flags sit in the padding after priority.
  bool hop_was_ce = false;  ///< CE codepoint on arrival at the current hop

  /// Ground truth for fault injection: corrupt() sets this. The simulation
  /// does not materialize payload bytes, so this one bit stands in for the
  /// flipped bits — it feeds the fingerprint (making verification fail) but
  /// MUST NOT be consulted by any delivery path. Tests read it to prove that
  /// checksum verification, not this flag, kept corrupted data out.
  bool corrupted = false;

  std::uint64_t flow_hash = 0;  ///< 5-tuple-style hash for ECMP decisions

  /// Payload checksum, stamped by the first link the packet crosses (NIC
  /// checksum offload). 0 = not yet stamped. Receivers recompute and drop on
  /// mismatch; see stamp_fingerprint()/checksum_ok() below.
  std::uint64_t payload_fingerprint = 0;

  std::variant<std::monostate, proto::TcpHeader, proto::UdpHeader, proto::MtpHeader> header;

  /// Application payload annotation, boxed because almost every packet in
  /// flight has none and packets are moved on every hop. Mimics the optional
  /// interface (bool test, ->, *, assignment from AppData).
  proto::Boxed<AppData> app;

  sim::SimTime hop_enqueued_at;  ///< per-hop scratch: when this link queued it

  std::uint32_t size_bytes() const { return payload_bytes + header_bytes; }

  bool is_tcp() const { return std::holds_alternative<proto::TcpHeader>(header); }
  bool is_udp() const { return std::holds_alternative<proto::UdpHeader>(header); }
  bool is_mtp() const { return std::holds_alternative<proto::MtpHeader>(header); }

  proto::TcpHeader& tcp() { return std::get<proto::TcpHeader>(header); }
  const proto::TcpHeader& tcp() const { return std::get<proto::TcpHeader>(header); }
  proto::UdpHeader& udp() { return std::get<proto::UdpHeader>(header); }
  const proto::UdpHeader& udp() const { return std::get<proto::UdpHeader>(header); }
  proto::MtpHeader& mtp() { return std::get<proto::MtpHeader>(header); }
  const proto::MtpHeader& mtp() const { return std::get<proto::MtpHeader>(header); }

  // --- Payload checksum (fault model, docs/faults.md).
  //
  // The fingerprint covers the payload identity: size, application content,
  // and the protocol fields describing what the payload is. It deliberately
  // excludes everything legitimately rewritten en route — dst (the L7 load
  // balancer redirects requests), ECN, path feedback TLVs, per-hop scratch —
  // so only actual payload damage trips verification.
  std::uint64_t compute_fingerprint() const {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](std::uint64_t v) {
      h ^= v;
      h *= 0x100000001b3ULL;
      h ^= h >> 29;
    };
    mix(src);
    mix(payload_bytes);
    mix(corrupted ? 0x5bd1e995ULL : 0);
    if (app) {
      for (const char c : app->key) mix(static_cast<std::uint8_t>(c));
      for (const char c : app->value) mix(static_cast<std::uint8_t>(c));
    }
    if (is_mtp()) {
      const auto& m = mtp();
      mix((static_cast<std::uint64_t>(m.msg_id) << 8) | static_cast<std::uint64_t>(m.type));
      mix((static_cast<std::uint64_t>(m.pkt_num) << 32) | m.pkt_len);
      mix(m.pkt_offset);
      if (m.has_stream()) {
        const auto& s = *m.stream;
        mix((static_cast<std::uint64_t>(s.stream_id) << 16) |
            (static_cast<std::uint64_t>(s.kind) << 8) | s.flags);
        mix((static_cast<std::uint64_t>(s.seq) << 32) | s.fec_index);
        mix(s.offset);
      }
    } else if (is_tcp()) {
      const auto& t = tcp();
      mix((t.seq << 8) | t.flags);
      mix((static_cast<std::uint64_t>(t.src_port) << 32) | t.payload);
    } else if (is_udp()) {
      const auto& u = udp();
      mix((static_cast<std::uint64_t>(u.src_port) << 32) |
          (static_cast<std::uint64_t>(u.dst_port) << 16) | u.length);
    }
    return h == 0 ? 1 : h;  // 0 is reserved for "unstamped"
  }

  void stamp_fingerprint() { payload_fingerprint = compute_fingerprint(); }

  /// True when the payload matches its stamp. Unstamped packets (which never
  /// crossed a link) vacuously pass.
  bool checksum_ok() const {
    return payload_fingerprint == 0 || payload_fingerprint == compute_fingerprint();
  }

  /// Inject a payload bit error (Gilbert-Elliott corruption). The stored
  /// fingerprint keeps the value stamped before the damage, so every
  /// verifying receiver sees a mismatch.
  void corrupt() { corrupted = true; }
};

/// Where packets wait inside the net layer (docs/perf.md, "Where packets
/// wait"): queues and links hold 4-byte handles into a PacketPool, and the
/// packet itself stays in its pool slot from Link::send until delivery.
/// Network owns one pool per shard; a pool must outlive every link and
/// queue bound to it.
using PacketPool = sim::SlotPool<Packet>;
using PacketHandle = std::uint32_t;
inline constexpr PacketHandle kNoPacket = PacketPool::kNone;

}  // namespace mtp::net
