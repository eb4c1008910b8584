// TCP and UDP headers for the baseline transports.
//
// These model the fields the simulated stacks actually use; option parsing,
// checksums and urgent pointers are out of scope (they do not affect any of
// the paper's experiments).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "proto/boxed.hpp"
#include "proto/types.hpp"

namespace mtp::proto {

/// TCP flag bits (subset).
enum TcpFlags : std::uint8_t {
  kTcpSyn = 1 << 0,
  kTcpAck = 1 << 1,
  kTcpFin = 1 << 2,
  kTcpRst = 1 << 3,
  kTcpEce = 1 << 4,  ///< ECN-Echo: receiver saw CE-marked segment (RFC 3168)
  kTcpCwr = 1 << 5,  ///< Congestion Window Reduced
};

/// One SACK block: received bytes [start, end).
struct TcpSackBlock {
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  bool operator==(const TcpSackBlock&) const = default;
};

struct TcpHeader {
  PortNum src_port = 0;
  PortNum dst_port = 0;
  std::uint64_t seq = 0;      ///< 64-bit in simulation: no wraparound handling needed
  std::uint64_t ack = 0;      ///< cumulative ack (valid when kTcpAck set)
  std::uint8_t flags = 0;
  std::uint64_t rwnd = 0;     ///< receive window in bytes (no window scaling games)
  std::uint32_t payload = 0;  ///< payload bytes carried (convenience; also in Packet)

  /// RFC 2018 SACK option (up to kMaxSackBlocks). Boxed: most segments carry
  /// no SACK blocks, and packets are moved on every hop, so the option only
  /// costs a pointer when absent. The mutable accessor allocates on first
  /// touch; the const accessor reads an empty list for free.
  Boxed<std::vector<TcpSackBlock>> sack_blocks;
  std::vector<TcpSackBlock>& sack() { return sack_blocks.ensure(); }
  const std::vector<TcpSackBlock>& sack() const { return sack_blocks.view(); }

  static constexpr std::size_t kMaxSackBlocks = 3;

  bool has(TcpFlags f) const { return (flags & f) != 0; }

  bool operator==(const TcpHeader&) const = default;
};

struct UdpHeader {
  PortNum src_port = 0;
  PortNum dst_port = 0;
  std::uint32_t length = 0;  ///< payload bytes

  bool operator==(const UdpHeader&) const = default;
};

}  // namespace mtp::proto
