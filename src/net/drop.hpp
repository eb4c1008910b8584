// net::drop, the one drop path: every discarded packet is counted and traced
// here, as one kDrop whose `value` is its DropReason. The one_drop_path ctest
// fails if anything else in src/ records a kDrop.
#pragma once

#include <cstdint>
#include <string>

#include "net/packet.hpp"
#include "sim/time.hpp"

namespace mtp::net {

enum class DropReason : std::uint8_t {
  kLinkDown,      ///< sent into a down link, or queued on it when it flapped
  kFault,         ///< killed by the link's injected fault hook
  kQueueFull,     ///< rejected by a full egress queue
  kPolicer,       ///< over-share packet dropped by the fair-share policer
  kNoRoute,       ///< the switch has no route to the destination
  kMisdelivered,  ///< reached a host it is not addressed to
  kUnhandled,     ///< no stack, bound UDP port or known kind at the host
  kChecksum,      ///< payload checksum mismatch at the receiver
};

/// Bump `counter` and, when tracing, record the drop as seen by `component`.
[[gnu::cold]] void drop(std::uint64_t& counter, DropReason reason, sim::SimTime now,
                        const std::string& component, const Packet& pkt);
/// The trace alone, for a drop the egress queue counts itself.
[[gnu::cold]] void drop(DropReason reason, sim::SimTime now, const std::string& component,
                        const Packet& pkt);

}  // namespace mtp::net
