// Pieces every message transport shares: the RFC 6298 round-trip estimator
// and the 4-tuple flow hash MTP and Homa stamp on their packets.
//
// The arithmetic (and its order) is what the recorded completion digests were
// produced with; changing a constant or an operation order moves every
// transport's fct_digest.
#pragma once

#include <algorithm>
#include <cstdint>

#include "net/packet.hpp"
#include "sim/time.hpp"

namespace mtp::transport {

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

}  // namespace mtp::transport
