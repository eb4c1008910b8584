// Hybrid-fidelity harness: the same experiment with its bulk background run
// packet-accurate (paced CBR datagram streams) and flow-level (sim::flow
// fluid rates), plus a no-bulk control.
//
// The control matters: the interesting numbers are the *foreground* FCT
// percentiles under each bulk representation (they must agree within a few
// percent for the fluid model to be a valid stand-in) and the *bulk share*
// of simulator events, (events_packet - events_none) vs (events_flow -
// events_none) — the events the background itself costs, which is what the
// fluid model collapses by orders of magnitude.
//
// Used by tests/flow_test.cpp (tight gates) and bench/bench_scale.cpp (the
// --smoke hybrid block scripts/check.sh compares against BENCH_scale.json).
#pragma once

#include <cstdint>

#include "scenario/scenario.hpp"

namespace mtp::scenario::hybrid {

struct FidelityResult {
  // Foreground FCT percentiles (us) under: no bulk, packet bulk, fluid bulk.
  double p50_none = 0, p99_none = 0;
  double p50_packet = 0, p99_packet = 0;
  double p50_flow = 0, p99_flow = 0;
  std::uint64_t events_none = 0, events_packet = 0, events_flow = 0;
  std::size_t fg_count = 0;    ///< foreground completions (same in all runs)
  std::size_t bulk_count = 0;  ///< bulk transfers completed (packet == flow)
  /// Worst foreground percentile disagreement, flow vs packet, in percent.
  double fct_delta_pct = 0;
  /// Bulk-share event cost ratio: packet events per flow event.
  double bulk_event_ratio = 0;
};

/// Fig 3 rig: 8-sender incast foreground with 4 rate-capped bulk streams
/// into the same receiver downlink.
FidelityResult fig3_fidelity(std::uint64_t seed = 7);

/// Fig 7 rig: tenant foreground on a shared 100G bottleneck while the other
/// tenant runs a rate-capped bulk stream.
FidelityResult fig7_fidelity(std::uint64_t seed = 7);

struct TenantIsolationResult {
  int hosts = 0;
  unsigned shards = 1;
  std::uint64_t events = 0;
  std::uint64_t pkt_hops = 0;
  double wall_sec = 0;
  double events_per_sec = 0;
  double hops_per_sec = 0;
  std::size_t fg_sent = 0;
  std::size_t fg_completed = 0;
  std::size_t bulk_count = 0;
  std::size_t bulk_completed = 0;
  /// Folds foreground completion times (per-source cells) and every bulk
  /// transfer's exact completion time; shard-count-invariant by design.
  std::uint64_t digest = 0;
};

/// Tenant isolation at fabric scale: a k-ary fat-tree where every host sends
/// `msgs_per_host` packet-accurate MTP messages while a fluid bulk ring
/// (one rate-capped transfer per 8 hosts) occupies the fabric. The digest
/// must be bit-identical for every shard count.
TenantIsolationResult tenant_isolation(int k, unsigned shards,
                                       int msgs_per_host = 2);

}  // namespace mtp::scenario::hybrid
