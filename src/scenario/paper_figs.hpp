// Paper-experiment runners (Figs 5/6/7, fault recovery and the §4
// header-overhead ablation), shared so the figure benches, the ablation
// bench, and the guardrail tests all run the same scenario definitions.
#pragma once

#include <string>
#include <vector>

#include "scenario/scenario.hpp"
#include "telemetry/report.hpp"

namespace mtp::scenario {

/// Stamp the uniform per-transport RunReport columns — transport name,
/// completions, packets, retransmits, timeouts, grants — into a section, so
/// every multi-way figure reports the zoo the same way.
void add_transport_metrics(telemetry::RunReport::Section& sec,
                           const std::string& name,
                           const transport::TransportMetrics& m);

// ---------------------------------------------------------------- Fig 5

struct Fig5Result {
  std::string transport;
  std::vector<stats::ThroughputMeter::Sample> series;  ///< goodput per 32us
  double avg_gbps = 0;
  double fast_phase_gbps = 0;  ///< mean goodput while routed via the fast path
  double slow_phase_gbps = 0;
  transport::TransportMetrics metrics;  ///< RunReport per-transport columns
  /// Registry state at end of run (captured while the rig is still alive).
  telemetry::RegistrySnapshot registry;
};

/// Fig 5 scenario for any registered transport ("dctcp", "tcp", "homa",
/// "mptcp", ...): a first-hop switch alternates one long-lived flow between
/// a fast (100G) and a slow (10G) path every `flip_period`. Goodput sampled
/// every `sample` at the receiver. For MTP use run_fig5_mtp, which also
/// tags the paths with pathlets.
Fig5Result run_fig5(const std::string& transport, sim::SimTime duration,
                    sim::SimTime flip_period, sim::SimTime sample = 32_us);

/// run_fig5("dctcp", ...), the paper's baseline.
Fig5Result run_fig5_dctcp(sim::SimTime duration, sim::SimTime flip_period,
                          sim::SimTime sample = 32_us);

/// Run the Fig 5 scenario with MTP. `pathlets_per_path` true gives each path
/// its own pathlet id (MTP proper); false tags both paths with one id — the
/// single-pathlet ablation that mimics TCP.
Fig5Result run_fig5_mtp(sim::SimTime duration, sim::SimTime flip_period,
                        proto::FeedbackType feedback = proto::FeedbackType::kEcn,
                        bool pathlets_per_path = true,
                        sim::SimTime sample = 32_us);

// ---------------------------------------------------------------- Fig 6

struct Fig6Result {
  std::string scheme;
  std::string transport;
  std::size_t messages = 0;
  double p50_us = 0;
  double p99_us = 0;
  double mean_us = 0;
  double path_a_bytes_frac = 0;  ///< fraction of bytes on the first path
  transport::TransportMetrics metrics;  ///< RunReport per-transport columns
  stats::FctRecorder fct;        ///< full FCT sample set (size-bucket slicing)
  telemetry::RegistrySnapshot registry;
};

/// Fig 6: two 100G paths, one with +1us extra delay; skewed message sizes.
/// scheme:
///   ecmp   — per-message DCTCP connections, flow-hash placement
///   spray  — per-message DCTCP connections, per-packet spraying
///   mtp-lb — MTP + message-aware LB (the paper's scheme)
///   homa   — receiver-driven SRPT under per-packet spraying (Homa's
///            native fabric assumption; its receiver tolerates reordering)
///   mptcp  — coupled subflows, each ECMP-hashed onto its own path
Fig6Result run_fig6(const std::string& scheme, int messages, std::uint64_t seed,
                    std::int64_t max_msg_bytes = 16 << 20);

// ---------------------------------------------------------------- Fig 7

struct Fig7Result {
  std::string system;
  double tenant1_gbps = 0;
  double tenant2_gbps = 0;
  double jain = 0;
  telemetry::RegistrySnapshot registry;
};

/// Fig 7: two tenants over a shared 100G/10us link; tenant 2 sends 8x the
/// messages. system: "dctcp-shared" | "dctcp-queues" | "mtp-fairshare".
Fig7Result run_fig7(const std::string& system, sim::SimTime duration);

// ------------------------------------------------------- fault recovery

/// bench_fault_recovery timing: the sw1->swA uplink of a two-path fabric is
/// down over [kFaultFlapAt, kFaultFlapAt + kFaultFlapFor).
inline constexpr sim::SimTime kFaultFlapAt = sim::SimTime::milliseconds(2);
inline constexpr sim::SimTime kFaultFlapFor = sim::SimTime::milliseconds(4);
inline constexpr sim::SimTime kFaultWindow = sim::SimTime::microseconds(50);

struct FaultRecoveryResult {
  stats::ThroughputMeter meter{kFaultWindow};
  double pre_fault_gbps = 0;
  double during_fault_gbps = 0;
  /// Time from flap onset to the first goodput sample at >= 80% of the
  /// pre-fault mean; -1 if it never recovered inside the horizon.
  double recovery_us = -1;
  transport::TransportMetrics metrics;  ///< RunReport per-transport columns
};

/// `transport`:
///   "mtp"   — message-aware LB + pathlet auto-exclusion (the paper's story)
///   "tcp"   — DCTCP hash-pinned to the failing path (the ECMP model)
///   "homa"  — receiver-driven SRPT under per-packet spraying: half the
///             sprayed packets die while the link is down
///   "mptcp" — coupled subflows ECMP-spread over both paths: survivors
///             carry the load, dead subflows wait out their RTO penalty
FaultRecoveryResult run_fault_recovery(const std::string& transport);

// ------------------------------------------------------ header overhead

struct OverheadResult {
  std::uint64_t acks = 0;             ///< ACK packets the receiver sent
  double avg_data_header_bytes = 0;   ///< mean billed data header at the switch
  double fct_ms = 0;
};

/// Header/ACK overhead knobs from the paper's §4 discussion: one 5 MB MTP
/// transfer over a 10G host-switch-host path whose first hop is an ECN
/// pathlet. `ack_coalesce` is MtpConfig::ack_coalesce; the pathlet stamps
/// its feedback on one data packet in `selective_every`. The switch reads
/// each data header's size with transport::mtp_header_bytes, after the
/// pathlet's stamp.
OverheadResult run_overhead(std::uint32_t ack_coalesce, std::uint32_t selective_every);

}  // namespace mtp::scenario
