// Guardrail tests for the paper's headline results: scaled-down versions of
// the Fig 5/6/7 experiments, fault recovery and the §4 header-overhead
// ablation with qualitative assertions, so a regression in any protocol
// component that would change the paper's story fails CI — not just the
// benchmarks' eyeballs.
#include <gtest/gtest.h>

#include "scenario/paper_figs.hpp"

namespace mtp::scenario {
namespace {

TEST(PaperFig5, MtpBeatsDctcpUnderPathFlapping) {
  const Fig5Result dctcp = run_fig5_dctcp(3_ms, 384_us);
  const Fig5Result mtp = run_fig5_mtp(3_ms, 384_us);
  // Paper: ~+33% goodput for MTP. Guard a conservative +15% so modelling
  // tweaks don't trip it, but a real regression does.
  EXPECT_GT(mtp.avg_gbps, dctcp.avg_gbps * 1.15)
      << "MTP " << mtp.avg_gbps << " vs DCTCP " << dctcp.avg_gbps;
  // MTP must ride the fast path near capacity when it is active.
  EXPECT_GT(mtp.fast_phase_gbps, 70.0);
  // And both protocols are capped by physics on the slow path.
  EXPECT_LT(mtp.slow_phase_gbps, 11.0);
  EXPECT_LT(dctcp.slow_phase_gbps, 11.0);
}

TEST(PaperFig5, MtpConvergesWithinOneSampleOfFlip) {
  const Fig5Result mtp = run_fig5_mtp(3_ms, 384_us);
  // After each slow->fast flip (skip the first, which includes slow start),
  // goodput must be back above 80 Gb/s within 2 samples (64 us).
  int checked = 0;
  for (std::size_t i = 1; i < mtp.series.size(); ++i) {
    const auto phase = (mtp.series[i].start.ns() / (384_us).ns()) % 2;
    const auto prev_phase = (mtp.series[i - 1].start.ns() / (384_us).ns()) % 2;
    const bool flip_to_fast = phase == 0 && prev_phase == 1;
    if (!flip_to_fast || i + 2 >= mtp.series.size()) continue;
    if (mtp.series[i].start < 1_ms) continue;  // warmup
    ++checked;
    EXPECT_GT(mtp.series[i + 2].gbps, 80.0)
        << "slow re-convergence after flip at " << mtp.series[i].start.to_string();
  }
  EXPECT_GE(checked, 2);
}

TEST(PaperFig6, MtpLbHasLowestTailEcmpAndSprayWorse) {
  const Fig6Result mtp = run_fig6("mtp-lb", 400, 7, 4 << 20);
  const Fig6Result ecmp = run_fig6("ecmp", 400, 7, 4 << 20);
  const Fig6Result spray = run_fig6("spray", 400, 7, 4 << 20);
  ASSERT_EQ(mtp.messages, 400u);
  ASSERT_EQ(ecmp.messages, 400u);
  ASSERT_EQ(spray.messages, 400u);
  EXPECT_LT(mtp.p99_us, ecmp.p99_us);
  EXPECT_LT(mtp.p99_us, spray.p99_us);
  // Spraying's reordering penalty on TCP is the paper's headline contrast.
  EXPECT_GT(spray.p99_us, mtp.p99_us * 3);
}

TEST(PaperFig7, SharedQueueSkewsAndMtpEqualizes) {
  const Fig7Result shared = run_fig7("dctcp-shared", 15_ms);
  const Fig7Result mtp = run_fig7("mtp-fairshare", 15_ms);
  // Per-flow fairness hands the 8-flow tenant most of the link (paper: ~8x).
  EXPECT_GT(shared.tenant2_gbps, shared.tenant1_gbps * 4);
  // MTP's per-TC fair share on the same shared FIFO equalizes.
  EXPECT_GT(mtp.jain, 0.95);
  EXPECT_GT(mtp.tenant1_gbps + mtp.tenant2_gbps, 40.0);  // and stays useful
}

TEST(PaperFaultRecovery, MtpRecoversStrictlyFasterThanTcpAcrossAFlap) {
  const FaultRecoveryResult mtp = run_fault_recovery("mtp");
  const FaultRecoveryResult tcp = run_fault_recovery("tcp");
  ASSERT_GT(mtp.recovery_us, 0) << "MTP never recovered inside the horizon";
  ASSERT_GT(tcp.recovery_us, 0) << "TCP never recovered inside the horizon";
  // The headline: per-message placement rides through the outage, the
  // hash-pinned bytestream waits it out plus its RTO backoff.
  EXPECT_LT(mtp.recovery_us, tcp.recovery_us);
  EXPECT_LT(mtp.recovery_us, kFaultFlapFor.us() * 0.5);  // during, not after
  EXPECT_GE(tcp.recovery_us, kFaultFlapFor.us());        // blackholed throughout
  EXPECT_GT(mtp.during_fault_gbps, 0.8 * mtp.pre_fault_gbps);
  EXPECT_LT(tcp.during_fault_gbps, 1.0);
}

TEST(PaperHeaderOverhead, CoalescingCutsAcksAndSelectiveStampingShrinksHeaders) {
  const OverheadResult base = run_overhead(/*ack_coalesce=*/1, /*selective_every=*/1);
  const OverheadResult coalesced = run_overhead(8, 1);
  const OverheadResult stamped = run_overhead(1, 10);
  // 5 MB in 1000 B packets: one ACK per packet, or one per 8.
  EXPECT_EQ(base.acks, 5000u);
  EXPECT_EQ(coalesced.acks, 625u);
  EXPECT_EQ(stamped.acks, 5000u);
  // Neither knob costs completion time beyond the rows' 2% spread.
  EXPECT_NEAR(coalesced.fct_ms, base.fct_ms, 0.02 * base.fct_ms);
  EXPECT_NEAR(stamped.fct_ms, base.fct_ms, 0.02 * base.fct_ms);
  // Stamping every packet bills one 14 B feedback TLV on each data header;
  // stamping one in ten bills fewer.
  EXPECT_DOUBLE_EQ(base.avg_data_header_bytes, transport::kMtpBaseHeaderBytes + 14);
  EXPECT_LT(stamped.avg_data_header_bytes, base.avg_data_header_bytes);
}

}  // namespace
}  // namespace mtp::scenario
