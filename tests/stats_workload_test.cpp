// Tests for the measurement (stats) and workload-generation libraries.
#include <gtest/gtest.h>

#include "helpers.hpp"
#include "stats/stats.hpp"
#include "stats/table.hpp"
#include "workload/workload.hpp"

namespace mtp::stats {
namespace {

using namespace mtp::sim::literals;
using sim::SimTime;

TEST(Percentile, NearestRankSemantics) {
  std::vector<double> xs{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 5.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 90), 9.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile({42.0}, 99), 42.0);
}

TEST(Percentile, InputOrderIrrelevant) {
  EXPECT_DOUBLE_EQ(percentile({5, 1, 3, 2, 4}, 99), 5.0);
}

TEST(Percentile, RejectsBadInput) {
  EXPECT_THROW(percentile({}, 50), std::invalid_argument);
  EXPECT_THROW(percentile({1.0}, -1), std::invalid_argument);
  EXPECT_THROW(percentile({1.0}, 101), std::invalid_argument);
}

TEST(Mean, Basics) {
  EXPECT_DOUBLE_EQ(mean({2, 4, 6}), 4.0);
  EXPECT_THROW(mean({}), std::invalid_argument);
}

TEST(JainIndex, KnownValues) {
  EXPECT_DOUBLE_EQ(jain_index({10, 10, 10}), 1.0);
  // One hog among n: index = 1/n.
  EXPECT_NEAR(jain_index({100, 0, 0, 0}), 0.25, 1e-9);
  // 80/10 split (the paper's Fig 7 shared-queue outcome).
  EXPECT_NEAR(jain_index({80, 10}), 0.623, 0.001);
  EXPECT_DOUBLE_EQ(jain_index({0, 0}), 1.0);  // degenerate: no traffic
}

TEST(ThroughputMeter, BucketsByWindow) {
  ThroughputMeter m(10_us);
  m.record(SimTime::microseconds(1), 1000);
  m.record(SimTime::microseconds(9), 1000);
  m.record(SimTime::microseconds(11), 500);
  const auto s = m.series();
  ASSERT_EQ(s.size(), 2u);
  // 2000 bytes in 10us = 1.6 Gb/s.
  EXPECT_NEAR(s[0].gbps, 1.6, 1e-9);
  EXPECT_NEAR(s[1].gbps, 0.4, 1e-9);
  EXPECT_EQ(m.total_bytes(), 2500);
}

TEST(ThroughputMeter, GapsAreZeroWindows) {
  ThroughputMeter m(10_us);
  m.record(SimTime::microseconds(5), 100);
  m.record(SimTime::microseconds(45), 100);
  const auto s = m.series();
  ASSERT_EQ(s.size(), 5u);
  EXPECT_GT(s[0].gbps, 0);
  EXPECT_EQ(s[1].gbps, 0);
  EXPECT_EQ(s[2].gbps, 0);
  EXPECT_GT(s[4].gbps, 0);
}

TEST(ThroughputMeter, RejectsZeroWindow) {
  EXPECT_THROW(ThroughputMeter(SimTime::zero()), std::invalid_argument);
}

TEST(FctRecorder, PercentilesOverRecords) {
  FctRecorder r;
  for (int i = 1; i <= 100; ++i) r.record(SimTime::microseconds(i), 1000);
  EXPECT_EQ(r.count(), 100u);
  EXPECT_DOUBLE_EQ(r.p50_us(), 50.0);
  EXPECT_DOUBLE_EQ(r.p99_us(), 99.0);
  EXPECT_DOUBLE_EQ(r.max_us(), 100.0);
  EXPECT_DOUBLE_EQ(r.mean_us(), 50.5);
}

TEST(FctRecorder, CachedSortedViewSurvivesInterleavedRecords) {
  FctRecorder r;
  // Record out of order, read, record more, read again: the cached sorted
  // view must be invalidated by each record and stay correct.
  r.record(SimTime::microseconds(30), 1000);
  r.record(SimTime::microseconds(10), 1000);
  r.record(SimTime::microseconds(20), 1000);
  EXPECT_DOUBLE_EQ(r.p50_us(), 20.0);
  EXPECT_DOUBLE_EQ(r.percentile_us(100), 30.0);
  r.record(SimTime::microseconds(5), 1000);
  EXPECT_DOUBLE_EQ(r.percentile_us(0), 5.0);
  EXPECT_DOUBLE_EQ(r.p50_us(), 10.0);
  EXPECT_DOUBLE_EQ(r.percentile_us(100), 30.0);
}

TEST(FctRecorder, SliceBucketsBySizeHalfOpen) {
  FctRecorder r;
  r.record(SimTime::microseconds(10), 500);      // short
  r.record(SimTime::microseconds(20), 999);      // short (below edge)
  r.record(SimTime::microseconds(300), 1000);    // long (edge is inclusive-min)
  r.record(SimTime::microseconds(500), 50'000);  // long
  const auto s = r.slice(0, 1000);
  EXPECT_EQ(s.count, 2u);
  EXPECT_DOUBLE_EQ(s.mean_us, 15.0);
  EXPECT_DOUBLE_EQ(s.p50_us, 10.0);
  EXPECT_DOUBLE_EQ(s.max_us, 20.0);
  const auto l = r.slice(1000, std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(l.count, 2u);
  EXPECT_DOUBLE_EQ(l.p99_us, 500.0);
  EXPECT_DOUBLE_EQ(l.max_us, 500.0);
  // Empty bucket: zero-valued summary, no throw.
  const auto none = r.slice(1'000'000, 2'000'000);
  EXPECT_EQ(none.count, 0u);
  EXPECT_DOUBLE_EQ(none.mean_us, 0.0);
  EXPECT_DOUBLE_EQ(none.p99_us, 0.0);
}

TEST(FctRecorder, TracksBytesAlongsideTimes) {
  FctRecorder r;
  r.record(SimTime::microseconds(1), 100);
  r.record(SimTime::microseconds(2), 250);
  ASSERT_EQ(r.sample_bytes().size(), 2u);
  EXPECT_EQ(r.sample_bytes()[1], 250);
  EXPECT_EQ(r.total_bytes(), 350);
}

TEST(TablePrinting, AlignsColumns) {
  Table t({"a", "long-header"});
  t.add_row({"x", "1"});
  t.add_row({"longer-cell", "2"});
  // Smoke: print to a memstream-less FILE — just ensure no crash on stdout.
  t.print(stderr);
  EXPECT_EQ(format("%d-%s", 7, "ok"), "7-ok");
}

}  // namespace
}  // namespace mtp::stats

namespace mtp::workload {
namespace {

using namespace mtp::sim::literals;

TEST(SizeDist, SkewedStaysInRangeAndSkews) {
  sim::Rng rng(2);
  auto d = SizeDist::skewed(10'000, 1'000'000'000);
  int small = 0;
  for (int i = 0; i < 5000; ++i) {
    const auto v = d.sample(rng);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 1'000'000'000);
    small += v < 100'000;
  }
  EXPECT_GT(small, 4000);  // majority short (paper's workload shape)
}

}  // namespace
}  // namespace mtp::workload
