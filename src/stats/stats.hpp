// Measurement instruments used by tests, examples and the benchmark harness.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "sim/time.hpp"

namespace mtp::stats {

/// Exact nearest-rank percentile over an already-sorted sample set. p in
/// [0, 100].
inline double sorted_percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) throw std::invalid_argument("percentile: empty sample set");
  if (p < 0 || p > 100) throw std::invalid_argument("percentile: p out of range");
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  return sorted[rank == 0 ? 0 : rank - 1];
}

/// Exact percentile over a sample set (nearest-rank). p in [0, 100].
inline double percentile(std::vector<double> samples, double p) {
  std::sort(samples.begin(), samples.end());
  return sorted_percentile(samples, p);
}

inline double mean(const std::vector<double>& samples) {
  if (samples.empty()) throw std::invalid_argument("mean: empty sample set");
  double s = 0;
  for (double v : samples) s += v;
  return s / static_cast<double>(samples.size());
}

/// Jain's fairness index: 1.0 = perfectly equal shares, 1/n = one hog.
inline double jain_index(const std::vector<double>& shares) {
  if (shares.empty()) throw std::invalid_argument("jain_index: empty");
  double sum = 0, sum_sq = 0;
  for (double v : shares) {
    sum += v;
    sum_sq += v * v;
  }
  if (sum_sq == 0) return 1.0;
  return sum * sum / (static_cast<double>(shares.size()) * sum_sq);
}

/// Windowed throughput time series: record deliveries as they happen, read
/// back Gb/s per fixed window (Fig 5 samples goodput every 32 us).
class ThroughputMeter {
 public:
  explicit ThroughputMeter(sim::SimTime window) : window_(window) {
    if (window.ns() <= 0) throw std::invalid_argument("ThroughputMeter: window must be > 0");
  }

  void record(sim::SimTime now, std::int64_t bytes) {
    const auto bucket = static_cast<std::size_t>(now.ns() / window_.ns());
    if (bucket >= buckets_.size()) buckets_.resize(bucket + 1, 0);
    buckets_[bucket] += bytes;
    total_bytes_ += bytes;
  }

  struct Sample {
    sim::SimTime start;
    double gbps;
  };

  /// One sample per window from t=0 through the last recorded window.
  std::vector<Sample> series() const {
    std::vector<Sample> out;
    out.reserve(buckets_.size());
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      const double gbps =
          static_cast<double>(buckets_[i]) * 8.0 / window_.sec() / 1e9;
      out.push_back({sim::SimTime::nanoseconds(static_cast<std::int64_t>(i) * window_.ns()), gbps});
    }
    return out;
  }

  /// Average rate over [0, end of last window with data].
  double average_gbps() const {
    if (buckets_.empty()) return 0;
    const double duration_s = static_cast<double>(buckets_.size()) * window_.sec();
    return static_cast<double>(total_bytes_) * 8.0 / duration_s / 1e9;
  }

  std::int64_t total_bytes() const { return total_bytes_; }
  sim::SimTime window() const { return window_; }

 private:
  sim::SimTime window_;
  std::vector<std::int64_t> buckets_;
  std::int64_t total_bytes_ = 0;
};

/// Flow/message completion-time recorder.
///
/// Quantile reads are served from a sorted view that is cached between
/// records (a record invalidates it), so `p50_us(); p99_us(); ...` sorts
/// once instead of copying and re-sorting the full sample set per call.
/// Message sizes are kept alongside the times so tail latency can be sliced
/// by size bucket (the paper's Fig 3 contrasts short and long messages).
class FctRecorder {
 public:
  void record(sim::SimTime fct, std::int64_t bytes) {
    fct_us_.push_back(fct.us());
    bytes_.push_back(bytes);
    total_bytes_ += bytes;
    sorted_dirty_ = true;
  }

  std::size_t count() const { return fct_us_.size(); }
  double p99_us() const { return percentile_us(99); }
  double p50_us() const { return percentile_us(50); }
  double mean_us() const { return mean(fct_us_); }
  double max_us() const { return *std::max_element(fct_us_.begin(), fct_us_.end()); }
  const std::vector<double>& samples_us() const { return fct_us_; }
  const std::vector<std::int64_t>& sample_bytes() const { return bytes_; }
  std::int64_t total_bytes() const { return total_bytes_; }

  /// Nearest-rank percentile over all samples, via the cached sorted view.
  double percentile_us(double p) const { return sorted_percentile(sorted(), p); }

  /// FCT summary restricted to one message-size bucket.
  struct SizeSlice {
    std::size_t count = 0;
    double mean_us = 0;
    double p50_us = 0;
    double p99_us = 0;
    double max_us = 0;
  };

  /// Summary over messages with min_bytes <= size < max_bytes (half-open;
  /// pass max_bytes = INT64_MAX for an unbounded upper edge). Zero-valued
  /// when no message falls in the bucket.
  SizeSlice slice(std::int64_t min_bytes, std::int64_t max_bytes) const {
    std::vector<double> xs;
    for (std::size_t i = 0; i < fct_us_.size(); ++i) {
      if (bytes_[i] >= min_bytes && bytes_[i] < max_bytes) xs.push_back(fct_us_[i]);
    }
    SizeSlice out;
    if (xs.empty()) return out;
    std::sort(xs.begin(), xs.end());
    out.count = xs.size();
    out.mean_us = mean(xs);
    out.p50_us = sorted_percentile(xs, 50);
    out.p99_us = sorted_percentile(xs, 99);
    out.max_us = xs.back();
    return out;
  }

 private:
  const std::vector<double>& sorted() const {
    if (sorted_dirty_) {
      sorted_ = fct_us_;
      std::sort(sorted_.begin(), sorted_.end());
      sorted_dirty_ = false;
    }
    return sorted_;
  }

  std::vector<double> fct_us_;
  std::vector<std::int64_t> bytes_;
  std::int64_t total_bytes_ = 0;
  mutable std::vector<double> sorted_;
  mutable bool sorted_dirty_ = false;
};

}  // namespace mtp::stats
