// Deterministic random-number generation for simulations.
//
// Every experiment takes an explicit seed so results are reproducible; the
// bounded Pareto here is the message-size shape the paper's workloads need
// and is not in <random>.
#pragma once

#include <cmath>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <vector>

#include "sim/time.hpp"

namespace mtp::sim {

/// splitmix64 finalizer: the one 64-bit mixer behind seed substreams, flow
/// picks and RunDigest, through which every run digest folds. Recorded
/// digests depend on its exact constants.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// The determinism digest of one run: N order-sensitive cells, XORed.
///
/// Give every cell exactly one writer (a source host, a fault stream, one
/// shard-owned object). The cell then sees its values in simulated-time
/// order, which no shard count changes, and the XOR makes value()
/// independent of how cells interleave across shards. Cell i starts at
/// mix64(i), so identical sequences in two cells cannot XOR-cancel. Create
/// every cell before the run; cells are distinct words, so writers on
/// different shards need no synchronisation. Fold post-run totals in only
/// after the run has joined.
class RunDigest {
 public:
  explicit RunDigest(std::size_t cells) {
    for (std::size_t i = 0; i < cells; ++i) new_cell();
  }

  /// Append a cell and return its index. Never while a run is in flight.
  std::size_t new_cell() {
    cells_.push_back(mix64(cells_.size()));
    return cells_.size() - 1;
  }

  void add(std::size_t cell, std::uint64_t v) { cells_[cell] = mix64(cells_[cell] ^ v); }

  std::uint64_t value() const {
    std::uint64_t d = 0;
    for (const std::uint64_t c : cells_) d ^= c;
    return d;
  }

 private:
  std::vector<std::uint64_t> cells_;
};

/// A seeded PRNG plus the sampling helpers used throughout the workloads.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 1) : engine_(seed) {}

  std::uint64_t next_u64() { return engine_(); }

  /// Uniform double in [0, 1).
  double uniform() {
    return std::generate_canonical<double, 53>(engine_);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  double uniform_real(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Exponential with the given mean (inter-arrival times for Poisson flows).
  double exponential(double mean) {
    return std::exponential_distribution<double>(1.0 / mean)(engine_);
  }

  SimTime exponential_time(SimTime mean) {
    return SimTime::nanoseconds(
        static_cast<std::int64_t>(exponential(static_cast<double>(mean.ns()))));
  }

  bool bernoulli(double p) { return uniform() < p; }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

/// Bounded Pareto distribution over [lo, hi] with shape `alpha`.
///
/// This is the standard heavy-tailed, short-skewed message-size model: most
/// samples land near `lo`, with a tail stretching to `hi`. Used for the
/// Fig 6 workload ("10 KB-1 GB skewed toward short messages").
class BoundedPareto {
 public:
  BoundedPareto(double lo, double hi, double alpha) : lo_(lo), hi_(hi), alpha_(alpha) {
    if (!(lo > 0) || !(hi > lo) || !(alpha > 0)) {
      throw std::invalid_argument("BoundedPareto: need 0 < lo < hi and alpha > 0");
    }
  }

  double sample(Rng& rng) const {
    const double u = rng.uniform();
    const double la = std::pow(lo_, alpha_);
    const double ha = std::pow(hi_, alpha_);
    // Inverse-CDF of the bounded Pareto.
    return std::pow(-(u * ha - u * la - ha) / (ha * la), -1.0 / alpha_);
  }

  std::int64_t sample_int(Rng& rng) const {
    return static_cast<std::int64_t>(sample(rng));
  }

  double mean() const {
    if (alpha_ == 1.0) return lo_ * hi_ / (hi_ - lo_) * std::log(hi_ / lo_);
    const double la = std::pow(lo_, alpha_);
    const double ha = std::pow(hi_, alpha_);
    return la / (1 - la / ha) * (alpha_ / (alpha_ - 1)) *
           (1 / std::pow(lo_, alpha_ - 1) - 1 / std::pow(hi_, alpha_ - 1));
  }

 private:
  double lo_, hi_, alpha_;
};

}  // namespace mtp::sim
