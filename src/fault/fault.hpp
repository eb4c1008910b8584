// mtp::fault — deterministic, seeded fault injection (docs/faults.md).
//
// Everything here runs off the simulator clock and derives its randomness
// from an explicit seed, so a fault schedule is bit-reproducible per seed and
// safe under sim::ParallelSweep (no cross-job state: each injector owns its
// streams, and per-packet draws happen in deterministic event order).
//
// Three fault families:
//   - Link flaps: scheduled (flap_link) or seeded-random (random_flaps, a
//     bounded alternating up/down schedule pre-generated at attach time),
//     driven through the existing net::Link::set_up().
//   - Packet impairment: a per-link Gilbert-Elliott chain decides drop /
//     corrupt / pass for every packet entering the link (bursty loss, the
//     classic two-state wireless-and-bad-optics model).
//   - Crash with state wipe: a device (kvs_cache, l7_lb, aggregation, ...)
//     exposes crash()/restart(); the injector schedules both ends and
//     traces them.
//
// Every decision folds into digest(), so tests can assert that two runs of
// the same seed produced bit-identical fault timelines.
//
// Sharding (sim::sharded): an injector's faults may target links and devices
// spread across shards, so runtime work executes on the *owner's* simulator
// (flaps on link.simulator(), crashes on the simulator passed to
// crash_device) and runtime bookkeeping is shard-safe: counters are relaxed
// atomics, and the digest is a sim::RunDigest with one cell per stream (the
// build-time schedule, each flapped link, each crash, each impairment). A
// cell folds its own decisions in event order on one shard, so the digest is
// bit-identical for every shard count.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>

#include "net/link.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "telemetry/metrics.hpp"

namespace mtp::fault {

/// Two-state Markov packet impairment: an error-free Good state and a Bad
/// state with bursty loss/corruption. Transition draws happen
/// per packet, so burst lengths scale with offered load — the standard
/// Gilbert-Elliott formulation.
struct GilbertElliott {
  struct Config {
    double p_good_to_bad = 0.001;  ///< per-packet chance of entering a burst
    double p_bad_to_good = 0.05;   ///< per-packet chance of the burst ending
    double bad_loss = 0.25;
    double bad_corrupt = 0.25;
  };
  /// Good-state error rates. step() draws the fate of every packet in
  /// either state, so a run's random stream does not depend on the state.
  static constexpr double kGoodLoss = 0.0;
  static constexpr double kGoodCorrupt = 0.0;

  explicit GilbertElliott(Config cfg) : cfg(cfg) {}

  /// Advance the chain one packet and decide that packet's fate.
  net::FaultAction step(sim::Rng& rng) {
    if (bad) {
      if (rng.bernoulli(cfg.p_bad_to_good)) bad = false;
    } else {
      if (rng.bernoulli(cfg.p_good_to_bad)) bad = true;
    }
    const double loss = bad ? cfg.bad_loss : kGoodLoss;
    const double corrupt = bad ? cfg.bad_corrupt : kGoodCorrupt;
    const double u = rng.uniform();
    if (u < loss) return net::FaultAction::kDrop;
    if (u < loss + corrupt) return net::FaultAction::kCorrupt;
    return net::FaultAction::kNone;
  }

  Config cfg;
  bool bad = false;
};

class FaultInjector {
 public:
  /// `seed` is the root of every random stream this injector derives. Two
  /// injectors built with the same seed and driven by the same call sequence
  /// produce identical fault timelines.
  FaultInjector(sim::Simulator& sim, std::uint64_t seed, std::string name = "injector");

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;
  ~FaultInjector();

  /// Schedule one flap: `link` goes down at `down_at` and back up
  /// `down_for` later.
  void flap_link(net::Link& link, sim::SimTime down_at, sim::SimTime down_for);

  /// Seeded-random flap schedule on `link` over [start, horizon): alternating
  /// exponential up/down dwell times. The schedule is pre-generated from a
  /// derived stream at call time (bounded, deterministic by call order) and
  /// the link is guaranteed back up at or before `horizon`.
  void random_flaps(net::Link& link, sim::SimTime start, sim::SimTime horizon,
                    sim::SimTime mean_up, sim::SimTime mean_down);

  /// Attach a Gilbert-Elliott impairment to `link` (replaces any previous
  /// one). Per-packet decisions draw from a stream derived at attach time.
  void impair_link(net::Link& link, GilbertElliott::Config model);

  /// Remove the impairment from `link` (the link is clean again).
  void clear_impairment(net::Link& link);

  /// Schedule a crash-with-state-wipe: `crash_fn` at `at`, `restart_fn`
  /// `down_for` later. `name` identifies the device in traces. Runs on the
  /// injector's own simulator — for a device living on another shard, use
  /// the overload below with that shard's simulator.
  void crash_device(std::string name, sim::SimTime at, sim::SimTime down_for,
                    std::function<void()> crash_fn, std::function<void()> restart_fn);

  /// Same, but the crash/restart events run on `on` (the simulator of the
  /// shard that owns the device's state).
  void crash_device(sim::Simulator& on, std::string name, sim::SimTime at,
                    sim::SimTime down_for, std::function<void()> crash_fn,
                    std::function<void()> restart_fn);

  // --- Introspection. Relaxed atomics: runtime increments come from shard
  // worker threads; reads are exact once a run has joined.
  std::uint64_t flaps_scheduled() const { return flaps_scheduled_; }
  std::uint64_t flaps_executed() const { return flaps_executed_.load(std::memory_order_relaxed); }
  std::uint64_t crashes() const { return crashes_.load(std::memory_order_relaxed); }
  std::uint64_t restarts() const { return restarts_.load(std::memory_order_relaxed); }
  std::uint64_t pkts_dropped() const { return pkts_dropped_.load(std::memory_order_relaxed); }
  std::uint64_t pkts_corrupted() const { return pkts_corrupted_.load(std::memory_order_relaxed); }

  /// Fold of every fault decision this injector made — schedule generation
  /// and per-packet impairment verdicts alike, cleared impairments included.
  /// Equal digests mean bit-identical fault timelines, for any shard count
  /// (see the header comment). Call between runs, not during one.
  std::uint64_t digest() const { return digest_.value(); }

 private:
  static constexpr std::size_t kScheduleCell = 0;  ///< build-time decisions

  struct Impairment {
    GilbertElliott chain;
    sim::Rng rng;
    std::size_t cell;  ///< digest_ cell of this link's verdicts
    Impairment(GilbertElliott::Config cfg, std::uint64_t seed, std::size_t cell)
        : chain(cfg), rng(seed), cell(cell) {}
  };

  /// Derive an independent substream: splitmix64 over (root seed, counter).
  std::uint64_t derive_seed();
  std::size_t flap_cell(net::Link& link);
  void set_link_state(net::Link& link, std::size_t cell, bool up);

  sim::Simulator& sim_;
  std::uint64_t seed_;
  std::uint64_t streams_ = 0;
  std::string name_;
  std::unordered_map<net::Link*, std::unique_ptr<Impairment>> impaired_;
  std::unordered_map<net::Link*, std::size_t> flap_cells_;  ///< digest_ cell per flapped link
  sim::RunDigest digest_{1};  ///< kScheduleCell, then one cell per runtime stream
  std::uint64_t flaps_scheduled_ = 0;
  std::atomic<std::uint64_t> flaps_executed_{0};
  std::atomic<std::uint64_t> crashes_{0};
  std::atomic<std::uint64_t> restarts_{0};
  std::atomic<std::uint64_t> pkts_dropped_{0};
  std::atomic<std::uint64_t> pkts_corrupted_{0};
  telemetry::Registration metrics_;
};

}  // namespace mtp::fault
