// Workload generation: message-size distributions and arrival processes.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace mtp::workload {

/// Message-size model. The paper's Fig 6 workload is "10 KB-1 GB skewed
/// toward short messages as per [DCTCP]"; skewed() builds that shape.
class SizeDist {
 public:
  static SizeDist bounded_pareto(std::int64_t lo, std::int64_t hi, double alpha) {
    return SizeDist{sim::BoundedPareto(static_cast<double>(lo), static_cast<double>(hi), alpha)};
  }

  /// The paper's skewed mix over [lo, hi]: bounded Pareto with shape 1.2 —
  /// the majority of messages land within ~4x of `lo`, with a heavy tail.
  static SizeDist skewed(std::int64_t lo, std::int64_t hi) {
    return bounded_pareto(lo, hi, 1.2);
  }

  std::int64_t sample(sim::Rng& rng) const {
    return std::max<std::int64_t>(1, dist_.sample_int(rng));
  }

  double mean() const { return dist_.mean(); }

 private:
  explicit SizeDist(sim::BoundedPareto d) : dist_(d) {}
  sim::BoundedPareto dist_;
};

/// Precomputed open-loop arrival schedule: one flat vector (16 bytes per
/// arrival), replayed by KeyedReplay with exactly one pending simulator event
/// at any moment, so generating load does not allocate per arrival during
/// the run. (Parking one scheduled event per message upfront costs 100k live
/// heap slots and closures at 100k+ concurrent messages before the first
/// packet moves.)
class ArrivalSchedule {
 public:
  struct Arrival {
    sim::SimTime at;
    std::uint32_t src = 0;  ///< caller-defined (e.g. sender host index)
    std::uint32_t bytes = 0;
  };
  using SendFn = std::function<void(const Arrival&)>;

  /// Append one arrival. Times must be non-decreasing (replay asserts).
  void add(sim::SimTime at, std::uint32_t src, std::int64_t bytes) {
    arrivals_.push_back(
        {at, src, static_cast<std::uint32_t>(std::min<std::int64_t>(bytes, UINT32_MAX))});
  }

  std::size_t size() const { return arrivals_.size(); }
  bool empty() const { return arrivals_.empty(); }
  const std::vector<Arrival>& arrivals() const { return arrivals_; }

 private:
  std::vector<Arrival> arrivals_;
};

/// One long bulk transfer, declared to ScenarioBuilder::bulk_transfer().
/// `src`/`dst` index the topology's sender hosts. rate_cap_bps > 0 paces the
/// transfer (a CBR source); 0 lets it take its max-min fair share. In
/// BulkMode::kFlowLevel these become fluid flows (sim/flow) — no per-packet
/// events; in BulkMode::kPacket the same transfers run as paced packet
/// streams, which is what the flow-vs-packet oracle test compares against.
struct BulkTransfer {
  sim::SimTime at;
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::int64_t bytes = 0;
  std::int64_t rate_cap_bps = 0;
};

/// `count` bulk transfers spread across `hosts` sources: source h sends to
/// the host `stride` ranks away, staggered `spacing` apart — the canned
/// background-load pattern the hybrid fidelity scenarios and the k=32
/// tenant-isolation rig share.
inline std::vector<BulkTransfer> bulk_ring(std::uint32_t hosts, std::uint32_t count,
                                           std::int64_t bytes, std::uint32_t stride,
                                           sim::SimTime spacing = sim::SimTime::zero(),
                                           std::int64_t rate_cap_bps = 0) {
  std::vector<BulkTransfer> v;
  v.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint32_t src =
        hosts == 0 ? 0 : static_cast<std::uint32_t>((std::uint64_t{i} * 97) % hosts);
    v.push_back({spacing * static_cast<std::int64_t>(i), src,
                 (src + stride) % (hosts == 0 ? 1 : hosts), bytes, rate_cap_bps});
  }
  return v;
}

/// Shard-invariant replay of a subset of an ArrivalSchedule.
///
/// Every arrival executes as its own *keyed* event at (arrival.at,
/// kArrivalKeyBase | schedule index), never batched with same-timestamp
/// arrivals into one plain FIFO event. The
/// tie-break position among same-timestamp events is derived from the
/// schedule, not from when the cursor event happened to be scheduled, so S
/// replays over S disjoint subsets (one per shard, each on its own
/// simulator) execute every arrival at exactly the position the serial
/// single-replay run would. Still one pending simulator event per replay at
/// any moment.
class KeyedReplay {
 public:
  using Arrival = ArrivalSchedule::Arrival;
  using SendFn = ArrivalSchedule::SendFn;

  /// Select the subset at construction: `take(arrival)` in schedule order.
  /// An empty `take` selects everything (the serial case — used for shard
  /// count 1 too, so one- and many-shard runs replay through identical
  /// machinery).
  KeyedReplay(const ArrivalSchedule& schedule, std::function<bool(const Arrival&)> take)
      : schedule_(&schedule) {
    const auto& all = schedule.arrivals();
    for (std::size_t i = 0; i < all.size(); ++i) {
      if (!take || take(all[i])) picks_.push_back(i);
    }
  }

  void start(sim::Simulator& simulator, SendFn send) {
    send_ = std::move(send);
    cursor_ = 0;
    schedule_next(simulator);
  }

  std::size_t size() const { return picks_.size(); }
  std::size_t replayed() const { return cursor_; }

 private:
  void schedule_next(sim::Simulator& simulator) {
    if (cursor_ >= picks_.size()) return;
    const std::size_t idx = picks_[cursor_];
    const Arrival& a = schedule_->arrivals()[idx];
    simulator.schedule_keyed_at(a.at, sim::kArrivalKeyBase | idx, [this, &simulator] {
      const Arrival& arr = schedule_->arrivals()[picks_[cursor_]];
      ++cursor_;
      schedule_next(simulator);  // chain first so send_ may run() recursively
      send_(arr);
    });
  }

  const ArrivalSchedule* schedule_;
  std::vector<std::size_t> picks_;  ///< global schedule indices, ascending
  std::size_t cursor_ = 0;
  SendFn send_;
};

}  // namespace mtp::workload
