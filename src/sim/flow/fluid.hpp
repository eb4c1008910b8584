// Fluid (flow-level) model for long bulk transfers — the Narses idea.
//
// A bulk transfer that only has to *occupy capacity* does not need one event
// per packet: model it as a rate process on the conduits (links) along its
// path. The model re-solves max-min fair rates by progressive filling on
// every flow arrival, completion, capacity change (a link flap) and external
// load change (a declared packet-level burst), and schedules exactly one
// keyed simulator event per state change — orders of magnitude fewer events
// than per-packet simulation of the same bytes.
//
// Exactness: rates are integer bits/sec and progress is tracked in
// bit-nanoseconds (bits x 1e9), so the bits delivered over [t1, t2) at rate
// r are exactly r * (t2 - t1) with no floating-point drift. A flow finishes
// when its remaining bit-ns hits zero; per-conduit delivered accounting uses
// the same increments, so conservation (sum of per-flow deliveries ==
// per-conduit total, per-flow total == 8e9 x bytes at completion) holds
// bit-for-bit. violations() counts any breach — tests assert it stays 0.
//
// Sharding: the model is *replicated*, one identical instance per shard.
// Every input is declared before start() (flows, capacity events, load
// events), so every replica executes the identical solve sequence and
// schedules the identical keyed events (kFlowKeyBase | seq) on its own
// shard's simulator — no cross-shard messages, no effect on the engine's
// lookahead. Side effects are gated per replica: a conduit's RateFn and a
// flow's DoneFn are only installed on the shard that owns the link / the
// flow's source, so reservations and completion logs happen exactly once.
// This is why dynamic (runtime-measured) inputs are deliberately NOT
// supported: they would desynchronise the replicas.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace mtp::sim::flow {

class FluidModel {
 public:
  /// Applied whenever the summed flow rate through a conduit changes.
  /// Installed only on the replica whose shard owns the underlying link.
  using RateFn = std::function<void(std::int64_t reserved_bps)>;
  /// Fired once when a flow completes, on the replica owning its source.
  using DoneFn = std::function<void(std::uint32_t flow, SimTime at)>;

  struct Config {
    /// Flows may claim at most capacity * num/den of any conduit, so
    /// packet-level traffic always keeps a residual to transmit into.
    std::uint32_t capacity_num = 95;
    std::uint32_t capacity_den = 100;
  };

  FluidModel(Simulator& sim, Config cfg) : sim_(sim), cfg_(cfg) {}
  explicit FluidModel(Simulator& sim) : FluidModel(sim, Config{}) {}
  FluidModel(const FluidModel&) = delete;
  FluidModel& operator=(const FluidModel&) = delete;

  // --- declarations (identical call sequence on every replica, before start)

  /// Register a conduit (a link). Returns its index; callers must register
  /// conduits in the same order on every replica so indices agree.
  std::uint32_t add_conduit(std::int64_t capacity_bps, RateFn apply = nullptr);

  /// Declare a bulk transfer: `bytes` from `at` along `path` (conduit
  /// indices, in hop order). rate_cap_bps > 0 models a paced source (the
  /// flow never exceeds the cap even when max-min would allow it).
  std::uint32_t add_flow(SimTime at, std::vector<std::uint32_t> path,
                         std::int64_t bytes, std::int64_t rate_cap_bps = 0,
                         DoneFn done = nullptr);

  /// Declare a capacity change at `at` (0 = the conduit is down — the
  /// mirror of a scheduled link flap). Replaces the conduit's capacity.
  void set_capacity_at(SimTime at, std::uint32_t conduit, std::int64_t capacity_bps);

  /// Declare an external packet-level load delta on a conduit at `at`
  /// (+rate when a declared burst starts, -rate when it ends). Flows see
  /// fluid capacity max(0, cap_fraction * capacity - external_load).
  void add_load_at(SimTime at, std::uint32_t conduit, std::int64_t delta_bps);

  /// Schedule every declared event. Call exactly once, at declaration time
  /// (before the simulator runs past the earliest declaration).
  void start();

  // --- introspection (identical on every replica after the same sim time)

  std::size_t num_conduits() const { return conduits_.size(); }
  std::size_t num_flows() const { return flows_.size(); }
  std::uint64_t resolves() const { return resolves_; }
  std::uint64_t events_scheduled() const { return events_scheduled_; }
  std::uint64_t completed() const { return completed_; }
  std::uint64_t violations() const { return violations_; }

  /// Current max-min rate of a flow (0 before arrival / after completion).
  std::int64_t rate_bps(std::uint32_t flow) const { return flows_[flow].rate_bps; }
  /// Summed flow rate currently reserved on a conduit.
  std::int64_t reserved_bps(std::uint32_t conduit) const {
    return conduits_[conduit].reserved_bps;
  }
  /// Exact bits delivered across a conduit by fluid flows so far (advanced
  /// to the last flow event; bit-ns internally, returned as whole bits).
  std::int64_t delivered_bits(std::uint32_t conduit) const {
    return static_cast<std::int64_t>(conduits_[conduit].delivered_bitns / kNsPerSec);
  }
  /// Exact bits a flow has delivered so far (whole bits).
  std::int64_t flow_delivered_bits(std::uint32_t flow) const {
    return static_cast<std::int64_t>(
        (flows_[flow].total_bitns - flows_[flow].remaining_bitns) / kNsPerSec);
  }
  bool flow_done(std::uint32_t flow) const { return flows_[flow].done; }
  SimTime flow_finish(std::uint32_t flow) const { return flows_[flow].finish_at; }

 private:
  static constexpr std::int64_t kNsPerSec = 1'000'000'000;

  struct Conduit {
    std::int64_t capacity_bps = 0;      ///< line rate (0 while flapped down)
    std::int64_t external_load_bps = 0; ///< declared packet-burst load
    std::int64_t reserved_bps = 0;      ///< summed flow rates, last applied
    __int128 delivered_bitns = 0;       ///< exact fluid bits x ns delivered
    RateFn apply;                       ///< null on non-owning replicas
    // solver scratch (valid only during resolve())
    std::int64_t residual_bps = 0;
    std::int64_t pending_bps = 0;
    std::uint32_t unfrozen = 0;
    bool in_touched = false;
  };

  struct Flow {
    SimTime at;
    std::vector<std::uint32_t> path;
    __int128 total_bitns = 0;
    __int128 remaining_bitns = 0;
    std::int64_t rate_cap_bps = 0;
    std::int64_t rate_bps = 0;
    bool active = false;
    bool done = false;
    SimTime finish_at;
    DoneFn done_fn;
    bool frozen = false;  ///< solver scratch
  };

  /// One declared state change, scheduled as a keyed event by start().
  struct Declared {
    SimTime at;
    enum class Kind : std::uint8_t { kArrival, kCapacity, kLoad } kind;
    std::uint32_t index = 0;        ///< flow (arrival) or conduit
    std::int64_t value = 0;         ///< capacity / load delta
  };

  std::uint64_t next_key() {
    ++events_scheduled_;
    return kFlowKeyBase | (flow_seq_++ & 0x0fffffffffffffffULL);
  }

  std::int64_t fluid_capacity(const Conduit& c) const;
  void advance_to(SimTime t);
  void apply_declared(const Declared& d);
  void resolve();
  void schedule_next_completion();
  void on_completion_event(std::uint64_t generation);

  Simulator& sim_;
  Config cfg_;
  std::vector<Conduit> conduits_;
  std::vector<Flow> flows_;
  std::vector<Declared> declared_;
  std::vector<std::uint32_t> active_;            ///< resolve() scratch
  std::vector<std::uint32_t> touched_;           ///< resolve() scratch
  std::vector<std::uint32_t> reserved_nonzero_;  ///< conduits with reserved != 0
  bool started_ = false;
  SimTime clock_ = SimTime::zero();   ///< last advance_to time
  std::uint64_t flow_seq_ = 0;        ///< keyed-event sequence, replica-identical
  std::uint64_t solve_gen_ = 0;       ///< invalidates stale completion events
  std::uint64_t resolves_ = 0;
  std::uint64_t events_scheduled_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t violations_ = 0;
};

}  // namespace mtp::sim::flow
