// Discrete-event simulation kernel.
//
// A Simulator owns a timestamp-ordered queue of callbacks. Components
// schedule work with schedule()/schedule_at() and may cancel pending events
// through the returned EventId. Events at equal timestamps run in a fixed
// order, which makes runs fully deterministic: first every event scheduled
// with schedule_keyed_at(), in ascending key order, then the plain
// schedule()/schedule_at() events in scheduling order (FIFO). The keyspace
// comment below says which component owns which keys.
//
// The hot path is allocation-free (docs/perf.md): callbacks are sim::Task
// (small-buffer optimized, no heap for anything up to a captured Packet) and
// the queue is a vector-backed binary min-heap of 24-byte entries whose Tasks
// live in recycled side slots. Cancellation is O(1) and lazy: it flips a flag
// in the event's slot, and the entry is discarded when it reaches the top of
// the heap. EventIds carry a slot generation, so cancelling an event that
// already ran (or was already cancelled) is a guaranteed no-op — there is no
// tombstone set to leak.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <vector>

#include "sim/slot_pool.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace mtp::sim {

class TimerWheel;

/// Canonical keyspace for Simulator::schedule_keyed_at (63 usable bits).
/// Keyed events at one timestamp run in ascending key order, before every
/// plain FIFO event — so this layout fixes the cross-component ordering at
/// equal timestamps, independent of scheduling history:
///   [0, 2^44)   link packet deliveries: (link uid << 28) | tx counter
///   [2^60, 2^61) fluid flow-model steps (sim/flow): base | per-model seq —
///               after deliveries so a rate re-solve at time t sees every
///               packet that finished serializing at t, replica-identical
///               across shards because the seq counter advances identically
///   2^61        timer-wheel service: at most one event per wheel, at its
///               earliest pending bucket-wake tick (sim/timer_wheel.hpp)
///   [2^62, 2^62 | 2^61) workload arrival replay: base | arrival index
///   [2^62 | 2^61, 2^63) link serialization ends: base | link uid — after
///               every other keyed event at their timestamp and before every
///               FIFO event. A link that keeps a finish event schedules it
///               here; a FIFO link keeps none and settles its ends on demand,
///               asking passed() whether one has happened (net/link.hpp)
/// History-independent tie-breaking is what makes a sharded run execute the
/// exact per-shard event sequences of the serial run (sim/sharded/engine.hpp).
inline constexpr std::uint64_t kFlowKeyBase = std::uint64_t{1} << 60;
inline constexpr std::uint64_t kTimerWheelKey = std::uint64_t{1} << 61;
inline constexpr std::uint64_t kArrivalKeyBase = std::uint64_t{1} << 62;
inline constexpr std::uint64_t kFinishKeyBase = (std::uint64_t{1} << 62) | (std::uint64_t{1} << 61);

/// Handle to a scheduled event; used only for cancellation.
/// Default-constructed ids are "null" and safe to cancel (a no-op).
class EventId {
 public:
  EventId() = default;
  bool valid() const { return slot_ != kNullSlot; }

 private:
  friend class Simulator;
  static constexpr std::uint32_t kNullSlot = 0xffffffff;
  EventId(std::uint32_t slot, std::uint32_t gen) : slot_(slot), gen_(gen) {}
  std::uint32_t slot_ = kNullSlot;
  std::uint32_t gen_ = 0;
};

/// The event loop. Not thread-safe by design: a simulation is a single
/// logical timeline and all components run on it. Parallelism happens one
/// level up — sim::ParallelSweep runs one independent Simulator per worker.
class Simulator {
 public:
  using Callback = Task;

  /// `reserve_events` pre-sizes the heap and the free list so steady-state
  /// scheduling never reallocates (both still grow if exceeded). Slot pages
  /// are deliberately NOT pre-allocated: a page is ~56KB of Task storage,
  /// and short-lived simulators (tests, per-scenario sweeps) would pay for
  /// pages they never touch — demand allocation in acquire_slot() reaches
  /// the same steady state after the first few hundred events.
  explicit Simulator(std::size_t reserve_events = 1024);
  ~Simulator();  // out of line: timers_ holds an incomplete type here
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time. Monotonically non-decreasing during run().
  SimTime now() const { return now_; }

  /// Schedule `fn` to run `delay` after now. Negative delays are a logic
  /// error and throw. `fn` is any void() callable; it is forwarded into the
  /// event slot and move-constructed exactly once.
  template <class F>
  EventId schedule(SimTime delay, F&& fn) {
    if (delay < SimTime::zero()) {
      throw std::invalid_argument("Simulator::schedule: negative delay " + delay.to_string());
    }
    return schedule_at(now_ + delay, std::forward<F>(fn));
  }

  /// Schedule `fn` at an absolute time, which must not be in the past.
  template <class F>
  EventId schedule_at(SimTime when, F&& fn) {
    return schedule_with_seq(when, kFifoBit | ++next_seq_, std::forward<F>(fn));
  }

  /// Schedule `fn` at an absolute time with a *canonical* tie-break key
  /// instead of FIFO order. At equal timestamps every keyed event runs
  /// before every plain schedule()/schedule_at() event, and keyed events
  /// run in ascending `key` order — regardless of the order the schedule
  /// calls were made in. This is what lets the sharded engine replay
  /// cross-shard packet handoffs in a different real-time order than the
  /// serial engine and still execute the identical event sequence: the key
  /// is derived from simulation content (link uid, per-link packet index),
  /// not from scheduling history. Keys must be unique per (when, key) —
  /// the top bit is reserved (keys >= 2^63 throw).
  template <class F>
  EventId schedule_keyed_at(SimTime when, std::uint64_t key, F&& fn) {
    if (key & kFifoBit) {
      throw std::invalid_argument("Simulator::schedule_keyed_at: key has reserved top bit");
    }
    return schedule_with_seq(when, key, std::forward<F>(fn));
  }

  /// Cancel a pending event in O(1). Safe to call on null ids, already-run
  /// events, and already-cancelled events (all no-ops): the id's generation
  /// must match the slot's current generation, and every execution or
  /// cancellation bumps it. No per-cancel memory is retained.
  void cancel(EventId id) {
    if (id.slot_ >= slots_.size()) return;  // null or from another simulator
    Slot& s = slots_[id.slot_];
    if (s.gen != id.gen_) return;
    // Flag only: the task object stays put until its heap entry pops (it may
    // be the one currently executing — cancelling yourself is legal).
    s.cancelled = true;
  }

  /// Run until the event queue drains or `until` (exclusive upper bound on
  /// event timestamps) is reached. Returns the number of events executed.
  std::uint64_t run(SimTime until = SimTime::max());

  /// Whether an event ranked (when, key) — `key` a schedule_keyed_at key —
  /// has already run as seen from the running event: it is earlier in time,
  /// or at the same time with a smaller key. Between run() calls nothing at
  /// now() counts as run (run(until) stops before `until`). Lets a component
  /// settle work it never scheduled exactly where the event would have run.
  bool passed(SimTime when, std::uint64_t key) const {
    return when < now_ || (when == now_ && key < running_seq_);
  }

  /// Number of events executed so far (for micro-benchmarks and tests).
  std::uint64_t events_executed() const { return executed_; }

  /// Events still in the queue (including cancelled ones not yet popped).
  std::size_t pending_events() const { return heap_.size(); }

  /// Fresh link uid for keyed delivery ordering (net/link.hpp). Deterministic
  /// in construction order; net::Network overrides per-link with a
  /// topology-global counter so uids agree across shard counts.
  std::uint64_t next_link_uid() { return ++next_link_uid_; }

  /// Timestamp of the earliest pending (non-cancelled) event, or
  /// SimTime::max() if the queue is empty. Prunes cancelled heap tops as a
  /// side effect. The sharded engine's barrier uses this to compute the
  /// global next-window start.
  SimTime next_event_time();

  /// The simulation-wide hashed timer wheel (sim/timer_wheel.hpp), built
  /// lazily on first use. Transports share it for retransmission/RTO timers;
  /// simulations that never arm a timer pay nothing.
  TimerWheel& timers();

 private:
  // Heap entries are deliberately tiny (24 bytes): sift operations move
  // entries O(log n) times per event, while the fat Task moves exactly twice
  // (into its slot, out at execution).
  //
  // The seq field doubles as the equal-timestamp tie-break. Plain events get
  // kFifoBit | counter (FIFO among themselves); keyed events get their
  // canonical key, which sorts below kFifoBit — so at one timestamp the
  // order is: all keyed events ascending by key, then FIFO.
  static constexpr std::uint64_t kFifoBit = 1ull << 63;

  struct HeapEntry {
    SimTime when;
    std::uint64_t seq;   ///< tie-break: canonical key, or kFifoBit | counter
    std::uint32_t slot;  ///< index into slots_
  };
  static_assert(sizeof(HeapEntry) == 24);

  struct Slot {
    Task task;
    std::uint32_t gen = 0;
    bool cancelled = false;
  };

  // Slots live in a sim::SlotPool, whose pages never move, so a Slot& stays
  // valid while its task executes even if the callback schedules enough to
  // add a page (a flat vector would reallocate under the running closure's
  // feet). Stability is what lets run() invoke tasks in place: one
  // move-construct at schedule() and one destroy after execution, nothing
  // else touches the capture state.
  //
  // (when, seq) compared as one unsigned 128-bit key: `when` is never
  // negative (nothing is scheduled before time 0), so its bits sort like
  // the signed value, and the compare compiles to cmp/sbb with no branch.
  __extension__ typedef unsigned __int128 Key;
  static Key key(const HeapEntry& e) {
    return (static_cast<Key>(static_cast<std::uint64_t>(e.when.ns())) << 64) | e.seq;
  }
  static bool before(const HeapEntry& a, const HeapEntry& b) { return key(a) < key(b); }

  std::uint32_t acquire_slot() {
    const std::uint32_t idx = slots_.acquire();
    slots_[idx].cancelled = false;
    return idx;
  }

  /// Bump the generation (invalidating outstanding EventIds) and recycle.
  void release_slot(std::uint32_t idx) {
    Slot& s = slots_[idx];
    s.task.reset();
    ++s.gen;
    slots_.release(idx);
  }

  template <class F>
  EventId schedule_with_seq(SimTime when, std::uint64_t seq, F&& fn) {
    if (when < now_) {
      throw std::invalid_argument("Simulator::schedule_at: time in the past " + when.to_string());
    }
    const std::uint32_t idx = acquire_slot();
    Slot& s = slots_[idx];
    s.task.emplace(std::forward<F>(fn));
    heap_.push_back(HeapEntry{when, seq, idx});
    sift_up(heap_.size() - 1);
    return EventId{idx, s.gen};
  }

  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  void pop_top();

  SimTime now_;
  std::vector<HeapEntry> heap_;  ///< binary min-heap on (when, seq)
  SlotPool<Slot> slots_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t running_seq_ = 0;  ///< the running entry's seq; 0 outside run()
  std::uint64_t executed_ = 0;
  std::uint64_t next_link_uid_ = 0;
  std::unique_ptr<TimerWheel> timers_;  ///< lazy; see timers()
};

/// Convenience: a periodic task that reschedules itself until stopped.
/// Used by meters, path-flapping switches, RCP rate updaters, etc.
class PeriodicTask {
 public:
  PeriodicTask(Simulator& simulator, SimTime period, std::function<void()> fn)
      : sim_(simulator), period_(period), fn_(std::move(fn)) {}
  ~PeriodicTask() { stop(); }
  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  /// Schedule the first tick `period` from now (or `first_delay` if given).
  /// Restarts cleanly if already running.
  void start() { start(period_); }
  void start(SimTime first_delay) {
    stop();
    running_ = true;
    id_ = sim_.schedule(first_delay, [this] { tick(); });
  }
  void stop() {
    if (running_) {
      sim_.cancel(id_);
      running_ = false;
    }
  }
  bool running() const { return running_; }

 private:
  void tick() {
    // Reschedule before invoking so fn_ may call stop() to terminate.
    id_ = sim_.schedule(period_, [this] { tick(); });
    fn_();
  }

  Simulator& sim_;
  SimTime period_;
  std::function<void()> fn_;
  EventId id_;
  bool running_ = false;
};

}  // namespace mtp::sim
