// Hashed timer wheel for high-count, mostly-cancelled timers.
//
// Transports arm one timer per in-flight message (MTP retransmission) or per
// connection (TCP RTO). At 100k+ concurrent messages a heap event per timer
// would dominate the simulator queue, and the old approach — one periodic
// task sweeping every message — costs O(messages) per tick whether or not
// anything expired. The wheel hashes each timer into a bucket by its
// quantized deadline; arming and cancelling are O(1).
//
// The whole wheel holds at most one Simulator event: a keyed event
// (kTimerWheelKey) at the earliest tick some bucket is due to be serviced.
// Each bucket keeps its own wake tick, and the pending wake ticks live in a
// small min-heap inside the wheel, so the simulator's event heap never
// carries one entry per bucket: TCP re-arms an RTO on every ACK, and those
// wakes would outnumber the packet events many times over (docs/perf.md).
// An empty wheel schedules nothing, so simulations still quiesce.
//
// Semantics:
//   - Deadlines are rounded UP to a multiple of `granularity`: a timer never
//     fires early, and fires at most one granularity late. This matches the
//     old retx_scan contract, which noticed expiry at the first scan tick at
//     or after the deadline.
//   - Timers that share a quantized tick fire in arm order (FIFO), mirroring
//     both the simulator's same-timestamp ordering and the old sweep's
//     iteration order over a recorded schedule.
//   - A bucket is serviced at every wake tick it was given, even if every
//     timer in it has been cancelled since: each service is one simulator
//     event, so event counts and the quiescence time do not depend on how
//     the wake ticks are stored.
//   - Callbacks are a raw function pointer + owner + 64-bit argument rather
//     than a sim::Task: a timer slot is 64 bytes, not 400, which is what
//     keeps per-idle-message cost bounded at scale (docs/scale.md).
//   - Callbacks may arm and cancel timers freely, including their own id
//     (a no-op: the id is already released when the callback runs).
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace mtp::sim {

/// Handle to an armed timer, used for cancellation. Default-constructed ids
/// are "null" and safe to cancel (a no-op), as are ids whose timer already
/// fired or was already cancelled (generation-checked, like sim::EventId).
class TimerId {
 public:
  TimerId() = default;
  bool valid() const { return slot_ != kNullSlot; }

 private:
  friend class TimerWheel;
  static constexpr std::uint32_t kNullSlot = 0xffffffff;
  TimerId(std::uint32_t slot, std::uint32_t gen) : slot_(slot), gen_(gen) {}
  std::uint32_t slot_ = kNullSlot;
  std::uint32_t gen_ = 0;
};

class TimerWheel {
 public:
  struct Config {
    /// Deadline quantum. Smaller = tighter firing, more wakeups.
    SimTime granularity = SimTime::microseconds(10);
    /// Wheel size; deadlines wrap modulo buckets*granularity (far-future
    /// timers just sit through extra revolutions unexamined until due).
    std::size_t buckets = 1024;
  };

  /// `owner` is the object the timer belongs to, `arg` a caller-chosen
  /// discriminator (e.g. a message id). Plain function pointers keep the
  /// slot small; bind member functions through a static trampoline.
  using FireFn = void (*)(void* owner, std::uint64_t arg);

  explicit TimerWheel(Simulator& sim) : TimerWheel(sim, Config()) {}
  TimerWheel(Simulator& sim, Config cfg) : sim_(sim), cfg_(cfg), buckets_(cfg.buckets) {}
  TimerWheel(const TimerWheel&) = delete;
  TimerWheel& operator=(const TimerWheel&) = delete;

  /// Arm a timer at absolute `deadline` (quantized up; clamped to now).
  TimerId arm(SimTime deadline, FireFn fn, void* owner, std::uint64_t arg = 0) {
    const std::uint64_t tick = tick_of(deadline);
    const std::uint32_t idx = acquire_slot();
    Timer& t = timers_[idx];
    t.tick = tick;
    t.fn = fn;
    t.owner = owner;
    t.arg = arg;
    t.armed = true;
    link_back(bucket_of(tick), idx);
    ++armed_count_;
    wake_bucket(bucket_of(tick), tick);
    return TimerId{idx, t.gen};
  }

  /// Cancel in O(1). Null, fired, and already-cancelled ids are no-ops.
  void cancel(TimerId id) {
    if (id.slot_ >= timers_.size()) return;
    Timer& t = timers_[id.slot_];
    if (t.gen != id.gen_ || !t.armed) return;
    unlink(bucket_of(t.tick), id.slot_);
    release_slot(id.slot_);
    --armed_count_;
  }

  /// True while the timer is pending (not yet fired or cancelled).
  bool armed(TimerId id) const {
    if (id.slot_ >= timers_.size()) return false;
    const Timer& t = timers_[id.slot_];
    return t.gen == id.gen_ && t.armed;
  }

  std::size_t armed_count() const { return armed_count_; }
  SimTime granularity() const { return cfg_.granularity; }

  /// The time an `arm(deadline, ...)` would actually fire at.
  SimTime fire_time(SimTime deadline) const {
    return time_of(tick_of(deadline));
  }

 private:
  static constexpr std::uint32_t kNull = 0xffffffff;

  struct Timer {
    std::uint64_t tick = 0;  ///< absolute quantized deadline (ns / granularity)
    FireFn fn = nullptr;
    void* owner = nullptr;
    std::uint64_t arg = 0;
    std::uint32_t prev = kNull;  ///< intrusive per-bucket list, arm order
    std::uint32_t next = kNull;
    std::uint32_t gen = 0;
    bool armed = false;
  };

  struct Bucket {
    std::uint32_t head = kNull;
    std::uint32_t tail = kNull;
    /// Earliest tick this bucket is due to be serviced at (kNoWake if none).
    /// Lets arm() skip the tick heap when an earlier wake is pending.
    std::uint64_t wake_tick = kNoWake;
  };
  static constexpr std::uint64_t kNoWake = ~std::uint64_t{0};

  std::uint64_t tick_of(SimTime deadline) const {
    std::int64_t ns = deadline.ns();
    const std::int64_t g = cfg_.granularity.ns();
    if (ns < sim_.now().ns()) ns = sim_.now().ns();
    return static_cast<std::uint64_t>((ns + g - 1) / g);
  }

  SimTime time_of(std::uint64_t tick) const {
    return SimTime::nanoseconds(static_cast<std::int64_t>(tick) * cfg_.granularity.ns());
  }

  std::size_t bucket_of(std::uint64_t tick) const { return tick % buckets_.size(); }

  std::uint32_t acquire_slot() {
    if (free_.empty()) {
      timers_.emplace_back();
      return static_cast<std::uint32_t>(timers_.size() - 1);
    }
    const std::uint32_t idx = free_.back();
    free_.pop_back();
    return idx;
  }

  void release_slot(std::uint32_t idx) {
    Timer& t = timers_[idx];
    t.armed = false;
    ++t.gen;
    free_.push_back(idx);
  }

  void link_back(std::size_t b, std::uint32_t idx) {
    Bucket& bk = buckets_[b];
    Timer& t = timers_[idx];
    t.prev = bk.tail;
    t.next = kNull;
    if (bk.tail != kNull) timers_[bk.tail].next = idx;
    bk.tail = idx;
    if (bk.head == kNull) bk.head = idx;
  }

  void unlink(std::size_t b, std::uint32_t idx) {
    Bucket& bk = buckets_[b];
    Timer& t = timers_[idx];
    if (t.prev != kNull) timers_[t.prev].next = t.next; else bk.head = t.next;
    if (t.next != kNull) timers_[t.next].prev = t.prev; else bk.tail = t.prev;
    t.prev = t.next = kNull;
  }

  /// Ensure bucket `b` is serviced at or before `tick`. A bucket whose wake
  /// moves earlier leaves its old tick in `wake_ticks_`, skipped as stale
  /// when it surfaces (it no longer equals its bucket's wake_tick).
  void wake_bucket(std::size_t b, std::uint64_t tick) {
    Bucket& bk = buckets_[b];
    if (bk.wake_tick <= tick) return;
    bk.wake_tick = tick;
    wake_ticks_.push_back(tick);
    std::push_heap(wake_ticks_.begin(), wake_ticks_.end(), std::greater<>());
    // Mid-service arms wait: service() schedules the next event once its
    // callbacks are done, so the wheel never cancels its own event there.
    if (tick < scheduled_tick_ && !servicing_) schedule_service(tick);
  }

  bool stale(std::uint64_t tick) const { return buckets_[bucket_of(tick)].wake_tick != tick; }

  void pop_stale_ticks() {
    while (!wake_ticks_.empty() && stale(wake_ticks_.front())) pop_tick();
  }

  void pop_tick() {
    std::pop_heap(wake_ticks_.begin(), wake_ticks_.end(), std::greater<>());
    wake_ticks_.pop_back();
  }

  /// (Re)place the wheel's one simulator event at `tick`. The event is
  /// *keyed* (kTimerWheelKey): its position among same-timestamp events must
  /// not depend on how often it was cancelled and rescheduled — FIFO seq
  /// order would encode that history and break serial-vs-sharded
  /// bit-identity. A wheel has at most one event, so a constant key is
  /// collision-free.
  void schedule_service(std::uint64_t tick) {
    sim_.cancel(event_);
    scheduled_tick_ = tick;
    event_ = sim_.schedule_keyed_at(time_of(tick), kTimerWheelKey, [this] { service(); });
  }

  /// Service the one bucket due now, then schedule the event for the next
  /// pending wake tick (if any). Outside a service the top of `wake_ticks_`
  /// is never stale: a wake that moves earlier pushes a smaller tick.
  void service() {
    event_ = EventId();
    scheduled_tick_ = kNoWake;
    assert(!wake_ticks_.empty() && time_of(wake_ticks_.front()) == sim_.now());
    const std::uint64_t tick = wake_ticks_.front();
    pop_tick();
    servicing_ = true;
    service_bucket(bucket_of(tick));
    servicing_ = false;
    pop_stale_ticks();
    if (!wake_ticks_.empty()) schedule_service(wake_ticks_.front());
  }

  /// Fire every timer in bucket `b` whose tick has arrived, then record the
  /// bucket's next pending round (if any).
  void service_bucket(std::size_t b) {
    Bucket& bk = buckets_[b];
    bk.wake_tick = kNoWake;
    const std::uint64_t now_tick =
        static_cast<std::uint64_t>(sim_.now().ns()) /
        static_cast<std::uint64_t>(cfg_.granularity.ns());
    // Collect-then-invoke: callbacks may arm into this bucket (growing
    // timers_ and relinking), so the traversal must finish first.
    due_.clear();
    std::uint64_t next_round = kNoWake;
    for (std::uint32_t i = bk.head; i != kNull;) {
      Timer& t = timers_[i];
      const std::uint32_t next = t.next;
      if (t.tick <= now_tick) {
        due_.push_back(Due{t.fn, t.owner, t.arg});
        unlink(b, i);
        release_slot(i);
        --armed_count_;
      } else if (t.tick < next_round) {
        next_round = t.tick;
      }
      i = next;
    }
    if (next_round != kNoWake) wake_bucket(b, next_round);
    for (const Due& d : due_) d.fn(d.owner, d.arg);
  }

  struct Due {
    FireFn fn;
    void* owner;
    std::uint64_t arg;
  };

  Simulator& sim_;
  Config cfg_;
  std::vector<Timer> timers_;
  std::vector<std::uint32_t> free_;
  std::vector<Bucket> buckets_;
  std::vector<Due> due_;  ///< scratch, reused across ticks
  /// Min-heap of bucket wake ticks, stale entries included (see wake_bucket).
  std::vector<std::uint64_t> wake_ticks_;
  EventId event_;                          ///< the wheel's one simulator event
  std::uint64_t scheduled_tick_ = kNoWake;  ///< tick of event_, kNoWake if none
  bool servicing_ = false;
  std::size_t armed_count_ = 0;
};

}  // namespace mtp::sim
