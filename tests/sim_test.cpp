// Unit tests for the simulation kernel: time arithmetic, event ordering,
// cancellation, periodic tasks, the SlotPool and RingBuffer containers, and
// RNG distributions.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <limits>
#include <random>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "net/packet.hpp"
#include "sim/random.hpp"
#include "sim/ring.hpp"
#include "sim/simulator.hpp"
#include "sim/slot_pool.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace mtp::sim {
namespace {

using namespace mtp::sim::literals;

TEST(SimTime, UnitConstructorsAgree) {
  EXPECT_EQ(SimTime::microseconds(1), SimTime::nanoseconds(1000));
  EXPECT_EQ(SimTime::milliseconds(1), SimTime::microseconds(1000));
  EXPECT_EQ(SimTime::seconds(1), SimTime::milliseconds(1000));
  EXPECT_EQ(384_us, SimTime::nanoseconds(384'000));
}

TEST(SimTime, Arithmetic) {
  EXPECT_EQ(3_us + 2_us, 5_us);
  EXPECT_EQ(3_us - 2_us, 1_us);
  EXPECT_EQ((2_us) * 3, 6_us);
  EXPECT_EQ((6_us) / 3, 2_us);
  EXPECT_DOUBLE_EQ((6_us) / (3_us), 2.0);
  EXPECT_EQ((100_ns).scaled(2.5), 250_ns);
}

TEST(SimTime, FromSecondsRounds) {
  EXPECT_EQ(SimTime::from_seconds(1e-6), 1_us);
  EXPECT_EQ(SimTime::from_seconds(1.5e-9), 2_ns);
}

TEST(SimTime, ToStringPicksUnits) {
  EXPECT_EQ((384_us).to_string(), "384us");
  EXPECT_EQ((5_ns).to_string(), "5ns");
  EXPECT_EQ((1_s + 500_ms).to_string(), "1.5s");
}

TEST(Bandwidth, SerializationDelay) {
  // 1500 bytes at 100 Gb/s = 120 ns.
  EXPECT_EQ(Bandwidth::gbps(100).serialization_delay(1500), 120_ns);
  // 1000 bytes at 10 Gb/s = 800 ns.
  EXPECT_EQ(Bandwidth::gbps(10).serialization_delay(1000), 800_ns);
}

TEST(Bandwidth, SerializationDelayNoOverflowOnHugePayloads) {
  // 1 GB at 1 Gb/s = 8 s; would overflow naive int64 ns math at
  // intermediate steps if done carelessly.
  const auto t = Bandwidth::gbps(1).serialization_delay(std::int64_t{1} << 30);
  EXPECT_NEAR(t.sec(), 8.59, 0.01);
}

// serialization_delay's 64-bit path must round exactly as the 128-bit one at
// every size, including either side of the largest size whose bit-ns product
// (plus the rounding term) still fits in an int64.
TEST(Bandwidth, SerializationDelayFastPathMatchesWidePath) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  for (const Bandwidth bw : {Bandwidth::bps(1), Bandwidth::bps(7), Bandwidth::gbps(100),
                             Bandwidth::gbps(400)}) {
    const std::int64_t bps = bw.bits_per_sec();
    const std::int64_t cutoff = (kMax - (bps - 1)) / 8'000'000'000;  // last 64-bit size
    for (const std::int64_t bytes : {std::int64_t{0}, std::int64_t{1}, std::int64_t{1500},
                                     std::int64_t{1} << 30, cutoff - 1, cutoff, cutoff + 1}) {
      const auto want =
          (static_cast<__int128>(bytes) * 8'000'000'000 + bps - 1) / bps;  // reference ceil
      if (want > kMax) continue;  // past SimTime's range (1 bps, cutoff + 1)
      EXPECT_EQ(bw.serialization_delay(bytes), bw.serialization_delay_wide(bytes))
          << bps << " bps, " << bytes << " B";
      EXPECT_EQ(bw.serialization_delay(bytes).ns(), static_cast<std::int64_t>(want))
          << bps << " bps, " << bytes << " B";
    }
  }
}

TEST(Bandwidth, BytesIn) {
  EXPECT_EQ(Bandwidth::gbps(100).bytes_in(1_us), 12500);
  EXPECT_EQ(Bandwidth::gbps(10).bytes_in(8_us), 10000);
}

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(30_ns, [&] { order.push_back(3); });
  sim.schedule(10_ns, [&] { order.push_back(1); });
  sim.schedule(20_ns, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30_ns);
}

TEST(Simulator, EqualTimestampsRunFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) {
    sim.schedule(5_ns, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, PassedRanksAgainstTheRunningEvent) {
  // A serialization end at 10 ns (key kFinishKeyBase | 5) has happened for
  // a FIFO event and a later-keyed end at 10 ns, not for an earlier key or
  // anything at 10 ns once run(10 ns) has returned.
  Simulator sim;
  const std::uint64_t end = kFinishKeyBase | 5;
  std::vector<bool> seen;
  sim.schedule_at(10_ns, [&] { seen.push_back(sim.passed(10_ns, end)); });
  sim.schedule_keyed_at(10_ns, kFlowKeyBase, [&] { seen.push_back(sim.passed(10_ns, end)); });
  sim.schedule_keyed_at(10_ns, kFinishKeyBase | 6, [&] { seen.push_back(sim.passed(10_ns, end)); });
  sim.schedule_keyed_at(10_ns, 1, [&] { seen.push_back(sim.passed(9_ns, end)); });
  sim.run(10_ns);
  EXPECT_FALSE(sim.passed(10_ns, end));
  EXPECT_TRUE(sim.passed(9_ns, end));
  sim.run();
  EXPECT_EQ(seen, (std::vector<bool>{true, false, true, true}));
  EXPECT_FALSE(sim.passed(10_ns, end));  // between runs, nothing at now() has
}

TEST(Simulator, NestedScheduling) {
  Simulator sim;
  int fired = 0;
  sim.schedule(1_ns, [&] {
    sim.schedule(1_ns, [&] {
      sim.schedule(1_ns, [&] { ++fired; });
      ++fired;
    });
    ++fired;
  });
  sim.run();
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(sim.now(), 3_ns);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  const EventId id = sim.schedule(10_ns, [&] { ran = true; });
  sim.cancel(id);
  sim.run();
  EXPECT_FALSE(ran);
}

TEST(Simulator, CancelIsIdempotentAndNullSafe) {
  Simulator sim;
  sim.cancel(EventId{});  // null id: no-op
  bool ran = false;
  const EventId id = sim.schedule(10_ns, [&] { ran = true; });
  sim.cancel(id);
  sim.cancel(id);  // double-cancel: no-op
  sim.run();
  EXPECT_FALSE(ran);
}

TEST(Simulator, RunUntilStopsAndAdvancesClock) {
  Simulator sim;
  int fired = 0;
  sim.schedule(10_ns, [&] { ++fired; });
  sim.schedule(30_ns, [&] { ++fired; });
  sim.run(20_ns);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 20_ns);
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, RejectsNegativeDelayAndPastTimes) {
  Simulator sim;
  EXPECT_THROW(sim.schedule(SimTime::nanoseconds(-1), [] {}), std::invalid_argument);
  sim.schedule(10_ns, [&sim] {
    EXPECT_THROW(sim.schedule_at(5_ns, [] {}), std::invalid_argument);
  });
  sim.run();
}

TEST(Simulator, CountsExecutedEvents) {
  Simulator sim;
  for (int i = 0; i < 100; ++i) sim.schedule(SimTime::nanoseconds(i), [] {});
  sim.run();
  EXPECT_EQ(sim.events_executed(), 100u);
}

TEST(Simulator, CancelWithStaleGenerationAfterSlotReuseIsNoOp) {
  Simulator sim;
  bool first = false;
  const EventId stale = sim.schedule(10_ns, [&] { first = true; });
  sim.run();
  EXPECT_TRUE(first);
  // The slot behind `stale` has been recycled. New events reuse it (the
  // free list is LIFO), so a cancel through the old id must not touch them.
  bool second = false;
  sim.schedule(10_ns, [&] { second = true; });
  sim.cancel(stale);
  sim.run();
  EXPECT_TRUE(second);
}

TEST(Simulator, CancelAfterExecutionIsNoOp) {
  Simulator sim;
  int fired = 0;
  const EventId id = sim.schedule(10_ns, [&] { ++fired; });
  sim.run();
  sim.cancel(id);  // already ran: generation mismatch, no-op
  sim.run();
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, SelfCancelFromInsideCallbackIsLegal) {
  Simulator sim;
  int fired = 0;
  EventId id;
  id = sim.schedule(10_ns, [&] {
    ++fired;
    sim.cancel(id);  // cancelling the currently-executing event: no-op
  });
  sim.run();
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, CancelDoesNotLeakPendingEntries) {
  // Regression: the tombstone-set design retained one entry per cancelled
  // event until it popped; the slot/generation design keeps the heap bounded
  // by live events. Schedule/cancel churn far above the initial reservation
  // must not grow pending_events() beyond the live count.
  Simulator sim;
  for (int i = 0; i < 100'000; ++i) {
    const EventId id = sim.schedule(1_us, [] {});
    sim.cancel(id);
    sim.run(sim.now() + 1_ns);  // pops the cancelled entry lazily
  }
  EXPECT_LE(sim.pending_events(), 1u);
}

// Fuzz the schedule/cancel/run interleaving against a trivial oracle: a
// sorted list of events with cancellation flags. Execution order must match
// the oracle exactly — timestamp order; at one timestamp, keyed events by
// ascending key before FIFO events in scheduling order; cancelled events
// skipped. About a third of the events are keyed, with keys drawn so that
// their order differs from their scheduling order, and many share a
// timestamp. The last rounds run just below SimTime::max(), where the heap's
// 128-bit (when, seq) key has no headroom left; events at exactly max() never
// run, since run()'s bound is exclusive.
TEST(Simulator, FuzzScheduleCancelMatchesOracle) {
  Rng rng(0xC0FFEE);
  Simulator sim;
  struct Expected {
    std::int64_t when_ns;
    bool fifo;             ///< FIFO events run after keyed ones at one time
    std::uint64_t order;   ///< the key, or the FIFO scheduling index
    std::uint64_t tag;
    bool cancelled = false;
  };
  std::vector<Expected> oracle;
  std::vector<EventId> ids;
  std::vector<std::uint64_t> executed;
  std::uint64_t tag_seq = 0;
  const std::int64_t kMax = SimTime::max().ns();
  for (int round = 0; round < 70; ++round) {
    // Rounds 50+ jump just below the end of time.
    const std::int64_t base = round < 50 ? sim.now().ns()
                                         : std::max(sim.now().ns(), kMax - 20'000);
    for (int i = 0; i < 40; ++i) {
      std::int64_t when = base + rng.uniform_int(0, 60) * 8;  // frequent ties
      if (round >= 50 && rng.uniform_int(0, 9) == 0) when = kMax;
      const std::uint64_t tag = tag_seq++;
      auto fn = [&executed, tag] { executed.push_back(tag); };
      if (rng.uniform_int(0, 2) == 0) {
        // Unique key whose high bits are random: key order != schedule order.
        const std::uint64_t key =
            (static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 20)) << 24) | tag;
        ids.push_back(sim.schedule_keyed_at(SimTime::nanoseconds(when), key, fn));
        oracle.push_back({when, false, key, tag});
      } else {
        ids.push_back(sim.schedule_at(SimTime::nanoseconds(when), fn));
        oracle.push_back({when, true, tag, tag});
      }
    }
    // Cancel a random ~25% of everything scheduled so far (idempotent:
    // already-run and already-cancelled ids are hit too).
    for (std::size_t i = 0; i < ids.size(); i += static_cast<std::size_t>(rng.uniform_int(1, 8))) {
      sim.cancel(ids[i]);
      if (!oracle[i].cancelled && oracle[i].when_ns >= sim.now().ns()) {
        // Only not-yet-executed events are actually cancellable; the oracle
        // mirrors that by checking against the clock at cancel time.
        const bool already_ran =
            std::find(executed.begin(), executed.end(), oracle[i].tag) != executed.end();
        if (!already_ran) oracle[i].cancelled = true;
      }
    }
    const std::int64_t until = base + rng.uniform_int(0, 600);
    sim.run(SimTime::nanoseconds(std::min(until, kMax - 1)));
  }
  sim.run();

  std::vector<Expected> live;
  std::size_t at_max = 0;
  for (const auto& e : oracle) {
    if (e.cancelled) continue;
    if (e.when_ns == kMax) {
      ++at_max;
    } else {
      live.push_back(e);
    }
  }
  std::sort(live.begin(), live.end(), [](const Expected& a, const Expected& b) {
    return std::tie(a.when_ns, a.fifo, a.order) < std::tie(b.when_ns, b.fifo, b.order);
  });
  ASSERT_GT(at_max, 0u);
  EXPECT_EQ(sim.next_event_time(), SimTime::max());
  EXPECT_GE(sim.pending_events(), at_max);  // plus cancelled ones not yet popped
  ASSERT_EQ(executed.size(), live.size());
  for (std::size_t i = 0; i < live.size(); ++i) {
    EXPECT_EQ(executed[i], live[i].tag) << "divergence at position " << i;
  }
}

TEST(Task, SmallLambdaRunsInline) {
  const std::uint64_t before = Task::heap_allocations();
  int hits = 0;
  Task t([&hits] { ++hits; });
  t();
  EXPECT_EQ(hits, 1);
  EXPECT_EQ(Task::heap_allocations(), before);
}

TEST(Task, PacketCapturingLambdaFitsInline) {
  // The tentpole contract: a link-delivery-style closure owning a whole
  // net::Packet must never heap-allocate (see the static_assert in link.cpp).
  net::Packet pkt;
  pkt.payload_bytes = 1000;
  pkt.flow_hash = 42;
  const std::uint64_t before = Task::heap_allocations();
  std::uint64_t seen = 0;
  auto closure = [pkt, &seen] { seen = pkt.flow_hash; };
  static_assert(Task::fits_inline<decltype(closure)>());
  Task t(std::move(closure));
  t();
  EXPECT_EQ(seen, 42u);
  EXPECT_EQ(Task::heap_allocations(), before);
}

TEST(Task, OversizedCallableFallsBackToHeapAndCounts) {
  struct Fat {
    unsigned char pad[Task::kInlineBytes + 1];
    int* out;
    void operator()() { ++*out; }
  };
  static_assert(!Task::fits_inline<Fat>());
  const std::uint64_t before = Task::heap_allocations();
  int hits = 0;
  Task t(Fat{.out = &hits});
  EXPECT_EQ(Task::heap_allocations(), before + 1);
  t();
  EXPECT_EQ(hits, 1);
}

TEST(Task, MoveTransfersCallableAndEmptiesSource) {
  int hits = 0;
  Task a([&hits] { ++hits; });
  Task b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move): post-move state is specified
  ASSERT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(hits, 1);
}

TEST(PeriodicTask, FiresAtPeriod) {
  Simulator sim;
  int ticks = 0;
  PeriodicTask task(sim, 10_ns, [&] { ++ticks; });
  task.start();
  sim.run(100_ns);
  EXPECT_EQ(ticks, 9);  // t=10..90
}

TEST(PeriodicTask, StopWorksFromInsideCallback) {
  Simulator sim;
  int ticks = 0;
  PeriodicTask task(sim, 10_ns, [&] {
    if (++ticks == 3) task.stop();
  });
  task.start();
  sim.run();
  EXPECT_EQ(ticks, 3);
}

TEST(PeriodicTask, RestartAfterStopResumesTicking) {
  Simulator sim;
  int ticks = 0;
  PeriodicTask task(sim, 10_ns, [&] { ++ticks; });
  task.start();
  sim.run(35_ns);
  EXPECT_EQ(ticks, 3);  // t=10,20,30
  task.stop();
  sim.run(100_ns);
  EXPECT_EQ(ticks, 3);
  task.start();
  EXPECT_TRUE(task.running());
  sim.run(135_ns);
  EXPECT_EQ(ticks, 6);  // t=110,120,130
}

TEST(PeriodicTask, StartWhileRunningRestartsCleanly) {
  // start() on a running task must cancel the pending tick and rebase the
  // period — no double-fire from the superseded schedule.
  Simulator sim;
  int ticks = 0;
  PeriodicTask task(sim, 10_ns, [&] { ++ticks; });
  task.start();
  sim.run(5_ns);
  task.start(20_ns);  // supersedes the tick pending at t=10
  sim.run(26_ns);
  EXPECT_EQ(ticks, 1);  // only the rebased tick at t=25
  sim.run(36_ns);
  EXPECT_EQ(ticks, 2);  // back on the 10ns period: t=35
}

TEST(PeriodicTask, DestructorCancelsPendingTick) {
  Simulator sim;
  int ticks = 0;
  {
    PeriodicTask task(sim, 10_ns, [&] { ++ticks; });
    task.start();
  }
  // The task died with a tick pending; running past its deadline must not
  // fire the callback (which would read the destroyed object).
  sim.run(100_ns);
  EXPECT_EQ(ticks, 0);
}

TEST(SlotPool, ReusesTheLastFreedSlotFirst) {
  SlotPool<int> pool;
  std::vector<std::uint32_t> held;
  for (int i = 0; i < 5; ++i) held.push_back(pool.put(int{i}));
  EXPECT_EQ(pool.live(), 5u);
  pool.release(held[1]);
  pool.release(held[3]);
  EXPECT_EQ(pool.live(), 3u);
  EXPECT_EQ(pool.acquire(), held[3]);  // the slot just freed comes back first
  EXPECT_EQ(pool.acquire(), held[1]);
  EXPECT_EQ(pool.take(held[4]), 4);
  EXPECT_EQ(pool.put(9), held[4]);
  EXPECT_EQ(pool[held[4]], 9);
  EXPECT_EQ(pool.size(), 5u);  // no fresh slot while a freed one was waiting
  EXPECT_EQ(pool.live(), 5u);
}

TEST(SlotPool, ReferenceSurvivesPageGrowth) {
  using Pool = SlotPool<std::string>;
  Pool pool;
  const std::uint32_t first = pool.put(std::string(64, 'x'));
  const std::string& held = pool[first];
  // Grow by several pages while the reference is held: pages never move.
  for (std::size_t i = 0; i < 4 * Pool::kSlotsPerPage; ++i) pool.put(std::to_string(i));
  EXPECT_EQ(&pool[first], &held);
  EXPECT_EQ(held, std::string(64, 'x'));
  EXPECT_EQ(pool.live(), 1 + 4 * Pool::kSlotsPerPage);
}

// A model check against std::deque through empty -> refill -> wrap ->
// grow, then random push/pop.
TEST(RingBuffer, MatchesDequeModel) {
  RingBuffer<int> ring(8);
  std::deque<int> model;
  int next = 0;
  const auto push = [&] {
    ring.push_back(int{next});
    model.push_back(next++);
  };
  const auto pop = [&] {
    ASSERT_FALSE(model.empty());
    EXPECT_EQ(ring.pop_front(), model.front());
    model.pop_front();
  };
  const auto check = [&](const char* phase) {
    ASSERT_EQ(ring.size(), model.size()) << phase;
    ASSERT_EQ(ring.empty(), model.empty()) << phase;
    for (std::size_t i = 0; i < model.size(); ++i) {
      ASSERT_EQ(ring[i], model[i]) << phase << " index " << i;
    }
    if (!model.empty()) {
      ASSERT_EQ(ring.front(), model.front()) << phase;
    }
  };

  for (int i = 0; i < 5; ++i) push();
  for (int i = 0; i < 5; ++i) pop();
  check("empty");
  for (int i = 0; i < 6; ++i) push();
  check("refill");
  for (int i = 0; i < 4; ++i) pop();
  for (int i = 0; i < 6; ++i) push();  // 8 live cells, head mid-array
  check("wrap");
  EXPECT_EQ(ring.capacity(), 8u);
  for (int i = 0; i < 5; ++i) push();  // overflows: re-linearize
  check("grow");
  EXPECT_EQ(ring.capacity(), 16u);

  std::mt19937 rng(7);
  for (int step = 0; step < 5000; ++step) {
    if (model.empty() || rng() % 5 < 3 - (model.size() > 40 ? 2 : 0)) {
      push();
    } else {
      pop();
    }
    if (step % 97 == 0) check("random");
  }
  while (!model.empty()) pop();
  check("drained");
}

/// The ring's live elements, front first.
std::vector<int> contents(const RingBuffer<int>& ring) {
  std::vector<int> out;
  for (std::size_t i = 0; i < ring.size(); ++i) out.push_back(ring[i]);
  return out;
}

TEST(RingBuffer, PushFrontAndClearOnEmptyRing) {
  RingBuffer<int> ring;
  EXPECT_EQ(ring.capacity(), 0u);  // nothing allocated before the first push
  ring.clear();
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.capacity(), 0u);
  ring.push_front(1);
  EXPECT_EQ(ring.capacity(), 8u);
  ring.push_front(2);
  ring.push_back(3);
  EXPECT_EQ(contents(ring), (std::vector<int>{2, 1, 3}));
  EXPECT_EQ(ring.pop_front(), 2);
}

TEST(RingBuffer, PushFrontAndClearOnFullRing) {
  RingBuffer<int> ring(4);
  for (int i = 0; i < 4; ++i) ring.push_back(int{i});
  ASSERT_EQ(ring.size(), ring.capacity());
  ring.push_front(-1);  // full: grows, then the new front
  EXPECT_EQ(ring.capacity(), 8u);
  EXPECT_EQ(contents(ring), (std::vector<int>{-1, 0, 1, 2, 3}));

  RingBuffer<int> full(4);
  for (int i = 0; i < 4; ++i) full.push_back(int{i});
  full.clear();
  EXPECT_TRUE(full.empty());
  EXPECT_EQ(full.capacity(), 4u);  // clear keeps the buffer
  full.push_back(7);
  full.push_front(6);
  EXPECT_EQ(contents(full), (std::vector<int>{6, 7}));
}

TEST(RingBuffer, PushFrontOnWrappedRingThenGrow) {
  RingBuffer<int> ring(8);
  for (int i = 0; i < 8; ++i) ring.push_back(int{i});
  for (int i = 0; i < 5; ++i) ring.pop_front();  // head at cell 5
  for (int i = 8; i < 12; ++i) ring.push_back(int{i});  // wraps to cells 0-3
  ring.push_front(4);  // head back to cell 4: full and wrapped
  ASSERT_EQ(ring.size(), 8u);
  EXPECT_EQ(ring.capacity(), 8u);
  ring.push_front(3);  // grows: re-linearized, then pushed in front
  ring.push_back(12);
  EXPECT_EQ(ring.capacity(), 16u);
  EXPECT_EQ(contents(ring), (std::vector<int>{3, 4, 5, 6, 7, 8, 9, 10, 11, 12}));
  for (int want = 3; want <= 12; ++want) EXPECT_EQ(ring.pop_front(), want);

  // clear on a wrapped ring, then reuse it across the wrap and a growth.
  for (int i = 0; i < 6; ++i) ring.push_back(int{i});
  for (int i = 0; i < 4; ++i) ring.pop_front();
  ring.clear();
  EXPECT_TRUE(ring.empty());
  for (int i = 0; i < 20; ++i) ring.push_front(int{i});
  EXPECT_EQ(ring.capacity(), 32u);
  for (int want = 19; want >= 0; --want) EXPECT_EQ(ring.pop_front(), want);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const auto v = rng.uniform_int(5, 10);
    EXPECT_GE(v, 5);
    EXPECT_LE(v, 10);
  }
}

TEST(Rng, ExponentialMeanConverges) {
  Rng rng(11);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(3.0);
  EXPECT_NEAR(sum / n, 3.0, 0.1);
}

// ---------------------------------------------------------------- RunDigest

TEST(RunDigest, CrossCellInterleavingDoesNotChangeTheValue) {
  RunDigest a(3), b(3);
  a.add(0, 1);
  a.add(1, 10);
  a.add(2, 100);
  a.add(0, 2);
  a.add(1, 20);
  b.add(2, 100);
  b.add(1, 10);
  b.add(1, 20);
  b.add(0, 1);
  b.add(0, 2);
  EXPECT_EQ(a.value(), b.value());
}

TEST(RunDigest, OrderInsideACellChangesTheValue) {
  RunDigest a(2), b(2);
  a.add(0, 1);
  a.add(0, 2);
  b.add(0, 2);
  b.add(0, 1);
  EXPECT_NE(a.value(), b.value());
}

TEST(RunDigest, MovingAValueToAnotherCellChangesTheValue) {
  RunDigest a(2), b(2);
  a.add(0, 1);
  a.add(0, 2);
  b.add(0, 1);
  b.add(1, 2);
  EXPECT_NE(a.value(), b.value());
}

TEST(RunDigest, IdenticalSequencesInTwoCellsDoNotCancel) {
  RunDigest both(2), untouched(2);
  for (const std::size_t cell : {0u, 1u}) {
    both.add(cell, 7);
    both.add(cell, 8);
  }
  EXPECT_NE(both.value(), untouched.value());
  EXPECT_NE(both.value(), 0u);
}

TEST(BoundedPareto, SamplesStayInRange) {
  Rng rng(3);
  BoundedPareto dist(10e3, 1e9, 1.2);
  for (int i = 0; i < 5000; ++i) {
    const double v = dist.sample(rng);
    EXPECT_GE(v, 10e3);
    EXPECT_LE(v, 1e9);
  }
}

TEST(BoundedPareto, SkewedTowardShort) {
  Rng rng(3);
  BoundedPareto dist(10e3, 1e9, 1.2);
  int below_100k = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) below_100k += dist.sample(rng) < 100e3;
  // With alpha 1.2 the vast majority of messages are near the low end.
  EXPECT_GT(below_100k, n * 8 / 10);
}

TEST(BoundedPareto, EmpiricalMeanMatchesAnalytic) {
  Rng rng(5);
  BoundedPareto dist(1e4, 1e6, 1.5);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += dist.sample(rng);
  EXPECT_NEAR(sum / n / dist.mean(), 1.0, 0.05);
}

TEST(BoundedPareto, RejectsBadParameters) {
  EXPECT_THROW(BoundedPareto(0, 10, 1), std::invalid_argument);
  EXPECT_THROW(BoundedPareto(10, 5, 1), std::invalid_argument);
  EXPECT_THROW(BoundedPareto(1, 10, 0), std::invalid_argument);
}

TEST(EmpiricalCdf, InterpolatesKnots) {
  EmpiricalCdf cdf({{0, 0.0}, {100, 0.5}, {1000, 1.0}});
  Rng rng(9);
  int low = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = cdf.sample(rng);
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1000.0);
    low += v <= 100.0;
  }
  EXPECT_NEAR(static_cast<double>(low) / n, 0.5, 0.03);
}

TEST(EmpiricalCdf, MeanOfPiecewiseLinear) {
  EmpiricalCdf cdf({{0, 0.0}, {100, 1.0}});
  EXPECT_DOUBLE_EQ(cdf.mean(), 50.0);
}

TEST(EmpiricalCdf, RejectsMalformedKnots) {
  EXPECT_THROW(EmpiricalCdf({{0, 0.0}}), std::invalid_argument);
  EXPECT_THROW(EmpiricalCdf({{0, 0.1}, {1, 1.0}}), std::invalid_argument);
  EXPECT_THROW(EmpiricalCdf({{0, 0.0}, {1, 0.5}, {0.5, 1.0}}), std::invalid_argument);
}

}  // namespace
}  // namespace mtp::sim
