// Tests for sim::ParallelSweep: result ordering, exception propagation, and
// the determinism contract — a sweep of independent simulations must produce
// bit-identical results whether it runs serially (workers=1) or on a pool.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "mtp/endpoint.hpp"
#include "net/network.hpp"
#include "sim/parallel.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"
#include "telemetry/metrics.hpp"

namespace mtp::sim {
namespace {

using namespace mtp::sim::literals;

TEST(ParallelSweep, ResultsComeBackInJobOrder) {
  ParallelSweep pool(4);
  const std::vector<int> out = pool.map(64, [](std::size_t i) { return static_cast<int>(i * i); });
  ASSERT_EQ(out.size(), 64u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i * i));
  }
}

TEST(ParallelSweep, ZeroWorkersPicksHardwareConcurrency) {
  ParallelSweep pool(0);
  EXPECT_GE(pool.workers(), 1u);
}

TEST(ParallelSweep, SingleWorkerRunsInlineOnCallingThread) {
  // workers=1 is the serial baseline: jobs see the caller's thread-local
  // state (telemetry registry, trace sink).
  auto& caller_registry = telemetry::MetricRegistry::global();
  ParallelSweep pool(1);
  const std::vector<bool> same =
      pool.map(4, [&](std::size_t) { return &telemetry::MetricRegistry::global() == &caller_registry; });
  for (const bool s : same) EXPECT_TRUE(s);
}

TEST(ParallelSweep, WorkersGetTheirOwnTelemetryRegistry) {
  // The determinism/thread-safety contract: worker threads must not share
  // the caller's (or each other's) mutable telemetry singletons.
  auto& caller_registry = telemetry::MetricRegistry::global();
  ParallelSweep pool(4);
  std::atomic<int> shared_with_caller{0};
  pool.run(std::vector<std::function<void()>>(
      8, [&] {
        if (&telemetry::MetricRegistry::global() == &caller_registry) {
          shared_with_caller.fetch_add(1);
        }
      }));
  EXPECT_EQ(shared_with_caller.load(), 0);
}

TEST(ParallelSweep, VoidJobsAllRun) {
  ParallelSweep pool(4);
  std::atomic<int> count{0};
  pool.run(std::vector<std::function<void()>>(32, [&] { count.fetch_add(1); }));
  EXPECT_EQ(count.load(), 32);
}

TEST(ParallelSweep, FirstExceptionByJobIndexPropagates) {
  ParallelSweep pool(4);
  std::vector<std::function<int()>> jobs;
  for (int i = 0; i < 8; ++i) {
    jobs.push_back([i]() -> int {
      if (i == 3) throw std::runtime_error("job 3 failed");
      if (i == 6) throw std::logic_error("job 6 failed");
      return i;
    });
  }
  try {
    pool.run<int>(std::move(jobs));
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "job 3 failed");  // lowest job index wins
  }
}

TEST(ParallelSweep, EmptyJobListIsANoOp) {
  ParallelSweep pool(4);
  EXPECT_TRUE(pool.run<int>({}).empty());
  pool.run(std::vector<std::function<void()>>{});
}

// One independent simulation: the bench_micro_core end-to-end scenario at a
// parameterized message size. Returns everything an experiment would record.
struct RunResult {
  std::uint64_t events = 0;
  std::uint64_t delivered = 0;
  std::int64_t fct_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t task_heap_allocs = 0;

  bool operator==(const RunResult&) const = default;
};

RunResult run_transfer(std::int64_t msg_bytes) {
  const std::uint64_t heap_before = Task::heap_allocations();
  net::Network net;
  auto* a = net.add_host("a");
  auto* b = net.add_host("b");
  auto* sw = net.add_switch("sw");
  net.connect(*a, *sw, Bandwidth::gbps(100), 1_us);
  net.connect(*sw, *b, Bandwidth::gbps(100), 1_us);
  net.build_routes();
  core::MtpEndpoint src(*a, {});
  core::MtpEndpoint dst(*b, {});
  dst.listen(80, [](const core::ReceivedMessage&) {});
  RunResult r;
  src.send_message(b->id(), msg_bytes, {.dst_port = 80},
                   [&r](proto::MsgId, SimTime fct) { r.fct_ns = fct.ns(); });
  net.simulator().run();
  r.events = net.simulator().events_executed();
  r.delivered = dst.msgs_delivered();
  r.end_ns = net.simulator().now().ns();
  r.task_heap_allocs = Task::heap_allocations() - heap_before;
  return r;
}

TEST(ParallelSweep, SimulationsAreBitIdenticalSerialVsParallel) {
  std::vector<std::int64_t> sizes;
  for (int i = 0; i < 12; ++i) sizes.push_back(20'000 + 37'000 * i);

  auto sweep = [&](unsigned workers) {
    ParallelSweep pool(workers);
    return pool.map(sizes.size(), [&](std::size_t i) { return run_transfer(sizes[i]); });
  };
  const std::vector<RunResult> serial = sweep(1);
  const std::vector<RunResult> parallel = sweep(4);
  const std::vector<RunResult> parallel_again = sweep(4);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_GT(serial[i].delivered, 0u);
    EXPECT_GT(serial[i].fct_ns, 0);
    EXPECT_EQ(serial[i], parallel[i]) << "scenario " << i << " diverged serial vs parallel";
    EXPECT_EQ(parallel[i], parallel_again[i]) << "scenario " << i << " unstable across sweeps";
  }
}

TEST(ParallelSweep, SteadyStateSchedulingIsAllocationFree) {
  // The allocation contract, measured per worker thread: after warm-up, the
  // event core must not heap-allocate for ordinary [this]-style callbacks.
  ParallelSweep pool(2);
  const std::vector<std::uint64_t> allocs = pool.map(4, [](std::size_t) {
    Simulator sim;
    // Warm up the slot pool and heap storage.
    for (int i = 0; i < 512; ++i) sim.schedule(SimTime::nanoseconds(i), [] {});
    sim.run();
    const std::uint64_t before = Task::heap_allocations();
    int counter = 0;
    for (int round = 0; round < 100; ++round) {
      for (int i = 0; i < 128; ++i) {
        sim.schedule(SimTime::nanoseconds(i % 16), [&counter] { ++counter; });
      }
      sim.run();
    }
    return Task::heap_allocations() - before;
  });
  for (const std::uint64_t a : allocs) EXPECT_EQ(a, 0u);
}

}  // namespace
}  // namespace mtp::sim
