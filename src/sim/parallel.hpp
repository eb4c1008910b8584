// sim::ParallelSweep — run independent simulations on a pool of workers.
//
// A Simulator is single-threaded by design; experiment breadth comes from
// running *many* simulators at once. ParallelSweep executes a list of
// independent jobs (each typically constructs its own Network/Simulator,
// runs it, and returns a result struct) across worker threads and returns
// results in job order, so output is bit-identical to a serial run.
//
// Determinism contract (docs/perf.md): a job must derive every input from
// its own arguments (topology, seed, duration) and touch no cross-thread
// mutable state. The process-wide telemetry singletons are thread-local
// (MetricRegistry::global(), telemetry::trace()), and packet pools are
// per-Network, so an unmodified bench
// scenario already satisfies the contract. Jobs that enable tracing or
// tune thread-local telemetry must do so *inside* the job body: worker
// threads do not inherit the caller's thread-local state.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "sim/worker_pool.hpp"

namespace mtp::sim {

class ParallelSweep {
 public:
  /// `workers` = 0 picks WorkerPool::default_workers() — the MTP_THREADS
  /// environment override when set, else hardware_concurrency. `workers` = 1
  /// runs every job inline on the calling thread (the serial baseline —
  /// including thread-local state, so serial-vs-parallel comparisons are
  /// meaningful).
  explicit ParallelSweep(unsigned workers = 0)
      : workers_(workers != 0 ? workers : WorkerPool::default_workers()) {}

  unsigned workers() const { return workers_; }

  /// Run all jobs; blocks until every job finished. Results come back in job
  /// order. If any job throws, the first exception (by job index) is
  /// rethrown after the sweep drains.
  template <class T>
  std::vector<T> run(std::vector<std::function<T()>> jobs) const {
    std::vector<std::optional<T>> slots(jobs.size());
    dispatch(jobs.size(), [&](std::size_t i) { slots[i].emplace(jobs[i]()); });
    std::vector<T> out;
    out.reserve(slots.size());
    for (auto& s : slots) out.push_back(std::move(*s));
    return out;
  }

  void run(std::vector<std::function<void()>> jobs) const {
    dispatch(jobs.size(), [&](std::size_t i) { jobs[i](); });
  }

  /// Convenience: results[i] = fn(i) for i in [0, n).
  template <class Fn>
  auto map(std::size_t n, Fn fn) const {
    using T = decltype(fn(std::size_t{0}));
    std::vector<std::function<T()>> jobs;
    jobs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) jobs.push_back([fn, i] { return fn(i); });
    return run<T>(std::move(jobs));
  }

 private:
  /// One sweep = one WorkerPool dispatch (sim/worker_pool.hpp — the same
  /// pool abstraction sharded::Engine runs on). The pool hands lane k jobs
  /// k, k+W, 2W+k, ...; which thread runs a job is deterministic in the lane
  /// mapping but irrelevant to results — the slot a job fills is its index.
  template <class RunOne>
  void dispatch(std::size_t n, RunOne run_one) const {
    if (n == 0) return;
    WorkerPool pool(workers_);
    const std::function<void(std::size_t)> body = [&](std::size_t i) { run_one(i); };
    pool.parallel_for(n, body);
  }

  unsigned workers_;
};

}  // namespace mtp::sim
