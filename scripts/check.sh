#!/usr/bin/env bash
# CI gates. Run from anywhere; operates on the repo root.
#
#   check.sh [asan]        sanitizer gate: full test suite under ASan/UBSan
#   check.sh tsan          thread gate: ParallelSweep tests under TSan
#   check.sh chaos         robustness gate: fixed-seed chaos schedules under ASan
#   check.sh werror        warnings gate: the whole tree builds with -Werror
#   check.sh bench-smoke   perf gate: bench_micro_core --smoke vs BENCH_core.json
#   check.sh scale-smoke   scale gate: bench_scale --smoke vs BENCH_scale.json
#   check.sh stream-smoke  stream gate: bench_stream_loss --smoke vs BENCH_scale.json
#   check.sh overload-smoke  overload gate: bench_overload --smoke vs BENCH_scale.json
#   check.sh transport-smoke transport-zoo gate: bench_fig3_short_flows --smoke vs BENCH_scale.json
#   check.sh coverage      census: src/ lines only the tests run, and lines nothing runs
#   check.sh all           every gate in sequence
#
# The *-smoke modes judge the bench's --smoke output against the `gates` list
# in the BENCH file named above, with scripts/gates.py.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
jobs="$(nproc 2>/dev/null || echo 4)"
mode="${1:-asan}"

run_asan() {
  # The full suite includes the `hybrid`-labelled flow_test (fluid bulk model
  # + packet/flow fidelity gates), so the asan lane covers it by construction.
  cmake --preset asan -S "$repo"
  cmake --build --preset asan -j "$jobs"
  ctest --test-dir "$repo/build-asan" --output-on-failure -j "$jobs"
}

run_tsan() {
  # ThreadSanitizer over the multi-threaded surface: ParallelSweep jobs
  # exercise the thread-local telemetry singletons from several workers at
  # once.
  # scale_test's scenario-sweep case runs whole ScenarioBuilder rigs on
  # worker threads, covering the scenario library's thread-local surfaces.
  # sharded_test/chaos_test's Sharded* cases run one fabric split across
  # worker shards, covering the SPSC handoff channels, the window barrier,
  # the per-shard packet pools, and the per-shard counter slots.
  # flow_test's hybrid scenarios run per-shard FluidModel replicas on worker
  # threads; the `hybrid` ctest label selects exactly those cases.
  # stream_test's `stream` label covers the mtp::stream reassembly/FEC suite;
  # its StreamSharded chaos case also runs sharded muxes on worker threads.
  # overload_test's `overload` label covers mtp::overload (admission,
  # shedding, budgets); its OverloadChaosSharded cases run the metastable-
  # failure harness on worker shards and also match the -R filter.
  cmake --preset tsan -S "$repo"
  # transport_conformance_test's `transport` label runs the whole zoo
  # (MTP/TCP/DCTCP/Homa/MPTCP) including the 1/2/4-shard digest cases, so
  # every transport's fleet also gets exercised on worker shards under TSan.
  cmake --build --preset tsan -j "$jobs" --target parallel_test chaos_test scale_test scenario_test sharded_test flow_test stream_test overload_test transport_conformance_test
  ctest --test-dir "$repo/build-tsan" --output-on-failure -j "$jobs" \
    -R 'ParallelSweep|ScenarioSweep|ScenarioBuilder|Sharded'
  ctest --test-dir "$repo/build-tsan" --output-on-failure -j "$jobs" -L hybrid
  ctest --test-dir "$repo/build-tsan" --output-on-failure -j "$jobs" -L stream
  ctest --test-dir "$repo/build-tsan" --output-on-failure -j "$jobs" -L overload
  ctest --test-dir "$repo/build-tsan" --output-on-failure -j "$jobs" -L transport
}

run_chaos() {
  # Seeded fault schedules (link flaps, bursty corruption, device crashes)
  # with exactly-once / integrity / quiescence invariants, run under ASan so
  # recovery paths are also leak- and UB-checked. Fixed seeds: a failure here
  # reproduces with `build-asan/tests/chaos_test`. The Device, KvsCache and
  # MutationOffload cases cover device messages sent on a switch's
  # MtpEndpoint, including crash, restart and ACKs routed to the switch.
  cmake --preset asan -S "$repo"
  cmake --build --preset asan -j "$jobs" --target chaos_test fault_test device_test \
    innetwork_test message_test overload_test
  ctest --test-dir "$repo/build-asan" --output-on-failure -j "$jobs" \
    -R 'Chaos|FaultInjector|RecoveryEdge|Impairment|Device|KvsCache|MutationOffload'
}

run_werror() {
  # Every target (src, tests, benches, examples) built with -Wall -Wextra
  # -Werror at -O2, where g++ warns about what it sees after inlining. The
  # asan lane runs the suite; this lane only compiles.
  cmake --preset werror -S "$repo"
  cmake --build --preset werror -j "$jobs"
}

run_smoke() {
  # run_smoke <bench target> <BENCH file>: build the bench, run its --smoke
  # mode and judge the key=value lines it prints against the file's gates for
  # that bench (scripts/gates.py prints one OK/FAIL/INFO line per gate).
  cmake --preset release -S "$repo"
  cmake --build --preset release -j "$jobs" --target "$1"
  local out
  out="$("$repo/build/bench/$1" --smoke)"
  echo "$out"
  python3 "$repo/scripts/gates.py" "$repo/$2" "$1" <<<"$out"
}

run_coverage() {
  # Two passes over one gcov build (-O1 --coverage, build-coverage/): the
  # ctest suite, then every bench (--smoke where it has one, its default run
  # otherwise) and every example. scripts/coverage.py folds each pass's .gcda
  # counters and prints, per src/ file, the lines only the tests ran and the
  # lines neither pass ran. Not part of `all`: it is a census, not a gate.
  local build="$repo/build-coverage" out="$repo/build-coverage/census"
  cmake --preset coverage -S "$repo"
  cmake --build --preset coverage -j "$jobs"
  mkdir -p "$out"
  python3 "$repo/scripts/coverage.py" reset "$build"
  ctest --test-dir "$build" -j "$jobs" >"$out/ctest.log" || {
    tail -20 "$out/ctest.log"
    return 1
  }
  python3 "$repo/scripts/coverage.py" collect "$build" "$out/tests.json"
  python3 "$repo/scripts/coverage.py" reset "$build"
  local bin
  for bin in "$build"/bench/bench_* "$build"/examples/*; do
    [[ -f "$bin" && -x "$bin" ]] || continue
    if grep -q -- "--smoke" "$repo/bench/$(basename "$bin").cpp" 2>/dev/null; then
      MTP_REPORT_DIR="$out/reports" "$bin" --smoke >"$out/$(basename "$bin").log"
    else
      MTP_REPORT_DIR="$out/reports" "$bin" >"$out/$(basename "$bin").log"
    fi
  done
  python3 "$repo/scripts/coverage.py" collect "$build" "$out/runs.json"
  python3 "$repo/scripts/coverage.py" report "$out/tests.json" "$out/runs.json"
}

case "$mode" in
  asan) run_asan ;;
  tsan) run_tsan ;;
  chaos) run_chaos ;;
  werror) run_werror ;;
  bench-smoke) run_smoke bench_micro_core BENCH_core.json ;;
  scale-smoke) run_smoke bench_scale BENCH_scale.json ;;
  stream-smoke) run_smoke bench_stream_loss BENCH_scale.json ;;
  overload-smoke) run_smoke bench_overload BENCH_scale.json ;;
  transport-smoke) run_smoke bench_fig3_short_flows BENCH_scale.json ;;
  coverage) run_coverage ;;
  all)
    for m in asan tsan chaos werror bench-smoke scale-smoke stream-smoke overload-smoke transport-smoke; do
      "$0" "$m"
    done
    ;;
  *)
    echo "usage: check.sh [asan|tsan|chaos|werror|bench-smoke|scale-smoke|stream-smoke|overload-smoke|transport-smoke|coverage|all]" >&2
    exit 2
    ;;
esac
