#!/usr/bin/env python3
"""The simulator's benchmark: one workload per call, metrics as JSON.

    python3 perfbench/run.py --workload k8_burst --seed 1 --seconds 15 --trace 0

Run from the repository root. The first call builds the simulator library
and the pass binary (perfbench/bench.cpp) from source into
$CARGO_TARGET_DIR (default .bench_build). Each pass is a fresh process, so
peak RSS belongs to one workload; MTP_THREADS is capped at the workload's
shard count.

--trace 0: passes run back to back until --seconds have elapsed; the
end-to-end metrics are medians over passes (the sim-time metrics must be
identical in every pass). --trace 1: plain and traced passes alternate
(plus a no-bulk control pass on k32_hybrid and a 2-shard pass on
k16_msgaware) and the per-layer metrics are printed. The last stdout line
is one JSON object:
{"correct", "attempted", "failed", "metrics"}. See perfbench/README.md.
"""
import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
DIGESTS = BENCH_DIR / "digests.json"
TRANSPORTS = ("mtp", "dctcp", "homa", "mptcp")

# Per workload: scenario builds per pass (setup_s is their median) and, for
# --trace 1, the shard count of an extra sim::sharded pass. Timed passes run
# serially: with 2 shards, k16_msgaware's run_s spread over ten runs reached
# 0.27 in two of three sets on a shared 4-core box, against at most 0.15 for
# any serial workload.
WORKLOADS = {
    "k8_burst": {"setups": 25},
    "k16_msgaware": {"setups": 5, "sharded": 2},
    "k32_hybrid": {"setups": 1},
    "zoo_incast": {"setups": 50},
}
PASS_TIMEOUT_S = 150


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve() / "perfbench"


def build():
    """Configure and build the pass binary; returns its path."""
    out = build_dir()
    binary = out / "perfbench"
    jobs = str(min(4, os.cpu_count() or 1))
    cmds = [["cmake", "--build", str(out), "-j", jobs]]
    if not (out / "CMakeCache.txt").exists():
        cmds.insert(0, ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in cmds:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if r.returncode != 0:
            sys.stderr.write(r.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))
    if not binary.exists():
        fail(f"build produced no {binary}")
    return binary


def run_pass(binary, workload, seed, mode="plain", extra=(), small=False, shards=1):
    """One fresh process, one pass; returns its JSON object. MTP_THREADS caps
    sim::WorkerPool lanes at the shard count."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed), "--mode", mode,
           "--setups", str(1 if small else WORKLOADS[workload]["setups"]),
           "--shards", str(shards), *extra]
    if small:
        cmd.append("--small")
    env = dict(os.environ, MTP_THREADS=str(shards))
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                       env=env, timeout=PASS_TIMEOUT_S)
    if r.returncode != 0:
        sys.stderr.write(r.stderr[-4000:])
        fail(f"pass failed ({' '.join(cmd)}) with exit code {r.returncode}")
    return json.loads(r.stdout.strip().splitlines()[-1])


# Sim-time results: a function of the seed alone, identical in every pass.
SIM_KEYS = ("offered", "ok", "fct_count", "fct_p50_us", "fct_p999_us", "goodput_gbps", "digest")


def recorded_digest(workload, seed):
    try:
        table = json.loads(DIGESTS.read_text())
    except (OSError, ValueError):
        return None
    return table.get(workload, {}).get(str(seed))


def check(workload, seed, passes, small=False):
    """Output checks over one call's passes; returns (ok, problems)."""
    problems = []
    first = passes[0]
    for p in passes[1:]:
        for k in SIM_KEYS:
            if p.get(k) != first.get(k):
                problems.append(f"{k} differs between passes of one seed "
                                f"({first.get(k)} vs {p.get(k)})")
    for p in passes:
        if p["ok"] != p["offered"]:
            problems.append(f"{int(p['offered'] - p['ok'])} of {int(p['offered'])} messages "
                            "not completed exactly once with their byte count")
        if p["flow_violations"] != 0:
            problems.append(f"flow.violations = {p['flow_violations']}")
        if p["no_route_drops"] != 0:
            problems.append(f"net.no_route_drops = {p['no_route_drops']}")
        if p["bulk_completed"] != p["bulk_count"]:
            problems.append(f"{p['bulk_completed']} of {p['bulk_count']} bulk transfers completed")
    if not small:
        want = recorded_digest(workload, seed)
        if want is not None and want != first["digest"]:
            problems.append(f"digest mismatch for {workload} seed {seed}: "
                            f"got {first['digest']}, recorded {want}")
    return not problems, sorted(set(problems))


def end_to_end(passes):
    first = passes[0]
    med = lambda k: statistics.median(p[k] for p in passes)
    return {
        "setup_s": (med("setup_s"), "s"),
        "run_s": (med("run_s"), "s"),
        "peak_rss_mb": (med("peak_rss_mb"), "MB"),
        "fct_p50_us": (first["fct_p50_us"], "us"),
        "fct_p999_us": (first["fct_p999_us"], "us"),
        "goodput_gbps": (first["goodput_gbps"], "Gbps"),
        "delivered_frac": (first["ok"] / first["offered"], "fraction"),
    }


def per_layer(plain, traced, control, sharded):
    """Per-layer metrics from the traced passes; flow.cost_s against the
    no-bulk control pass, sharded.* from the untraced sharded pass (every
    slice boundary of a traced run would also end a window)."""
    t, sh = traced, sharded or {}
    m = {
        "workload.gen_s": (t["gen_s"], "s"),
        "net.topology_s": (t["topology_s"], "s"),
        "transport.fleet_s": (t["fleet_s"], "s"),
        "mem.after_build_mb": (t["mem_after_build_mb"], "MB"),
        "sim.events": (t["events"], "count"),
        "sim.events_per_s": (t["events"] / t["run_s"], "1/s"),
        "sim.pending_max": (t["pending_max"], "count"),
        "sim.timers_armed_max": (t["timers_armed_max"], "count"),
        "sim.lib_self_s": (t["lib_self_s"], "s"),
        "sharded.run_s": (sh.get("run_s", 0), "s"),
        "sharded.speedup": (plain["run_s"] / sh["run_s"] if sh else 0, "ratio"),
        "sharded.windows": (sh.get("windows", 0), "count"),
        "sharded.events_per_window": (sh["events"] / sh["windows"]
                                      if sh.get("windows") else 0, "count"),
        "sharded.imbalance": (sh["shard_events_max"] / sh["shard_events_mean"]
                              if sh else 0, "ratio"),
        "flow.resolves": (t["flow_resolves"], "count"),
        "flow.events": (t["flow_events"], "count"),
        "flow.violations": (t["flow_violations"], "count"),
        "flow.cost_s": (t["run_s"] - control["run_s"] if control else 0, "s"),
        "net.pkt_hops": (t["pkt_hops"], "count"),
        "net.ns_per_pkt_hop": (t["lib_self_s"] * 1e9 / t["pkt_hops"] if t["pkt_hops"] else 0, "ns"),
        "net.pins_max": (t["pins_max"], "count"),
        "net.queue_drops": (t["queue_drops"], "count"),
        "net.ecn_marks": (t["ecn_marks"], "count"),
        "net.queue_pkts_max": (t["queue_pkts_max"], "count"),
        "net.no_route_drops": (t["no_route_drops"], "count"),
        "mtp.pkts_sent": (t["mtp_pkts_sent"], "count"),
        "mtp.retx": (t["mtp_retx"], "count"),
        "mtp.acks_sent": (t["mtp_acks_sent"], "count"),
        "mtp.first_tx_ratio": ((t["mtp_pkts_sent"] - t["mtp_retx"]) / t["mtp_pkts_sent"]
                               if t["mtp_pkts_sent"] else 0, "ratio"),
        "mtp.outstanding_max": (t["outstanding_max"], "count"),
        "mtp.send_us": (t["send_s"] * 1e6 / t["send_calls"] if t["send_calls"] else 0, "us"),
        "bench.trace_overhead_pct": ((t["run_s"] / plain["run_s"] - 1) * 100, "%"),
        "bench.fct_count": (t["fct_count"], "count"),
    }
    for tr in TRANSPORTS:
        p = f"transport.{tr}."
        m[p + "run_s"] = (t.get(p + "run_s", 0), "s")
        m[p + "msgs"] = (t.get(p + "msgs", 0), "count")
        m[p + "retransmits"] = (t.get(p + "retransmits", 0), "count")
        m[p + "timeouts"] = (t.get(p + "timeouts", 0), "count")
        m[p + "grants"] = (t.get(p + "grants", 0), "count")
        m[p + "fct_p999_us"] = (t.get(p + "fct_p999_us", 0), "us")
        m[p + "rss_growth_mb"] = (t.get(p + "rss_growth_mb", 0), "MB")
    return m


def median_pass(passes):
    """Field-wise median of numeric fields (sim-time fields are equal anyway)."""
    out = dict(passes[0])
    for k, v in passes[0].items():
        if isinstance(v, (int, float)):
            out[k] = statistics.median(p[k] for p in passes)
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digest", action="store_true",
                    help="store this seed's completion digest in perfbench/digests.json")
    args = ap.parse_args()

    binary = build()
    w, seed = args.workload, args.seed
    t0 = time.monotonic()
    plain, traced, control, sharded = [], [], [], []
    trace_dir = build_dir() / "traces"
    while True:
        plain.append(run_pass(binary, w, seed))
        if args.trace:
            trace_dir.mkdir(parents=True, exist_ok=True)
            out = trace_dir / f"{w}_seed{seed}.csv"
            traced.append(run_pass(binary, w, seed, "traced", ["--trace-out", str(out)]))
            if w == "k32_hybrid":
                control.append(run_pass(binary, w, seed, "traced", ["--no-bulk"]))
            if "sharded" in WORKLOADS[w]:
                sharded.append(run_pass(binary, w, seed, shards=WORKLOADS[w]["sharded"]))
        if time.monotonic() - t0 >= args.seconds:
            break

    digest = plain[0]["digest"]
    if args.record_digest:
        table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        table.setdefault(w, {})[str(seed)] = digest
        DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    want = recorded_digest(w, seed)
    ok, problems = check(w, seed, plain + traced + sharded)

    if args.trace:
        metrics = per_layer(median_pass(plain), median_pass(traced),
                            median_pass(control) if control else None,
                            median_pass(sharded) if sharded else None)
    else:
        metrics = end_to_end(plain)

    first = plain[0]
    print(f"# workload {w}  seed {seed}  passes {len(plain)}"
          + (f"+{len(traced)} traced" if traced else ""))
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:16.6f} {unit}")
    print("run_s per pass: " + " ".join(f"{p['run_s']:.3f}" for p in plain)
          + (" | traced: " + " ".join(f"{p['run_s']:.3f}" for p in traced) if traced else "")
          + (" | sharded: " + " ".join(f"{p['run_s']:.3f}" for p in sharded) if sharded else ""))
    n = int(first["fct_count"])
    print(f"fct samples {n} (p99.9 has {n - math.ceil(n * 0.999)} beyond it)")
    print(f"fail_frac {1 - first['ok'] / first['offered']:.6f}")
    print(f"digest {digest}  digest_match "
          + ("unrecorded" if want is None else str(int(want == digest))))
    for p in problems:
        print(f"CHECK FAILED: {p}")

    result = {
        "correct": ok,
        "attempted": int(first["offered"]),
        "failed": int(first["offered"] - first["ok"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
