#!/usr/bin/env python3
"""Judge a bench's `--smoke` output against the gates in a BENCH_*.json file.

    build/bench/bench_scale --smoke | scripts/gates.py BENCH_scale.json bench_scale
    scripts/gates.py --self-test

The bench prints `metric=value` lines. Each entry of the file's `gates` list is
{"bench", "metric", "op", "bound", "kind"}, op one of <=, >=, ==, >. A `sim`
gate compares the metric with `bound` as is. A `wallclock` gate's bound is the
recorded baseline and the metric must reach WALLCLOCK_FLOOR of it. An optional
"if": {"metric", "op", "bound"} guard turns the gate into INFO when it is false.
A missing or non-numeric metric FAILs. Prints one line per gate of `bench` and
exits 1 if any FAILed (or if the file has no gate for `bench`).
"""
import json
import operator
import os
import re
import sys

OPS = {"<=": operator.le, ">=": operator.ge, "==": operator.eq, ">": operator.gt}
# Same-binary wall-clock rates drift up to ~35% on a shared box; a floor at
# 75% of the recorded baseline catches structural regressions, not noise.
WALLCLOCK_FLOOR = 0.75
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def number(metrics, name):
    try:
        return float(metrics[name])
    except (KeyError, ValueError):
        return None


def fmt(x):
    return ("%f" % x).rstrip("0").rstrip(".")


def threshold(gate):
    return gate["bound"] * (WALLCLOCK_FLOOR if gate.get("kind") == "wallclock" else 1)


def judge(gate, metrics):
    """(verdict, message) for one gate: OK, FAIL or INFO."""
    name, guard = gate["metric"], gate.get("if")
    if guard:
        g = number(metrics, guard["metric"])
        if g is None:
            return "FAIL", f"{guard['metric']} missing or non-numeric (guards {name})"
        if not OPS[guard["op"]](g, guard["bound"]):
            return "INFO", (f"{name}={metrics.get(name, '?')} not gated: needs "
                            f"{guard['metric']} {guard['op']} {fmt(guard['bound'])}, got {fmt(g)}")
    got = number(metrics, name)
    if got is None:
        return "FAIL", f"{name} missing or non-numeric"
    want = f"{gate['op']} {fmt(threshold(gate))}"
    if gate["kind"] == "wallclock":
        want += f" = {WALLCLOCK_FLOOR:.0%} of baseline {fmt(gate['bound'])}"
    verdict = "OK" if OPS[gate["op"]](got, threshold(gate)) else "FAIL"
    return verdict, f"{name}={metrics[name]} (want {want})"


def load(name):
    with open(os.path.join(ROOT, name)) as f:
        return json.load(f)["gates"]


def self_test():
    """Every gate in both BENCH files must pass at its bound, fail just past it,
    and fail when its metric is missing; a false guard must give INFO."""
    def floor(g):  # the contract restated, so a broken threshold() shows
        return g["bound"] * (0.75 if g.get("kind") == "wallclock" else 1)

    def edge(g, past):  # the passing edge of a gate, or a value just past it
        t, step = floor(g), max(abs(floor(g)), 1) * 1e-6
        if g["op"] == ">":
            return t if past else t + step
        return t + {"<=": step, ">=": -step, "==": step}[g["op"]] * past

    bad, seen = [], set()
    for gates in (load("BENCH_core.json"), load("BENCH_scale.json")):
        ok = {}  # per metric, a value passing every gate (or guard) on it
        for cond in gates + [g["if"] for g in gates if "if" in g]:
            same = [x for x in gates if x["metric"] == cond["metric"]] or [cond]
            ok[cond["metric"]] = next(repr(v) for v in (edge(x, False) for x in same)
                                      if all(OPS[x["op"]](v, floor(x)) for x in same))
        for g in gates:
            seen.add(g["metric"])
            if g["kind"] not in ("sim", "wallclock"):  # an unknown op raises above
                bad.append(f"{g['bench']} {g['metric']}: unknown kind {g['kind']!r}")
            cases = [("at bound", ok, "OK"),
                     ("past bound", dict(ok, **{g["metric"]: repr(edge(g, True))}), "FAIL"),
                     ("missing", {k: v for k, v in ok.items() if k != g["metric"]}, "FAIL")]
            if "if" in g:
                cases.append(("guard false",
                              dict(ok, **{g["if"]["metric"]: repr(edge(g["if"], True))}), "INFO"))
            bad += [f"{g['bench']} {g['metric']} {g['op']}: {label} gives {v}, not {want}"
                    for label, m, want in cases if (v := judge(g, m)[0]) != want]
    # The two ceilings the hand-written shell gates let pass when unprinted.
    bad += [f"no gate on {m}" for m in ("bytes_per_idle_msg", "stream_fec_overhead_pct")
            if m not in seen]
    print("\n".join(bad) or f"gates self-test: OK ({len(seen)} metrics)")
    return 1 if bad else 0


def main(path, bench):
    gates = [g for g in load(path) if g["bench"] == bench]
    metrics = dict(re.findall(r"^([A-Za-z_]\w*)=(\S+)[ \t]*$", sys.stdin.read(), re.M))
    verdicts = [judge(g, metrics) for g in gates] or [("FAIL", f"no gates for {bench}")]
    for verdict, msg in verdicts:
        print(f"{bench}: {verdict} {msg}")
    return 1 if any(v == "FAIL" for v, _ in verdicts) else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--self-test"]:
        sys.exit(self_test())
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(*sys.argv[1:]))
