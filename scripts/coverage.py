#!/usr/bin/env python3
"""Line-coverage census of src/: which lines only the tests run, and which
lines nothing runs.

A gcov build (`--coverage`) writes one .gcda counter file per object file.
`scripts/check.sh coverage` drives two passes over one build tree: the ctest
suite, then every bench and example. Between them it calls this script:

  coverage.py reset BUILD          delete every .gcda under BUILD
  coverage.py collect BUILD OUT    fold the .gcda counters into OUT (JSON)
  coverage.py report TESTS RUNS    per-file census of the two passes

`collect` runs `gcov --json-format --stdout` on each .gcda and keeps, for
every file under src/, the executable lines and the lines with a count above
zero. A header compiled into many objects is the union over all of them.
`report` prints one row per src/ file with its executable, test-only and
never-run line counts, and the line numbers of the last two as ranges.
Standard library only.
"""
import json
import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src") + os.sep


def gcda_files(build):
    for root, _, names in os.walk(build):
        for name in names:
            if name.endswith(".gcda"):
                yield os.path.join(root, name)


def reset(build):
    for path in gcda_files(build):
        os.remove(path)


def collect(build, out):
    build = os.path.abspath(build)
    lines = {}  # src-relative path -> {line: executed}
    for gcda in sorted(gcda_files(build)):
        proc = subprocess.run(
            ["gcov", "--json-format", "--stdout", "--object-directory",
             os.path.dirname(gcda), gcda],
            capture_output=True, text=True, check=True, cwd=build)
        # One JSON document per line, one per source file gcov was given.
        for doc in proc.stdout.splitlines():
            if not doc.strip():
                continue
            data = json.loads(doc)
            cwd = data.get("current_working_directory", build)
            for f in data["files"]:
                path = os.path.normpath(os.path.join(cwd, f["file"]))
                if not path.startswith(SRC):
                    continue
                rel = os.path.relpath(path, REPO)
                seen = lines.setdefault(rel, {})
                for ln in f["lines"]:
                    n = ln["line_number"]
                    seen[n] = seen.get(n, False) or ln["count"] > 0
    with open(out, "w") as fh:
        json.dump({k: {str(n): v for n, v in sorted(ls.items())}
                   for k, ls in sorted(lines.items())}, fh)


def ranges(nums):
    """[1,2,3,7,9,10] -> '1-3,7,9-10'."""
    out = []
    for n in sorted(nums):
        if out and out[-1][1] == n - 1:
            out[-1][1] = n
        else:
            out.append([n, n])
    return ",".join(str(a) if a == b else f"{a}-{b}" for a, b in out)


def report(tests_path, runs_path):
    with open(tests_path) as fh:
        tests = json.load(fh)
    with open(runs_path) as fh:
        runs = json.load(fh)
    rows = []
    for path in sorted(set(tests) | set(runs)):
        t, r = tests.get(path, {}), runs.get(path, {})
        executable = set(t) | set(r)
        test_only = [int(n) for n in executable if t.get(n) and not r.get(n)]
        never = [int(n) for n in executable if not t.get(n) and not r.get(n)]
        rows.append((path, len(executable), test_only, never))
    total = sum(r[1] for r in rows)
    total_test_only = sum(len(r[2]) for r in rows)
    total_never = sum(len(r[3]) for r in rows)
    print(f"coverage: src/ executable={total} test_only={total_test_only} "
          f"never_run={total_never}")
    print(f"{'file':<44} {'exec':>5} {'test-only':>9} {'never':>6}")
    for path, n, test_only, never in rows:
        print(f"{path:<44} {n:>5} {len(test_only):>9} {len(never):>6}")
        if test_only:
            print(f"    test-only: {ranges(test_only)}")
        if never:
            print(f"    never:     {ranges(never)}")


def main(argv):
    if len(argv) == 3 and argv[1] == "reset":
        reset(argv[2])
    elif len(argv) == 4 and argv[1] == "collect":
        collect(argv[2], argv[3])
    elif len(argv) == 4 and argv[1] == "report":
        report(argv[2], argv[3])
    else:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: coverage.py reset BUILD | collect BUILD OUT | "
              "report TESTS RUNS", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
