#!/usr/bin/env python3
"""Line-coverage census of src/: which lines only the tests run, and which
lines nothing runs.

A gcov build (`--coverage`) writes one .gcda counter file per object file.
`scripts/check.sh coverage` drives two passes over one build tree: the ctest
suite, then every bench and example. Between them it calls this script:

  coverage.py reset BUILD          delete every .gcda under BUILD
  coverage.py collect BUILD OUT    fold the .gcda counters into OUT (JSON)
  coverage.py report TESTS RUNS    per-file census of the two passes
  coverage.py diff BEFORE AFTER    two censuses compared, as a docs table
  coverage.py --self-test          check `diff` on built-in fixture pairs

`collect` runs `gcov --json-format --stdout` on each .gcda and keeps, for
every file under src/, the executable lines and the lines with a count above
zero. A header compiled into many objects is the union over all of them.
`report` prints one row per src/ file with its executable, test-only and
never-run line counts, and the line numbers of the last two as ranges.
`diff` reads tests.json and runs.json from two census directories (the
`census/` folder `check.sh coverage` writes) and prints both totals lines,
then one Markdown row per file whose counts changed: `a → b` where a count
moved, `—` for a file absent from one side. Standard library only.
"""
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile

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


def census(tests_path, runs_path):
    """{src path: (executable count, test-only lines, never-run lines)}."""
    with open(tests_path) as fh:
        tests = json.load(fh)
    with open(runs_path) as fh:
        runs = json.load(fh)
    rows = {}
    for path in sorted(set(tests) | set(runs)):
        t, r = tests.get(path, {}), runs.get(path, {})
        executable = set(t) | set(r)
        test_only = [int(n) for n in executable if t.get(n) and not r.get(n)]
        never = [int(n) for n in executable if not t.get(n) and not r.get(n)]
        rows[path] = (len(executable), test_only, never)
    return rows


def totals(rows):
    return (f"coverage: src/ executable={sum(r[0] for r in rows.values())} "
            f"test_only={sum(len(r[1]) for r in rows.values())} "
            f"never_run={sum(len(r[2]) for r in rows.values())}")


def report(tests_path, runs_path):
    rows = census(tests_path, runs_path)
    print(totals(rows))
    print(f"{'file':<44} {'exec':>5} {'test-only':>9} {'never':>6}")
    for path, (n, test_only, never) in rows.items():
        print(f"{path:<44} {n:>5} {len(test_only):>9} {len(never):>6}")
        if test_only:
            print(f"    test-only: {ranges(test_only)}")
        if never:
            print(f"    never:     {ranges(never)}")


def diff(before_dir, after_dir):
    before, after = (census(os.path.join(d, "tests.json"),
                            os.path.join(d, "runs.json"))
                     for d in (before_dir, after_dir))

    def counts(row):
        return (None,) * 3 if row is None else (row[0], len(row[1]), len(row[2]))

    def cell(b, a):
        if b == a:
            return str(b)
        return " → ".join("—" if x is None else str(x) for x in (b, a))

    out = [f"before: {totals(before)}", f"after:  {totals(after)}", "",
           "| file | exec | test-only | never |", "|---|---:|---:|---:|"]
    for path in sorted(set(before) | set(after)):
        b, a = counts(before.get(path)), counts(after.get(path))
        if b != a:
            name = path[len("src/"):] if path.startswith("src/") else path
            out.append(f"| {name} | " +
                       " | ".join(cell(x, y) for x, y in zip(b, a)) + " |")
    print("\n".join(out))


# Two census pairs (tests.json, runs.json per side) and the diff each must
# print: a file that shrinks next to one that holds, and a file deleted
# while another is added.
SELF_TEST = [
    ({"src/a.cpp": ({"1": True, "2": True, "3": False, "4": False},
                    {"1": True, "2": False, "3": False, "4": False}),
      "src/b.hpp": ({"1": True}, {"1": True})},
     {"src/a.cpp": ({"1": True, "2": False}, {"1": True, "2": False}),
      "src/b.hpp": ({"1": True}, {"1": True})},
     """before: coverage: src/ executable=5 test_only=1 never_run=2
after:  coverage: src/ executable=3 test_only=0 never_run=1

| file | exec | test-only | never |
|---|---:|---:|---:|
| a.cpp | 4 → 2 | 1 → 0 | 2 → 1 |"""),
    ({"src/old.hpp": ({"1": True, "2": True}, {"1": False, "2": True})},
     {"src/new.hpp": ({"1": False}, {"1": False})},
     """before: coverage: src/ executable=2 test_only=1 never_run=0
after:  coverage: src/ executable=1 test_only=0 never_run=1

| file | exec | test-only | never |
|---|---:|---:|---:|
| new.hpp | — → 1 | — → 0 | — → 1 |
| old.hpp | 2 → — | 1 → — | 0 → — |"""),
]


def self_test():
    bad = []
    for i, (before, after, want) in enumerate(SELF_TEST):
        with tempfile.TemporaryDirectory() as tmp:
            for side, files in (("before", before), ("after", after)):
                os.mkdir(os.path.join(tmp, side))
                for k, name in enumerate(("tests.json", "runs.json")):
                    with open(os.path.join(tmp, side, name), "w") as fh:
                        json.dump({p: v[k] for p, v in files.items()}, fh)
            got = io.StringIO()
            with contextlib.redirect_stdout(got):
                diff(os.path.join(tmp, "before"), os.path.join(tmp, "after"))
        if got.getvalue().rstrip("\n") != want:
            bad.append(f"FAIL: pair {i} printed\n{got.getvalue()}")
    print("\n".join(bad) or f"coverage self-test: OK ({len(SELF_TEST)} pairs)")
    return 1 if bad else 0


def main(argv):
    if len(argv) == 3 and argv[1] == "reset":
        reset(argv[2])
    elif len(argv) == 4 and argv[1] == "collect":
        collect(argv[2], argv[3])
    elif len(argv) == 4 and argv[1] == "report":
        report(argv[2], argv[3])
    elif len(argv) == 4 and argv[1] == "diff":
        diff(argv[2], argv[3])
    elif argv[1:] == ["--self-test"]:
        return self_test()
    else:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: coverage.py reset BUILD | collect BUILD OUT | "
              "report TESTS RUNS | diff BEFORE AFTER | --self-test",
              file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
