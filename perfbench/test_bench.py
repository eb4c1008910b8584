#!/usr/bin/env python3
"""The benchmark's own tests, on reduced-size workloads (--small).

    python3 perfbench/test_bench.py      # from the repository root

Builds the pass binary like run.py does, then checks that the sim-time
results are a function of the seed alone: the same seed repeats every
sim-time metric and the completion digest bit for bit, a second seed moves
the digest, k16_msgaware gives one digest at 1 and 2 shards, and the sliced
traced run completes exactly what the untraced run does.
"""
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

BINARY = None


def small_pass(workload, seed=1, mode="plain", shards=1):
    return run.run_pass(BINARY, workload, seed, mode, small=True, shards=shards)


class BenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        global BINARY
        BINARY = run.build()

    def assert_clean(self, workload, seed, passes):
        ok, problems = run.check(workload, seed, passes, small=True)
        self.assertTrue(ok, problems)

    def test_same_seed_repeats_every_sim_metric(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                a, b = small_pass(w), small_pass(w)
                for k in run.SIM_KEYS:
                    self.assertEqual(a[k], b[k], k)
                self.assert_clean(w, 1, [a, b])

    def test_second_seed_changes_digest(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                a, b = small_pass(w, seed=1), small_pass(w, seed=2)
                self.assertNotEqual(a["digest"], b["digest"])
                self.assert_clean(w, 2, [b])

    def test_msgaware_digest_independent_of_shards(self):
        one = small_pass("k16_msgaware", shards=1)
        two = small_pass("k16_msgaware", shards=2)
        self.assertEqual(one["digest"], two["digest"])
        self.assertEqual(one["fct_p999_us"], two["fct_p999_us"])
        self.assertGreater(two["windows"], 0)

    def test_traced_run_matches_untraced(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                plain, traced = small_pass(w), small_pass(w, mode="traced")
                self.assertEqual(plain["digest"], traced["digest"])
                self.assertGreater(traced["slices"], 0)
                self.assertGreater(traced["send_calls"], 0)
                self.assertEqual(traced["callback_calls"], traced["ok"])
                self.assert_clean(w, 1, [plain, traced])


if __name__ == "__main__":
    unittest.main()
