"""Tests that run.py's correctness gates fire. Run from the
repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import argparse
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def workload(cls, seed):
    args = argparse.Namespace(workload="", seed=seed, seconds=1, trace=0)
    env = {"workers": 2, "lanes": 2}
    checks = run.Checks()
    return cls(args, env, "", checks), checks


class GoldenGate(unittest.TestCase):
    def setUp(self):
        with open(run.GOLDEN, "rb") as f:
            self.golden = f.read()

    def test_golden_passes(self):
        w, checks = workload(run.Paper, 0)
        w.check_output(self.golden)
        self.assertEqual((checks.attempted, checks.failed), (1, 0))

    def test_corrupted_golden_line_fails(self):
        lines = self.golden.split(b"\n")
        lines[len(lines) // 2] += b" "
        w, checks = workload(run.Paper, 0)
        w.check_output(b"\n".join(lines))
        self.assertEqual((checks.attempted, checks.failed), (1, 1))

    def test_other_seed_must_repeat(self):
        w, checks = workload(run.Paper, 7)
        w.check_output(b"a")
        w.check_output(b"a")
        w.check_output(b"b")
        self.assertEqual((checks.attempted, checks.failed), (3, 1))


class ProbeGates(unittest.TestCase):
    def test_mismatched_shard_result_counts(self):
        checks = run.Checks()
        checks.absorb({"checks": 1, "problems": ["cluster: 2-lane result differs from the sequential kernel"]})
        checks.check(True, "digest")
        self.assertEqual((checks.attempted, checks.failed), (2, 1))

    def test_cluster_digest_must_repeat(self):
        w, checks = workload(run.Cluster, 0)
        w.same_as_reference("x", "differs")
        w.same_as_reference("y", "differs")
        self.assertEqual((checks.attempted, checks.failed), (2, 1))

    def test_failed_exit_counts(self):
        checks = run.Checks()
        p = run.Proc.__new__(run.Proc)
        p.code, p.err, p.argv = 1, "boom", ["migsim", "-exp", "pipeline"]
        self.assertFalse(p.gate(checks))
        self.assertEqual((checks.attempted, checks.failed), (1, 1))


if __name__ == "__main__":
    unittest.main()
