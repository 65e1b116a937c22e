#!/usr/bin/env python3
"""Self-test of the benchmark's output checks.

    python3 perfbench/test_checks.py

Each case plants one fault (a corrupted echo, a wrong chain value, a lost
or a duplicated message) through the benchmark binary's --inject option
and expects the run to be refused: exit code 1, "correct": false and at
least one failed operation. A clean run of every workload must pass with
none.
"""
import json
import os
import subprocess
import sys
import unittest

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
ROOT = os.path.dirname(os.path.dirname(RUN))


def run(workload, inject="", trace=0):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace)]
    if inject:
        cmd += ["--inject", inject]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return p.returncode, result, p.stdout + p.stderr


class Checks(unittest.TestCase):
    def expect_refused(self, workload, inject):
        code, result, out = run(workload, inject)
        self.assertEqual(code, 1, out)
        self.assertIsNotNone(result, out)
        self.assertFalse(result["correct"], out)
        self.assertGreaterEqual(result["failed"], 1, out)

    def expect_clean(self, workload, trace):
        code, result, out = run(workload, trace=trace)
        self.assertEqual(code, 0, out)
        self.assertTrue(result["correct"], out)
        self.assertEqual(result["failed"], 0, out)
        self.assertGreaterEqual(result["attempted"], 1, out)

    def test_orb_echo_corrupt_reply(self):
        self.expect_refused("orb_echo", "corrupt-reply")

    def test_control_loop_wrong_value(self):
        self.expect_refused("control_loop", "wrong-value")

    def test_control_loop_lost(self):
        self.expect_refused("control_loop", "drop")

    def test_control_loop_duplicate(self):
        self.expect_refused("control_loop", "duplicate")

    def test_remote_stream_corrupt_echo(self):
        self.expect_refused("remote_stream", "corrupt-echo")

    def test_remote_stream_lost(self):
        self.expect_refused("remote_stream", "drop")

    def test_remote_stream_duplicate(self):
        self.expect_refused("remote_stream", "duplicate")

    def test_clean_runs_pass(self):
        for workload in ("orb_echo", "control_loop", "remote_stream"):
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.expect_clean(workload, trace)


if __name__ == "__main__":
    unittest.main()
