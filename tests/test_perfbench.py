"""The benchmark harness still runs against the package: its tracer patches
functions by the names their callers look them up under, so a refactor that
moves one breaks ``--trace 1`` without failing any other test."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
