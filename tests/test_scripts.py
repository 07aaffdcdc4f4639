"""The scripts outside the package run end to end: the benchmark's
self-check and the demos, each in a fresh interpreter from the repository
root."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(*args: str) -> str:
    path = f"{ROOT / 'src'}{os.pathsep}{os.environ.get('PYTHONPATH', '')}"
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stdout + out.stderr
    return out.stdout


def test_perfbench_self_check():
    assert "self-check: every oracle rejects its corrupted output" in run_script(
        "perfbench/run.py", "--self-check")


@pytest.mark.parametrize("script,line", [
    ("demos/walkthrough.py", "recovery check: PASS"),
    ("demos/tcp_roundtrip.py", "transcripts identical: True"),
    ("demos/rate_grid.py", "rates matched the closed form and every demand decoded"),
    ("demos/capacity_tables.py", "  3   4   4   4         1  converse/near-full-support"),
])
def test_demo_runs(script, line):
    assert line in run_script(script)
