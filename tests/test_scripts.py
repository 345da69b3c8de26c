"""Smoke tests: the scripts in scripts/ run to completion on small inputs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=600,
    )


@pytest.mark.parametrize("name, args, headers", [
    ("calibrate_constants.py", ["--trials", "2"],
     ["== iid tester", "== visit-count event", "== single-trajectory tester",
      "== sweep-cut approximation"]),
    ("demo_pipeline.py", [],
     ["reference chain:", "trajectory budget:", "matching trajectory ->",
      "far trajectory ->"]),
    ("reach.py", ["--quick"],
     ["== one trial per d", "d=   4", "peak RSS", "== CLI round trip", "file"]),
])
def test_script_runs(name, args, headers):
    proc = run_script(name, *args)
    assert proc.returncode == 0, proc.stderr
    for header in headers:
        assert header in proc.stdout
