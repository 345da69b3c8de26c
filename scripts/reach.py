#!/usr/bin/env python3
"""End-to-end reach: one trial of the whole pipeline per d, each in a fresh
interpreter, and CLI round trips.

A trial is simulate on the lazy random_reversible(d) chain at
trajectory_budget length, then identity_test(..., lazify="assume"), eps 0.3.
For each d the script prints the steps, the seconds of simulate and of
identity_test, and the child's peak RSS (ru_maxrss). Each CLI round trip runs
`mcident simulate --out` and `mcident test --lazify assume` on the same
chain, each in its own interpreter, and adds the trajectory file's size.

Every chain and run is seeded with 0, and the round trips are at d = 24
and d = 32.

Usage: python scripts/reach.py [--d 12 16 24] [--json out.json] [--workdir DIR] [--quick]
--quick runs d = 4 at a tenth of its budget, trial and round trip alike, as a
smoke test.
"""

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from mcident import chain_core as cc
from mcident import corpus as cp
from mcident import fileio as fio
from mcident import identity as idn
from mcident import sampling as sp

EPS = 0.3
SEED = 0
CLI_DS = (24, 32)
QUICK_D = 4
QUICK_SCALE = 0.1


def chains(d: int):
    """The reference random_reversible(d) and its lazy version."""
    P = cp.random_reversible(d, np.random.default_rng(SEED))
    return P, cc.lazy_version(P, EPS**2 / (2 * np.sqrt(2)))


def budget(P, scale: float) -> int:
    pibar = cc.stationary_distribution(P).entries
    return max(2, int(idn.trajectory_budget(P.d, float(pibar.min()), EPS) * scale))


def trial(d: int, scale: float) -> dict:
    """One trial in this process: its figures, without the peak RSS."""
    P, lazy = chains(d)
    m = budget(P, scale)
    start = time.perf_counter()
    traj = sp.simulate(lazy, cc.stationary_distribution(lazy), m, seed=SEED)
    simulate_s = time.perf_counter() - start
    start = time.perf_counter()
    report = idn.identity_test(P, traj, idn.TestConfig(eps=EPS, seed=SEED), lazify="assume")
    return {"d": d, "steps": m, "state_dtype": traj.states.dtype.name,
            "simulate_s": simulate_s, "identity_test_s": time.perf_counter() - start,
            "verdict": "Reject" if report.verdict else "Accept"}


def run_child(argv) -> tuple[str, float, float]:
    """Run argv in a fresh interpreter: (stdout, seconds, peak RSS in MB)."""
    start = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
        out = proc.stdout.read()
        # wait4 gives this child's own rusage, where RUSAGE_CHILDREN would
        # give the largest of all children so far
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    seconds = time.perf_counter() - start
    if proc.returncode not in (0, 1):  # test exits 1 on Reject
        sys.exit(f"{argv[1:4]} exited with {proc.returncode}")
    return out, seconds, usage.ru_maxrss / 1024.0  # ru_maxrss is in KB on Linux


def cli_round_trip(d: int, scale: float, workdir: Path) -> dict:
    """simulate --out, then test --lazify assume, each in a fresh interpreter."""
    P, lazy = chains(d)
    m = budget(P, scale)
    reference, matrix = workdir / "reference.json", workdir / "lazy.json"
    trajectory, report = workdir / "trajectory.json", workdir / "report.json"
    fio.save_matrix(P, reference)
    fio.save_matrix(lazy, matrix)
    cli = [sys.executable, "-m", "mcident.cli"]
    row = {"d": d, "steps": m}
    _, row["simulate_s"], row["simulate_rss_mb"] = run_child(
        cli + ["simulate", "--matrix", str(matrix), "--mu", "stationary", "--steps", str(m),
               "--seed", str(SEED), "--out", str(trajectory)])
    row["file_mb"] = trajectory.stat().st_size / 1e6
    _, row["test_s"], row["test_rss_mb"] = run_child(
        cli + ["test", "--reference", str(reference), "--trajectory", str(trajectory),
               "--eps", str(EPS), "--seed", str(SEED), "--lazify", "assume",
               "--report", str(report)])
    row["verdict"] = json.loads(report.read_text())["verdict"]
    return row


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--d", type=int, nargs="+", default=[12, 16, 24])
    ap.add_argument("--json", help="write the rows to this file")
    ap.add_argument("--workdir", help="directory for the CLI round trip's files")
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--child", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args()
    scale = QUICK_SCALE if args.quick else 1.0
    if args.child is not None:
        row = trial(args.child, scale)
        row["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(json.dumps(row))
        return
    ds, cli_ds = ([QUICK_D], [QUICK_D]) if args.quick else (args.d, CLI_DS)

    trials = []
    print("== one trial per d: simulate + identity_test(lazify='assume'), eps 0.3")
    for d in ds:
        out, _, _ = run_child([sys.executable, __file__, "--child", str(d)]
                              + ["--quick"] * args.quick)
        row = json.loads(out)
        trials.append(row)
        print(f"d={d:4d}  steps {row['steps']:>11,}  {row['state_dtype']:<6}  "
              f"simulate {row['simulate_s']:7.2f} s  identity_test {row['identity_test_s']:6.2f} s  "
              f"peak RSS {row['peak_rss_mb']:7.1f} MB  {row['verdict']}")
    print("== CLI round trip: simulate --out, then test --lazify assume")
    cli_rows = []
    for d in cli_ds:
        # one round trip's files at a time: 1.1 GB of trajectory at d = 32
        with tempfile.TemporaryDirectory(dir=args.workdir) as workdir:
            row = cli_round_trip(d, scale, Path(workdir))
        cli_rows.append(row)
        print(f"d={row['d']:4d}  steps {row['steps']:>11,}  file {row['file_mb']:.1f} MB  "
              f"simulate {row['simulate_s']:.2f} s, peak RSS {row['simulate_rss_mb']:.1f} MB  "
              f"test {row['test_s']:.2f} s, peak RSS {row['test_rss_mb']:.1f} MB  {row['verdict']}")
    rows = {"trials": trials, "cli": cli_rows}
    if args.json:
        Path(args.json).write_text(json.dumps(rows, indent=2) + "\n")


if __name__ == "__main__":
    main()
