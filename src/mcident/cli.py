"""Command-line front end.

Subcommands: simulate, partition, distance, iidtest, test, props. Every
randomized subcommand requires an explicit --seed in [0, 2**64) (reports
must be reproducible; there is no wall-clock default). Reports are JSON documents
embedding the run manifest: subcommand, flags, seed, tool version and
input file digests. Exit codes: 0 success or Accept, 1 Reject (test
subcommand), 2 usage or input error, or a request that does
not fit in memory, 3 failed partition certification, 4 internal error (an
unexpected exception, reported as one line without a traceback; never a
verdict).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .chain_core import stationary_distribution
from .errors import AlphabetMismatch, CertificationFailed, ChainTestError
from .fileio import (
    file_digest,
    load_matrix,
    load_probvector,
    load_samples,
    load_trajectory,
    round12,
    save_trajectory,
    write_report,
)
from .identity import TestConfig, identity_test, property_suite, trajectory_budget
from .iid_test import iid_test
from .metrics import chain_distance, ratio_distance
from .partition import partition_states
from .sampling import simulate


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mcident",
        description="Identity testing of reversible Markov chains from a single trajectory",
    )
    ap.add_argument("--version", action="version", version=f"mcident {__version__}")
    sub = ap.add_subparsers(dest="command")

    p = sub.add_parser("simulate", help="sample a trajectory from a chain")
    p.add_argument("--matrix", required=True)
    p.add_argument("--mu", required=True, help="initial law: file path, 'stationary' or 'uniform'")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("partition", help="partition a chain's state space")
    p.add_argument("--matrix", required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--certify", action="store_true", help="enable d <= 12 enumeration checks")
    p.add_argument("--out", required=True)

    p = sub.add_parser("distance", help="distances between two chains")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)

    p = sub.add_parser("iidtest", help="iid identity test of samples against a reference law")
    p.add_argument("--pbar", required=True)
    p.add_argument("--samples", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--report")

    p = sub.add_parser("test", help="single-trajectory identity test against a reference chain")
    p.add_argument("--reference", required=True)
    p.add_argument("--trajectory", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--lazify", choices=("emulate", "assume"), default="assume")
    p.add_argument("--report")

    p = sub.add_parser("props", help="distance behavior suite")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pairs", type=int, default=1000)
    p.add_argument("--out")
    return ap


def _manifest(args, inputs: dict) -> dict:
    flags = {k: v for k, v in vars(args).items() if k != "command" and v is not None}
    return {
        "subcommand": args.command,
        "flags": flags,
        "seed": getattr(args, "seed", None),
        "version": __version__,
        "inputs": {name: file_digest(path) for name, path in inputs.items()},
    }


def _cmd_simulate(args) -> int:
    P = load_matrix(args.matrix)
    if args.mu == "stationary":
        mu = stationary_distribution(P)
    elif args.mu == "uniform":
        mu = np.full(P.d, 1.0 / P.d)
    else:
        mu = load_probvector(args.mu)
    traj = simulate(P, mu, args.steps, args.seed)
    save_trajectory(traj, args.out)
    doc = {
        "manifest": _manifest(args, {"matrix": args.matrix}),
        "out": args.out,
        "steps": len(traj),
    }
    write_report(doc)
    return 0


def _one_based_splits(part) -> list:
    return [dict(sp, states=[i + 1 for i in sp["states"]]) for sp in part.certificates["splits"]]


def _cmd_partition(args) -> int:
    P = load_matrix(args.matrix)
    part = partition_states(P, args.beta, args.seed, certify=args.certify)
    certs = json.loads(json.dumps(part.certificates))  # deep copy, JSON-safe
    for c in certs["components"]:
        c["states"] = [i + 1 for i in c["states"]]
    certs["tail"]["states"] = [i + 1 for i in certs["tail"]["states"]]
    certs["splits"] = _one_based_splits(part)
    doc = {
        "manifest": _manifest(args, {"matrix": args.matrix}),
        "components": [[i + 1 for i in S] for S in part.components],
        "tail": [i + 1 for i in part.tail],
        "certificates": certs,
    }
    write_report(doc, args.out)
    return 0


def _cmd_distance(args) -> int:
    A = load_matrix(args.a)
    B = load_matrix(args.b)
    dist = chain_distance(A, B)
    print(repr(round12(dist)))
    if A.irreducible and B.irreducible:
        rd = ratio_distance(
            stationary_distribution(A).entries, stationary_distribution(B).entries
        )
        print(f"stationary_ratio_distance {round12(rd)!r}")
    return 0


def _cmd_iidtest(args) -> int:
    pbar = load_probvector(args.pbar)
    d, samples = load_samples(args.samples)
    if d != pbar.d:
        raise AlphabetMismatch(
            f"{args.samples}: samples alphabet {d} != reference alphabet {pbar.d} of {args.pbar}"
        )
    verdict = iid_test(samples, pbar.entries, args.eps, args.delta, args.seed)
    doc = {
        "manifest": _manifest(args, {"pbar": args.pbar, "samples": args.samples}),
        "decision": verdict.decision,
        "statistic": verdict.statistic,
        "threshold": verdict.threshold,
        "sample_size": verdict.sample_size,
    }
    write_report(doc, args.report)
    return 0


def _cmd_test(args) -> int:
    Pbar = load_matrix(args.reference)
    traj = load_trajectory(args.trajectory)
    cfg = TestConfig(eps=args.eps, seed=args.seed)
    report = identity_test(Pbar, traj, cfg, lazify=args.lazify)
    doc = {
        "manifest": _manifest(args, {"reference": args.reference, "trajectory": args.trajectory}),
        "verdict": "Reject" if report.verdict else "Accept",
        "reason": report.reason,
        "exit_code": report.verdict,
        "trajectory_length": report.trajectory_length,
        "budget_hint": trajectory_budget(
            Pbar.d, float(stationary_distribution(Pbar).entries.min()), args.eps
        ),
        "tested_component": None
        if report.tested_component is None
        else [i + 1 for i in report.tested_component],
        "partition": {
            "components": [[i + 1 for i in S] for S in report.partition_used.components],
            "tail": [i + 1 for i in report.partition_used.tail],
            "splits": _one_based_splits(report.partition_used),
        },
        "per_component": [
            {
                "states": [i + 1 for i in o.states],
                "mass": o.mass,
                "sample_count": o.sample_count,
                "failed": o.failed,
                "decision": None if o.verdict is None else o.verdict.decision,
                "statistic": None if o.verdict is None else o.verdict.statistic,
                "threshold": None if o.verdict is None else o.verdict.threshold,
            }
            for o in report.per_component
        ],
    }
    write_report(doc, args.report)
    return int(report.verdict)


def _cmd_props(args) -> int:
    rep = property_suite(args.seed, pairs=args.pairs)
    doc = {
        "manifest": _manifest(args, {}),
        "passed": rep.passed,
        "checks": rep.checks,
        "violations": [asdict(v) for v in rep.violations],
        "family": [asdict(f) for f in rep.family],
    }
    write_report(doc, args.out)
    return 0


_HANDLERS = {
    "simulate": _cmd_simulate,
    "partition": _cmd_partition,
    "distance": _cmd_distance,
    "iidtest": _cmd_iidtest,
    "test": _cmd_test,
    "props": _cmd_props,
}


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    if args.command is None:
        ap.print_usage(sys.stderr)
        return 2
    try:
        return _HANDLERS[args.command](args)
    except CertificationFailed as exc:
        print(f"certification failed: {exc}", file=sys.stderr)
        return 3
    except (ChainTestError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # e.g. simulate --steps 10**15
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a defect must not exit 1, which means Reject
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
