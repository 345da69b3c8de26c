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
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .chain_core import stationary_distribution
from .errors import CertificationFailed, ChainTestError
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
from .identity import TestConfig, identity_test, property_suite
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
        if mu.d != P.d:
            raise ChainTestError(
                f"{args.mu}: initial law of length {mu.d} != {P.d} states of {args.matrix}"
            )
    traj = simulate(P, mu, args.steps, args.seed)
    save_trajectory(traj, args.out)
    doc = {
        "manifest": _manifest(args, {"matrix": args.matrix}),
        "out": args.out,
        "steps": len(traj),
    }
    write_report(doc)
    return 0


def _one_based(obj):
    """A copy of a report's body with states counted from 1: every list or
    tuple of integers in it, at any depth of dicts and lists, is states."""
    if isinstance(obj, dict):
        return {k: _one_based(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        if all(isinstance(v, (int, np.integer)) for v in obj):
            return [int(v) + 1 for v in obj]
        return [_one_based(v) for v in obj]
    return obj


def _cmd_partition(args) -> int:
    P = load_matrix(args.matrix)
    part = partition_states(P, args.beta, args.seed, certify=args.certify)
    body = {"components": part.components, "tail": part.tail, "certificates": part.certificates}
    doc = {"manifest": _manifest(args, {"matrix": args.matrix}), **_one_based(body)}
    write_report(doc, args.out)
    return 0


def _cmd_distance(args) -> int:
    A = load_matrix(args.a)
    B = load_matrix(args.b)
    if B.d != A.d:
        raise ChainTestError(f"{args.b}: {B.d} states != {A.d} states of {args.a}")
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
        raise ChainTestError(
            f"{args.samples}: samples alphabet {d} != reference alphabet {pbar.d} of {args.pbar}"
        )
    verdict = iid_test(samples, pbar.entries, args.eps, args.delta)
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
    # every state is read and checked here; each scan reads the file again
    traj = load_trajectory(args.trajectory)
    if traj.d != Pbar.d:
        raise ChainTestError(
            f"{args.trajectory}: trajectory alphabet {traj.d} != {Pbar.d} states of {args.reference}"
        )
    cfg = TestConfig(eps=args.eps, seed=args.seed)
    report = identity_test(Pbar, traj, cfg, lazify=args.lazify)
    part = report.partition_used
    body = {
        "verdict": "Reject" if report.verdict else "Accept",
        "reason": report.reason,
        "exit_code": report.verdict,
        "trajectory_length": report.trajectory_length,
        "budget_hint": report.budget_hint,
        "tested_component": report.tested_component,
        "partition": {
            "components": part.components,
            "tail": part.tail,
            "splits": part.certificates["splits"],
        },
        "per_component": [
            {
                "states": o.states,
                "mass": o.mass,
                "sample_count": o.sample_count,
                "failed": o.failed,
                "decision": None if o.verdict is None else o.verdict.decision,
                "statistic": None if o.verdict is None else o.verdict.statistic,
                "threshold": None if o.verdict is None else o.verdict.threshold,
                "prefix_read": o.prefix_read,
            }
            for o in report.per_component
        ],
    }
    manifest = _manifest(args, {"reference": args.reference, "trajectory": args.trajectory})
    doc = {"manifest": manifest, **_one_based(body)}
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
