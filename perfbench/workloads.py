"""The benchmark's workloads.

Each workload makes its inputs from the seed (`setup`), runs rounds of timed
calls into the public functions of mcident (`run_round`) and checks every
output with `checks`, outside the timed calls. A round is the workload's
fixed set of operations; every run attempts whole rounds. Every round
repeats the same named operations, so each operation is timed once per round;
a reference computation timed just before and just after each call gauges the
host's speed during it (see run.py).
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import shutil
import time
from bisect import bisect_right
from contextlib import contextmanager, redirect_stdout
from dataclasses import dataclass, field
from math import sqrt
from pathlib import Path

import numpy as np

from mcident import chain_core as cc
from mcident import cli
from mcident import corpus as cp
from mcident import fileio as fio
from mcident import identity as idn
from mcident import metrics as mt
from mcident import partition as pt
from mcident import sampling as sp

import checks

EPS = 0.3
ALPHA_LAZY = EPS**2 / (2.0 * sqrt(2.0))
BETAS = (0.05, 0.1, 0.2)
CRITERION5_SEED = 77
RESULTS = Path(__file__).resolve().parent / "results"  # raw figures, traces, CLI files


def sub_seed(*keys: int) -> int:
    """A 63-bit seed derived from the run seed and the position of a call."""
    state = np.random.SeedSequence([int(k) for k in keys]).generate_state(1, np.uint64)
    return int(state[0] >> np.uint64(1))


@dataclass
class Round:
    times: list = field(default_factory=list)  # (operation, seconds, reference_s)
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)  # why operations failed
    problems: list = field(default_factory=list)  # wrong outputs of operations that ran
    wall_s: float = 0.0  # the whole round, checks included

    def timed(self, operation: str, seconds: float, reference_s: float) -> None:
        """Records a timed call and the reference time measured around it."""
        self.times.append((operation, seconds, reference_s))


_REFERENCE_P = np.random.default_rng(0).random((8, 8))
_REFERENCE_P /= _REFERENCE_P.sum(axis=1, keepdims=True)
_REFERENCE_CUMSUM = np.cumsum(_REFERENCE_P[0]).tolist()
_REFERENCE_DRAWS = np.random.default_rng(1).random(20_000).tolist()
_REFERENCE_ROWS = np.random.default_rng(2).random((512, 1024))  # 4 MB, more than L2


def reference() -> None:
    """A fixed computation of the kinds mcident's code does, timed around every
    timed call to gauge the host's speed at that moment: small numpy products
    in a Python loop (chain_core, metrics), a bisect loop over Python floats
    (sampling.simulate) and row updates sweeping a 4 MB array (the simplex
    tableau). About 10 ms."""
    for _ in range(2):
        v = np.full(8, 1.0 / 8)
        for _ in range(500):
            v = v @ _REFERENCE_P
            v = v / v.sum()
        [bisect_right(_REFERENCE_CUMSUM, u) for u in _REFERENCE_DRAWS]
    for _ in range(4):
        for r in range(1, len(_REFERENCE_ROWS)):
            _REFERENCE_ROWS[r] -= 1e-9 * _REFERENCE_ROWS[r - 1]


def _reference_seconds() -> float:
    start = time.perf_counter()
    reference()
    return time.perf_counter() - start


class Stopwatch:
    """Times one call, and one `reference()` just before and one just after
    it; `last_reference` is their mean. The tracer, when given, records spans
    only inside the call."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.last = 0.0
        self.last_reference = 0.0

    @contextmanager
    def __call__(self):
        before = _reference_seconds()
        if self.tracer is not None:
            self.tracer.enabled = True
        start = time.perf_counter()
        try:
            yield
        finally:
            self.last = time.perf_counter() - start
            if self.tracer is not None:
                self.tracer.enabled = False
            self.last_reference = (before + _reference_seconds()) / 2.0


class Workload:
    """setup(seed) makes the inputs, warm_up() makes one untimed call, then
    run_round(r, watch) runs round r and finish() ends the run."""

    name = ""
    units_per_round = 0  # work in one round: trials, partition calls, suite pairs, round trips

    def latency(self, times: dict) -> float:
        """The workload's latency from the time of each operation."""
        raise NotImplementedError

    def finish(self) -> list[str]:
        """Checks over the whole run; releases what the run holds."""
        return []


def far_blocked_pair(sizes, rng, distance_min, cross=1e-5, spread=2.0, tries=100):
    """Two-block reversible pair with one stationary law and chain distance
    at least distance_min; the construction of the acceptance corpus."""
    d = sum(sizes)
    a = sizes[0]
    mask = np.zeros((d, d), bool)
    mask[:a, :a] = True
    mask[a:, a:] = True
    for _ in range(tries):
        r = cp.random_target(d, rng, skew=0.5)
        Z = rng.normal(size=(d, d))
        Z = (Z + Z.T) / 2.0
        P = cp.reversible_with_rowsums(np.where(mask, np.exp(spread * Z) + 0.01, cross), r)
        Pb = cp.reversible_with_rowsums(np.where(mask, np.exp(-spread * Z) + 0.01, cross), r)
        if mt.chain_distance(P, Pb) >= distance_min:
            return P, Pb
    raise RuntimeError("no blocked pair found")


def acceptance_corpus():
    """The five (name, reference, far partner) chains of the acceptance gate,
    built in the same order from the same generator."""
    rng = np.random.default_rng(2024)
    entries = []
    far, ref = cp.far_reversible_pair(4, rng, EPS, 0.15, target=np.array([0.05, 0.15, 0.30, 0.50]))
    entries.append(("A-d4-skewed", ref, far))
    far, ref = cp.far_reversible_pair(4, rng, EPS, 0.0, target=np.array([0.06, 0.14, 0.35, 0.45]))
    entries.append(("B-d4-shared-law", ref, far))
    far, ref = cp.far_reversible_pair(
        6, rng, EPS, 0.15, target=np.array([0.09, 0.11, 0.13, 0.15, 0.24, 0.28])
    )
    entries.append(("C-d6", ref, far))
    far, ref = far_blocked_pair((3, 3), rng, EPS)
    entries.append(("D-d6-two-blocks", ref, far))
    far, ref = cp.far_reversible_pair(
        8, rng, EPS, 0.15,
        target=np.array([0.10, 0.10, 0.11, 0.12, 0.13, 0.13, 0.15, 0.16]),
    )
    entries.append(("E-d8", ref, far))
    return entries


class TrialCorpus(Workload):
    """Per round, one matching and one far trial on each corpus chain: simulate
    the lazy chain at budget length, then identity_test(lazify="assume").
    Each trial draws a fresh trajectory.

    units: trials; latency: mean over the trials of identity_test.
    """

    name = "trial-corpus"

    def __init__(self, tiny: bool = False):
        self.tiny = tiny

    def setup(self, seed: int):
        chains = acceptance_corpus()[: 2 if self.tiny else None]
        self.seed = seed
        self.chains = []
        self.problems = []
        for name, ref, far in chains:
            self.problems += [f"{name}: {p}" for p in checks.far_pair(far.entries, ref.entries, EPS)]
            pibar = cc.stationary_distribution(ref).entries
            m = idn.trajectory_budget(ref.d, float(pibar.min()), EPS)
            kinds = []
            for P in (ref, far):
                lazy = cc.lazy_version(P, ALPHA_LAZY)
                kinds.append({
                    "lazy": lazy,
                    "mu": cc.stationary_distribution(lazy),
                    "pi": checks.stationary(lazy.entries),
                    "tol": checks.frequency_tolerance(lazy.entries, m),
                })
            self.chains.append({"name": name, "ref": ref, "m": m, "kinds": kinds})
        self.units_per_round = 2 * len(self.chains)
        self.verdicts = {"accepts": 0, "matching": 0, "rejects": 0, "far": 0}

    def warm_up(self):
        chain, data = self.chains[0], self.chains[0]["kinds"][0]
        traj = sp.simulate(data["lazy"], data["mu"], chain["m"] // 10, seed=0)
        idn.identity_test(chain["ref"], traj, idn.TestConfig(eps=EPS, seed=0))

    def run_round(self, r: int, watch: Stopwatch) -> Round:
        out = Round(problems=list(self.problems) if r == 0 else [])
        for ci, chain in enumerate(self.chains):
            for kind, data in enumerate(chain["kinds"]):
                out.attempted += 1
                trial = f"{chain['name']}/{'far' if kind else 'matching'}"
                try:
                    with watch():
                        traj = sp.simulate(data["lazy"], data["mu"], chain["m"],
                                           seed=sub_seed(self.seed, r, ci, kind, 0))
                    simulate_s, simulate_ref = watch.last, watch.last_reference
                    cfg = idn.TestConfig(eps=EPS, seed=sub_seed(self.seed, r, ci, kind, 1))
                    with watch():
                        report = idn.identity_test(chain["ref"], traj, cfg, lazify="assume")
                except Exception as exc:  # a failed operation is counted, not fatal
                    out.failed += 1
                    out.failures.append(f"{chain['name']}: {type(exc).__name__}: {exc}")
                    continue
                out.timed(f"{trial}/simulate", simulate_s, simulate_ref)
                out.timed(f"{trial}/identity_test", watch.last, watch.last_reference)
                if len(traj) != chain["m"] or report.trajectory_length != chain["m"]:
                    out.problems.append(f"{chain['name']}: trajectory of {len(traj)} states")
                out.problems += [f"{chain['name']}: {p}" for p in
                                 checks.frequencies(traj.states, data["pi"], data["tol"])]
                if report.verdict not in (0, 1):
                    out.problems.append(f"{chain['name']}: verdict {report.verdict!r}")
                elif kind == 0:
                    self.verdicts["matching"] += 1
                    self.verdicts["accepts"] += report.verdict == 0
                else:
                    self.verdicts["far"] += 1
                    self.verdicts["rejects"] += report.verdict == 1
        return out

    def latency(self, times: dict) -> float:
        tests = [t for op, t in times.items() if op.endswith("/identity_test")]
        return sum(tests) / len(tests)

    def finish(self) -> list[str]:
        return checks.verdict_rates(**self.verdicts)


class PartitionLadder(Workload):
    """Per round, partition_states with certification on every instance at
    every beta in BETAS: random_reversible at d = 8..10, planted_two_block,
    hub_and_leaves and birth_death. The instances are fixed; the seed gives
    the partition seeds. Every round repeats the same calls.

    units: partition_states calls; latency: one pass over the instances.
    """

    name = "partition-ladder"

    def __init__(self, tiny: bool = False):
        self.tiny = tiny

    def setup(self, seed: int):
        self.seed = seed
        ladder = (8,) if self.tiny else (8, 9, 10)
        # The chains are fixed, so that the time of a pass does not depend on
        # how many pivots one random instance happens to need.
        self.instances = [(f"random_reversible-d{d}", cp.random_reversible(d, np.random.default_rng(d)))
                          for d in ladder]
        rng = np.random.default_rng(0)
        self.instances += [
            ("planted_two_block", cp.planted_two_block((4, 4), rng)),
            ("hub_and_leaves", cp.hub_and_leaves(3, 4, rng)),
            ("birth_death", cp.birth_death(8, rng)),
        ]
        self.units_per_round = len(self.instances) * len(BETAS)
        self.reference_lp = {}

    def warm_up(self):
        pt.partition_states(self.instances[0][1], beta=BETAS[0], seed=0, certify=True)

    def run_round(self, r: int, watch: Stopwatch) -> Round:
        out = Round()
        for i, (name, P) in enumerate(self.instances):
            for k, beta in enumerate(BETAS):
                out.attempted += 1
                try:
                    with watch():
                        part = pt.partition_states(P, beta=beta, seed=sub_seed(self.seed, i, k),
                                                   certify=True)
                except Exception as exc:  # a failed operation is counted, not fatal
                    out.failed += 1
                    out.failures.append(f"{name} beta={beta}: {type(exc).__name__}: {exc}")
                    continue
                out.timed(f"{name}/beta={beta}", watch.last, watch.last_reference)
                out.problems += [f"{name} beta={beta}: {p}"
                                 for p in self.check(i, P.entries, beta, part)]
        return out

    def check(self, i: int, P: np.ndarray, beta: float, part) -> list[str]:
        problems = checks.partition(P, beta, part.components, part.tail)
        if not part.certificates.get("certified"):
            problems.append("partition not certified")
        if self.instances[i][0] == "planted_two_block":
            blocks = sorted(tuple(S) for S in part.components)
            if blocks != [(0, 1, 2, 3), (4, 5, 6, 7)] or part.tail:
                problems.append(f"planted blocks not recovered: {blocks}, tail {part.tail}")
        # Certificates are paired by their states: their list is in the order
        # the components were found, which can differ from part.components.
        for cert in part.certificates["components"]:
            bound = cert.get("lp_phi_lower_bound")
            if bound is None:
                continue
            S = tuple(cert["states"])
            key = (i, S)
            if key not in self.reference_lp:
                self.reference_lp[key] = checks.cut_lp_objective(P, S)
            problems += checks.lp_bound(P, S, bound, self.reference_lp[key])
        return problems

    def latency(self, times: dict) -> float:
        return sum(times.values())


class DistanceSuite(Workload):
    """Per round, property_suite on each of a fixed set of batches, whose seeds
    come from the run seed (never criterion 5's seed 77), and chain_distance on
    two of a fixed sample of pairs, checked against eigenvalues.

    units: suite pairs; latency: mean over the batches of one property_suite call.
    """

    name = "distance-suite"

    def __init__(self, tiny: bool = False):
        self.pairs = 3 if tiny else 25
        self.batches = 2 if tiny else 16

    def setup(self, seed: int):
        self.seed = seed
        self.units_per_round = self.pairs * self.batches
        rng = np.random.default_rng(sub_seed(seed, 2))
        self.sample = []
        for k in range(16):
            d = int(rng.integers(2, 9))
            if k % 2:
                target = cp.random_target(d, rng)
                self.sample.append((cp.metropolis(target, rng), cp.metropolis(target, rng)))
            else:
                self.sample.append((cp.random_irreducible(d, rng), cp.random_irreducible(d, rng)))

    def warm_up(self):
        idn.property_suite(seed=sub_seed(self.seed, 4), pairs=2)

    def suite_seed(self, b: int) -> int:
        s = sub_seed(self.seed, b, 3)
        return s + 1 if s == CRITERION5_SEED else s

    def run_round(self, r: int, watch: Stopwatch) -> Round:
        out = Round()
        for b in range(self.batches):
            out.attempted += 1
            try:
                with watch():
                    rep = idn.property_suite(seed=self.suite_seed(b), pairs=self.pairs)
            except Exception as exc:  # a failed operation is counted, not fatal
                out.failed += 1
                out.failures.append(f"property_suite: {type(exc).__name__}: {exc}")
                continue
            out.timed(f"batch-{b}", watch.last, watch.last_reference)
            if rep.pairs != self.pairs or not rep.checks:
                out.problems.append(f"suite ran {rep.pairs} pairs, checks {rep.checks}")
            out.problems += [f"violation {v.item} on pair {v.pair_index}: {v.details}"
                             for v in rep.violations]
        for k in (2 * r % len(self.sample), (2 * r + 1) % len(self.sample)):
            P, Pbar = self.sample[k]
            out.problems += checks.distance_value(P.entries, Pbar.entries,
                                                  mt.chain_distance(P, Pbar))
        return out

    def latency(self, times: dict) -> float:
        return sum(times.values()) / len(times)


class CliRoundtrip(Workload):
    """Per round, `mcident simulate --out` writes a budget-length trajectory of
    the plain E-d8 reference, then `mcident test --lazify emulate --report`
    reads it back, twice with the same flags. mcident.cli.main runs in-process.
    The seed gives the simulation seed, the same in every round, and a test
    seed per round.

    units: round trips; latency: one `test` invocation.
    """

    name = "cli-roundtrip"
    units_per_round = 1

    def __init__(self, tiny: bool = False):
        self.tiny = tiny
        self.workdir = RESULTS / f"work-{os.getpid()}"

    def setup(self, seed: int):
        self.seed = seed
        _, ref, _ = acceptance_corpus()[-1]
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.matrix = self.workdir / "E-d8.json"
        self.matrix.write_text(json.dumps({"d": ref.d, "rows": ref.entries.tolist()}))
        self.trajectory = self.workdir / "trajectory.json"
        self.report = self.workdir / "report.json"
        self.loaded = fio.load_matrix(self.matrix)
        pibar = cc.stationary_distribution(self.loaded).entries
        self.steps = 20_000 if self.tiny else idn.trajectory_budget(ref.d, float(pibar.min()), EPS)
        self.verified_digest = None  # of the last trajectory file checked in full

    def warm_up(self):
        short = self.workdir / "warm-up.json"
        self._cli(["simulate", "--matrix", str(self.matrix), "--mu", "stationary",
                   "--steps", "20000", "--seed", "0", "--out", str(short)], Stopwatch())
        self._cli(["test", "--reference", str(self.matrix), "--trajectory", str(short),
                   "--eps", str(EPS), "--seed", "0", "--lazify", "emulate",
                   "--report", str(self.workdir / "warm-up-report.json")], Stopwatch())

    def _cli(self, argv, watch: Stopwatch):
        stdout = io.StringIO()
        with redirect_stdout(stdout), watch():
            code = cli.main(argv)
        return code, stdout.getvalue()

    def run_round(self, r: int, watch: Stopwatch) -> Round:
        out = Round()
        sim_seed, test_seed = sub_seed(self.seed, 0), sub_seed(self.seed, r, 1)
        simulate = ["simulate", "--matrix", str(self.matrix), "--mu", "stationary",
                    "--steps", str(self.steps), "--seed", str(sim_seed), "--out", str(self.trajectory)]
        test = ["test", "--reference", str(self.matrix), "--trajectory", str(self.trajectory),
                "--eps", str(EPS), "--seed", str(test_seed), "--lazify", "emulate",
                "--report", str(self.report)]
        out.attempted = 3
        code, printed = self._cli(simulate, watch)
        out.timed("simulate", watch.last, watch.last_reference)
        if code != 0:
            out.failed = 3
            out.failures.append(f"simulate exited with {code}")
            return out
        if json.loads(printed).get("steps") != self.steps:
            out.problems.append(f"simulate reported {printed.strip()[:200]}")
        reports = []
        for k in (1, 2):
            code, _ = self._cli(test, watch)
            if code not in (0, 1):  # 0 is Accept, 1 is Reject
                out.failed += 1
                out.failures.append(f"test exited with {code}")
                continue
            out.timed(f"test-{k}", watch.last, watch.last_reference)
            reports.append(self.report.read_bytes())
        if len(reports) == 2:
            out.problems += checks.same_bytes(*reports)
        # Every round writes the same trajectory: a file with the bytes of one
        # already checked is correct, any other is checked in full.
        digest = hashlib.sha256(self.trajectory.read_bytes()).hexdigest()
        if digest != self.verified_digest:
            expected = sp.simulate(self.loaded, cc.stationary_distribution(self.loaded),
                                   self.steps, seed=sim_seed)
            problems = checks.trajectory_file(self.trajectory, expected.states)
            out.problems += problems
            if not problems:
                self.verified_digest = digest
        return out

    def latency(self, times: dict) -> float:
        tests = [t for op, t in times.items() if op.startswith("test")]
        return sum(tests) / len(tests)

    def finish(self) -> list[str]:
        shutil.rmtree(self.workdir, ignore_errors=True)
        return []


WORKLOADS = {w.name: w for w in (TrialCorpus, PartitionLadder, DistanceSuite, CliRoundtrip)}
