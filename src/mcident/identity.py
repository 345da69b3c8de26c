"""Single-trajectory identity testing against a reference reversible chain.

Pipeline: lazify the reference (and, in emulate mode, the trajectory),
partition the lazy reference's state space, convert the trajectory into iid
samples on each component in decreasing stationary-mass order, and return
the iid tester's verdict on the first component whose conversion succeeds.
If every component fails to produce samples the trajectory is too short or
too foreign, and the verdict is Reject.

The caller promises that the unknown chain is irreducible reversible with
stationary law within ratio distance eps/2 of the reference's. Violating
the promise yields undefined behavior; the stationary law of the unknown
chain is not observable, so no detection is attempted.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, log, sqrt

import numpy as np

from ._rng import derive_rng
from .chain_core import (
    TransitionMatrix,
    as_transition_matrix,
    convex_combination,
    lazy_version,
    matrix_power,
    multiplicative_reversibilization,
    stationary_distribution,
    time_reversal,
)
from .corpus import metropolis, random_irreducible, random_target
from .errors import ChainTestError
from .iid_test import TestVerdict, _histogram_test, iid_sample_size
from .metrics import chain_distance, hellinger, induced_distribution, ratio_distance
from .partition import StatePartition, partition_states
from .sampling import StateStream, Trajectory, _induced_histogram

ACCEPT = 0
REJECT = 1

#: Squared-Hellinger separation guaranteed on a well-retained component when
#: the chains are eps-far: eps^2 / 128. The iid tester works in unsquared
#: Hellinger distance, so it receives sqrt of this.
HELLINGER_SEPARATION_FACTOR = 128.0

# Source states per draw of the hold times that give an emulated length.
HOLD_CHUNK = 1 << 16


@dataclass(frozen=True)
class TestConfig:
    """Knobs of the identity test."""

    eps: float
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.eps < 1.0):
            raise ChainTestError(f"eps={self.eps} outside (0, 1)")


@dataclass(frozen=True)
class ComponentOutcome:
    states: tuple
    mass: float
    sample_count: int
    verdict: TestVerdict | None
    prefix_read: int  # 1 + the time of the last anchored visit, or the usable length if too few

    @property
    def failed(self) -> bool:
        return self.verdict is None


@dataclass(frozen=True)
class TestReport:
    """verdict is 0 only when some component produced samples and its iid
    verdict was 0; it is 1 otherwise. reason says which decided: "tester"
    when a component converted and the iid tester gave the verdict,
    "no_component_converted" when every component's conversion failed and
    the verdict is Reject."""

    verdict: int
    reason: str
    partition_used: StatePartition
    tested_component: tuple | None
    per_component: tuple
    trajectory_length: int
    budget_hint: int  # trajectory_budget of the reference at eps


# Multiplier of trajectory_budget; 2 makes the single-trajectory tester hit
# >= 0.6 accept and reject rates on the acceptance corpus in
# scripts/calibrate_constants.py, which sweeps 1, 2 and 4.
C_LEN = 2.0


def trajectory_budget(d: int, pibar_star: float, eps: float, c_len: float = C_LEN) -> int:
    """Trajectory length at which the tester reaches its success probability:
    c_len log^6(d) log(1/pi_star) log(d/pi_star) / (eps^4 pi_star)."""
    if d < 1 or not (0.0 < pibar_star < 1.0) or not (0.0 < eps < 1.0):
        raise ChainTestError(f"d={d}, pibar_star={pibar_star}, eps={eps}")
    ld = log(max(d, 2))
    denominator = eps**4 * pibar_star  # underflows to 0.0 for eps near 1e-80 and below
    size = c_len * ld**6 * log(1.0 / pibar_star) * log(d / pibar_star)
    size = size / denominator if denominator else np.inf
    if not np.isfinite(size):
        raise ChainTestError(f"trajectory budget {size} is not finite (eps={eps})")
    return int(ceil(size))


def lazify_trajectory(traj: Trajectory, alpha: float, seed: int) -> Trajectory:
    """Emulate the alpha-lazy chain's trajectory from a non-lazy one.

    Each step of the source is held for an independent Geometric(1 - alpha)
    number of ticks (support 1, 2, ...), which reproduces the lazy chain's
    law exactly: holds are the lazy chain's self-loops, moves follow the
    original kernel.

    The result joins the chunks of _lazy_chunks: it keeps the trajectory's
    narrow dtype, and no int64 array is longer than a chunk.
    """
    if not (0.0 <= alpha < 1.0):
        raise ChainTestError(f"alpha={alpha}")
    if alpha == 0.0:
        return traj
    states = np.concatenate(list(_lazy_chunks(traj, alpha, seed)))
    states.setflags(write=False)
    return Trajectory(d=traj.d, states=states)


def _lazy_chunks(traj, alpha: float, seed: int):
    """The emulation as a chunk map: each chunk of traj's states is repeated
    by its hold times as soon as they are drawn. Holds drawn from one stream
    are the same draws however the calls cut them, so any chunking of traj
    gives the same states."""
    rng = derive_rng(seed, "hold-times")
    for chunk in traj.chunks():
        yield np.repeat(chunk, rng.geometric(1.0 - alpha, size=len(chunk)))


def _lazy_stream(traj, alpha: float, seed: int) -> StateStream:
    """lazify_trajectory of a Trajectory or StateStream, read again for each
    scan. Its length is the sum of every hold, drawn HOLD_CHUNK at a time
    without reading a state, so a scan that stops early repeats only the
    states it reaches."""
    rng = derive_rng(seed, "hold-times")
    n = len(traj)
    length = sum(int(rng.geometric(1.0 - alpha, size=min(HOLD_CHUNK, n - start)).sum())
                 for start in range(0, n, HOLD_CHUNK))
    return StateStream(traj.d, length, lambda: _lazy_chunks(traj, alpha, seed))


def identity_test(
    Pbar,
    traj: Trajectory | StateStream,
    cfg: TestConfig,
    lazify: str = "assume",
) -> TestReport:
    """Decide whether the trajectory comes from Pbar or an eps-far chain.

    lazify="assume" treats the trajectory as already generated by the
    alpha-lazy unknown chain (alpha = eps^2 / (2 sqrt 2)); "emulate"
    transforms a trajectory of the non-lazy chain into one of the lazy
    chain by inserting geometric hold times, lazify_trajectory's, chunk by
    chunk as each component's scan reads them. traj may be a StateStream,
    such as fileio.stream_trajectory's; each component's scan reads it
    again from its first state.

    Succeeds with probability at least 3/5 at trajectory_budget length:
    accepts when the unknown chain equals the reference, rejects when their
    distance is at least eps (given the stationary closeness promise).
    A reference with fewer than two states raises ChainTestError: the
    trajectory budget and the log d tolerances are undefined there. So does
    an eps whose trajectory_budget is not a finite number, before the
    reference is partitioned.
    """
    Pbar = as_transition_matrix(Pbar)
    if Pbar.d < 2:
        raise ChainTestError(f"reference has d={Pbar.d}; identity testing needs d >= 2")
    if not Pbar.reversible:  # False for a reducible chain too
        raise ChainTestError("reference must be irreducible and reversible")
    if traj.d != Pbar.d:
        raise ChainTestError(f"trajectory d={traj.d}, reference d={Pbar.d}")
    # refuses an eps too small for a finite budget before any work
    budget_hint = trajectory_budget(Pbar.d, float(Pbar.pi.min()), cfg.eps)

    alpha = cfg.eps ** 2 / (2.0 * sqrt(2.0))
    P_ref = lazy_version(Pbar, alpha)
    if lazify == "emulate":
        traj_l = _lazy_stream(traj, alpha, cfg.seed)
    elif lazify == "assume":
        traj_l = traj
    else:
        raise ChainTestError(f"lazify={lazify!r}, expected 'assume' or 'emulate'")

    pibar = stationary_distribution(P_ref)
    d = P_ref.d
    # partition tolerance eps/16; per-component tester confidence 1/(10 d)
    part = partition_states(
        P_ref, beta=cfg.eps / 16.0, seed=int(derive_rng(cfg.seed, "partition").integers(2**63))
    )
    delta_iid = 1.0 / (10.0 * d)
    eps_hel = cfg.eps / sqrt(HELLINGER_SEPARATION_FACTOR)

    outcomes = []
    tested = final = None
    for idx, S in enumerate(part.components):
        S_arr = np.asarray(S, dtype=int)
        mass = float(pibar.entries[S_arr].sum())
        nu = np.zeros(d)
        nu[S_arr] = pibar.entries[S_arr] / mass
        l = iid_sample_size(len(S) ** 2 + 1, eps_hel, delta_iid)
        # the tester reads only the histogram of iid_generate's codes
        anchors = np.random.default_rng(int(derive_rng(cfg.seed, "anchors", idx).integers(2**63)))
        hist, prefix_read = _induced_histogram(traj_l, S, nu, l, anchors)
        verdict = None
        if hist is not None:
            verdict = _histogram_test(
                hist,
                l,
                induced_distribution(P_ref, pibar, S).p,
                eps_hel,
                delta_iid,
            )
        outcomes.append(ComponentOutcome(S, mass, l, verdict, prefix_read))
        if verdict is not None:
            tested, final = S, verdict.decision
            break

    return TestReport(
        verdict=REJECT if final is None else final,
        reason="no_component_converted" if final is None else "tester",
        partition_used=part,
        tested_component=tested,
        per_component=tuple(outcomes),
        trajectory_length=len(traj_l),
        budget_hint=budget_hint,
    )


# ---------------------------------------------------------------------------
# Distance behavior suite


@dataclass(frozen=True)
class PropertyViolation:
    item: str
    pair_index: int
    details: dict


@dataclass(frozen=True)
class FamilyPoint:
    alpha: float
    distance: float
    stationary_hellinger_sq: float
    stationary_ratio_distance: float


@dataclass(frozen=True)
class PropertyReport:
    seed: int
    pairs: int
    checks: dict
    violations: tuple
    family: tuple

    @property
    def passed(self) -> bool:
        return len(self.violations) == 0


def _two_state_family(a: float) -> tuple[TransitionMatrix, TransitionMatrix]:
    P = TransitionMatrix(np.array([[1.0 - a, a], [0.5, 0.5]]))
    Pbar = TransitionMatrix(np.array([[1.0 - a, a], [a, 1.0 - a]]))
    return P, Pbar


def property_suite(seed: int, pairs: int = 1000) -> PropertyReport:
    """Behavior of the chain distance under natural operations.

    Evaluates, on random chain pairs (d between 2 and 8), the laziness lower
    bound, time-reversal invariance, the convex-combination lower bound, the
    k-step power inequality and its stationary-Hellinger limit, the
    reversibilization upper bound, and the two-state family that separates
    the distance from the stationary Hellinger distance. Inequalities get
    one-sided slack 1e-9; the time-reversal equality 1e-7; the k = 2048
    limit 1e-4. The report lists violations (expected: none).
    """
    if pairs < 1:
        raise ChainTestError(f"pairs={pairs} must be >= 1")
    checks: dict[str, int] = {}
    violations: list[PropertyViolation] = []

    def record(item: str, pair_index: int, ok: bool, **details):
        checks[item] = checks.get(item, 0) + 1
        if not ok:
            violations.append(
                PropertyViolation(item=item, pair_index=pair_index, details=details)
            )

    for k in range(pairs):
        rng = derive_rng(seed, "pair", k)
        d = int(rng.integers(2, 9))
        reversible_pair = k % 2 == 1
        if reversible_pair:
            target = random_target(d, rng)
            P = metropolis(target, rng)
            Pbar = metropolis(target, rng)
        else:
            P = random_irreducible(d, rng)
            Pbar = random_irreducible(d, rng)

        D = chain_distance(P, Pbar)
        pi = stationary_distribution(P).entries
        pibar = stationary_distribution(Pbar).entries

        # Laziness: distance at least halves under alpha = D^2 / (2 sqrt 2).
        if D > 1e-12:
            al = D * D / (2.0 * sqrt(2.0))
            D_lazy = chain_distance(lazy_version(P, al), lazy_version(Pbar, al))
            record("lazy_lower_bound", k, D_lazy >= D / 2.0 - 1e-9, D=D, D_lazy=D_lazy)

        # Time reversal leaves the distance unchanged.
        D_rev = chain_distance(time_reversal(P), time_reversal(Pbar))
        record("time_reversal_equality", k, abs(D_rev - D) <= 1e-7, D=D, D_rev=D_rev)

        # Convex combination lower bound (reversible pairs, close targets).
        if reversible_pair:
            rd = ratio_distance(pi, pibar)
            eps_c = min(max(rd * 1.01, 1e-6) + 1e-9, 0.999)
            for al in (0.1, 0.5, 0.9):
                mix = convex_combination(P, Pbar, al)
                lhs = chain_distance(P, mix)
                scale = 2.0 * sqrt((1.0 - al) / (1.0 - eps_c))
                rhs = 1.0 - sqrt(al) - scale + scale * D
                record("convex_combination_bound", k, lhs >= rhs - 1e-9,
                       alpha=al, lhs=lhs, rhs=rhs)

        # k-step powers.
        for kk in (1, 2, 3, 5):
            Dk = chain_distance(matrix_power(P, kk), matrix_power(Pbar, kk))
            bound = 1.0 - (1.0 - D) ** kk
            record("power_inequality", k, bound >= Dk - 1e-9, k_step=kk, Dk=Dk, bound=bound)

        # Large-power limit equals the squared stationary Hellinger distance.
        # Both kinds of pair are ergodic: metropolis keeps at least 1/2 of
        # each row on the diagonal, and random_irreducible is positive.
        D_inf = chain_distance(matrix_power(P, 2048), matrix_power(Pbar, 2048))
        target_val = hellinger(pi, pibar) ** 2
        record("power_limit", k, abs(D_inf - target_val) <= 1e-4,
               D_inf=D_inf, limit=target_val)

        # Reversibilization at most doubles the distance.
        D_dag = chain_distance(
            multiplicative_reversibilization(P), multiplicative_reversibilization(Pbar)
        )
        record("reversibilization_bound", k, D_dag <= 2.0 * D + 1e-9, D=D, D_dag=D_dag)

    family = []
    for a in (0.1, 0.01, 0.001):
        P, Pbar = _two_state_family(a)
        pi = stationary_distribution(P).entries
        pibar = stationary_distribution(Pbar).entries
        family.append(
            FamilyPoint(
                alpha=a,
                distance=chain_distance(P, Pbar),
                stationary_hellinger_sq=hellinger(pi, pibar) ** 2,
                stationary_ratio_distance=ratio_distance(pi, pibar),
            )
        )
    dists = [f.distance for f in family]
    checks["family_two_state"] = 1
    if not (dists[0] > dists[1] > dists[2]):
        violations.append(
            PropertyViolation("family_two_state", -1, {"distances": dists})
        )
    if not (dists[2] < 0.05 and family[2].stationary_hellinger_sq > 0.25):
        violations.append(
            PropertyViolation(
                "family_two_state",
                -1,
                {"distance": dists[2], "hel_sq": family[2].stationary_hellinger_sq},
            )
        )

    return PropertyReport(
        seed=seed,
        pairs=pairs,
        checks=checks,
        violations=tuple(violations),
        family=tuple(family),
    )
