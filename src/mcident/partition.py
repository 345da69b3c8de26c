"""State-space partitioning: spectral certification, Fiedler sweep and
sparsest-cut LP to split.

The partitioner returns well-connected components plus a tail subset the
chain cannot linger in. Each candidate set I first gets a Cheeger check:
one eigvalsh of the chain restricted to I gives (1 - lambda_2)/2, a lower
bound on every internal bottleneck ratio min_R Phi(P, R, I) (see
spectral_phi_lower_bound). When that clears the component threshold, I is
declared without an LP. Otherwise the sweep over the restriction's Fiedler
vector (fiedler_sweep) proposes a cut, and I splits there when that cut is
sparse enough. Only when it is not does the sparsest-cut LP decide: its
optimum is also a sound lower bound (through the factor-2 sandwich between
the normalized cut ratio and the bottleneck ratio), and when it too is
small, rounding (embedding + sweep cuts) produces the sparse cut that
splits I.

Both sweeps keep the best prefix cut of an order of I, scored by
_prefix_ratios in O(C |I|^2) for C orders: one for the Fiedler sweep, one
per embedding coordinate for the rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, log
import numpy as np

from ._rng import derive_rng, require_seed
from .chain_core import (
    TransitionMatrix,
    as_transition_matrix,
    require_reversible,
    _as_subset,
    _symmetrized,
    _symmetrized_spectrum,
)
from .errors import CertificationFailed, ChainTestError, DegenerateEmbedding
from .metrics import internal_mass, min_escape_ratio, min_internal_cut_ratio
from .sampling import simulate
from .simplex import solve_lp

CERTIFICATION_LIMIT = 12

# Multipliers of the component threshold C2 beta / log^2 d and the tail
# threshold C3 beta / log d; 1/64 passes the planted-model corpus.
C2 = C3 = 1.0 / 64.0

# Repetitions per scale of bourgain_embed, times log n.
BOURGAIN_REPS = 8.0


@dataclass(frozen=True)
class MetricLP:
    """Optimal feasible metric of the cut relaxation on the ambient set I.

    delta is the full |I| x |I| symmetric matrix in sorted-I order. The
    objective is sum over ordered pairs of Q(i,j) delta_ij at the optimum,
    under the normalization sum over ordered pairs of pi_i pi_j delta_ij = 1.
    T is always (): the benchmark's tracer (perfbench/tracing.py) reads it
    to count LP nodes, so it stays until that reader changes.
    """

    I: tuple
    T: tuple
    delta: np.ndarray
    objective: float


def _triangle_rows(n: int):
    """Rows x_ab - x_aw - x_wb <= 0 for every pair a < b and third node w, in
    (a, b, w) order, over the pair variables of np.triu_indices(n, 1), as a
    scipy.sparse csr_matrix."""
    # Deferred, as solve_lp defers scipy.optimize: only a cut LP needs scipy.
    from scipy.sparse import csr_matrix

    a, b = np.triu_indices(n, 1)
    pair = np.zeros((n, n), dtype=np.intp)
    pair[a, b] = pair[b, a] = np.arange(len(a))
    w_all = np.arange(n)
    k, w = np.nonzero((w_all != a[:, None]) & (w_all != b[:, None]))
    cols = np.stack([k, pair[a[k], w], pair[w, b[k]]], axis=1).ravel()
    rows = np.repeat(np.arange(len(k)), 3)
    vals = np.tile([1.0, -1.0, -1.0], len(k))
    return csr_matrix((vals, (rows, cols)), shape=(len(k), len(a)))


def solve_spccc_lp(P, I) -> MetricLP:
    """Minimum of sum Q(i,j) delta_ij over metrics delta on I normalized by
    sum pi_i pi_j delta_ij = 1. Every triangle inequality is written out,
    and the LP is solved by HiGHS.

    HiGHS solves it on the restricted chain, pi_I and Q_I divided by pi(I):
    a metric x of that LP is delta = x / pi(I)^2 here, with objective
    divided by pi(I). Posed on pi itself, a set of small mass gives HiGHS
    coefficients near its feasibility tolerance, and it called such LPs
    infeasible.
    """
    P = as_transition_matrix(P)
    I_idx = _as_subset(I, P.d)
    if len(I_idx) < 2:
        raise ChainTestError("need |I| >= 2")
    require_reversible(P)
    mass = float(P.pi[I_idx].sum())
    pi_I = P.pi[I_idx] / mass
    Qs_I = (P.Q + P.Q.T)[np.ix_(I_idx, I_idx)] / mass

    n = len(I_idx)
    a, b = np.triu_indices(n, 1)
    A_ub = _triangle_rows(n)
    norm_row = 2.0 * pi_I[a] * pi_I[b]
    x, obj = solve_lp(Qs_I[a, b], A_ub, np.zeros(A_ub.shape[0]), norm_row[None, :], np.array([1.0]))

    delta = np.zeros((n, n))
    delta[a, b] = delta[b, a] = x / mass**2
    return MetricLP(I=tuple(int(i) for i in I_idx), T=(), delta=delta, objective=float(obj) / mass)


def _restriction(P: TransitionMatrix, I_idx: np.ndarray) -> np.ndarray:
    """P restricted to I, each row's mass leaving I moved onto its diagonal."""
    sub = P.entries[np.ix_(I_idx, I_idx)]
    sub[np.diag_indices(len(I_idx))] += 1.0 - sub.sum(axis=1)
    return sub


def spectral_phi_lower_bound(P: TransitionMatrix, I_idx: np.ndarray) -> float:
    """Cheeger lower bound (1 - lambda_2)/2 on every internal bottleneck
    ratio Q(R, I-R) / min(pi(R), pi(I-R)), R a nonempty proper subset of I.

    The restriction P_I keeps P(i, j) for i != j in I and moves each row's
    mass leaving I onto its diagonal. That leaves every Q(R, I-R) unchanged,
    and P_I is reversible with respect to pi_I = pi|_I / pi(I). lambda_2 is
    the second largest signed eigenvalue of its pi-symmetrized form.

    Cheeger's easy direction (Levin-Peres-Wilmer, Thm 13.10; Jerrum-Sinclair
    1989): the test function f = 1_R - pi_I(R) has Dirichlet form Q(R, I-R) /
    pi(I) and variance pi_I(R) pi_I(I-R), so

        1 - lambda_2 <= pi(I) Q(R, I-R) / (pi(R) pi(I-R))
                     <= 2 Q(R, I-R) / min(pi(R), pi(I-R)),

    since max(pi(R), pi(I-R)) >= pi(I)/2. The middle term is pi(I) times the
    cut-metric ratio of R, and the cut LP relaxes that ratio (lp <= it). So
    (1 - lambda_2)/2 and lp_bound = pi(I) * lp / 2 both lie below pi(I)/2
    times the ratio: the two bounds are on one scale, and both lower-bound
    the minimum that _certify enumerates.
    """
    lam = _symmetrized_spectrum(_restriction(P, I_idx), P.pi[I_idx])
    return float(1.0 - lam[-2]) / 2.0


def _prefix_ratios(P: TransitionMatrix, I_idx: np.ndarray, orders: np.ndarray) -> np.ndarray:
    """cut_metric_ratio of the prefix I_idx[orders[c, :j + 1]] at (c, j), for
    each row c of orders, a (C, |I|) array of orderings, and each j < |I| - 1:
    prefix sums over Q + Q^T permuted into each order, in O(C |I|^2)."""
    J = I_idx[orders]
    Q_J = P.Q[J[:, :, None], J[:, None, :]]
    Qs = Q_J + Q_J.transpose(0, 2, 1)
    later = np.arange(J.shape[1])[:, None] < np.arange(J.shape[1])
    # Moving a state to the left side adds its edges to the right side (the
    # later states) to the cut and removes its edges to the earlier states.
    gain = np.where(later, Qs, 0.0).sum(axis=-1) - np.where(later.T, Qs, 0.0).sum(axis=-1)
    left = np.cumsum(P.pi[J], axis=-1)[:, :-1]
    return np.cumsum(gain, axis=-1)[:, :-1] / (2.0 * left * (P.pi[I_idx].sum() - left))


def fiedler_sweep(P: TransitionMatrix, I_idx: np.ndarray) -> tuple[np.ndarray, float]:
    """Sparsest prefix cut of I in the order of the restriction's Fiedler
    vector; returns (the prefix as sorted states, its cut_metric_ratio).

    The eigenvector for lambda_2 of the pi-symmetrized restriction that
    spectral_phi_lower_bound builds, divided by sqrt(pi_I), is the right
    eigenvector f of P_I. The states of I are ordered by f, index breaking
    ties, and _prefix_ratios scores every one of the |I| - 1 prefixes in
    O(|I|^2); the first minimum wins. Cheeger's hard direction
    (Levin-Peres-Wilmer, Thm 13.10 and its proof; Chung, Spectral Graph
    Theory, ch. 2) bounds the bottleneck ratio of that cut by
    sqrt(2 (1 - lambda_2)).
    """
    pi_I = P.pi[I_idx]
    _, vecs = np.linalg.eigh(_symmetrized(_restriction(P, I_idx), pi_I))
    f = vecs[:, -2] / np.sqrt(pi_I)
    order = np.lexsort((np.arange(len(I_idx)), f))
    ratio = _prefix_ratios(P, I_idx, order[None, :])[0]
    j = int(np.argmin(ratio))
    return np.sort(I_idx[order[: j + 1]]), float(ratio[j])


def cut_metric_ratio(P, S, I) -> float:
    """Normalized objective of the cut metric of S inside I:
    sum Q delta_S / sum pi pi delta_S over ordered pairs."""
    P = as_transition_matrix(P)
    S_idx = _as_subset(S, P.d)
    I_idx = _as_subset(I, P.d)
    rest = np.setdiff1d(I_idx, S_idx)
    if len(S_idx) == 0 or len(rest) == 0 or not np.isin(S_idx, I_idx).all():
        raise ChainTestError("need nonempty S strictly inside I")
    pi, Q = P.pi, P.Q
    num = Q[np.ix_(S_idx, rest)].sum() + Q[np.ix_(rest, S_idx)].sum()
    den = 2.0 * pi[S_idx].sum() * pi[rest].sum()
    return float(num / den)


def bourgain_embed(lp: MetricLP, seed: int) -> np.ndarray:
    """Randomized Frechet-style l1 embedding of the LP metric.

    For each scale s = 1..ceil(log2 n) and repetition
    r = 1..ceil(BOURGAIN_REPS log n), sample a node subset A with inclusion
    probability 2^-s and emit the coordinate min_{a in A} delta(i, a),
    scaled by the coordinate count so the embedding is 1-Lipschitz into l1.
    Rows follow sorted(I) order.
    """
    n = len(lp.I)
    scales = max(1, ceil(np.log2(n)))
    reps = max(1, ceil(BOURGAIN_REPS * log(n)))
    total = scales * reps
    rng = derive_rng(seed, "bourgain")
    coords = np.zeros((n, total))
    col = 0
    for s in range(1, scales + 1):
        p_inc = 2.0 ** (-s)
        for _ in range(reps):
            A = np.flatnonzero(rng.random(n) < p_inc)
            if len(A):
                coords[:, col] = lp.delta[:, A].min(axis=1)
            col += 1
    return coords / total


def round_to_cut(embedding: np.ndarray, P, I) -> tuple:
    """Best sweep cut over all embedding coordinates.

    Each coordinate orders I by value, index breaking ties, and one batched
    _prefix_ratios call scores the cuts at every strictly increasing value
    boundary, O(C |I|^2) for C coordinates; the minimizer wins, earliest
    (coordinate, boundary) on ties within 1e-15, and its lower side is
    returned. Raises DegenerateEmbedding when every coordinate is constant,
    instructing the caller to re-seed.
    """
    P = as_transition_matrix(P)
    I_idx = _as_subset(I, P.d)
    if embedding.shape[0] != len(I_idx):
        raise ChainTestError("embedding rows must match sorted(I)")
    orders = np.argsort(embedding.T, axis=-1, kind="stable")
    ratios = _prefix_ratios(P, I_idx, orders)
    boundary = np.diff(np.sort(embedding.T, axis=-1), axis=-1) > 0.0
    best = None
    for flat, ratio in zip(np.flatnonzero(boundary).tolist(), ratios[boundary].tolist()):
        if best is None or ratio < best[0] - 1e-15:
            best = (ratio, flat)
    if best is None:
        raise DegenerateEmbedding("all embedded points coincide; retry with a fresh seed")
    c, j = divmod(best[1], boundary.shape[1])
    return tuple(int(i) for i in np.sort(I_idx[orders[c, : j + 1]]))


def find_comp(P, lp: MetricLP, seed: int) -> tuple:
    """l1 embedding and sweep-cut rounding of a solved cut LP; returns a
    proper nonempty subset of lp.I. Deterministic given the seed."""
    emb = bourgain_embed(lp, seed)
    return round_to_cut(emb, P, lp.I)


def _lp_cut(P, lp: MetricLP, seed: int, round_no: int) -> tuple:
    """find_comp on a solved LP, re-seeded while the embedding is degenerate."""
    for attempt in range(8):
        try:
            return find_comp(P, lp, derive_rng(seed, "split", round_no, attempt).integers(2**63))
        except DegenerateEmbedding:
            continue
    raise DegenerateEmbedding("embedding stayed degenerate across retries")


@dataclass(frozen=True)
class StatePartition:
    """Partition of the state space into components and a tail subset.

    certificates carries, per component, its internal mass, the spectral
    expansion lower bound (spectral_phi_lower_bound), the LP bound when a cut
    LP was solved for it (lp_phi_lower_bound, else None) and, when
    enumeration ran (d <= 12), the brute-force cut minimum. Singletons carry
    None for all three bounds. certificates["splits"] records each split
    (see partition_states).
    """

    components: tuple
    tail: tuple
    beta: float
    certificates: dict


def partition_states(P, beta: float, seed: int, certify: bool = True) -> StatePartition:
    """Partition the states of a reversible chain at tolerance beta.

    Work-list refinement with tau_comp = C2 beta / log^2 d. Every candidate
    subset I with |I| >= 2 first gets the spectral bound (one eigvalsh, see
    spectral_phi_lower_bound). If it reaches tau_comp, I expands and nothing
    else is computed. Otherwise I gets a Fiedler sweep (fiedler_sweep, one
    eigh): when its cut R has pi(I) * ratio(R)/2 < tau_comp, I splits into R
    and I - R. Only when the sweep misses is a cut LP solved; then
    pi(I) * lp/2 >= tau_comp certifies expansion in place of the spectral
    bound, and otherwise I splits along the LP's rounded cut. An expanding I
    is declared a component unless it contains low-retention states (states
    keeping less than 1 - beta of their outgoing mass inside I); those move
    to the tail and the rest is re-examined. Declared components therefore
    retain >= 1 - beta per state, which implies the aggregate internal-mass
    bound. Both sides of a split recurse. A singleton has no proper cut: it
    expands with both bounds None and takes the same declare-or-evict step.

    Splitting at the sweep is sound. The LP relaxes every cut-metric ratio,
    so lp <= ratio(R) and pi(I) * lp/2 < tau_comp: the LP path would have
    split this I as well. Its rounded cut is only promised to be within
    O(log |I|) of lp, while R is already below 2 tau_comp / pi(I), the
    threshold itself. Components are still declared only through the two
    bounds and eviction, and _certify checks them, so no sweep decision can
    declare a set that does not expand. The sweep draws no seed; round_no
    counts every item of two or more states, its splits included, so the
    seed of any later LP split is the one it would have without the sweep.

    certificates["splits"] lists every split in the order made: the states
    split off, "by" ("sweep" or "lp") and the bound pi(I) * ratio/2 or
    pi(I) * lp/2 that fell below tau_comp.

    Guarantees on the output, certified by enumeration when d <= 12:
      (1) each component keeps internal edge mass >= 1 - beta (exact);
      (2) each component's internal bottleneck ratios are all >= tau_comp;
      (3) every subset of the tail leaks edge mass at rate
          >= tau_tail = C3 beta / log d.
    A certification failure means an implementation bug, not a bad input.
    """
    P = as_transition_matrix(P)
    if not (0.0 < beta < 1.0):
        raise ChainTestError(f"beta={beta} outside (0, 1)")
    require_seed(seed)  # only an LP split draws from the seed
    require_reversible(P)
    pi = P.pi

    d = P.d
    logd = log(max(d, 2))
    tau_comp = C2 * beta / logd**2
    tau_tail = C3 * beta / logd
    arr = P.entries

    components: list[tuple] = []
    comp_certs: list[dict] = []
    splits: list[dict] = []
    tail: list[int] = []
    work: list[np.ndarray] = [np.arange(d)]
    round_no = 0
    while work:
        I_idx = work.pop()
        if len(I_idx) == 0:
            continue
        spectral_bound = lp_bound = split = None
        if len(I_idx) >= 2:  # a singleton has no proper cut: it expands
            spectral_bound = spectral_phi_lower_bound(P, I_idx)
            if spectral_bound < tau_comp:
                pi_of_I = float(pi[I_idx].sum())
                sweep_cut, ratio = fiedler_sweep(P, I_idx)
                sweep_bound = pi_of_I * ratio / 2.0
                if sweep_bound < tau_comp:
                    split = (sweep_cut, "sweep", sweep_bound)
                else:
                    lp = solve_spccc_lp(P, I_idx)
                    lp_bound = pi_of_I * lp.objective / 2.0
                    if lp_bound < tau_comp:
                        split = (_lp_cut(P, lp, seed, round_no), "lp", lp_bound)
            # Sweep splits count too, so the seed of a later LP split stays put.
            round_no += 1
        if split is None:
            low = [int(i) for i in I_idx if arr[i, I_idx].sum() < 1.0 - beta]
            if low:
                tail.extend(low)
                rest = np.setdiff1d(I_idx, np.asarray(low, dtype=int))
                work.append(rest)
            else:
                components.append(tuple(int(i) for i in I_idx))
                comp_certs.append(
                    {
                        "states": [int(i) for i in I_idx],
                        "internal_mass": internal_mass(P, I_idx),
                        "spectral_phi_lower_bound": spectral_bound,
                        "lp_phi_lower_bound": lp_bound,
                    }
                )
        else:
            S1 = np.asarray(split[0], dtype=int)
            splits.append({"states": [int(i) for i in S1], "by": split[1], "bound": split[2]})
            work.append(S1)
            work.append(np.setdiff1d(I_idx, S1))

    # Sort components and their certificates together, heaviest first.
    ranked = sorted(zip(components, comp_certs), key=lambda sc: (-pi[list(sc[0])].sum(), sc[0]))
    components = [S for S, _ in ranked]
    comp_certs = [cert for _, cert in ranked]
    tail_t = tuple(sorted(tail))
    certificates = {
        "beta": beta,
        "component_threshold": tau_comp,
        "tail_threshold": tau_tail,
        "components": comp_certs,
        "tail": {"states": list(tail_t), "min_escape_ratio": None},
        "splits": splits,
        "certified": False,
    }
    part = StatePartition(
        components=tuple(components), tail=tail_t, beta=beta, certificates=certificates
    )
    if certify and d <= CERTIFICATION_LIMIT:
        _certify(part, P, tau_comp, tau_tail)
    return part


def _certify(part: StatePartition, P: TransitionMatrix,
             tau_comp: float, tau_tail: float) -> None:
    """Brute-force postcondition check; mutates certificates in place. The
    sorted states of the components and the tail, repeats kept, must read
    range(d): a missing, duplicated, doubly assigned or out-of-range state
    fails. Enumeration then checks guarantees (1)-(3) of partition_states."""
    d = P.d
    covered = sorted(i for S in (*part.components, part.tail) for i in S)
    if covered != list(range(d)):
        raise CertificationFailed(f"not a partition of range({d}): {covered}")

    for S, cert in zip(part.components, part.certificates["components"]):
        mass_in = internal_mass(P, S)
        cert["internal_mass"] = mass_in
        if mass_in < 1.0 - part.beta - 1e-12:
            raise CertificationFailed(f"component {S} internal mass {mass_in}")
        if len(S) >= 2:
            worst = min_internal_cut_ratio(P, np.asarray(S, dtype=int))
            cert["min_phi_bruteforce"] = worst
            if worst < tau_comp - 1e-12:
                raise CertificationFailed(
                    f"component {S}: min bottleneck ratio {worst:.3e} < {tau_comp:.3e}"
                )
        else:
            cert["min_phi_bruteforce"] = None

    if part.tail:
        worst = min_escape_ratio(P, np.asarray(part.tail, dtype=int))
        part.certificates["tail"]["min_escape_ratio"] = worst
        if worst < tau_tail - 1e-12:
            raise CertificationFailed(
                f"tail escape ratio {worst:.3e} < {tau_tail:.3e}"
            )
    part.certificates["certified"] = True


# Multiplier of the tail-escape threshold of tail_occupancy_check, from the
# block-length argument of the analysis: blocks of 8 log(1/pi_star)/alpha^2
# steps, escape probability >= 1/2 per block, half of the blocks succeed.
# No pipeline run evaluates it; acceptance criterion 9 does.
C_ESC = 1.0 / 32.0


def tail_occupancy_check(P, T, alpha: float, m: int, trials: int, seed: int) -> float:
    """Empirical frequency of the tail-escape event over simulated runs.

    Each trial simulates m steps from the stationary law and checks that the
    number of steps spent outside T reaches C_ESC * m * alpha^2 /
    log(1/min_T pi). A statistical acceptance probe for the tail guarantee,
    not a proof. T empty is vacuous (returns 1.0).
    """
    P = as_transition_matrix(P)
    T_idx = _as_subset(T, P.d)
    if len(T_idx) == 0:
        return 1.0
    if alpha <= 0 or m < 1 or trials < 1:
        raise ChainTestError(f"alpha={alpha}, m={m}, trials={trials}")
    pi_T_star = float(P.pi[T_idx].min())
    threshold = C_ESC * m * alpha * alpha / log(1.0 / pi_T_star)
    in_T = np.zeros(P.d, dtype=bool)
    in_T[T_idx] = True
    hits = 0
    for t in range(trials):
        t_seed = int(derive_rng(seed, "occupancy", t).integers(2**63))
        traj = simulate(P, P.stationary, m, seed=t_seed)
        escapes = int((~in_T[traj.states]).sum())
        if escapes >= threshold:
            hits += 1
    return hits / trials
