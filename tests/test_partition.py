import itertools
import os
import subprocess
import sys
from math import log
from pathlib import Path

import numpy as np
import pytest

from mcident import chain_core as cc
from mcident import corpus as cp
from mcident import metrics as mt
from mcident import partition as pt
from mcident.errors import (
    BadArgs,
    BadSubset,
    DegenerateEmbedding,
    NotIrreducible,
    NotReversible,
)

ALL6 = tuple(range(6))


def brute_min_ratio(P, I, T=()):
    Tset = set(T)
    best = np.inf
    I = list(I)
    for r in range(1, len(I)):
        for S in itertools.combinations(I, r):
            s = set(S)
            if Tset and not (Tset <= s or not (Tset & s)):
                continue
            best = min(best, pt.cut_metric_ratio(P, S, I))
    return best


class TestSpcccLP:
    def test_two_state_closed_form(self, rng):
        P = cp.random_reversible(2, rng)
        pi = cc.stationary_distribution(P).entries
        Q = pi[:, None] * P.entries
        lp = pt.solve_spccc_lp(P, [0, 1], [])
        assert lp.delta[0, 1] == pytest.approx(1.0 / (2 * pi[0] * pi[1]), rel=1e-9)
        assert lp.objective == pytest.approx((Q[0, 1] + Q[1, 0]) / (2 * pi[0] * pi[1]), rel=1e-9)

    def test_all_but_one_constrained(self, rng):
        # with T = I minus one state, the only valid cut separates that
        # state, and the relaxation is tight
        P = cp.random_reversible(5, rng)
        lp = pt.solve_spccc_lp(P, range(5), [0, 1, 2, 3])
        assert lp.objective == pytest.approx(pt.cut_metric_ratio(P, [4], range(5)), rel=1e-8)

    def test_relaxation_soundness(self):
        for k in range(15):
            r = np.random.default_rng(300 + k)
            P = cp.random_reversible(6, r)
            lp = pt.solve_spccc_lp(P, ALL6, ())
            assert lp.objective <= brute_min_ratio(P, ALL6) + 1e-9

    def test_feasibility_invariants(self, rng):
        P = cp.random_reversible(6, rng)
        pi = cc.stationary_distribution(P).entries
        lp = pt.solve_spccc_lp(P, ALL6, [1, 4])
        dl = lp.delta
        assert np.abs(np.diag(dl)).max() == 0.0
        assert np.abs(dl - dl.T).max() == 0.0
        for i, j, k in itertools.permutations(range(6), 3):
            assert dl[i, j] <= dl[i, k] + dl[k, j] + 1e-7
        norm = float(np.einsum("i,j,ij->", pi, pi, dl))
        assert norm == pytest.approx(1.0, abs=1e-7)
        assert dl[1, 4] == 0.0
        for k in range(6):
            assert dl[1, k] == pytest.approx(dl[4, k], abs=1e-12)

    @pytest.mark.parametrize(
        "call",
        [
            lambda P: pt.solve_spccc_lp(P, range(3), ()),
            lambda P: pt.partition_states(P, beta=0.1, seed=0),
            lambda P: mt.tail_eigenvalue_bound_check(P, [0]),
        ],
        ids=["solve_spccc_lp", "partition_states", "tail_eigenvalue_bound_check"],
    )
    def test_requires_reversible(self, call):
        with pytest.raises(NotReversible, match="detailed balance violated"):
            call([[0, 1, 0], [0, 0, 1], [1, 0, 0]])

    def test_bad_subsets(self, rng):
        P = cp.random_reversible(4, rng)
        with pytest.raises(BadSubset):
            pt.solve_spccc_lp(P, [0], ())
        with pytest.raises(BadSubset):
            pt.solve_spccc_lp(P, range(4), range(4))


class TestBourgainEmbed:
    def test_zero_metric_collapses(self):
        lp = pt.MetricLP(I=(0, 1, 2), T=(), delta=np.zeros((3, 3)), objective=0.0)
        emb = pt.bourgain_embed(lp, seed=1)
        assert np.abs(emb - emb[0]).max() == 0.0

    def test_constrained_states_share_coordinates(self, rng):
        P = cp.random_reversible(6, rng)
        lp = pt.solve_spccc_lp(P, ALL6, [2, 5])
        emb = pt.bourgain_embed(lp, seed=3)
        assert np.abs(emb[2] - emb[5]).max() == 0.0

    def test_one_lipschitz(self, rng):
        P = cp.random_reversible(7, rng)
        lp = pt.solve_spccc_lp(P, range(7), ())
        emb = pt.bourgain_embed(lp, seed=5)
        for i in range(7):
            for j in range(7):
                l1 = np.abs(emb[i] - emb[j]).sum()
                assert l1 <= lp.delta[i, j] + 1e-9

    def test_distortion_audit(self):
        # measured distortion within 4 log|I| in at least 95% of seeds
        r = np.random.default_rng(8)
        P = cp.random_reversible(8, r)
        lp = pt.solve_spccc_lp(P, range(8), ())
        ok = 0
        for seed in range(100):
            emb = pt.bourgain_embed(lp, seed=seed)
            worst = 1.0
            for i in range(8):
                for j in range(i + 1, 8):
                    if lp.delta[i, j] > 1e-12:
                        l1 = np.abs(emb[i] - emb[j]).sum()
                        worst = np.inf if l1 == 0 else max(worst, lp.delta[i, j] / l1)
            if worst <= 4.0 * log(8):
                ok += 1
        assert ok >= 95


class TestRoundToCut:
    def test_planted_blocks_recovered(self, rng):
        P = cp.planted_two_block((3, 3), rng)
        S = pt.find_comp(P, ALL6, (), seed=11)
        assert set(S) in ({0, 1, 2}, {3, 4, 5})

    def test_avoids_constrained_states(self, rng):
        P = cp.random_reversible(6, rng)
        lp = pt.solve_spccc_lp(P, ALL6, [0, 1])
        for seed in range(1000):
            S = pt.find_comp(P, ALL6, [0, 1], seed=seed, lp=lp)
            assert not (set(S) & {0, 1})
            assert 0 < len(S) < 6

    def test_degenerate_embedding_raises(self, rng):
        P = cp.random_reversible(3, rng)
        emb = np.zeros((3, 4))
        with pytest.raises(DegenerateEmbedding):
            pt.round_to_cut(emb, P, range(3), ())

    def test_approximation_factor(self):
        # sweep-cut ratio within 4 log d of the brute-force optimum on a
        # 95th percentile across seeded runs
        factors = []
        for k in range(60):
            r = np.random.default_rng(7000 + k)
            d = int(r.integers(4, 11))
            P = cp.random_reversible(d, r)
            I = tuple(range(d))
            lp = pt.solve_spccc_lp(P, I, ())
            S = pt.find_comp(P, I, (), seed=k, lp=lp)
            factors.append(pt.cut_metric_ratio(P, S, I) / brute_min_ratio(P, I))
        assert float(np.quantile(factors, 0.95)) <= 4.0 * log(4)

    def test_deterministic_given_seed(self, rng):
        P = cp.random_reversible(6, rng)
        a = pt.find_comp(P, ALL6, (), seed=21)
        b = pt.find_comp(P, ALL6, (), seed=21)
        assert a == b


class TestPartitionStates:
    def test_planted_blocks(self, rng):
        P = cp.planted_two_block((3, 3), rng)
        part = pt.partition_states(P, beta=0.1, seed=1)
        assert set(map(frozenset, part.components)) == {frozenset({0, 1, 2}), frozenset({3, 4, 5})}
        assert part.tail == ()
        assert part.certificates["certified"]

    def test_complete_uniform_single_component(self):
        part = pt.partition_states(cp.complete_uniform(6), beta=0.1, seed=4)
        assert part.components == (ALL6,)
        assert part.tail == ()

    def test_hub_and_leaves_tail(self, rng):
        P = cp.hub_and_leaves(3, 4, rng)
        part = pt.partition_states(P, beta=0.1, seed=2)
        assert part.tail == (6, 7, 8, 9)
        assert set(map(frozenset, part.components)) == {
            frozenset({0, 1, 2}),
            frozenset({3, 4, 5}),
        }
        cert = part.certificates
        assert cert["tail"]["min_escape_ratio"] >= cert["tail_threshold"]

    def test_partition_exactness(self):
        for k in range(25):
            r = np.random.default_rng(400 + k)
            d = int(r.integers(2, 10))
            P = cp.random_reversible(d, r)
            part = pt.partition_states(P, beta=float(r.uniform(0.05, 0.3)), seed=k)
            states = sorted(part.tail + tuple(s for S in part.components for s in S))
            assert states == list(range(d))

    def test_components_ordered_by_mass(self, rng):
        P = cp.planted_two_block((2, 4), rng)
        part = pt.partition_states(P, beta=0.1, seed=3)
        pi = cc.stationary_distribution(P).entries
        masses = [pi[list(S)].sum() for S in part.components]
        assert masses == sorted(masses, reverse=True)

    def test_beta_validation(self, rng):
        P = cp.random_reversible(4, rng)
        with pytest.raises(BadArgs):
            pt.partition_states(P, beta=0.0, seed=1)
        with pytest.raises(BadArgs):
            pt.partition_states(P, beta=1.0, seed=1)

    def test_requires_irreducible(self):
        with pytest.raises(NotIrreducible, match="chain is not irreducible"):
            pt.partition_states(np.eye(2), beta=0.1, seed=0)

    @pytest.mark.parametrize("seed", [1, 5])
    def test_certificates_follow_component_order(self, seed):
        P = cp.planted_two_block((4, 4), np.random.default_rng(0))
        part = pt.partition_states(P, beta=0.1, seed=seed)
        certs = part.certificates["components"]
        assert len(certs) == len(part.components) == 2
        for S, cert in zip(part.components, certs):
            assert cert["states"] == list(S)
            assert cert["internal_mass"] == pytest.approx(mt.internal_mass(P, S), abs=1e-12)

    @pytest.mark.parametrize("d", [13, 24])
    def test_reach_beyond_certification_limit(self, d):
        P = cp.random_reversible(d, np.random.default_rng(d))
        beta = 0.1
        part = pt.partition_states(P, beta=beta, seed=0)
        assert not part.certificates["certified"]
        states = sorted(part.tail + tuple(s for S in part.components for s in S))
        assert states == list(range(d))
        for S in part.components:
            rows = P.entries[np.ix_(S, S)].sum(axis=1)
            assert rows.min() >= 1.0 - beta

    def test_seed_determinism(self, rng):
        P = cp.hub_and_leaves(2, 3, rng)
        a = pt.partition_states(P, beta=0.1, seed=9)
        b = pt.partition_states(P, beta=0.1, seed=9)
        assert a.components == b.components and a.tail == b.tail


def cycle(d):
    """Simple random walk on a d-cycle: periodic for even d; lambda_2 is
    negative for d = 2 and 3."""
    P = np.zeros((d, d))
    for i in range(d):
        P[i, (i + 1) % d] += 0.5
        P[i, (i - 1) % d] += 0.5
    return cc.TransitionMatrix(P)


class TestSpectralCertification:
    @pytest.mark.parametrize("lazy", [False, True], ids=["plain", "lazy"])
    @pytest.mark.parametrize("family", ["random_reversible", "birth_death", "hub_and_leaves", "cycle"])
    def test_bound_below_every_internal_cut(self, family, lazy):
        r = np.random.default_rng(61)
        for k in range(12):
            d = 2 + k % 9
            P = {
                "random_reversible": lambda: cp.random_reversible(d, r),
                "birth_death": lambda: cp.birth_death(d, r),
                "hub_and_leaves": lambda: cp.hub_and_leaves(max(d // 4, 1), d - 2 * max(d // 4, 1), r),
                "cycle": lambda: cycle(d),
            }[family]()
            if lazy:
                P = cc.lazy_version(P, 0.5)
            assert P.d == d
            size = d if k == 0 else int(r.integers(2, d + 1))
            I = np.sort(r.choice(d, size=size, replace=False))
            bound = pt.spectral_phi_lower_bound(P, I)
            assert bound <= mt.min_internal_cut_ratio(P, I) + 1e-12

    def test_two_cycle_is_tight(self):
        # lambda_2 = -1, and the one cut has Q / min(pi) = 1/2 / 1/2
        assert pt.spectral_phi_lower_bound(cycle(2), np.arange(2)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("d", [8, 200])
    def test_well_connected_chains_solve_no_lp(self, d, monkeypatch):
        def no_lp(*args, **kwargs):
            raise AssertionError("cut LP solved")

        monkeypatch.setattr(pt, "solve_spccc_lp", no_lp)
        part = pt.partition_states(cp.random_reversible(d, np.random.default_rng(d)), beta=0.1, seed=0)
        assert part.components == (tuple(range(d)),) and part.tail == ()
        cert = part.certificates["components"][0]
        assert cert["lp_phi_lower_bound"] is None
        assert cert["spectral_phi_lower_bound"] >= part.certificates["component_threshold"]

    @pytest.mark.parametrize("half", [4, 12])
    def test_split_solves_one_lp(self, half, monkeypatch):
        # at half = 12 the LP runs beyond the brute-force certification limit
        calls = []
        solve = pt.solve_spccc_lp

        def counted(P, I, T):
            calls.append(tuple(I))
            return solve(P, I, T)

        monkeypatch.setattr(pt, "solve_spccc_lp", counted)
        P = cp.planted_two_block((half, half), np.random.default_rng(0))
        part = pt.partition_states(P, beta=0.1, seed=1)
        assert calls == [tuple(range(2 * half))]
        assert sorted(part.components) == [tuple(range(half)), tuple(range(half, 2 * half))]
        for cert in part.certificates["components"]:
            assert cert["lp_phi_lower_bound"] is None
            assert cert["spectral_phi_lower_bound"] >= part.certificates["component_threshold"]
            if part.certificates["certified"]:
                assert cert["spectral_phi_lower_bound"] <= cert["min_phi_bruteforce"] + 1e-12

    def test_partition_leaves_scipy_optimize_unloaded(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        code = (
            "import sys, numpy as np\n"
            "from mcident import corpus, partition\n"
            "partition.partition_states(corpus.random_reversible(8, np.random.default_rng(8)), beta=0.1, seed=0)\n"
            "print('scipy.optimize' in sys.modules)"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        assert out.stdout.strip() == "False"

    def test_rejects_seed_outside_range(self):
        P = cp.random_reversible(4, np.random.default_rng(4))
        for seed in (-1, 2**64):
            with pytest.raises(BadArgs, match="seed"):
                pt.partition_states(P, beta=0.1, seed=seed)


class TestTailOccupancy:
    def test_empty_tail_vacuous(self, rng):
        P = cp.random_reversible(4, rng)
        assert pt.tail_occupancy_check(P, (), alpha=0.5, m=100, trials=5, seed=1) == 1.0

    def test_leaf_tail_escapes(self, rng):
        P = cp.hub_and_leaves(3, 4, rng)
        part = pt.partition_states(P, beta=0.1, seed=2)
        alpha = part.certificates["tail"]["min_escape_ratio"]
        freq = pt.tail_occupancy_check(P, part.tail, alpha=alpha, m=3000, trials=40, seed=5)
        assert freq >= 0.9

    def test_overstated_alpha_weakens(self, rng):
        # inflating alpha tenfold raises the escape threshold; the observed
        # pass frequency can only drop
        P = cp.hub_and_leaves(3, 4, rng)
        part = pt.partition_states(P, beta=0.1, seed=2)
        alpha = part.certificates["tail"]["min_escape_ratio"]
        base = pt.tail_occupancy_check(P, part.tail, alpha=alpha, m=300, trials=30, seed=6)
        inflated = pt.tail_occupancy_check(P, part.tail, alpha=10 * alpha, m=300, trials=30, seed=6)
        assert inflated <= base
