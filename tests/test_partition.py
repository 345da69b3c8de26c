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
from mcident.errors import CertificationFailed, ChainTestError, DegenerateEmbedding

ALL6 = tuple(range(6))


class TestSpcccLP:
    def test_two_state_closed_form(self, rng):
        P = cp.random_reversible(2, rng)
        pi = cc.stationary_distribution(P).entries
        Q = pi[:, None] * P.entries
        lp = pt.solve_spccc_lp(P, [0, 1])
        assert lp.delta[0, 1] == pytest.approx(1.0 / (2 * pi[0] * pi[1]), rel=1e-9)
        assert lp.objective == pytest.approx((Q[0, 1] + Q[1, 0]) / (2 * pi[0] * pi[1]), rel=1e-9)

    def test_relaxation_soundness(self):
        for k in range(15):
            r = np.random.default_rng(300 + k)
            P = cp.random_reversible(6, r)
            lp = pt.solve_spccc_lp(P, ALL6)
            assert lp.objective <= mt.min_cut_metric_ratio(P, ALL6) + 1e-9

    def test_feasibility_invariants(self, rng):
        P = cp.random_reversible(6, rng)
        pi = cc.stationary_distribution(P).entries
        lp = pt.solve_spccc_lp(P, ALL6)
        dl = lp.delta
        assert np.abs(np.diag(dl)).max() == 0.0
        assert np.abs(dl - dl.T).max() == 0.0
        for i, j, k in itertools.permutations(range(6), 3):
            assert dl[i, j] <= dl[i, k] + dl[k, j] + 1e-7
        norm = float(np.einsum("i,j,ij->", pi, pi, dl))
        assert norm == pytest.approx(1.0, abs=1e-7)

    @pytest.mark.parametrize(
        "call",
        [
            lambda P: pt.solve_spccc_lp(P, range(3)),
            lambda P: pt.partition_states(P, beta=0.1, seed=0),
        ],
        ids=["solve_spccc_lp", "partition_states"],
    )
    def test_requires_reversible(self, call):
        with pytest.raises(ChainTestError, match="detailed balance violated"):
            call([[0, 1, 0], [0, 0, 1], [1, 0, 0]])

    def test_wide_pi_is_feasible(self):
        # a random walk whose pi spans about 1e11: on {0, 1, 2, 6}, where it
        # spans 1e3 below 4e-5, HiGHS called the LP posed on pi itself
        # infeasible, though a constant metric is always feasible
        upper = [[2e-8, 3e-11, 1e-8, 5e-12, 2e-13, 3e-12, 2e-9],
                 [4e-5, 3e-9, 7e-10, 3e-12, 8e-13, 2e-13],
                 [4e-7, 1e-9, 1e-12, 8e-11, 5e-11], [1, 2e-8, 9e-7, 4e-11],
                 [4e-10, 6e-8, 2e-9], [6e-9, 3e-14], [8e-6]]
        W = np.zeros((7, 7))
        for i, row in enumerate(upper):
            W[i, i:] = row
        W += np.triu(W, 1).T
        P = cc.TransitionMatrix(W / W.sum(axis=1, keepdims=True))
        I = [0, 1, 2, 6]
        lp = pt.solve_spccc_lp(P, I)
        assert lp.objective == pytest.approx(mt.min_cut_metric_ratio(P, I), rel=1e-6)
        norm = float(np.einsum("i,j,ij->", P.pi[I], P.pi[I], lp.delta))
        assert norm == pytest.approx(1.0, abs=1e-7)
        part = pt.partition_states(P, beta=0.03, seed=1)
        assert part.components == ((3, 4, 5), (0, 1, 2, 6)) and part.tail == ()
        assert part.certificates["certified"]

    def test_bad_subsets(self, rng):
        P = cp.random_reversible(4, rng)
        with pytest.raises(ChainTestError, match=r"need \|I\| >= 2"):
            pt.solve_spccc_lp(P, [0])


class TestBourgainEmbed:
    def test_zero_metric_collapses(self):
        lp = pt.MetricLP(I=(0, 1, 2), T=(), delta=np.zeros((3, 3)), objective=0.0)
        emb = pt.bourgain_embed(lp, seed=1)
        assert np.abs(emb - emb[0]).max() == 0.0

    def test_one_lipschitz(self, rng):
        P = cp.random_reversible(7, rng)
        lp = pt.solve_spccc_lp(P, range(7))
        emb = pt.bourgain_embed(lp, seed=5)
        for i in range(7):
            for j in range(7):
                l1 = np.abs(emb[i] - emb[j]).sum()
                assert l1 <= lp.delta[i, j] + 1e-9

    def test_distortion_audit(self):
        # measured distortion within 4 log|I| in at least 95% of seeds
        r = np.random.default_rng(8)
        P = cp.random_reversible(8, r)
        lp = pt.solve_spccc_lp(P, range(8))
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


def loop_round_to_cut(embedding, P, I):
    """Per-boundary reference for round_to_cut: each coordinate is swept at
    every strictly increasing value boundary, and each cut's ratio is summed
    directly over its block of Q + Q^T; the earliest (coordinate, boundary)
    wins on ties within 1e-15."""
    I_idx = np.asarray(sorted(I))
    pi_I = P.pi[I_idx]
    Q_I = (P.Q + P.Q.T)[np.ix_(I_idx, I_idx)]
    k = len(I_idx)
    best = None
    for cidx in range(embedding.shape[1]):
        vals = embedding[:, cidx]
        order = np.lexsort((np.arange(k), vals))
        for cut in np.flatnonzero(np.diff(vals[order]) > 0.0) + 1:
            left, right = order[:cut], order[cut:]
            ratio = Q_I[np.ix_(left, right)].sum() / (2.0 * pi_I[left].sum() * pi_I[right].sum())
            if best is None or ratio < best[0] - 1e-15:
                best = (ratio, left)
    return tuple(sorted(int(I_idx[i]) for i in best[1]))


class TestRoundToCut:
    def test_matches_loop_reference(self):
        # seeded LP embeddings of random chains and of chains whose cuts tie
        # (planted blocks, leaves, birth-death paths, uniform cycles), and
        # each embedding with its first coordinate repeated
        r = np.random.default_rng(83)
        chains = [cp.random_reversible(int(r.integers(4, 11)), r) for _ in range(12)]
        chains += [cp.planted_two_block((3, 4), r), cp.hub_and_leaves(2, 3, r), cp.birth_death(7, r),
                   cycle(6), cc.lazy_version(cycle(8), 0.5)]
        for P in chains:
            I = tuple(range(P.d))
            lp = pt.solve_spccc_lp(P, I)
            for seed in range(5):
                emb = pt.bourgain_embed(lp, seed)
                assert pt.round_to_cut(emb, P, I) == loop_round_to_cut(emb, P, I)
                twice = np.concatenate([emb[:, :1], emb], axis=1)
                assert pt.round_to_cut(twice, P, I) == loop_round_to_cut(twice, P, I)

    def test_earliest_coordinate_wins_a_tie(self):
        # a coordinate and its negation give complementary cuts of equal ratio;
        # the one listed first decides which side is returned
        P = cp.random_reversible(7, np.random.default_rng(5))
        I = tuple(range(7))
        emb = pt.bourgain_embed(pt.solve_spccc_lp(P, I), seed=3)
        x = emb[:, np.argmax(np.ptp(emb, axis=0))]
        S = pt.round_to_cut(x[:, None], P, I)
        assert pt.round_to_cut(-x[:, None], P, I) == tuple(sorted(set(I) - set(S)))
        for emb in (np.stack([x, -x], axis=1), np.stack([-x, x], axis=1)):
            assert pt.round_to_cut(emb, P, I) == loop_round_to_cut(emb, P, I) == pt.round_to_cut(emb[:, :1], P, I)

    def test_planted_blocks_recovered(self, rng):
        P = cp.planted_two_block((3, 3), rng)
        S = pt.find_comp(P, pt.solve_spccc_lp(P, ALL6), seed=11)
        assert set(S) in ({0, 1, 2}, {3, 4, 5})

    def test_returns_proper_subset(self, rng):
        P = cp.random_reversible(6, rng)
        lp = pt.solve_spccc_lp(P, ALL6)
        for seed in range(1000):
            S = pt.round_to_cut(pt.bourgain_embed(lp, seed), P, ALL6)
            assert 0 < len(S) < 6

    def test_degenerate_embedding_raises(self, rng):
        P = cp.random_reversible(3, rng)
        emb = np.zeros((3, 4))
        with pytest.raises(DegenerateEmbedding):
            pt.round_to_cut(emb, P, range(3))

    def test_approximation_factor(self):
        # sweep-cut ratio within 4 log d of the brute-force optimum on a
        # 95th percentile across seeded runs
        factors = []
        for k in range(60):
            r = np.random.default_rng(7000 + k)
            d = int(r.integers(4, 11))
            P = cp.random_reversible(d, r)
            I = tuple(range(d))
            S = pt.find_comp(P, pt.solve_spccc_lp(P, I), seed=k)
            factors.append(pt.cut_metric_ratio(P, S, I) / mt.min_cut_metric_ratio(P, I))
        assert float(np.quantile(factors, 0.95)) <= 4.0 * log(4)

    def test_deterministic_given_seed(self, rng):
        P = cp.random_reversible(6, rng)
        lp = pt.solve_spccc_lp(P, ALL6)
        a = pt.find_comp(P, lp, seed=21)
        b = pt.find_comp(P, lp, seed=21)
        assert a == b


def drifting_path(n, up, down):
    """Birth-death chain on a path with P(i, i+1) = up and P(i+1, i) = down,
    so that pi(i) falls like (up / down)^i."""
    P = np.diag(np.full(n - 1, up), 1) + np.diag(np.full(n - 1, down), -1)
    P[np.diag_indices(n)] = 1.0 - P.sum(axis=1)
    return cc.TransitionMatrix(P)


class TestFiedlerSweep:
    @pytest.mark.parametrize("h", [3, 5, 48])
    def test_planted_cut_is_one_block(self, h):
        # states relabelled, so that index order alone does not give the blocks
        perm = np.random.default_rng(h).permutation(2 * h)
        P = cc.TransitionMatrix(cp.planted_two_block((h, h), np.random.default_rng(0)).entries[np.ix_(perm, perm)])
        I = np.arange(2 * h)
        S, ratio = pt.fiedler_sweep(P, I)
        block = np.flatnonzero(perm < h)
        assert list(S) in (list(block), list(np.setdiff1d(I, block)))
        assert ratio == pytest.approx(pt.cut_metric_ratio(P, S, I), rel=0, abs=1e-12)
        if h <= 5:
            assert ratio == pytest.approx(mt.min_cut_metric_ratio(P, I), rel=1e-9)

    def test_best_prefix_of_right_eigenvector(self):
        # the right eigenvector of the restriction, from a general eig with no
        # symmetrization, ordered and swept prefix by prefix. On the drifting
        # paths, whose pi falls geometrically, the best prefix is not at the
        # eigenvector's sign change, and an order by sqrt(pi) * f loses it.
        r = np.random.default_rng(73)
        cases = [(drifting_path(8, 0.05, 0.3), np.arange(8)), (drifting_path(6, 0.05, 0.45), np.arange(6))]
        for k in range(30):
            d = int(r.integers(3, 11))
            cases.append((cp.random_reversible(d, r), np.sort(r.choice(d, size=int(r.integers(3, d + 1)), replace=False))))
        for P, I in cases:
            sub = P.entries[np.ix_(I, I)]
            sub[np.diag_indices(len(I))] += 1.0 - sub.sum(axis=1)
            w, V = np.linalg.eig(sub)
            f = V[:, np.argsort(w.real)[-2]].real
            order = np.lexsort((np.arange(len(I)), f))
            ratios = [pt.cut_metric_ratio(P, I[order[:j]], I) for j in range(1, len(I))]
            S, ratio = pt.fiedler_sweep(P, I)
            assert ratio == pytest.approx(min(ratios), rel=1e-9)
            best = np.sort(I[order[: int(np.argmin(ratios)) + 1]])
            assert list(S) in (list(best), list(np.setdiff1d(I, best)))

    def test_cheeger_sweep_bound(self):
        # the hard direction: the sweep cut's bottleneck ratio is at most
        # sqrt(2 (1 - lambda_2)), and no cut beats the exhaustive minimum
        r = np.random.default_rng(79)
        for k in range(30):
            d = int(r.integers(2, 10))
            P = cp.random_reversible(d, r)
            I = np.arange(d)
            S, ratio = pt.fiedler_sweep(P, I)
            rest = np.setdiff1d(I, S)
            phi = ratio * max(P.pi[S].sum(), P.pi[rest].sum())
            assert phi <= np.sqrt(4.0 * pt.spectral_phi_lower_bound(P, I)) + 1e-12
            assert ratio >= mt.min_cut_metric_ratio(P, I) - 1e-12


class TestPartitionStates:
    def test_planted_blocks(self, rng):
        P = cp.planted_two_block((3, 3), rng)
        part = pt.partition_states(P, beta=0.1, seed=1)
        assert set(map(frozenset, part.components)) == {frozenset({0, 1, 2}), frozenset({3, 4, 5})}
        assert part.tail == ()
        assert part.certificates["certified"]

    def test_complete_uniform_single_component(self):
        part = pt.partition_states(np.full((6, 6), 1 / 6), beta=0.1, seed=4)
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
        with pytest.raises(ChainTestError, match="beta=0.0 outside"):
            pt.partition_states(P, beta=0.0, seed=1)
        with pytest.raises(ChainTestError, match="beta=1.0 outside"):
            pt.partition_states(P, beta=1.0, seed=1)

    def test_requires_irreducible(self):
        with pytest.raises(ChainTestError, match="chain is not irreducible"):
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


def hand_partition(components, tail, beta=0.1):
    """A StatePartition built by hand, with the certificate fields _certify fills."""
    certificates = {
        "components": [{"states": list(S)} for S in components],
        "tail": {"states": list(tail), "min_escape_ratio": None},
        "splits": [],
        "certified": False,
    }
    return pt.StatePartition(components=tuple(components), tail=tuple(tail), beta=beta,
                             certificates=certificates)


class TestCertify:
    """_certify against hand-built partitions of a planted (3, 3) chain, whose
    blocks {0, 1, 2} and {3, 4, 5} are the components at beta 0.1."""

    @pytest.fixture
    def planted(self):
        P = cp.planted_two_block((3, 3), np.random.default_rng(0))
        return P, pt.C2 * 0.1 / log(6) ** 2, pt.C3 * 0.1 / log(6)

    def test_blocks_certify(self, planted):
        P, tau_comp, tau_tail = planted
        part = hand_partition([(0, 1, 2), (3, 4, 5)], ())
        pt._certify(part, P, tau_comp, tau_tail)
        assert part.certificates["certified"]
        assert set(part.components) == set(pt.partition_states(P, beta=0.1, seed=0).components)

    @pytest.mark.parametrize("components, tail", [
        ([(0, 1, 2), (3, 4)], ()),          # 5 is missing
        ([(0, 1, 2), (3, 4, 4)], ()),       # 4 twice in one component, 5 missing
        ([(0, 1, 2), (2, 3, 4)], ()),       # 2 in two components
        ([(0, 1, 2), (3, 4)], (4,)),        # 4 in a component and the tail
        ([(0, 1, 2), (3, 4, 5)], (5,)),     # 5 in a component and the tail
        ([(0, 1, 2), (3, 4, 6)], ()),       # 6 is out of range
        ([(0, 1, 2), (3, 4, -1)], ()),      # -1 is out of range
    ], ids=["missing", "duplicated", "components-overlap", "tail-overlap", "extra",
            "above-range", "negative"])
    def test_cover_failures(self, planted, components, tail):
        P, tau_comp, tau_tail = planted
        part = hand_partition(components, tail)
        with pytest.raises(CertificationFailed):
            pt._certify(part, P, tau_comp, tau_tail)
        assert not part.certificates["certified"]

    @pytest.mark.parametrize("components, tail, message", [
        ([(0, 1, 2, 3), (4, 5)], (), "internal mass"),     # 3 leaves its block
        ([(0, 1, 2, 3, 4, 5)], (), "min bottleneck ratio"),  # the planted cut
        ([(0, 1, 2)], (3, 4, 5), "tail escape ratio"),      # a block cannot be tail
    ])
    def test_guarantee_failures(self, planted, components, tail, message):
        P, tau_comp, tau_tail = planted
        part = hand_partition(components, tail)
        with pytest.raises(CertificationFailed, match=message):
            pt._certify(part, P, tau_comp, tau_tail)
        assert not part.certificates["certified"]

    @pytest.mark.parametrize("sizes, certified", [((1, 5), True), ((1, 12), False)])
    def test_singletons_take_the_common_path(self, sizes, certified):
        # a one-state block is declared like any expanding set: the same
        # components and tail with enumeration on and off, and its mass P[i, i]
        P = cp.planted_two_block(sizes, np.random.default_rng(0))
        on = pt.partition_states(P, beta=0.1, seed=0, certify=True)
        off = pt.partition_states(P, beta=0.1, seed=0, certify=False)
        assert on.certificates["certified"] is certified
        assert (0,) in on.components
        assert (on.components, on.tail) == (off.components, off.tail)
        for part in (on, off):
            for S, cert in zip(part.components, part.certificates["components"]):
                if len(S) == 1:
                    i = S[0]
                    assert abs(cert["internal_mass"] - P.entries[i, i]) <= 1e-15
                    assert cert["spectral_phi_lower_bound"] is None
                    assert cert["lp_phi_lower_bound"] is None


def cycle(d):
    """Simple random walk on a d-cycle: periodic for even d; lambda_2 is
    negative for d = 2 and 3."""
    P = np.zeros((d, d))
    for i in range(d):
        P[i, (i + 1) % d] += 0.5
        P[i, (i - 1) % d] += 0.5
    return cc.TransitionMatrix(P)


def no_lp(*args, **kwargs):
    raise AssertionError("cut LP solved")


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
        monkeypatch.setattr(pt, "solve_spccc_lp", no_lp)
        part = pt.partition_states(cp.random_reversible(d, np.random.default_rng(d)), beta=0.1, seed=0)
        assert part.components == (tuple(range(d)),) and part.tail == ()
        cert = part.certificates["components"][0]
        assert cert["lp_phi_lower_bound"] is None
        assert cert["spectral_phi_lower_bound"] >= part.certificates["component_threshold"]

    @pytest.mark.parametrize("half", [4, 12, 48])
    def test_split_solves_no_lp(self, half, monkeypatch):
        # the Fiedler sweep splits the planted blocks, beyond the brute-force
        # certification limit from half = 12 on
        monkeypatch.setattr(pt, "solve_spccc_lp", no_lp)
        P = cp.planted_two_block((half, half), np.random.default_rng(0))
        part = pt.partition_states(P, beta=0.1, seed=1)
        assert sorted(part.components) == [tuple(range(half)), tuple(range(half, 2 * half))]
        (split,) = part.certificates["splits"]
        assert split["by"] == "sweep"
        assert split["states"] in (list(range(half)), list(range(half, 2 * half)))
        assert split["bound"] < part.certificates["component_threshold"]
        for cert in part.certificates["components"]:
            assert cert["lp_phi_lower_bound"] is None
            assert cert["spectral_phi_lower_bound"] >= part.certificates["component_threshold"]
            if part.certificates["certified"]:
                assert cert["spectral_phi_lower_bound"] <= cert["min_phi_bruteforce"] + 1e-12

    def test_ladder_instances_solve_no_lp(self, monkeypatch):
        # the chains and betas of the benchmark's partition-ladder workload
        monkeypatch.setattr(pt, "solve_spccc_lp", no_lp)
        chains = [cp.random_reversible(d, np.random.default_rng(d)) for d in (8, 9, 10)]
        rng = np.random.default_rng(0)
        chains += [cp.planted_two_block((4, 4), rng), cp.hub_and_leaves(3, 4, rng), cp.birth_death(8, rng)]
        splits = 0
        for i, P in enumerate(chains):
            for k, beta in enumerate((0.05, 0.1, 0.2)):
                part = pt.partition_states(P, beta=beta, seed=10 * i + k)
                assert part.certificates["certified"]
                assert all(split["by"] == "sweep" for split in part.certificates["splits"])
                splits += len(part.certificates["splits"])
        assert splits > 0

    def test_lp_decides_when_sweep_misses(self, monkeypatch):
        # the leaves' 2e-4 edges make the sweep's cut too dense at beta 0.02,
        # and the LP bound then certifies the whole set
        calls = []
        solve = pt.solve_spccc_lp

        def counted(P, I):
            calls.append(tuple(int(i) for i in I))
            return solve(P, I)

        monkeypatch.setattr(pt, "solve_spccc_lp", counted)
        P = cp.hub_and_leaves(2, 2, np.random.default_rng(0))
        part = pt.partition_states(P, beta=0.02, seed=0)
        assert calls == [ALL6]
        certs = part.certificates
        assert certs["certified"] and part.components == (ALL6,) and certs["splits"] == []
        (cert,) = certs["components"]
        assert cert["spectral_phi_lower_bound"] < certs["component_threshold"] <= cert["lp_phi_lower_bound"]
        _, ratio = pt.fiedler_sweep(P, np.arange(6))
        assert P.pi.sum() * ratio / 2.0 >= certs["component_threshold"]

    @pytest.mark.parametrize("seed", range(10))
    def test_lp_splits_when_sweep_misses(self, seed):
        # a weighted 6-cycle at beta 0.33: on the whole set the spectral
        # bound is 24.5 % below tau_comp and the sweep's 11.6 % above, while
        # the LP's is 11.8 % below, so the first split is the LP's rounded
        # cut; which side of it the rounding names depends on the seed
        W = np.diag([0.98, 0.97, 0.34, 0.82, 0.56, 0.40])
        for i, w in enumerate([0.068, 0.0025, 0.0018, 0.00058, 0.023, 0.0016]):
            W[i, (i + 1) % 6] = W[(i + 1) % 6, i] = w
        part = pt.partition_states(cc.TransitionMatrix(W / W.sum(axis=1, keepdims=True)), 0.33, seed)
        certs = part.certificates
        first = certs["splits"][0]
        assert first["by"] == "lp" and first["bound"] < certs["component_threshold"]
        assert certs["certified"]
        assert part.components == ((0, 1, 2), (4, 5), (3,)) and part.tail == ()

    def test_partition_leaves_scipy_optimize_unloaded(self):
        # a certified partition and one that splits by sweep solve no LP, so
        # they load no scipy module at all, scipy.optimize included
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        code = (
            "import sys, numpy as np\n"
            "from mcident import corpus, partition\n"
            "partition.partition_states(corpus.random_reversible(8, np.random.default_rng(8)), beta=0.1, seed=0)\n"
            "P = corpus.planted_two_block((6, 6), np.random.default_rng(0))\n"
            "part = partition.partition_states(P, beta=0.1, seed=0)\n"
            "assert len(part.components) == 2\n"
            "assert [s['by'] for s in part.certificates['splits']] == ['sweep'], part.certificates['splits']\n"
            "print('scipy.optimize' in sys.modules, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        assert out.stdout.strip() == "False []"

    def test_rejects_seed_outside_range(self):
        P = cp.random_reversible(4, np.random.default_rng(4))
        # 1.5 would otherwise share the stream of 1, and True that of 1
        for seed in (-1, 2**64, 1.5, True, "7"):
            with pytest.raises(ChainTestError, match="seed"):
                pt.partition_states(P, beta=0.1, seed=seed)
        # numpy integers are integers
        assert pt.partition_states(P, 0.1, np.int64(7)) == pt.partition_states(P, 0.1, 7)


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
