from dataclasses import replace
from itertools import chain, combinations

import numpy as np
import pytest

from propaudit import (InputError, Instance, SizeError, oracle_dc, oracle_mpjr, oracle_mpjr_plus,
                       oracle_mpjr_plus_fixed_ell, run_sear, submodular_min_check,
                       verify_dc_mpjr_plus)
from propaudit import oracle
from propaudit.gen import fixture_incomparability, sample_selection

from conftest import group_approval_set, random_case, random_explicit


class TestOracleMpjr:
    def test_instance1_witness(self):
        inst, X = fixture_incomparability(1)
        v = oracle_mpjr(inst, X)
        assert not v.satisfied
        assert v.witness.radius == 1.0
        assert v.witness.level == 2
        assert v.witness.coalition == {0, 1, 2, 3}

    def test_instance2_satisfied(self):
        inst, X = fixture_incomparability(2)
        assert oracle_mpjr(inst, X).satisfied

    def test_full_selection(self, rng):
        inst = random_explicit(rng, 5, 3, 3)
        assert oracle_mpjr(inst, (0, 1, 2)).satisfied

    def test_cap(self, rng):
        inst = Instance.euclidean(rng.random((20, 2)), rng.random((3, 2)), 2)
        with pytest.raises(SizeError):
            oracle_mpjr(inst, (0, 1))

    @pytest.mark.parametrize("max_agents", [True, 2.5, 16.0, "16", None])
    def test_max_agents_must_be_an_integer(self, max_agents):
        inst, X = fixture_incomparability(2)
        with pytest.raises(InputError, match="max_agents must be an integer"):
            oracle_mpjr(inst, X, max_agents=max_agents)
        with pytest.raises(SizeError):
            oracle_mpjr(inst, X, max_agents=inst.n - 1)
        assert oracle_mpjr(inst, X, max_agents=np.int64(inst.n)).satisfied

    def test_wide_instance_under_reversed_labels(self, rng):
        """With 70 candidates the ballots at each radius span two 64-bit
        words; reversing the candidates' labels changes no verdict, and
        the witness only through the labels of its covered centers.  Half
        the selections are SEAR's, which satisfy mPJR."""
        verdicts = set()
        for _ in range(10):
            n, m = int(rng.integers(1, 9)), 70
            k = int(rng.integers(1, m))
            agents, cands = rng.random((n, 2)), rng.random((m, 2))
            inst = Instance.euclidean(agents, cands, k)
            X = run_sear(inst).selection if rng.random() < 0.5 else sample_selection(m, k, rng)
            a = oracle_mpjr(inst, X)
            b = oracle_mpjr(Instance.euclidean(agents, cands[::-1], k),
                            tuple(sorted(m - 1 - x for x in X)))
            assert a.satisfied == b.satisfied
            verdicts.add(a.satisfied)
            if not a.satisfied:
                w = b.witness
                assert a.witness == replace(w, covered=frozenset(m - 1 - x for x in w.covered))
        assert verdicts == {True, False}

    @pytest.mark.parametrize("audit", [
        oracle_mpjr_plus, lambda inst, X: oracle_mpjr_plus_fixed_ell(inst, X, 1)])
    def test_anchored_oracles_cap(self, rng, audit):
        n = oracle._MAX_AGENTS + 1
        inst = Instance.euclidean(rng.random((n, 2)), rng.random((3, 2)), 2)
        with pytest.raises(SizeError):
            audit(inst, (0, 1))


class TestOracleMpjrPlus:
    def test_instance2_anchor_z(self):
        inst, X = fixture_incomparability(2)
        v = oracle_mpjr_plus(inst, X)
        assert not v.satisfied
        assert v.witness.center == 0
        assert v.witness.coalition == {0, 1, 2, 3}

    def test_instance1_anchor_a(self):
        inst, X = fixture_incomparability(1)
        v = oracle_mpjr_plus(inst, X)
        assert not v.satisfied
        assert v.witness.center == 0         # candidate a
        assert v.witness.coalition == {0, 1, 2, 3}

    def test_single_agent_nearest_center(self, rng):
        for _ in range(20):
            inst = Instance.euclidean(rng.random((1, 2)), rng.random((4, 2)), 1)
            nearest = int(np.argmin(inst.dists()[0]))
            assert oracle_mpjr_plus(inst, (nearest,)).satisfied


class TestAnchoredOraclesAgree:
    @pytest.mark.parametrize("gamma", [0.7, 1.0, 1.5])
    def test_full_oracle_is_some_level(self, rng, gamma):
        """``oracle_mpjr_plus`` is violated exactly when
        ``oracle_mpjr_plus_fixed_ell`` is at some ell in 1..k, at its
        witness's level among them; that witness has fewer covered centers
        than its level, and a fixed-ell witness is a coalition of at least
        ell n / k agents, at level ell with `covered` None."""
        violated = 0
        for _ in range(150):
            inst, X = random_case(rng, max_k=4)
            full = oracle_mpjr_plus(inst, X, gamma)
            fixed = [oracle_mpjr_plus_fixed_ell(inst, X, ell, gamma)
                     for ell in range(1, inst.k + 1)]
            assert full.satisfied == all(v.satisfied for v in fixed)
            for ell, v in enumerate(fixed, 1):
                if not v.satisfied:
                    w = v.witness
                    assert (w.level, w.covered) == (ell, None)
                    assert len(w.coalition) * inst.k >= ell * inst.n
            if not full.satisfied:
                w = full.witness
                assert len(w.covered) < w.level and w.covered <= set(X)
                assert not fixed[w.level - 1].satisfied
                violated += 1
        assert 0 < violated < 150


class TestOracleDc:
    def test_instance2_pair(self):
        inst, X = fixture_incomparability(2)
        v = oracle_dc(inst, X)
        assert not v.satisfied
        assert (v.witness.center, v.witness.level) == (0, 2)

    def test_instance1_satisfied(self):
        inst, X = fixture_incomparability(1)
        assert oracle_dc(inst, X).satisfied

    def test_agrees_with_sweep_everywhere(self, rng):
        for _ in range(400):
            inst, X = random_case(rng)
            gamma = float(rng.choice([1.0, 1.5, 2.0]))
            assert oracle_dc(inst, X, gamma).satisfied == \
                verify_dc_mpjr_plus(inst, X, gamma).satisfied

    @pytest.mark.parametrize("eps", [1e-9, 0.25, 1.0])
    def test_eps_agrees_with_sweep(self, rng, eps):
        """With eps, each level is checked at the end of the eps-chain that
        holds its radius: the verdict is the sweep's on 1,000 cases per eps,
        a third each on uniform points, a 4 x 4 integer grid and small
        integer matrices, where chains of tied or near distances form."""
        differ = violated = 0
        for j in range(1000):
            n, m = int(rng.integers(1, 16)), int(rng.integers(1, 9))
            k = int(rng.integers(1, m + 1))
            if j % 3 == 2:
                inst = random_explicit(rng, n, m, k, max_dist=4)
            else:
                pts = (rng.integers(0, 4, (n + m, 2)).astype(float) if j % 3
                       else rng.random((n + m, 2)))
                inst = Instance.euclidean(pts[:n], pts[n:], k)
            X = sample_selection(m, k, rng)
            gamma = (1.0, 1.5, 0.7)[j // 3 % 3]
            got = oracle_dc(inst, X, gamma, eps).satisfied
            assert got == verify_dc_mpjr_plus(inst, X, gamma, eps).satisfied, (inst.to_dict(), X)
            differ += got != oracle_dc(inst, X, gamma).satisfied
            violated += not got
        assert violated >= 20 and (eps < 0.25 or differ >= 50)

    @pytest.mark.parametrize("eps", [float("nan"), float("inf"), -1.0, True, "0"])
    def test_bad_eps_rejected(self, eps):
        inst, X = fixture_incomparability(2)
        with pytest.raises(InputError):
            oracle_dc(inst, X, eps=eps)


def coverage_of(inst, X, members, r):
    if not members:
        return 0
    return len(set(X) & group_approval_set(inst, sorted(members), r))


class TestSubmodular:
    def test_instance2_minimum(self):
        inst, X = fixture_incomparability(2)
        rep = submodular_min_check(inst, X, 0, 1.0)
        assert (rep.coverage, rep.size) == (1, 4)
        assert rep.violation

    def test_empty_ball(self, rng):
        d = np.full((3, 3), 5.0)
        np.fill_diagonal(d, 0)
        inst = Instance.explicit(d, 1, 1)
        rep = submodular_min_check(inst, (0,), 1, 0.5)
        assert (rep.coverage, rep.size, rep.violation) == (0, 0, False)

    def test_minimum_matches_direct_enumeration(self, rng):
        for _ in range(60):
            inst, X = random_case(rng, max_n=6)
            c = int(rng.integers(0, inst.m))
            r = float(sorted(inst.dists()[:, c])[int(rng.integers(0, inst.n))])
            rep = submodular_min_check(inst, X, c, r)
            ground = [i for i in range(inst.n) if inst.dists()[i, c] <= r]
            best = min(
                (coverage_of(inst, X, S, r) * inst.n - len(S) * inst.k
                 for S in chain.from_iterable(
                     combinations(ground, sz) for sz in range(len(ground) + 1))),
                default=0)
            assert rep.coverage * inst.n - rep.size * inst.k == best
            assert rep.violation == (best <= -inst.n)

    def test_marginals_are_submodular(self, rng):
        # g(S + x) - g(S) >= g(T + x) - g(T) for S inside T, in exact integers
        for _ in range(80):
            inst, X = random_case(rng, max_n=7)
            c = int(rng.integers(0, inst.m))
            r = float(sorted(inst.dists()[:, c])[int(rng.integers(0, inst.n))])
            ground = [i for i in range(inst.n) if inst.dists()[i, c] <= r]
            if not ground:
                continue

            def g(S):
                return coverage_of(inst, X, S, r) * inst.n - len(S) * inst.k

            for _ in range(20):
                T = {i for i in ground if rng.random() < 0.6}
                S = {i for i in T if rng.random() < 0.6}
                rest = [i for i in ground if i not in T]
                if not rest:
                    continue
                x = rest[int(rng.integers(0, len(rest)))]
                assert g(S | {x}) - g(S) >= g(T | {x}) - g(T)

    def test_anchored_equivalence(self, rng):
        # some radius on the ladder flags the anchor iff the exhaustive
        # oracle finds a violation anchored there
        for _ in range(60):
            inst, X = random_case(rng, max_n=6)
            D = inst.dists()
            viol = oracle_mpjr_plus(inst, X)
            flagged = set()
            for c in range(inst.m):
                if c in set(X):
                    continue
                if any(submodular_min_check(inst, X, c, float(r)).violation
                       for r in np.unique(D[:, c])):
                    flagged.add(c)
            assert bool(flagged) == (not viol.satisfied)

    def test_ball_cap(self, rng):
        inst = Instance.euclidean(rng.random((25, 2)), rng.random((3, 2)), 2)
        with pytest.raises(SizeError):
            submodular_min_check(inst, (0, 1), 2, 10.0)

    @pytest.mark.parametrize("center, r", [
        (-1, 1.0), (4, 1.0), (0.0, 1.0), (True, 1.0), ("0", 1.0),
        (0, float("nan")), (0, float("inf")), (0, -0.5), (0, True), (0, "1"),
    ])
    def test_bad_center_or_radius_rejected(self, center, r):
        inst, X = fixture_incomparability(2)       # m = 4
        with pytest.raises(InputError):
            submodular_min_check(inst, X, center, r)

    def test_numpy_center_and_radius_accepted(self):
        inst, X = fixture_incomparability(2)
        assert submodular_min_check(inst, X, np.int64(0), np.float64(1.0)) == \
            submodular_min_check(inst, X, 0, 1.0)


class TestOracleGamma:
    @pytest.mark.parametrize("gamma", [float("nan"), float("inf"), -1.0, 0.0, True, "1"])
    def test_bad_gamma_rejected(self, gamma):
        inst, X = fixture_incomparability(2)
        with pytest.raises(InputError):
            oracle_dc(inst, X, gamma=gamma)
        with pytest.raises(InputError):
            oracle_mpjr_plus(inst, X, gamma=gamma)
        with pytest.raises(InputError):
            oracle_mpjr_plus_fixed_ell(inst, X, 1, gamma=gamma)
