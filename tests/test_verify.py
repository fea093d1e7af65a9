import numpy as np
import pytest

from propaudit import (InfeasibleLevel, InputError, Instance, SizeError, Verdict,
                       dc_violations, oracle_dc, oracle_mpjr, oracle_mpjr_plus,
                       oracle_mpjr_plus_fixed_ell, submodular_min_check,
                       verify_dc_mpjr_plus, verify_fixed_ell_dc,
                       verify_mpjr_plus_smallk)
from propaudit.gen import fixture_incomparability, sample_selection

from conftest import random_case, random_explicit


class TestFixtureVerdicts:
    def test_instance1(self):
        inst, X = fixture_incomparability(1)
        assert verify_dc_mpjr_plus(inst, X).satisfied
        assert not oracle_mpjr(inst, X).satisfied
        assert not verify_mpjr_plus_smallk(inst, X).satisfied

    def test_instance2(self):
        inst, X = fixture_incomparability(2)
        v = verify_dc_mpjr_plus(inst, X)
        assert not v.satisfied
        assert (v.witness.center, v.witness.level, v.witness.radius) == (0, 2, 1.0)
        assert oracle_mpjr(inst, X).satisfied
        assert not verify_mpjr_plus_smallk(inst, X).satisfied

    def test_full_selection_trivially_satisfied(self, rng):
        d = np.abs(rng.random((7, 7)))
        d = (d + d.T) / 2
        np.fill_diagonal(d, 0)
        inst = Instance.explicit(d, 3, 4)
        X = (0, 1, 2, 3)
        assert verify_dc_mpjr_plus(inst, X).satisfied
        assert verify_mpjr_plus_smallk(inst, X).satisfied
        assert verify_fixed_ell_dc(inst, X, inst.k).satisfied


class TestFixedEllDc:
    def test_instance2_levels(self):
        inst, X = fixture_incomparability(2)
        assert not verify_fixed_ell_dc(inst, X, 2).satisfied
        assert verify_fixed_ell_dc(inst, X, 1).satisfied    # B(z,1) covers x1
        with pytest.raises(InfeasibleLevel):
            verify_fixed_ell_dc(inst, X, 0)

    def test_level_must_be_an_integer_in_range(self):
        inst, X = fixture_incomparability(2)
        for ell in (2.0, True, np.float64(1.0), inst.k + 1, -1, "1"):
            with pytest.raises(InfeasibleLevel):
                verify_fixed_ell_dc(inst, X, ell)
            with pytest.raises(InfeasibleLevel):
                oracle_mpjr_plus_fixed_ell(inst, X, ell)
        wit = verify_fixed_ell_dc(inst, X, np.int64(2)).witness
        assert wit == verify_fixed_ell_dc(inst, X, 2).witness
        assert type(wit.level) is int       # a numpy level is not JSON
        # the selection is checked first: a bad selection with a bad level
        # is the selection's error
        with pytest.raises(InputError, match="selection"):
            verify_fixed_ell_dc(inst, (0, 0, 1), inst.k + 1)

    def test_oracle_level_bounds(self, rng):
        # a full selection satisfies every level, so a SATISFIED verdict at
        # 0 or k+1 would be the oracle accepting a level it cannot check
        inst = random_explicit(rng, 4, 3, 3)
        for ell in (0, inst.k + 1):
            with pytest.raises(InfeasibleLevel):
                oracle_mpjr_plus_fixed_ell(inst, (0, 1, 2), ell)

    def test_matches_full_dc_scan(self, rng):
        # violated at some level iff the all-levels verifier rejects, at
        # eps = 0 and, on tied integer grids, at eps wide enough to chain radii
        cases = [(random_case(rng), (0.0,)) for _ in range(150)]
        cases += [(integer_grid_case(rng), (1e-9, 0.25, 0.5, 1.0)) for _ in range(150)]
        for (inst, X), epss in cases:
            for gamma in (0.7, 1.0, 1.5):
                for eps in epss:
                    per_level = [not verify_fixed_ell_dc(inst, X, ell, gamma, eps).satisfied
                                 for ell in range(1, inst.k + 1)]
                    assert any(per_level) == \
                        (not verify_dc_mpjr_plus(inst, X, gamma, eps).satisfied)

    def test_eps_chain_end(self):
        # the radii 0 and 1 of anchor 2 lie within eps = 1 of each other, so
        # level 1 is checked at the chain end 1, as the sweep checks it,
        # where both centers are within 1 + 1; at eps = 0 radius 0 falls short
        inst = Instance.euclidean([[1.0], [0.0]], [[3.0], [3.0], [1.0], [3.0]], 2)
        assert verify_dc_mpjr_plus(inst, (0, 1), eps=1.0).satisfied
        assert verify_fixed_ell_dc(inst, (0, 1), 1, eps=1.0).satisfied
        # anchor 2 passes the mu_1 > R_1 filter (R_1 = 0), and its walk
        # clears it at the chain end
        assert dc_violations(inst, (0, 1), eps=1.0) == []
        w = verify_fixed_ell_dc(inst, (0, 1), 1).witness
        assert (w.center, w.level, w.radius, w.coalition, w.covered) == (2, 1, 0.0, {0}, set())


class TestOracleEquivalence:
    def test_dc_matches_oracle(self, rng):
        for _ in range(400):
            inst, X = random_case(rng)
            assert verify_dc_mpjr_plus(inst, X).satisfied == \
                oracle_dc(inst, X).satisfied

    def test_smallk_matches_oracle(self, rng):
        for _ in range(400):
            inst, X = random_case(rng)
            assert verify_mpjr_plus_smallk(inst, X).satisfied == \
                oracle_mpjr_plus(inst, X).satisfied

    def test_dc_anchor_sets_match_oracle(self, rng):
        # all-witness mode agrees with the per-(anchor, level) oracle on
        # which anchors witness violations
        for _ in range(80):
            inst, X = random_case(rng)
            wits = dc_violations(inst, X)
            anchors = {w.center for w in wits}
            expect = set()
            for c in range(inst.m):
                if c in set(X):
                    continue
                dc = inst.dists()[:, c]
                for ell in range(1, inst.k + 1):
                    need = -((-ell * inst.n) // inst.k)
                    radius = np.sort(dc)[need - 1]
                    members = np.flatnonzero(dc <= radius)
                    reach = inst.dists()[np.ix_(members, list(X))].min(axis=0)
                    if int((reach <= radius).sum()) < ell:
                        expect.add(c)
                        break
            assert anchors == expect


class TestGammaBehaviour:
    def test_monotone_in_gamma(self, rng):
        for _ in range(200):
            inst, X = random_case(rng)
            for gamma in (1.0, 1.5, 2.0):
                if verify_dc_mpjr_plus(inst, X, gamma).satisfied:
                    assert verify_dc_mpjr_plus(inst, X, gamma + 0.5).satisfied
                if verify_mpjr_plus_smallk(inst, X, gamma).satisfied:
                    assert verify_mpjr_plus_smallk(inst, X, gamma + 0.5).satisfied

    def test_gamma_matches_oracle(self, rng):
        for _ in range(200):
            inst, X = random_case(rng)
            for gamma in (1.5, 2.0):
                assert verify_dc_mpjr_plus(inst, X, gamma).satisfied == \
                    oracle_dc(inst, X, gamma).satisfied
                assert verify_mpjr_plus_smallk(inst, X, gamma).satisfied == \
                    oracle_mpjr_plus(inst, X, gamma).satisfied

    def test_dc_relaxation_bounds_strict_audit(self, rng):
        for _ in range(200):
            inst, X = random_case(rng)
            for gamma in (1.0, 1.5, 2.0):
                if verify_dc_mpjr_plus(inst, X, gamma).satisfied:
                    assert verify_mpjr_plus_smallk(inst, X, gamma + 2.0).satisfied


class TestGammaValidation:
    @pytest.mark.parametrize("gamma", [0.0, -1.0, float("nan"), float("inf")])
    @pytest.mark.parametrize("audit", [
        lambda inst, X, g: verify_dc_mpjr_plus(inst, X, g),
        lambda inst, X, g: dc_violations(inst, X, g),
        lambda inst, X, g: verify_fixed_ell_dc(inst, X, 2, g),
        lambda inst, X, g: verify_mpjr_plus_smallk(inst, X, g),
    ], ids=["dc", "dc-all", "fixed-ell-dc", "smallk"])
    def test_rejects_gamma_not_finite_positive(self, audit, gamma):
        inst, X = fixture_incomparability(2)
        with pytest.raises(InputError):
            audit(inst, X, gamma)


class TestEpsValidation:
    @pytest.mark.parametrize("eps", [float("nan"), -0.5, float("inf")])
    @pytest.mark.parametrize("audit", [
        lambda inst, X, e: verify_dc_mpjr_plus(inst, X, eps=e),
        lambda inst, X, e: dc_violations(inst, X, eps=e),
        lambda inst, X, e: verify_fixed_ell_dc(inst, X, 2, eps=e),
        lambda inst, X, e: verify_mpjr_plus_smallk(inst, X, eps=e),
    ], ids=["dc", "dc-all", "fixed-ell-dc", "smallk"])
    def test_rejects_eps_not_finite_nonnegative(self, audit, eps):
        inst, X = fixture_incomparability(1)
        with pytest.raises(InputError):
            audit(inst, X, eps)


def outcome(result):
    """A verdict without its timing; other results as they are."""
    if isinstance(result, Verdict):
        return (result.satisfied, result.witness)
    return result


SELECTION_CHECKERS = {
    "dc": lambda inst, X: verify_dc_mpjr_plus(inst, X),
    "dc-all": lambda inst, X: dc_violations(inst, X),
    "fixed-ell-dc": lambda inst, X: verify_fixed_ell_dc(inst, X, 2),
    "smallk": lambda inst, X: verify_mpjr_plus_smallk(inst, X),
    "oracle-mpjr": lambda inst, X: oracle_mpjr(inst, X),
    "oracle-mpjr+": lambda inst, X: oracle_mpjr_plus(inst, X),
    "oracle-fixed-ell": lambda inst, X: oracle_mpjr_plus_fixed_ell(inst, X, 2),
    "oracle-dc": lambda inst, X: oracle_dc(inst, X),
    "submodular": lambda inst, X: submodular_min_check(inst, X, 0, 1.0),
}


class TestSelectionValidation:
    @pytest.mark.parametrize("selection", [
        (2.5, 3.5, 4.5), (2.0, 3, 4), (True, 3, 4), ("2", 3, 4), (None, 3, 4),
    ], ids=["fractions", "integral-float", "bool", "str", "none"])
    @pytest.mark.parametrize("name", SELECTION_CHECKERS)
    def test_rejects_entries_that_are_not_integers(self, name, selection):
        inst, _ = fixture_incomparability(1)
        with pytest.raises(InputError):
            SELECTION_CHECKERS[name](inst, selection)

    @pytest.mark.parametrize("name", SELECTION_CHECKERS)
    def test_numpy_integers_match_python_ints(self, name):
        inst, X = fixture_incomparability(1)
        as_np = tuple(np.array(X, dtype=np.int64))
        assert outcome(SELECTION_CHECKERS[name](inst, as_np)) == \
            outcome(SELECTION_CHECKERS[name](inst, X))


def integer_grid_case(rng):
    """Small integer distances: Euclidean points on a grid (squared
    distances are integers) or an explicit shortest-path matrix."""
    n, m = int(rng.integers(1, 9)), int(rng.integers(1, 7))
    k = int(rng.integers(1, min(m, 3) + 1))
    if rng.random() < 0.5:
        inst = Instance.euclidean(rng.integers(0, 5, (n, 2)).astype(float),
                                  rng.integers(0, 5, (m, 2)).astype(float), k)
    else:
        inst = random_explicit(rng, n, m, k)
    return inst, sample_selection(m, k, rng)


class TestEpsOnIntegerMetrics:
    """On integer-grid instances no comparison sits within 1e-9 of flipping
    (distances are integers or square roots of integers), so eps=1e-9 must
    give exactly the verdicts and witnesses of eps=0."""

    AUDITS = {
        "dc": lambda inst, X, g, e: [outcome(verify_dc_mpjr_plus(inst, X, g, e))],
        "dc-all": lambda inst, X, g, e: [(False, w) for w in dc_violations(inst, X, g, e)],
        "fixed-ell-dc": lambda inst, X, g, e: [
            outcome(verify_fixed_ell_dc(inst, X, ell, g, e)) for ell in range(1, inst.k + 1)],
        "smallk": lambda inst, X, g, e: [outcome(verify_mpjr_plus_smallk(inst, X, g, eps=e))],
    }

    @pytest.mark.parametrize("gamma", [1.0, 1.5])
    @pytest.mark.parametrize("name", AUDITS)
    def test_tiny_eps_matches_zero(self, rng, name, gamma):
        audit, violated = self.AUDITS[name], 0
        for _ in range(400):
            inst, X = integer_grid_case(rng)
            exact = audit(inst, X, gamma, 0.0)
            assert audit(inst, X, gamma, 1e-9) == exact
            violated += any(not satisfied for satisfied, _ in exact)
        assert violated > 0       # the draws reach violated verdicts too


def eps_audits(inst, X, gamma, eps):
    """Satisfied flags of the DC sweep, the small-k audit and every level
    of the fixed-level audit."""
    return ([verify_dc_mpjr_plus(inst, X, gamma, eps).satisfied,
             verify_mpjr_plus_smallk(inst, X, gamma, eps=eps).satisfied]
            + [verify_fixed_ell_dc(inst, X, ell, gamma, eps).satisfied
               for ell in range(1, inst.k + 1)])


class TestEpsMonotone:
    def test_audits_monotone_in_eps(self, rng):
        # a wider eps only widens every comparison: no audit may go from
        # satisfied back to violated
        flips = 0
        for it in range(150):
            inst, X = integer_grid_case(rng) if it % 2 else random_case(rng)
            for gamma in (1.0, 1.5):
                before = None
                for eps in (0.0, 1e-9, 0.1, 0.25, 0.5, 1.0, 2.0):
                    now = eps_audits(inst, X, gamma, eps)
                    if before is not None:
                        assert all(b <= a for b, a in zip(before, now))
                        flips += before != now
                    before = now
        assert flips > 0          # some verdicts do change with eps


class TestImplications:
    def test_chain(self, rng):
        for _ in range(300):
            inst, X = random_case(rng)
            if verify_mpjr_plus_smallk(inst, X).satisfied:
                assert verify_dc_mpjr_plus(inst, X).satisfied
                assert oracle_mpjr(inst, X).satisfied

    def test_smallk_implies_dc_with_eps(self, rng):
        # the small-k audit checks every coalition the DC audits check, with
        # the same reach rule, so its acceptance carries over at any eps
        satisfied = 0
        for it in range(200):
            inst, X = integer_grid_case(rng) if it % 2 else random_case(rng)
            for gamma in (1.0, 1.5):
                for eps in (0.0, 0.25, 1.0):
                    dc, smallk, *levels = eps_audits(inst, X, gamma, eps)
                    if smallk:
                        satisfied += 1
                        assert dc and all(levels)
        assert satisfied > 0


class TestCapsAndWitnesses:
    def test_smallk_cap(self, rng):
        inst = Instance.euclidean(rng.random((4, 2)), rng.random((30, 2)), 26)
        with pytest.raises(SizeError):
            verify_mpjr_plus_smallk(inst, tuple(range(26)), max_k=24)

    def test_witness_invariants(self, rng):
        for _ in range(150):
            inst, X = random_case(rng)
            for fn in (verify_dc_mpjr_plus, verify_mpjr_plus_smallk):
                v = fn(inst, X)
                if v.witness is None:
                    continue
                w = v.witness
                assert w.center not in set(X)
                assert 1 <= w.level <= inst.k
                assert len(w.coalition) * inst.k >= w.level * inst.n
                assert w.covered is not None and len(w.covered) < w.level

    def test_deterministic_witness(self, rng):
        for _ in range(60):
            inst, X = random_case(rng)
            a = verify_dc_mpjr_plus(inst, X)
            b = verify_dc_mpjr_plus(inst, X)
            if a.witness is not None:
                assert a.witness == b.witness
