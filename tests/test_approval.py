import json
from functools import reduce
from itertools import chain, combinations

import numpy as np
import pytest

from propaudit import (ApprovalInstance, BipartiteGraph, InfeasibleLevel,
                       InputError, SizeError, Witness, biclique_reduction,
                       find_balanced_biclique_bruteforce, pad_balanced,
                       verify_fixed_ell_pjr_plus_bruteforce,
                       verify_pjr_bruteforce, verify_pjr_plus_sweep)

from propaudit import approval
from propaudit.gen import sample_selection

from conftest import random_profile


def powerset(items):
    items = list(items)
    return chain.from_iterable(combinations(items, r) for r in range(len(items) + 1))


def pjr_by_definition(inst, X):
    """Second exhaustive enumerator, written straight off the axiom text."""
    Xset = set(X)
    for S in powerset(range(inst.n)):
        if not S:
            continue
        common = frozenset.intersection(*(inst.approvals[i] for i in S))
        union = frozenset.union(*(inst.approvals[i] for i in S))
        for ell in range(1, inst.k + 1):
            if (len(S) * inst.k >= ell * inst.n and len(common) >= ell
                    and len(Xset & union) < ell):
                return False
    return True


def pjr_plus_by_definition(inst, X):
    """Exhaustive anchored check: all c outside X, all S among approvers of c."""
    Xset = set(X)
    for c in range(inst.m):
        if c in Xset:
            continue
        approvers = [i for i in range(inst.n) if c in inst.approvals[i]]
        for S in powerset(approvers):
            if not S:
                continue
            union = frozenset.union(*(inst.approvals[i] for i in S))
            ell = (len(S) * inst.k) // inst.n
            if min(ell, inst.k) > len(Xset & union):
                return False
    return True


def pjr_plus_by_exclusion_sets(inst, X):
    """PJR+ by the plain 2^k loop: every exclusion set Y strictly inside X,
    by popcount then lexicographically, and per Y the unselected
    candidates by index; the first c approved by (|Y|+1) * q voters who
    approve nobody in X \\ Y is the witness, with those voters and, as
    `covered`, the set Y.  Returns (satisfied, witness dict or None)."""
    X = tuple(sorted(X))
    n, k = inst.n, inst.k
    A = inst.matrix()
    outs = [c for c in range(inst.m) if c not in X]
    for size in range(k):
        for Y in combinations(X, size):
            unserved = ~A[:, [c for c in X if c not in Y]].any(axis=1)
            if not unserved.any() or not outs:
                continue
            counts = A[np.ix_(unserved, outs)].sum(axis=0)
            hit = np.flatnonzero(counts * k >= (size + 1) * n)
            if hit.size:
                c = outs[int(hit[0])]
                voters = frozenset(np.flatnonzero(unserved & A[:, c]).tolist())
                return False, Witness(center=c, level=size + 1, radius=None,
                                      coalition=voters, covered=frozenset(Y)).to_dict()
    return True, None


def clustered_profile(rng, k):
    """Voter groups of uneven size, each approving its own block of
    unselected candidates and one committee member, plus sparse noise; a
    heavy group served by one member is short at level 2 or more."""
    m = k + int(rng.integers(k, 2 * k))
    n = int(rng.integers(2 * k, 4 * k))
    weight = rng.random(k) + 0.2 * (rng.random() < 0.5)
    group = rng.choice(k, size=n, p=weight / weight.sum())
    blocks = np.array_split(np.arange(k, m), k)
    noise = rng.random((n, m)) < 0.03
    approvals = [{int(group[i])} | set(blocks[group[i]].tolist())
                 | set(np.flatnonzero(noise[i]).tolist()) for i in range(n)]
    return ApprovalInstance(approvals, m, k), tuple(range(k))


def instance1_profile():
    """Distance-1 candidate sets of the first incomparability fixture, read
    as ballots (candidates a, b, x1, x2, x3)."""
    rows = [{0, 1, 2}] * 4 + [{0, 1, 3}, {0, 1, 4}]
    return ApprovalInstance(rows, 5, 3)


class TestFromDict:
    BASE = {"voters": 2, "candidates": 2, "approvals": [[0], [1]], "k": 1}

    def test_round_trip(self):
        inst = ApprovalInstance.from_dict(self.BASE)
        assert ApprovalInstance.from_dict(inst.to_dict()) == inst

    @pytest.mark.parametrize("change", [
        {"k": 1.7}, {"k": True}, {"k": "1"}, {"candidates": 2.0},
        {"candidates": "2"}, {"approvals": [[0.5], [1]]}, {"approvals": 3},
    ])
    def test_rejects_non_integers(self, change):
        with pytest.raises(InputError):
            ApprovalInstance.from_dict(dict(self.BASE, **change))

    @pytest.mark.parametrize("voters", [5, 1, 0, 2.0, True, "2", None])
    def test_rejects_a_voter_count_that_is_not_the_ballots(self, voters):
        with pytest.raises(InputError, match="approval sets"):
            ApprovalInstance.from_dict(dict(self.BASE, voters=voters))

    def test_voter_count_is_optional(self):
        data = {key: val for key, val in self.BASE.items() if key != "voters"}
        assert ApprovalInstance.from_dict(data) == ApprovalInstance.from_dict(self.BASE)

    @pytest.mark.parametrize("approvals, m, k", [
        ([[0.7], [True, 1.2]], 2, 1.9), ([[0], [1]], 2, 1.0), ([[0], [1]], 2.0, 1),
        ([[0], [True]], 2, 1), ([[0], [1.0]], 2, 1),
    ])
    def test_every_construction_path_rejects_non_integers(self, approvals, m, k):
        with pytest.raises(InputError):
            ApprovalInstance(approvals, m, k)

    def test_numpy_integers_stored_as_int(self):
        inst = ApprovalInstance([np.array([0, 1]), [np.int64(1)]],
                                np.int64(2), np.int32(1))
        assert inst == ApprovalInstance([[0, 1], [1]], 2, 1)
        assert json.loads(json.dumps(inst.to_dict())) == inst.to_dict()


class TestCommitteeCheck:
    """Committees pass the metric selection check: no coercion."""

    VERIFIERS = (verify_pjr_plus_sweep, verify_pjr_bruteforce,
                 lambda inst, X: verify_fixed_ell_pjr_plus_bruteforce(inst, X, 1))

    @pytest.mark.parametrize("verify", VERIFIERS)
    @pytest.mark.parametrize("committee", [(0, 0, 1), (0.9, 1.2), (True, 2), ("0", "1")])
    def test_rejects_coercible_committees(self, verify, committee):
        inst = ApprovalInstance([[0], [1], [0, 1], [2]], 3, 2)
        with pytest.raises(InputError):
            verify(inst, committee)

    @pytest.mark.parametrize("verify", VERIFIERS)
    def test_accepts_numpy_integers(self, verify):
        inst = ApprovalInstance([[0], [1], [0, 1], [2]], 3, 2)
        a, b = verify(inst, np.array([1, 0])), verify(inst, (0, 1))
        assert (a.satisfied, a.witness) == (b.satisfied, b.witness)


class TestPjrBruteforce:
    def test_instance1_profile_violated(self):
        v = verify_pjr_bruteforce(instance1_profile(), (2, 3, 4))
        assert not v.satisfied
        assert v.witness.level == 2
        assert v.witness.coalition == {0, 1, 2, 3}

    def test_full_committee_satisfied(self, rng):
        for _ in range(20):
            inst = random_profile(rng)
            full = ApprovalInstance(inst.approvals, inst.m, inst.m)
            assert verify_pjr_bruteforce(full, tuple(range(inst.m))).satisfied

    def test_agrees_with_second_enumerator(self, rng):
        for _ in range(300):
            inst = random_profile(rng)
            X = tuple(sorted(rng.choice(inst.m, size=inst.k, replace=False).tolist()))
            got = verify_pjr_bruteforce(inst, X).satisfied
            assert got == pjr_by_definition(inst, X)

    def test_cap(self):
        inst = ApprovalInstance([{0}] * 20, 1, 1)
        with pytest.raises(SizeError):
            verify_pjr_bruteforce(inst, (0,))


def wide_profile(rng, m):
    """Ballots of 1-8 voters over m candidates, each approving a candidate
    with probability 0.1, 0.5 or 0.9, and a uniform random committee of
    k in [1, m)."""
    n, k = int(rng.integers(1, 9)), int(rng.integers(1, m))
    p = rng.choice([0.1, 0.5, 0.9])
    approvals = [np.flatnonzero(rng.random(m) < p).tolist() for _ in range(n)]
    return ApprovalInstance(approvals, m, k), sample_selection(m, k, rng)


def reversed_labels(inst, X):
    """The profile and committee with candidate c relabelled m - 1 - c."""
    m = inst.m
    return (ApprovalInstance([{m - 1 - c for c in a} for a in inst.approvals], m, inst.k),
            tuple(sorted(m - 1 - x for x in X)))


class TestWideBallots:
    """The brute forces pack ballots into 64-bit words, so profiles of one
    to three words must read the same as the definition, and as the same
    profile with its candidates relabelled in reverse."""

    @pytest.mark.parametrize("m", [63, 64, 65, 130])
    def test_pjr_matches_definition(self, rng, m):
        verdicts = set()
        for _ in range(12):
            inst, X = wide_profile(rng, m)
            got = verify_pjr_bruteforce(inst, X).satisfied
            assert got == pjr_by_definition(inst, X)
            verdicts.add(got)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("m", [63, 64, 65, 130])
    def test_fixed_ell_pjr_plus_under_reversed_labels(self, rng, m):
        """Voters keep their labels, so at one center both sides pick the
        same first coalition by bit mask, and the witnesses agree once
        mapped.  The scan by center index meets the violated centers in
        opposite orders, so each profile is also run with the approvals of
        one unselected candidate kept and every other's removed, where
        both sides must pick that center: the first witness's center at
        the lowest violated level, or a random one."""
        for _ in range(4):
            inst, X = wide_profile(rng, m)
            keep = int(rng.choice([c for c in range(m) if c not in X]))
            for ell in range(1, inst.k + 1):
                v = verify_fixed_ell_pjr_plus_bruteforce(inst, X, ell)
                if not v.satisfied:
                    keep = v.witness.center
                    break
            alone = ApprovalInstance([{c for c in a if c in X or c == keep}
                                      for a in inst.approvals], m, inst.k)
            for profile in (inst, alone):
                self.check_reversed(profile, X, profile is alone)

    @staticmethod
    def check_reversed(inst, X, one_center):
        rev, Xr = reversed_labels(inst, X)
        n, m, k = inst.n, inst.m, inst.k
        for ell in range(1, k + 1):
            a = verify_fixed_ell_pjr_plus_bruteforce(inst, X, ell)
            b = verify_fixed_ell_pjr_plus_bruteforce(rev, Xr, ell)
            assert a.satisfied == b.satisfied
            if a.satisfied:
                continue
            wb = Witness(center=m - 1 - b.witness.center, level=b.witness.level,
                         coalition=b.witness.coalition,
                         covered=frozenset(m - 1 - x for x in b.witness.covered))
            assert a.witness.center <= wb.center
            for w in (a.witness, wb):
                assert w.center not in X and w.level == ell
                assert len(w.coalition) * k >= ell * n
                assert all(w.center in inst.approvals[i] for i in w.coalition)
                union = frozenset.union(*(inst.approvals[i] for i in w.coalition))
                assert w.covered == union & set(X) and len(w.covered) < ell
            if one_center or a.witness.center == wb.center:
                assert a.witness == wb


@pytest.mark.parametrize("op, start, draw", [
    (np.minimum, np.inf, lambda rng, shape: rng.random(shape)),
    (np.maximum, -np.inf, lambda rng, shape: rng.random(shape)),
    (np.logical_or, False, lambda rng, shape: rng.random(shape) < 0.3),
    (np.bitwise_and, ~np.uint64(0),
     lambda rng, shape: rng.integers(0, 1 << 64, shape, dtype=np.uint64, endpoint=False)
     | rng.integers(0, 1 << 64, shape, dtype=np.uint64, endpoint=False)),
], ids=["min", "max", "or", "and-words"])
@pytest.mark.parametrize("tail", [(), (3,), (2, 2)], ids=["1d", "2d", "3d"])
def test_subset_fold_reduces_each_subsets_members(rng, op, start, draw, tail):
    """fold[S] is `start` combined with S's member rows, for rows of any shape."""
    for n in range(11):
        rows = draw(rng, (n,) + tail)
        fold = approval._subset_fold(rows, start, op)
        assert fold.shape == (1 << n,) + tail and fold.dtype == rows.dtype
        first = np.full(tail, start, dtype=rows.dtype)
        for s in range(1 << n):
            want = reduce(op, (rows[i] for i in range(n) if s >> i & 1), first)
            assert np.array_equal(fold[s], want)


class TestCaps:
    """Each exhaustive routine raises SizeError one past its fixed cap."""

    def test_pjr_plus_sweep(self):
        k = 25
        inst = ApprovalInstance([[0]], k, k)
        with pytest.raises(SizeError):
            verify_pjr_plus_sweep(inst, tuple(range(k)))

    def test_fixed_ell_bruteforce_approvers(self):
        voters = approval._MAX_VOTERS + 1
        inst = ApprovalInstance([[1]] * voters, 2, 1)
        with pytest.raises(SizeError):
            verify_fixed_ell_pjr_plus_bruteforce(inst, (0,), 1)

    @pytest.mark.parametrize("wide", ["left", "right"])
    def test_biclique_side(self, wide):
        side = approval._MAX_SIDE + 1
        sizes = (side, 1) if wide == "left" else (1, side)
        with pytest.raises(SizeError):
            find_balanced_biclique_bruteforce(BipartiteGraph(*sizes, []), 1)


class TestPjrPlusSweep:
    def test_instance1_profile_violated(self):
        assert not verify_pjr_plus_sweep(instance1_profile(), (2, 3, 4)).satisfied

    def test_everyone_approves_everything(self, rng):
        for _ in range(10):
            m = int(rng.integers(1, 6))
            k = int(rng.integers(1, m + 1))
            n = int(rng.integers(1, 7))
            inst = ApprovalInstance([set(range(m))] * n, m, k)
            X = tuple(range(k))
            assert verify_pjr_plus_sweep(inst, X).satisfied

    def test_agrees_with_exhaustive_oracle(self, rng):
        for _ in range(500):
            inst = random_profile(rng, max_n=10, max_m=8)
            if inst.k > 4:
                continue
            X = tuple(sorted(rng.choice(inst.m, size=inst.k, replace=False).tolist()))
            assert verify_pjr_plus_sweep(inst, X).satisfied == \
                pjr_plus_by_definition(inst, X)

    def test_matches_plain_exclusion_set_loop(self, rng):
        checked = violated = high = 0
        while checked < 5000:
            p = rng.uniform(0.05, 0.35) if checked % 2 else rng.uniform(0.55, 0.95)
            inst = random_profile(rng, max_n=15, max_m=11, p=p)
            if inst.k > 9:
                continue
            checked += 1
            X = rng.choice(inst.m, size=inst.k, replace=False).tolist()
            v = verify_pjr_plus_sweep(inst, X)
            got = (v.satisfied, v.witness.to_dict() if v.witness else None)
            assert got == pjr_plus_by_exclusion_sets(inst, X), (inst, X)
            violated += not v.satisfied
            high += not v.satisfied and v.witness.level >= 2
        assert violated >= 300 and high >= 100

    def test_matches_plain_exclusion_set_loop_at_larger_k(self, rng):
        violated = 0
        for k in (12, 13, 14, 12, 13, 14):
            inst, X = clustered_profile(rng, k)
            v = verify_pjr_plus_sweep(inst, X)
            got = (v.satisfied, v.witness.to_dict() if v.witness else None)
            assert got == pjr_plus_by_exclusion_sets(inst, X), (inst, X)
            violated += not v.satisfied
        assert 0 < violated < 6

    def test_strengthens_pjr(self, rng):
        for _ in range(300):
            inst = random_profile(rng)
            X = tuple(sorted(rng.choice(inst.m, size=inst.k, replace=False).tolist()))
            if verify_pjr_plus_sweep(inst, X).satisfied:
                assert verify_pjr_bruteforce(inst, X).satisfied


def k33():
    return BipartiteGraph(3, 3, [(u, w) for u in range(3) for w in range(3)])


class TestBicliqueReduction:
    def test_k33_t2_construction(self):
        inst, X, ell = biclique_reduction(k33(), 2)
        assert inst.n == 3 and inst.m == 4 and inst.k == 3 and ell == 2
        z = 3
        assert all(a == frozenset({z}) for a in inst.approvals)
        assert X == (0, 1, 2)

    def test_k33_t2_violated_at_level(self):
        inst, X, ell = biclique_reduction(k33(), 2)
        assert not verify_fixed_ell_pjr_plus_bruteforce(inst, X, ell).satisfied

    def test_edgeless_padded_satisfied(self):
        g = BipartiteGraph(3, 3, [])
        inst, X, ell = biclique_reduction(g, 2)
        assert verify_fixed_ell_pjr_plus_bruteforce(inst, X, ell).satisfied

    def test_t1_violation_iff_edge_exists(self, rng):
        for _ in range(30):
            nl, nr = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            edges = [(u, w) for u in range(nl) for w in range(nr)
                     if rng.random() < 0.3]
            g = BipartiteGraph(nl, nr, edges)
            inst, X, ell = biclique_reduction(g, 1)
            violated = not verify_fixed_ell_pjr_plus_bruteforce(inst, X, ell).satisfied
            assert violated == bool(edges)

    def test_reduction_tracks_biclique_search(self, rng):
        for _ in range(120):
            nl, nr = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            edges = [(u, w) for u in range(nl) for w in range(nr)
                     if rng.random() < 0.6]
            g = BipartiteGraph(nl, nr, edges)
            for t in range(1, min(nl, nr) + 1):
                inst, X, ell = biclique_reduction(g, t)
                padded, t1 = pad_balanced(g, t)
                assert ell == t1
                found = find_balanced_biclique_bruteforce(padded, t1)
                violated = not verify_fixed_ell_pjr_plus_bruteforce(inst, X, ell).satisfied
                assert violated == (found is not None)

    def test_padding_preserves_biclique(self, rng):
        for _ in range(80):
            nl, nr = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            edges = [(u, w) for u in range(nl) for w in range(nr)
                     if rng.random() < 0.5]
            g = BipartiteGraph(nl, nr, edges)
            for t in range(1, min(nl, nr) + 1):
                padded, t1 = pad_balanced(g, t)
                assert padded.n_left == padded.n_right == 2 * t1 - 1
                orig = find_balanced_biclique_bruteforce(g, t)
                lifted = find_balanced_biclique_bruteforce(padded, t1)
                assert (orig is not None) == (lifted is not None)


class TestFixedEll:
    def test_level_zero_disallowed(self):
        inst = instance1_profile()
        with pytest.raises(InfeasibleLevel):
            verify_fixed_ell_pjr_plus_bruteforce(inst, (2, 3, 4), 0)

    def test_level_must_be_an_integer_in_range(self):
        inst = instance1_profile()
        for ell in (1.0, True, inst.k + 1, "1"):
            with pytest.raises(InfeasibleLevel):
                verify_fixed_ell_pjr_plus_bruteforce(inst, (2, 3, 4), ell)

    def test_level_k_with_full_coverage(self):
        # X covers the union of every ballot, so no level can fail
        inst = ApprovalInstance([{0, 1}, {0, 2}], 3, 3)
        assert verify_fixed_ell_pjr_plus_bruteforce(inst, (0, 1, 2), 3).satisfied


class TestBicliqueBruteforce:
    @pytest.mark.parametrize("n_left, n_right, edges", [
        (2, 2, [(0.0, 1)]), (2, 2, [(0, True)]), (2.0, 2, []), (2, -1, []),
    ])
    def test_rejects_non_integer_graphs(self, n_left, n_right, edges):
        with pytest.raises(InputError):
            BipartiteGraph(n_left, n_right, edges)

    @pytest.mark.parametrize("t", [0, -1, 1.5, 2.0, True, "2"])
    def test_rejects_bad_size(self, t):
        with pytest.raises(InputError):
            find_balanced_biclique_bruteforce(k33(), t)
        with pytest.raises(InputError):
            pad_balanced(k33(), t)
        with pytest.raises(InputError):
            biclique_reduction(k33(), t)

    def test_numpy_endpoints_stored_as_int(self):
        g = BipartiteGraph(2, 1, [np.array([1, 0])])
        assert g == BipartiteGraph(2, 1, [(1, 0)])
        assert all(type(v) is int for e in g.edges for v in e)

    def test_complete_graph(self):
        assert find_balanced_biclique_bruteforce(k33(), 3) is not None

    def test_edgeless(self):
        g = BipartiteGraph(2, 2, [])
        assert find_balanced_biclique_bruteforce(g, 1) is None

    def test_path_has_no_2x2(self):
        g = BipartiteGraph(2, 1, [(0, 0), (1, 0)])
        assert find_balanced_biclique_bruteforce(g, 2) is None

    def test_matches_plain_enumeration(self, rng):
        for _ in range(60):
            nl, nr = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            edges = [(u, w) for u in range(nl) for w in range(nr)
                     if rng.random() < 0.5]
            g = BipartiteGraph(nl, nr, edges)
            adj = {u: {w for (a, w) in g.edges if a == u} for u in range(nl)}
            for t in range(1, min(nl, nr) + 1):
                expect = None
                for group in combinations(range(nl), t):
                    common = set.intersection(*(adj[u] for u in group))
                    if len(common) >= t:
                        expect = group
                        break
                got = find_balanced_biclique_bruteforce(g, t)
                assert (got is None) == (expect is None)
                if got is not None:
                    assert got[0] == expect
