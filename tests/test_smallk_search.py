"""The pruned exclusion-set search of the small-k audit.

For each size, ``_exclusion_sets`` must yield, in scan order, exactly the
exclusion sets Y where some unselected anchor c has `need` agents i with
max(d(i,c), R) < u_i / gamma, where u_i is i's distance to the nearest
center outside Y and R is the need-th smallest distance to c.  The
reference loops over every subset with the audit's float test.  Every Y
on which ``_alg1_scan`` finds a violation must be among them.
"""

from itertools import combinations

import numpy as np
import pytest

from propaudit import (Instance, SizeError, oracle_mpjr_plus, run_sear,
                       verify_mpjr_plus_smallk)
from propaudit.core import check_selection
from propaudit.gen import sample_selection
from propaudit.verify import _alg1_scan, _exclusion_sets, _unselected

CASES = ((1.0, 0.0), (1.5, 1e-9), (3.0, 0.25))


def random_large_k_case(rng, max_n=40):
    k = int(rng.integers(4, 10))
    m = int(rng.integers(k + 1, 16))
    n = int(rng.integers(k, max_n + 1))
    if rng.random() < 0.5:
        # integer grid: many exact distance ties
        agents = rng.integers(0, 5, size=(n, 2)).astype(float)
        cands = rng.integers(0, 5, size=(m, 2)).astype(float)
    else:
        hubs = rng.random((3, 2))
        agents = hubs[rng.integers(0, 3, n)] + 0.1 * rng.random((n, 2))
        cands = rng.random((m, 2))
    inst = Instance.euclidean(agents, cands, k)
    if rng.random() < 0.5:
        return inst, run_sear(inst).selection
    return inst, sample_selection(m, k, rng)


def reference_sets(inst, X, size, gamma, eps):
    """Bit masks of every Y with |Y| = size, in combinations order, where
    some anchor has need agents with max(d(i,c), R) < u_i / gamma."""
    D = inst.dists()
    L = D[:, _unselected(inst, X)]
    need = -((-(size + 1) * inst.n) // inst.k)
    t = np.maximum(L, np.sort(L, axis=0)[need - 1])
    found = []
    for ypos in combinations(range(inst.k), size):
        rest = [X[p] for p in range(inst.k) if p not in ypos]
        u = D[:, rest].min(axis=1)
        ug = u if (gamma == 1.0 and eps == 0.0) else (u - eps) / gamma
        if (t < ug[:, None]).sum(axis=0).max() >= need:
            found.append(sum(1 << p for p in ypos))
    return found


def test_search_matches_plain_filter(rng):
    checked = hits = 0
    for _ in range(150):
        inst, sel = random_large_k_case(rng)
        X = check_selection(inst, sel)
        n, k = inst.n, inst.k
        outs = _unselected(inst, X)
        D = inst.dists()
        Lt = np.ascontiguousarray(D[:, outs].T)
        DXt = np.ascontiguousarray(D[:, list(X)].T)
        rank = np.arange(1, n + 1)
        for gamma, eps in CASES:
            for size in range(k):
                got = list(_exclusion_sets(Lt, DXt, size, gamma, eps))
                assert got == reference_sets(inst, X, size, gamma, eps)
                checked += len(got)
                for ypos in combinations(range(k), size):
                    rest = [p for p in range(k) if p not in ypos]
                    if _alg1_scan(Lt, DXt, rank, n, k, size, rest, gamma, eps):
                        assert sum(1 << p for p in ypos) in got
                        hits += 1
    assert checked > hits > 0


def test_verdicts_match_oracle_at_larger_k(rng):
    for _ in range(120):
        inst, X = random_large_k_case(rng, max_n=12)
        for gamma in (1.0, 1.5):
            assert verify_mpjr_plus_smallk(inst, X, gamma).satisfied == \
                oracle_mpjr_plus(inst, X, gamma).satisfied


def test_mask_width_cap(rng):
    inst = Instance.euclidean(rng.random((2, 2)), rng.random((64, 2)), 63)
    with pytest.raises(SizeError):
        verify_mpjr_plus_smallk(inst, tuple(range(63)), max_k=100)
