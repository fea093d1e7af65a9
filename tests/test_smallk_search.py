"""The pruned exclusion-set search of the small-k audit.

For each size, ``_exclusion_sets`` must yield, in scan order, exactly the
exclusion sets Y where some unselected anchor c has `need` agents i with
gamma * max(d(i,c), R) + eps < u_i, where u_i is i's distance to the
nearest center outside Y and R is the need-th smallest distance to c.
The reference loops over every subset with that float test written out,
not through the audit's reach rows.  Every Y on which ``_alg1_scan``
finds a violation must be among them.

Before any set of a size is scanned, ``_root_bounds`` bounds per anchor
the agents any Y of that size can count: those with at most |Y| centers
x where gamma * max(d(i,c), R) + eps >= d(i,x), less those near the
(|Y|+1)-th most common such center.  Every size's row must match that
bound written out, however the sizes are grouped into passes, and the
audit that scans only the anchors it keeps must match a scan of every
set of every size over every anchor, witness included.

On instances built with anchor distances at and one float either side
of (d(i,x) - eps) / gamma, where a quotient test and the float test
disagree, the audit must match the oracle, imply the DC audit and give
witnesses that certify themselves.
"""

import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from propaudit import (Instance, SizeError, Verdict, oracle_mpjr_plus, run_sear,
                       verify_dc_mpjr_plus, verify_mpjr_plus_smallk)
from propaudit import verify
from propaudit.core import check_selection
from propaudit.gen import sample_selection
from propaudit.verify import (_alg1_scan, _exclusion_sets, _reach_radius,
                              _reach_rows, _root_bounds, _unselected, _witness)

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
    some anchor has need agents with gamma * max(d(i,c), R) + eps < u_i."""
    D = inst.dists()
    L = D[:, _unselected(inst, X)]
    need = -((-(size + 1) * inst.n) // inst.k)
    t = np.maximum(L, np.sort(L, axis=0)[need - 1])
    found = []
    for ypos in combinations(range(inst.k), size):
        rest = [X[p] for p in range(inst.k) if p not in ypos]
        u = D[:, rest].min(axis=1)
        if (gamma * t + eps < u[:, None]).sum(axis=0).max() >= need:
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
        rank = np.arange(1, n + 1)
        for gamma, eps in CASES:
            G = np.ascontiguousarray(_reach_radius(D[:, list(X)], gamma, eps).T)
            for size in range(k):
                need = -((-(size + 1) * n) // k)
                got = list(_exclusion_sets(Lt, G, size, need))
                assert got == reference_sets(inst, X, size, gamma, eps)
                checked += len(got)
                for ypos in combinations(range(k), size):
                    rest = [p for p in range(k) if p not in ypos]
                    if _alg1_scan(Lt, G, rank, need, rest):
                        assert sum(1 << p for p in ypos) in got
                        hits += 1
    assert checked > hits > 0


def wide_case(rng, k):
    """Instance at a given k with m - k in [1, 7] and n in [k, 3k), whose
    last candidates sit far from every agent, so sets near size k - 1 are
    kept as well as small ones."""
    n = int(rng.integers(k, 3 * k))
    m = k + int(rng.integers(1, 8))
    far = int(rng.integers(1, k // 2))
    if rng.random() < 0.5:
        agents = rng.integers(0, 5, size=(n, 2)).astype(float)
        near = rng.integers(0, 5, size=(m - far, 2)).astype(float)
    else:
        hubs = rng.random((3, 2))
        agents = hubs[rng.integers(0, 3, n)] + 0.1 * rng.random((n, 2))
        near = rng.random((m - far, 2))
    inst = Instance.euclidean(agents, np.vstack([near, 10 + 10 * rng.random((far, 2))]), k)
    if rng.random() < 0.5:
        return inst, run_sear(inst).selection
    return inst, sample_selection(m, k, rng)


def test_search_matches_plain_filter_at_large_k(rng):
    kept = {"small": 0, "large": 0}
    for j in range(12):
        k = int(rng.integers(40, 56))
        inst, sel = wide_case(rng, k)
        X = check_selection(inst, sel)
        D = inst.dists()
        Lt = np.ascontiguousarray(D[:, _unselected(inst, X)].T)
        gamma, eps = CASES[j % 3]
        G = _reach_rows(D, X, gamma, eps)
        for size in (0, 1, 2, k - 2, k - 1):
            got = list(_exclusion_sets(Lt, G, size, -((-(size + 1) * inst.n) // k)))
            assert got == reference_sets(inst, X, size, gamma, eps)
            kept["small" if size < 3 else "large"] += len(got)
    assert min(kept.values()) > 0


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


def boundary_case(rng, gamma, eps):
    """Random small instance and selection whose anchor distances sit at,
    or one float either side of, (d(i,x) - eps) / gamma for a selected x."""
    n, m = int(rng.integers(1, 7)), int(rng.integers(2, 6))
    k = int(rng.integers(1, m))
    X = tuple(sorted(rng.choice(m, size=k, replace=False).tolist()))
    D = rng.integers(1, 10, size=(n, m)).astype(float)
    for c in sorted(set(range(m)) - set(X)):
        for i in range(n):
            if rng.random() < 0.8:
                t = (D[i, rng.choice(X)] - eps) / gamma
                D[i, c] = np.nextafter(t, (-np.inf, t, np.inf)[rng.integers(3)])
    # the audits read only agent-candidate entries; the rest stay zero
    M = np.zeros((n + m, n + m))
    M[:n, n:], M[n:, :n] = D, D.T
    return Instance.explicit(M, n, k), X


def check_boundary_audit(inst, X, gamma, eps):
    got = verify_mpjr_plus_smallk(inst, X, gamma, eps=eps)
    if eps == 0.0:
        assert got.satisfied == oracle_mpjr_plus(inst, X, gamma).satisfied
    if got.satisfied:
        assert verify_dc_mpjr_plus(inst, X, gamma, eps=eps).satisfied
    else:
        w = got.witness
        assert len(w.covered) < w.level
        assert len(w.coalition) * inst.k >= w.level * inst.n
    return got


@pytest.mark.parametrize("gamma, u, s, satisfied", [
    (1.5, 5.0, 3.333333333333333, True),    # the float just below 5 / 1.5
    (1.1, 1.3, 1.3 / 1.1, False),
])
def test_reach_boundary_three_points(gamma, u, s, satisfied):
    inst = Instance.explicit([[0, s, u], [s, 0, u + s], [u, u + s, 0]], 1, 1)
    for eps in (0.0, 1e-9, 0.25):
        check_boundary_audit(inst, (1,), gamma, eps)
    assert verify_mpjr_plus_smallk(inst, (1,), gamma).satisfied == satisfied


def test_reach_boundary_fuzz(rng):
    satisfied = 0
    for j in range(2400):
        gamma, eps = (0.7, 1.1, 1.5, 3.0)[j % 4], (0.0, 1e-9, 0.25)[j // 4 % 3]
        inst, X = boundary_case(rng, gamma, eps)
        satisfied += check_boundary_audit(inst, X, gamma, eps).satisfied
    assert 0 < satisfied < 2400


ROOT_CASES = CASES + ((0.7, 0.0),)


def reference_root_bounds(D, X, outs, size, need, gamma, eps):
    """Per anchor c, (count, bound): count is the agents i with at most
    `size` selected centers x where gamma * max(d(i,c), R) + eps >= d(i,x),
    R the need-th smallest d(., c); where it reaches `need`, the bound is
    count less those of them near the (size+1)-th most common such center."""
    bounds = []
    for c in outs:
        t = np.maximum(D[:, c], np.sort(D[:, c])[need - 1])
        near = gamma * t[:, None] + eps >= D[:, list(X)]
        fit = near.sum(axis=1) <= size
        count = bound = int(fit.sum())
        if count >= need:
            bound -= sorted(near[fit].sum(axis=0).tolist())[-size - 1]
        bounds.append((count, bound))
    return bounds


def check_root_bounds(inst, X, gamma, eps):
    """Every size's row of ``_root_bounds``, size 0 included, group by
    group, against the reference; returns that reference per size and the
    group lengths."""
    D, n, k = inst.dists(), inst.n, inst.k
    outs = _unselected(inst, X)
    Lt = np.ascontiguousarray(D[:, outs].T)
    Ls = np.sort(Lt, axis=1)
    G = _reach_rows(D, X, gamma, eps)
    Gs = np.sort(G, axis=0)
    wants, lengths, size = [], [], 0
    while size < k:
        group = _root_bounds(Lt, Ls, G, Gs, size)
        assert group.shape[1] == len(outs) and 1 <= len(group) <= k - size
        lengths.append(len(group))
        for row in group:
            need = -((-(size + 1) * n) // k)
            want = reference_root_bounds(D, X, outs, size, need, gamma, eps)
            assert row.tolist() == [b for _, b in want]
            wants.append((need, want))
            size += 1
    return wants, lengths


def test_root_bounds_match_reference(rng):
    cases = [random_large_k_case(rng) for _ in range(60)]
    for j in range(120):
        gamma, eps = ROOT_CASES[j % 4]
        cases.append(boundary_case(rng, gamma, eps) + ((gamma, eps),))
    short = cut = kept = 0
    for case in cases:
        inst, sel = case[:2]
        X = check_selection(inst, sel)
        for gamma, eps in case[2:] or ROOT_CASES:
            for need, want in check_root_bounds(inst, X, gamma, eps)[0]:
                short += sum(0 < f < need for f, _ in want)
                cut += sum(f >= need > b for f, b in want)
                kept += sum(b >= need for _, b in want)
    assert min(short, cut, kept) > 0


@pytest.mark.parametrize("cap", [1, 40, 300])
def test_root_bounds_in_split_groups(rng, monkeypatch, cap):
    """A cap below one size's entries gives one size a group, and a cap of
    a few sizes' entries splits the sizes into groups of several."""
    monkeypatch.setattr(verify, "_BOUND_ELEMS", cap)
    lengths = set()
    for j in range(40):
        inst, sel = random_large_k_case(rng, max_n=12)
        X = check_selection(inst, sel)
        gamma, eps = ROOT_CASES[j % 4]
        lengths.update(check_root_bounds(inst, X, gamma, eps)[1])
        got = verify_mpjr_plus_smallk(inst, X, gamma, eps=eps).to_dict()
        want = scan_every_set(inst, X, gamma, eps).to_dict()
        got.pop("elapsed_ms"), want.pop("elapsed_ms")
        assert got == want
    assert (lengths == {1}) == (cap == 1)


def test_root_bounds_with_no_anchor_rows():
    """m = k: no anchor row, so one group takes every size."""
    inst = Instance.euclidean([[0.0, 0.0], [1.0, 0.0], [5.0, 5.0]],
                              [[0.0, 0.0], [5.0, 5.0], [9.0, 0.0]], 3)
    for gamma, eps in ROOT_CASES:
        assert check_root_bounds(inst, (0, 1, 2), gamma, eps)[1] == [3]
        assert verify_mpjr_plus_smallk(inst, (0, 1, 2), gamma, eps=eps).satisfied


def scan_every_set(inst, X, gamma, eps):
    """The small-k audit with no anchor bound and no search: every Y of
    every size through ``_alg1_scan`` over every anchor."""
    D, n, k = inst.dists(), inst.n, inst.k
    outs = _unselected(inst, X)
    if len(outs) == 0:
        return Verdict("mpjr+", gamma, True)
    Lt = np.ascontiguousarray(D[:, outs].T)
    G = _reach_rows(D, X, gamma, eps)
    rank = np.arange(1, n + 1)
    for size in range(k):
        need = -((-(size + 1) * n) // k)
        for ypos in combinations(range(k), size):
            hit = _alg1_scan(Lt, G, rank, need, [p for p in range(k) if p not in ypos])
            if hit:
                ci, radius, ug = hit
                c = outs[ci]
                coalition = (D[:, c] <= radius) & (ug > radius)
                return Verdict("mpjr+", gamma, False,
                               _witness(D[:, X].T, X, c, size + 1, radius, coalition,
                                        gamma, eps))
    return Verdict("mpjr+", gamma, True)


def hub_case(rng):
    """Agents around 1-3 hubs of uneven weight and candidates near them
    and far off; the selection is SEAR's or has one center near each hub
    and the rest at random, so a heavy hub is often short at level >= 2."""
    k = int(rng.integers(2, 11))
    g = int(rng.integers(1, 4))
    n = int(rng.integers(k, 50))
    m = k + int(rng.integers(1, 12))
    hubs = 4 * rng.random((g, 2))
    weight = rng.random(g) + 0.1
    home = rng.choice(g, size=n, p=weight / weight.sum())
    agents = hubs[home] + 0.3 * rng.random((n, 2))
    if rng.random() < 0.3:
        agents = np.round(4 * agents) / 4            # ties
    near = hubs[rng.integers(0, g, m)] + 0.3 * rng.random((m, 2))
    cands = np.where(rng.random((m, 1)) < 0.7, near, 4 * rng.random((m, 2)))
    inst = Instance.euclidean(agents, cands, k)
    if rng.random() < 0.4:
        return inst, run_sear(inst).selection
    first = {int(np.argmin(((cands - h) ** 2).sum(axis=1))) for h in hubs[:k]}
    rest = [c for c in rng.permutation(m).tolist() if c not in first]
    return inst, tuple(sorted(first | set(rest[:k - len(first)])))


def test_audit_matches_scan_of_every_set(rng):
    violated = high = 0
    for j in range(1200):
        inst, X = hub_case(rng)
        gamma, eps = ROOT_CASES[j % 4]
        got = verify_mpjr_plus_smallk(inst, X, gamma, eps=eps).to_dict()
        want = scan_every_set(inst, X, gamma, eps).to_dict()
        got.pop("elapsed_ms"), want.pop("elapsed_ms")
        assert got == want
        violated += not got["satisfied"]
        high += not got["satisfied"] and got["witness"]["level"] >= 2
    assert 100 < violated < 1100 and high >= 50


def test_audit_scratch_stays_small():
    """A satisfied audit walks every size; at n=5000, m=100, k=20 one size
    fills a bound pass, so the passes take one size each and the tracemalloc
    peak stays near one size's scratch (11.7 MB; with every size in one
    pass, 77 MB)."""
    rng = np.random.default_rng(7)
    n, m, k, g = 5000, 100, 20, 5
    hubs = 10.0 * np.stack([np.arange(g), np.arange(g) % 2], axis=1)
    agents = hubs[np.arange(n) % g] + rng.uniform(-0.7, 0.7, (n, 2))
    cores = hubs[np.arange(k) % g] + rng.uniform(-0.3, 0.3, (k, 2))
    far = rng.uniform(0.0, 40.0, (m - k, 2)) + [0.0, 25.0]
    inst = Instance.euclidean(agents, np.vstack([cores, far]), k)
    inst.dists()
    tracemalloc.start()
    try:
        assert verify_mpjr_plus_smallk(inst, tuple(range(k))).satisfied
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16e6
