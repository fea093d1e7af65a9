"""The pruned exclusion-set search of the small-k audit.

For each size, ``_exclusion_sets`` must yield, in scan order, exactly the
exclusion sets Y where some unselected anchor c has `need` agents i with
gamma * max(d(i,c), R) + eps < u_i, where u_i is i's distance to the
nearest center outside Y and R is the need-th smallest distance to c.
The reference loops over every subset with that float test written out,
not through the audit's reach rows.  Every Y on which a plain
live-interval scan (``plain_scan``) finds a violation must be among them.

``_live_hits``, the one live-interval kernel, must give the first anchor
and radius of that plain scan on every (set, anchor) pair.

Before any set of a size is scanned, ``_bound_table`` and
``_bound_counts`` bound per anchor the agents any Y of that size can
count: those with at most |Y| centers x where
gamma * max(d(i,c), R) + eps >= d(i,x), less those near the (|Y|+1)-th
most common such center.  Every size's row must match that bound written
out, however the search driver ``_smallk_hits`` groups the sizes into
passes, and the audit that scans only the anchors it keeps must match a
plain scan of every set of every size over every anchor, witness
included.  For a batch of selections over all m anchors, the driver must
give each selection the hit of its own audit.

On instances built with anchor distances at and one float either side
of (d(i,x) - eps) / gamma, where a quotient test and the float test
disagree, the audit must match the oracle, imply the DC audit and give
witnesses that certify themselves.
"""

import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from propaudit import (InputError, Instance, SizeError, Verdict, oracle_mpjr_plus, run_sear,
                       verify_dc_mpjr_plus, verify_mpjr_plus_smallk)
from propaudit import verify
from propaudit.core import check_selection
from propaudit.gen import sample_selection
from propaudit.verify import (_bound_counts, _bound_table, _exclusion_sets, _live_hits,
                              _reach_radius, _smallk_hits, _unselected, _witness)

CASES = ((1.0, 0.0), (1.5, 1e-9), (3.0, 0.25))


def plain_scan(Lt, u, need):
    """(row, radius) of the first anchor row of ``Lt`` where, at some
    radius r among its distances, at least `need` agents i have
    d(i, c) <= r < u_i, with the smallest such r; None if no row has one."""
    for row in np.flatnonzero((Lt < u).sum(axis=1) >= need):
        radii = np.unique(Lt[row])
        live = ((Lt[row] <= radii[:, None]) & (radii[:, None] < u)).sum(axis=1)
        if live.max() >= need:
            return int(row), float(radii[np.argmax(live >= need)])
    return None


def bound_rows(Lt, G):
    """(table row, bound row) per size from 0, from one ``_bound_table``
    and one ``_bound_counts`` of every size, for the selection whose reach
    rows are ``G``."""
    sizes = np.arange(len(G))
    T = _bound_table(Lt, np.sort(Lt, axis=1), len(G), sizes)
    return zip(T, _bound_counts(T, G[None], np.sort(G, axis=0)[None], sizes)[0])


def reach_of(G, y):
    """The reach row of the exclusion set y (a bit mask over G's rows)."""
    return G[[p for p in range(len(G)) if not y >> p & 1]].min(axis=0)


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
        for gamma, eps in CASES:
            G = np.ascontiguousarray(_reach_radius(D[:, list(X)], gamma, eps).T)
            for size, (T, _) in enumerate(bound_rows(Lt, G)):
                need = -((-(size + 1) * n) // k)
                got = list(_exclusion_sets(T, G, size, need))
                assert got == reference_sets(inst, X, size, gamma, eps)
                checked += len(got)
                for ypos in combinations(range(k), size):
                    y = sum(1 << p for p in ypos)
                    if plain_scan(Lt, reach_of(G, y), need):
                        assert y in got
                        hits += 1
    assert checked > hits > 0


@pytest.mark.parametrize("eps", [0.0, 0.25])
@pytest.mark.parametrize("gamma", [0.7, 1.0, 1.5])
def test_live_hits_match_plain_scan(rng, gamma, eps):
    """Per reach row, ``_live_hits`` gives the first anchor and radius of
    ``plain_scan`` over the anchors not skipped, on planar and integer-grid
    cases, with and without a skip mask, with no anchor row (m = k), and
    with an all-zero reach row that no anchor reaches."""
    near = counted = missed = 0
    for case in range(80):
        if case % 8 == 0:
            k = int(rng.integers(1, 5))
            inst = Instance.euclidean(rng.integers(0, 4, size=(int(rng.integers(k, 12)), 2)),
                                      rng.integers(0, 4, size=(k, 2)), k)
            sel = tuple(range(k))
        else:
            inst, sel = (hub_case, random_large_k_case)[case % 2](rng)
        X = check_selection(inst, sel)
        n, k = inst.n, inst.k
        Lt = inst.rows(_unselected(inst, X))
        G = _reach_radius(inst.rows(X), gamma, eps)
        size = int(rng.integers(0, k))
        need = -((-(size + 1) * n) // k)
        T = _bound_table(Lt, np.sort(Lt, axis=1), k, np.array([size]))[0]
        ys = [sum(1 << int(p) for p in rng.choice(k, size=size, replace=False))
              for _ in range(4)]
        # reach rows of sets, rows drawn from the distances themselves (ties
        # at u = d), and a row no anchor reaches
        values = np.unique(np.append(Lt, G))
        U = np.vstack([reach_of(G, y) for y in ys] + [rng.choice(values, size=(4, n)),
                                                      np.zeros((1, n))])
        skip = rng.random((len(U), len(Lt))) < 0.3 if case % 4 > 1 else None
        first, radius = _live_hits(T, U, need, skip)
        assert first.shape == radius.shape == (len(U),)
        for j, u in enumerate(U):
            keep = np.arange(len(Lt)) if skip is None else np.flatnonzero(~skip[j])
            want = plain_scan(Lt[keep], u, need)
            if want is None:
                assert first[j] == len(Lt) and np.isnan(radius[j])
                missed += j < len(U) - 1
                continue
            assert (first[j], radius[j]) == (keep[want[0]], want[1])
            if radius[j] == T[first[j]].min():
                near += 1
            else:
                counted += 1
    assert min(near, counted, missed) > 0


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
        G = _reach_radius(inst.rows(X), gamma, eps)
        tables = [T for T, _ in bound_rows(Lt, G)]
        for size in (0, 1, 2, k - 2, k - 1):
            got = list(_exclusion_sets(tables[size], G, size,
                                       -((-(size + 1) * inst.n) // k)))
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


@pytest.mark.parametrize("max_k", [True, 2.5, 3.0, "9", None])
def test_max_k_must_be_an_integer(max_k):
    inst = Instance.euclidean([[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [1.0, 0.0], [5.0, 5.0]], 2)
    with pytest.raises(InputError, match="max_k must be an integer"):
        verify_mpjr_plus_smallk(inst, (0, 1), max_k=max_k)
    with pytest.raises(SizeError):
        verify_mpjr_plus_smallk(inst, (0, 1), max_k=1)
    assert verify_mpjr_plus_smallk(inst, (0, 1), max_k=np.int64(2)).satisfied


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


def check_root_bounds(inst, X, gamma, eps, monkeypatch):
    """Every size's (table row, bound row), size 0 included, against the
    table max(d(i,c), R) and the reference bound: those of ``bound_rows``,
    and those the search driver builds in its groups of sizes from 1 (one
    ``_bound_table`` call each, after size 0's own), up to the group of
    its first hit.  Returns that reference per size and the lengths of the
    driver's ``_bound_table`` calls."""
    D, n, k = inst.dists(), inst.n, inst.k
    outs = _unselected(inst, X)
    Lt = np.ascontiguousarray(D[:, outs].T)
    G = _reach_radius(inst.rows(X), gamma, eps)
    lengths, groups, wants = [], [], []

    def counts(T, G, Gs, sizes):
        B = _bound_counts(T, G, Gs, sizes)
        groups.append((sizes, T, B[0]))
        return B

    monkeypatch.setattr(verify, "_bound_table",
                        lambda *args: lengths.append(len(args[3])) or _bound_table(*args))
    monkeypatch.setattr(verify, "_bound_counts", counts)
    _smallk_hits(Lt, G[None])
    groups.append((np.arange(k), *zip(*bound_rows(Lt, G))))
    for size in range(k):
        need = -((-(size + 1) * n) // k)
        wants.append((need, reference_root_bounds(D, X, outs, size, need, gamma, eps)))
    for sizes, tables, rows in groups:
        for size, table, row in zip(sizes, tables, rows):
            need, want = wants[size]
            assert row.shape == (len(outs),)
            assert table.tolist() == np.maximum(Lt, np.sort(Lt, axis=1)[:, need - 1:need]).tolist()
            assert row.tolist() == [b for _, b in want]
    built = [len(sizes) for sizes, _, _ in groups[:-1]]
    assert lengths[0] == 1 and lengths[1:] == built and min(lengths) >= 1
    starts = np.concatenate([[0]] + [g[0] for g in groups[:-1]])
    assert starts.tolist() == list(range(sum(lengths)))
    return wants, lengths


def test_root_bounds_match_reference(rng, monkeypatch):
    cases = [random_large_k_case(rng) for _ in range(60)]
    for j in range(120):
        gamma, eps = ROOT_CASES[j % 4]
        cases.append(boundary_case(rng, gamma, eps) + ((gamma, eps),))
    short = cut = kept = 0
    for case in cases:
        inst, sel = case[:2]
        X = check_selection(inst, sel)
        for gamma, eps in case[2:] or ROOT_CASES:
            for need, want in check_root_bounds(inst, X, gamma, eps, monkeypatch)[0]:
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
        lengths.update(check_root_bounds(inst, X, gamma, eps, monkeypatch)[1])
        got = verify_mpjr_plus_smallk(inst, X, gamma, eps=eps).to_dict()
        want = scan_every_set(inst, X, gamma, eps).to_dict()
        got.pop("elapsed_ms"), want.pop("elapsed_ms")
        assert got == want
    assert (lengths == {1}) == (cap == 1)


def test_root_bounds_with_no_anchor_rows(monkeypatch):
    """m = k: no anchor row, so after size 0 one group takes every size."""
    inst = Instance.euclidean([[0.0, 0.0], [1.0, 0.0], [5.0, 5.0]],
                              [[0.0, 0.0], [5.0, 5.0], [9.0, 0.0]], 3)
    for gamma, eps in ROOT_CASES:
        assert check_root_bounds(inst, (0, 1, 2), gamma, eps, monkeypatch)[1] == [1, 2]
        assert verify_mpjr_plus_smallk(inst, (0, 1, 2), gamma, eps=eps).satisfied


@pytest.mark.parametrize("gamma", [0.7, 1.0, 1.5])
def test_batched_bounds_match_root_bounds(rng, gamma):
    """``_bound_counts`` of a batch of selections, from one
    ``_bound_table`` of all m anchors, gives for each selection and size
    the (table row, bound row) of a batch of one (``bound_rows``) over
    that selection's unselected anchors."""
    kept = 0
    for _ in range(40):
        inst, _ = random_large_k_case(rng)
        m, k = inst.m, inst.k
        LA = inst.rows(np.arange(m))
        sizes = np.arange(k)
        T = _bound_table(LA, np.sort(LA, axis=1), k, sizes)
        sels = np.array([sample_selection(m, k, rng) for _ in range(5)])
        G = _reach_radius(LA, gamma, 0.0)[sels]
        B = _bound_counts(T, G, np.sort(G, axis=1), sizes)
        assert B.shape == (len(sels), k, m)
        for X, B_j in zip(sels, B):
            outs = _unselected(inst, X)
            G_j = _reach_radius(inst.rows(X), gamma, 0.0)
            for size, (table, row) in enumerate(bound_rows(inst.rows(outs), G_j)):
                assert table.tolist() == T[size, outs].tolist()
                assert row.tolist() == B_j[size, outs].tolist()
                kept += int((row > 0).sum())
    assert kept > 0


@pytest.mark.parametrize("cap", [1, 3000])
def test_batch_verdicts_in_split_bound_passes(rng, monkeypatch, cap):
    """A cap below one size's entries bounds one size of one selection a
    pass, and a cap of a few sizes' entries several selections a pass;
    the batch's verdicts stay the audit's."""
    monkeypatch.setattr(verify, "_BOUND_ELEMS", cap)
    violated = 0
    for j in range(60):
        inst, _ = random_large_k_case(rng, max_n=12)
        gamma = ROOT_CASES[j % 4][0]
        sels = [sample_selection(inst.m, inst.k, rng) for _ in range(6)]
        want = [verify_mpjr_plus_smallk(inst, X, gamma).satisfied for X in sels]
        assert verify._smallk_verdicts(inst, sels, gamma).tolist() == want
        violated += want.count(False)
    assert 0 < violated < 360


def scan_every_set(inst, X, gamma, eps):
    """The small-k audit with no anchor bound and no search: every Y of
    every size through ``plain_scan`` over every anchor."""
    D, n, k = inst.dists(), inst.n, inst.k
    outs = _unselected(inst, X)
    if len(outs) == 0:
        return Verdict("mpjr+", gamma, True)
    Lt = np.ascontiguousarray(D[:, outs].T)
    G = _reach_radius(inst.rows(X), gamma, eps)
    for size in range(k):
        need = -((-(size + 1) * n) // k)
        for ypos in combinations(range(k), size):
            u = reach_of(G, sum(1 << p for p in ypos))
            hit = plain_scan(Lt, u, need)
            if hit:
                ci, radius = hit
                c = outs[ci]
                coalition = (D[:, c] <= radius) & (u > radius)
                return Verdict("mpjr+", gamma, False,
                               _witness(D[:, X].T, X, c, size + 1, radius, coalition,
                                        gamma, eps))
    return Verdict("mpjr+", gamma, True)


def hub_case(rng, k_hi=11):
    """Agents around 1-3 hubs of uneven weight and candidates near them
    and far off, k in [2, k_hi); the selection is SEAR's or has one center
    near each hub and the rest at random, so a heavy hub is often short at
    level >= 2."""
    k = int(rng.integers(2, k_hi))
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


@pytest.mark.parametrize("cap", ["default", "three sizes", 1])
def test_batch_hits_match_audit_witness(rng, monkeypatch, cap):
    """For batches of selections at k up to 8, ``_smallk_hits`` over all m
    anchor rows, with each selection's own anchors in `skip`, gives each
    selection the witness of its audit mapped to anchors (center, level,
    radius, coalition) and the set Y of the audit's own search.  A cap of
    three sizes' entries (three selections a size-0 chunk, three sizes a
    group) or of 1 (one of each, one set a kernel call) splits the
    survivors across passes; k up to 8 reaches ``_exclusion_sets``."""
    searched, violated, deep = [], 0, 0
    monkeypatch.setattr(verify, "_exclusion_sets",
                        lambda *args: searched.append(args[2]) or _exclusion_sets(*args))
    for j in range(80):
        inst, X = hub_case(rng, k_hi=9)
        n, m, k = inst.n, inst.m, inst.k
        if cap != "default":
            monkeypatch.setattr(verify, "_BOUND_ELEMS", 1 if cap == 1 else 3 * m * n)
        gamma, eps = ROOT_CASES[j % 4]
        sels = np.array([sorted(X)] + [sample_selection(m, k, rng) for _ in range(5)])
        L = inst.rows(np.arange(m))
        skip = np.zeros((len(sels), m), dtype=bool)
        skip[np.arange(len(sels))[:, None], sels] = True
        hits = _smallk_hits(L, _reach_radius(L, gamma, eps)[sels], skip)
        assert len(hits) == len(sels)
        for X, hit in zip(sels, hits):
            want = verify_mpjr_plus_smallk(inst, X, gamma, eps=eps)
            assert (hit is None) == want.satisfied
            if hit is None:
                continue
            row, size, radius, coalition, y = hit
            w = want.witness
            assert (row, size + 1, radius) == (w.center, w.level, w.radius)
            assert frozenset(np.flatnonzero(coalition).tolist()) == w.coalition
            own = _smallk_hits(inst.rows(_unselected(inst, X)),
                               _reach_radius(inst.rows(X), gamma, eps)[None])[0]
            assert own[4] == y
            violated, deep = violated + 1, deep + (size >= 2)
    assert 0 < violated < 480 and deep > 0 and searched


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
