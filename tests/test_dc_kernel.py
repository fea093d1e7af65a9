"""The coverage-radius DC kernel against plain-loop references.

The sweep reference walks each unselected anchor's agents one at a time
in distance order, keeps every selected center's distance to the grown
ball as an explicit prefix minimum, and counts coverage with the audits'
float test at every group end.  The fixed-level reference checks one
ball per anchor, at the end of the eps-chain of sorted distances that
holds the level's radius.  Neither shares code with the kernel.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from propaudit import (Instance, dc_violations, verify, verify_dc_mpjr_plus,
                       verify_fixed_ell_dc)
from propaudit.verify import _anchor_chunks, _dc_verdicts, _reach_radius

from conftest import random_case


def reference_dc_sweep(inst, X, gamma, eps):
    """Every violating (anchor, level, radius) in scan order, with the
    closed-ball coalition and the covered centers of each."""
    D = inst.dists().tolist()
    n, k = inst.n, inst.k
    found = []
    for c in range(inst.m):
        if c in X:
            continue
        agents = sorted(range(n), key=lambda j: D[j][c])
        reach = {x: math.inf for x in X}
        for i, j in enumerate(agents):
            for x in X:
                reach[x] = min(reach[x], D[j][x])
            s = D[j][c]
            if i + 1 < n and not D[agents[i + 1]][c] > s + eps:
                continue
            level = (i + 1) * k // n
            covered = {x for x in X if reach[x] <= gamma * s + eps}
            if len(covered) < level:
                coalition = {a for a in range(n) if D[a][c] <= s + eps}
                covered = {x for x in X
                           if min(D[a][x] for a in coalition) <= gamma * s + eps}
                found.append((c, level, s, coalition, covered))
    return found


def reference_fixed_ell(inst, X, ell, gamma, eps):
    """The first anchor, in index order, whose ball at the end of the chain
    holding the need-th smallest distance (each next distance within eps of
    the one before) covers fewer than ell centers, with its coalition
    (closed, widened by eps) and covered centers; None when there is none."""
    D = inst.dists().tolist()
    n, k = inst.n, inst.k
    need = -((-ell * n) // k)
    for c in range(inst.m):
        if c in X:
            continue
        by_dist = sorted(D[j][c] for j in range(n))
        i = need - 1
        while i + 1 < n and by_dist[i + 1] <= by_dist[i] + eps:
            i += 1
        radius = by_dist[i]
        coalition = {j for j in range(n) if D[j][c] <= radius + eps}
        covered = {x for x in X
                   if min(D[j][x] for j in coalition) <= gamma * radius + eps}
        if len(covered) < ell:
            return (c, ell, radius, coalition, covered)
    return None


def as_tuple(w):
    return (w.center, w.level, w.radius, set(w.coalition), set(w.covered))


def tied_case(rng):
    """Euclidean points on a small integer grid: many equal distances."""
    n = int(rng.integers(1, 13))
    m = int(rng.integers(1, 8))
    k = int(rng.integers(1, min(m, 4) + 1))
    inst = Instance.euclidean(rng.integers(0, 4, (n, 2)).astype(float),
                              rng.integers(0, 4, (m, 2)).astype(float), k)
    return inst, tuple(int(x) for x in rng.choice(m, k, replace=False))


def test_kernel_matches_reference_sweep(rng):
    for it in range(2100):
        inst, X = tied_case(rng) if it % 3 == 0 else random_case(rng, 12, 7, 4)
        X = tuple(sorted(X))
        pairs = [(gamma, eps) for gamma in (1.0, 1.5, 3.0) for eps in (0.0, 1e-9, 0.25)]
        if it % 3 == 0:             # grid chains of width 1 span level boundaries
            pairs.append((0.7, 1.0))
        for gamma, eps in pairs:
            expect = reference_dc_sweep(inst, X, gamma, eps)
            assert [as_tuple(w) for w in dc_violations(inst, X, gamma, eps)] == expect
            verdict = verify_dc_mpjr_plus(inst, X, gamma, eps)
            assert verdict.satisfied == (not expect)
            if expect:
                assert as_tuple(verdict.witness) == expect[0]


def test_fixed_ell_matches_reference(rng):
    cases = [tied_case(rng) if it % 3 == 0 else random_case(rng, 12, 7, 4)
             for it in range(600)]
    # larger instances split the anchors into several chunks
    for n, m, k, grid in ((1000, 60, 20, False), (600, 50, 10, True)):
        pts = (rng.integers(0, 12, (n + m, 2)).astype(float) if grid
               else rng.random((n + m, 2)))
        cases.append((Instance.euclidean(pts[:n], pts[n:], k),
                      tuple(int(x) for x in rng.choice(m, k, replace=False))))
    for inst, X in cases:
        X = tuple(sorted(X))
        levels = range(1, inst.k + 1) if inst.k <= 4 else (1, 2, inst.k)
        for gamma in (0.7, 1.0, 1.5, 3.0):
            for eps in (0.0, 1e-9, 0.25):
                for ell in levels:
                    expect = reference_fixed_ell(inst, X, ell, gamma, eps)
                    verdict = verify_fixed_ell_dc(inst, X, ell, gamma, eps)
                    assert verdict.satisfied == (expect is None)
                    if expect:
                        assert as_tuple(verdict.witness) == expect


def test_anchor_chunk_schedule():
    def sizes(count, cap):
        return [p.stop - p.start if p.stop <= count else count - p.start
                for p in _anchor_chunks(count, cap)]
    assert sizes(50, 16) == [1, 2, 4, 8, 16, 16, 3]
    assert sizes(50, 64) == [4, 8, 16, 22]
    assert sizes(5, 1) == [1] * 5
    assert sizes(0, 16) == []


def last_anchor_violates(rng, m):
    """1-D: ten agents near 0, ten near 100, both selected centers (0 and
    1) near 0, anchors 2..m-2 near 0 and anchor m-1 at 100.  Only the last
    anchor's ball of the ten far agents misses its level-1 center."""
    agents = np.concatenate([rng.random(10), 100 + rng.random(10)])[:, None]
    cands = np.concatenate([rng.random(m - 1), [100.0]])[:, None]
    return Instance.euclidean(agents, cands, 2), (0, 1)


def test_multi_chunk_sweeps_match_reference(monkeypatch, rng):
    """Chunk caps small enough that both scans cross every chunk size of
    the schedule, a full chunk and a short last one, with the first or
    only violation in the last chunk."""
    cases = [last_anchor_violates(rng, 52)]
    for grid in (False, True):
        pts = (rng.integers(0, 6, (70, 2)).astype(float) if grid else rng.random((70, 2)))
        cases.append((Instance.euclidean(pts[:30], pts[30:], 4),
                      tuple(sorted(int(x) for x in rng.choice(40, 4, replace=False)))))
    for inst, X in cases:
        for cap in (1, 3, 16):
            monkeypatch.setattr(verify, "_CHUNK_ELEMS", cap * inst.n)
            for gamma, eps in ((1.0, 0.0), (1.5, 0.25)):
                expect = reference_dc_sweep(inst, X, gamma, eps)
                assert [as_tuple(w) for w in dc_violations(inst, X, gamma, eps)] == expect
                verdict = verify_dc_mpjr_plus(inst, X, gamma, eps)
                assert verdict.satisfied == (not expect)
                if expect:
                    assert as_tuple(verdict.witness) == expect[0]
                for ell in range(1, inst.k + 1):
                    expect = reference_fixed_ell(inst, X, ell, gamma, eps)
                    verdict = verify_fixed_ell_dc(inst, X, ell, gamma, eps)
                    assert verdict.satisfied == (expect is None)
                    if expect:
                        assert as_tuple(verdict.witness) == expect
    inst, X = cases[0]
    assert [w.center for w in dc_violations(inst, X)] == [inst.m - 1]
    assert verify_fixed_ell_dc(inst, X, 1).witness.center == inst.m - 1


def test_batched_verdicts_match_sweep(monkeypatch, rng):
    """``_dc_verdicts`` gives ``verify_dc_mpjr_plus``'s verdict on 12,000+
    audits: uniform and integer-grid points, gamma below and above 1, k
    from 1 to m, and six selections per instance of at most 13 centers, so
    selections share centers."""
    audits = violated = 0
    for it in range(2000):
        n, m = int(rng.integers(1, 30)), int(rng.integers(1, 14))
        k = int(rng.integers(1, m + 1))
        pts = (rng.integers(0, 4, (n + m, 2)).astype(float) if it % 2
               else rng.random((n + m, 2)))
        inst = Instance.euclidean(pts[:n], pts[n:], k)
        gamma = (0.7, 1.0, 1.5, 3.0)[it % 4]
        sels = [tuple(sorted(int(x) for x in rng.choice(m, k, replace=False)))
                for _ in range(6)]
        expect = [verify_dc_mpjr_plus(inst, X, gamma).satisfied for X in sels]
        assert _dc_verdicts(inst, sels, gamma).tolist() == expect
        audits, violated = audits + len(sels), violated + expect.count(False)
    assert audits >= 10000 and 1000 <= violated <= audits - 1000
    # k = m leaves no unselected anchor; one agent; many rows across chunks
    full = Instance.euclidean(rng.random((5, 2)), rng.random((3, 2)), 3)
    assert _dc_verdicts(full, [(0, 1, 2)] * 2, 1.0).tolist() == [True, True]
    one = Instance.euclidean(rng.random((1, 2)), rng.random((6, 2)), 2)
    sels = [(a, b) for a in range(6) for b in range(a + 1, 6)]
    assert _dc_verdicts(one, sels, 1.0).tolist() == \
        [verify_dc_mpjr_plus(one, X).satisfied for X in sels]
    inst, _ = last_anchor_violates(rng, 12)
    sels = [(a, b) for a in range(12) for b in range(a + 1, 12)]
    expect = [verify_dc_mpjr_plus(inst, X).satisfied for X in sels]
    for cap in (1, 5, 1 << 16):
        monkeypatch.setattr(verify, "_CHUNK_ELEMS", cap)
        assert _dc_verdicts(inst, sels, 1.0).tolist() == expect
    assert 0 < expect.count(False) < len(sels)


def separated_clusters(rng, n, m, k, g):
    """A desk-size dc-sat layout: g clusters of n/g agents (order shuffled)
    10 apart, k/g cores within 0.3 of each cluster's hub (candidates
    0..k-1, core c at hub c % g) and m - k far candidates 15 or more from
    every hub.  The cores pass the DC audit at gamma 1; a selection that
    drops a hub's cores fails at them."""
    hubs = 10.0 * np.stack([np.arange(g), np.arange(g) % 2], axis=1)
    agents = hubs[rng.permutation(n) % g] + rng.uniform(-0.7, 0.7, (n, 2))
    cores = hubs[np.arange(k) % g] + rng.uniform(-0.3, 0.3, (k, 2))
    far = rng.uniform(0.0, 40.0, (m - k, 2)) + [0.0, 25.0]
    return Instance.euclidean(agents, np.vstack([cores, far]), k)


def spy_kernel(monkeypatch):
    """Record (agents, anchor rows) of every ``_coverage_radii`` call."""
    calls, kernel = [], verify._coverage_radii

    def spy(keys, rows):
        calls.append(keys.shape[::-1])
        return kernel(keys, rows)
    monkeypatch.setattr(verify, "_coverage_radii", spy)
    return calls


def chunk_rows(calls, n):
    """[anchors screened, anchors at the exact kernel] per chunk, from the
    calls of ``spy_kernel``: a screen call (fewer than n agents) opens each
    chunk."""
    chunks = []
    for agents, anchors in calls:
        if agents < n:
            chunks.append([anchors, 0])
        else:
            chunks[-1][1] += anchors
    return chunks


def screen_cases(rng):
    """(instance, selection, [(gamma, eps)]) with n >= 200: separated
    clusters with their cores and with one hub's cores swapped for far
    candidates; uneven Gaussian-like hubs with random selections; and
    points on an integer grid, where many distances tie, at eps > 0."""
    cases = []
    inst = separated_clusters(rng, 240, 24, 6, 3)
    sat = tuple(range(6))
    cases.append((inst, sat, [(1.0, 0.0), (1.5, 0.25), (0.7, 0.0)]))
    cases.append((inst, (1, 2, 4, 5, 22, 23), [(1.0, 0.0), (1.5, 0.25)]))
    hubs = 4 * rng.random((3, 2))
    pts = hubs[rng.choice(3, 230, p=[0.6, 0.3, 0.1])] + 0.5 * rng.random((230, 2))
    for _ in range(2):
        X = tuple(sorted(int(x) for x in rng.choice(30, 5, replace=False)))
        cases.append((Instance.euclidean(pts[:200], pts[200:], 5), X,
                      [(1.0, 0.0), (1.5, 0.1)]))
    grid = rng.integers(0, 8, (225, 2)).astype(float)
    X = tuple(sorted(int(x) for x in rng.choice(25, 4, replace=False)))
    cases.append((Instance.euclidean(grid[:200], grid[200:], 4), X,
                  [(1.0, 0.0), (1.0, 1.0), (0.7, 1.0), (1.5, 0.25)]))
    return cases


def test_screen_stride_keeps_every_output(monkeypatch, rng):
    """Every stride, from the exact screen (1) to one agent (n), lists the
    references' violations and witnesses, with chunks of at most 8
    anchors.  At stride 16, some chunk holds anchors the screen passes and
    anchors it flags, and some audit at eps = 0 sends more anchors to the
    exact kernel than have a violation: at eps = 0 those are the anchors
    the exact filter flags, so the screen flagged one the filter passes."""
    cases = screen_cases(rng)
    expect = {}
    for j, (inst, X, pairs) in enumerate(cases):
        for gamma, eps in pairs:
            expect[j, gamma, eps] = (
                reference_dc_sweep(inst, X, gamma, eps),
                [reference_fixed_ell(inst, X, ell, gamma, eps) for ell in range(1, inst.k + 1)])
    calls = spy_kernel(monkeypatch)
    mixed_chunks = extra_rows = 0
    for stride in (1, 2, 16, None):
        for j, (inst, X, pairs) in enumerate(cases):
            monkeypatch.setattr(verify, "_SCREEN_STRIDE", stride or inst.n)
            monkeypatch.setattr(verify, "_CHUNK_ELEMS", 8 * inst.n)
            for gamma, eps in pairs:
                sweep, fixed = expect[j, gamma, eps]
                calls.clear()
                assert [as_tuple(w) for w in dc_violations(inst, X, gamma, eps)] == sweep
                if stride == 16:
                    chunks = chunk_rows(calls, inst.n)
                    mixed_chunks += sum(0 < b < a for a, b in chunks)
                    if eps == 0:
                        extra_rows += sum(b for _, b in chunks) > len({c for c, *_ in sweep})
                verdict = verify_dc_mpjr_plus(inst, X, gamma, eps)
                assert verdict.satisfied == (not sweep)
                if sweep:
                    assert as_tuple(verdict.witness) == sweep[0]
                for ell, want in enumerate(fixed, 1):
                    verdict = verify_fixed_ell_dc(inst, X, ell, gamma, eps)
                    assert verdict.satisfied == (want is None)
                    if want:
                        assert as_tuple(verdict.witness) == want
    assert mixed_chunks and extra_rows
    assert any(sweep for sweep, _ in expect.values())
    assert any(not sweep for sweep, _ in expect.values())


def test_screen_pins_exact_kernel_work(monkeypatch):
    """Full-width ``_coverage_radii`` rows are the exact kernel's work.  A
    satisfied audit of separated clusters sends none of its 32 anchors
    there, over four chunks; a selection without hub 0's cores (0 and 4)
    stops in the first chunk, (0, 4, 8, 9), and sends only those two."""
    n, m, k = 1000, 40, 8
    inst = separated_clusters(np.random.default_rng(7), n, m, k, 4)
    calls = spy_kernel(monkeypatch)
    assert verify_dc_mpjr_plus(inst, tuple(range(k))).satisfied
    assert chunk_rows(calls, n) == [[4, 0], [8, 0], [16, 0], [4, 0]]
    calls.clear()
    X = (1, 2, 3, 5, 6, 7, m - 2, m - 1)
    verdict = verify_dc_mpjr_plus(inst, X)
    assert not verdict.satisfied and verdict.witness.center == 0
    assert chunk_rows(calls, n) == [[4, 2]]
    assert {0, 4} <= {w.center for w in dc_violations(inst, X)}


def test_coverage_radii_loops_over_its_shorter_side(monkeypatch, rng):
    """``_coverage_radii`` is bit-equal to a plain min-of-max reference
    with fewer, as many and more anchor rows than center rows, and with
    the center rows just at and just past ``_CHUNK_ELEMS`` entries.  Its
    ``np.maximum`` calls number min(anchors, centers) within that budget
    and one a center row past it."""
    cap = verify._CHUNK_ELEMS
    cases = [(3, 5, 40), (5, 5, 40), (9, 5, 40), (1, 20, 313),
             (3, 16, cap // 16), (3, 16, cap // 16 + 1), (40, 16, cap // 16)]
    for anchors, centers, agents in cases:
        keys = rng.integers(0, 50, (anchors, agents)).astype(float)
        rows = rng.integers(0, 50, (centers, agents)).astype(float)
        rows[0, ::7] = np.inf
        want = np.full((anchors, centers + 1), -np.inf)
        for a in range(anchors):
            for t in range(centers):
                want[a, t + 1] = min(max(u, v) for u, v in zip(keys[a].tolist(),
                                                               rows[t].tolist()))
        calls, maximum = [], np.maximum

        def counted(*args, **kwargs):
            calls.append(1)
            return maximum(*args, **kwargs)
        with monkeypatch.context() as patch:
            patch.setattr(np, "maximum", counted)
            got = verify._coverage_radii(keys, rows)
        assert got.tobytes() == want.tobytes()
        within = rows.size <= cap
        assert len(calls) == (min(anchors, centers) if within else centers)


def test_satisfied_audit_holds_no_distance_matrix():
    """A satisfied n=5000, m=100, k=20 audit computes every anchor's row
    but peaks (tracemalloc) below the n x m matrix's n * m * 8 bytes: 1.7 MB
    against 4 MB."""
    n, m, k = 5000, 100, 20
    inst = separated_clusters(np.random.default_rng(7), n, m, k, 5)
    tracemalloc.start()
    try:
        assert verify_dc_mpjr_plus(inst, tuple(range(k))).satisfied
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * m * 8


def test_dc_violations_lists_every_violating_radius():
    # one anchor (0) at the origin, agents at 1..4 on a line, both
    # selected centers far away: levels by prefix size are 0, 1, 1, 2,
    # so level 1 falls short at two radii and level 2 at one
    inst = Instance.euclidean([[1.0], [2.0], [3.0], [4.0]],
                              [[0.0], [100.0], [-100.0]], 2)
    wits = dc_violations(inst, (1, 2))
    assert [(w.center, w.level, w.radius) for w in wits] == \
        [(0, 1, 2.0), (0, 1, 3.0), (0, 2, 4.0)]
    assert wits[0].coalition == {0, 1} and wits[1].coalition == {0, 1, 2}
    assert verify_dc_mpjr_plus(inst, (1, 2)).witness == wits[0]


def test_tie_across_level_boundary_raises_witness_level():
    # anchor 0 at the origin, agents at distances 1, 2, 2, 2, both selected
    # centers far away: level 1 falls short at R_1 = 2 (mu_1 > R_1), but
    # the chain of 2s ends at the fourth radius, so the sweep's first
    # witness is at level 2
    inst = Instance.euclidean([[1.0], [2.0], [-2.0], [2.0]],
                              [[0.0], [100.0], [-100.0]], 2)
    X = (1, 2)
    for gamma, eps in ((1.0, 0.0), (1.5, 0.25)):
        expect = reference_dc_sweep(inst, X, gamma, eps)
        assert [as_tuple(w) for w in dc_violations(inst, X, gamma, eps)] == expect
        assert [w[:3] for w in expect] == [(0, 2, 2.0)]
        assert as_tuple(verify_dc_mpjr_plus(inst, X, gamma, eps).witness) == expect[0]
        for ell in (1, 2):
            expect = reference_fixed_ell(inst, X, ell, gamma, eps)
            assert expect[:3] == (0, ell, 2.0)
            assert as_tuple(verify_fixed_ell_dc(inst, X, ell, gamma, eps).witness) == expect


def test_unit_gamma_without_eps_reach_is_identity(rng):
    v = rng.random(50) * 10
    assert np.array_equal(_reach_radius(v, 1.0, 0.0), v)


def assert_smallest_passing(v, gamma, eps):
    r = _reach_radius(np.array([v]), gamma, eps)[0]
    with np.errstate(over="ignore"):
        assert gamma * r + eps >= v
        assert not gamma * np.nextafter(r, -np.inf) + eps >= v


@settings(max_examples=400, deadline=None)
@given(v=st.floats(0.0, 1e300),
       gamma=st.floats(1e-300, 1e300),
       eps=st.floats(0.0, 1e300))
def test_reach_radius_is_smallest_passing_float(v, gamma, eps):
    assert_smallest_passing(v, gamma, eps)


@pytest.mark.parametrize("v, gamma, eps", [
    (0.25 + 3 * 2.0 ** -54, 1.0, 0.25),     # eps absorbs gamma*r: gallop, bisect
    (1.0 + 2.0 ** -40, 1.5, 1.0),
    (1e308, 1e-300, 0.0),                   # no float passes but inf
    (5.0, 1e300, 1e-9),
    (3.0, 1.1, 0.1),
])
def test_reach_radius_hard_cases(v, gamma, eps):
    assert_smallest_passing(v, gamma, eps)
