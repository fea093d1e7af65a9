"""``Instance.rows``, the distance rows every audit reads.

A Euclidean instance computes the rows it is asked for from its
coordinates until ``dists()`` has run, and gathers them from the matrix
after; both must be bit-equal to ``dists()[:, cols].T``, and the audits
must give the verdicts and witnesses of the matrix path
(``_dc_scan`` over an n x m matrix) without building the matrix.  The
small-k audit and the experiment batches must give the same output from
either source and on the explicit twin.
"""

import numpy as np
import pytest

from propaudit import (Instance, dc_violations, verify, verify_dc_mpjr_plus,
                       verify_fixed_ell_dc, verify_mpjr_plus_smallk)
from propaudit.verify import _dc_scan, _dc_verdicts, _smallk_verdicts

from conftest import random_explicit


def bits(a):
    return a.dtype, a.shape, a.tobytes()


def point_case(rng, dim):
    """Uniform, integer-grid (many ties) or duplicated points in `dim`
    dimensions, n <= 12, m <= 7, k <= 4."""
    n, m = int(rng.integers(1, 13)), int(rng.integers(1, 8))
    k = int(rng.integers(1, min(m, 4) + 1))
    kind = rng.integers(3)
    if kind == 0:
        pts = rng.random((n + m, dim))
    elif kind == 1:
        pts = rng.integers(0, 4, (n + m, dim)).astype(float)
    else:
        base = rng.random((3, dim))
        pts = base[rng.integers(0, 3, n + m)]
    return Instance.euclidean(pts[:n], pts[n:], k)


def twin(inst):
    """The same instance, with its distance matrix already computed."""
    other = Instance.from_dict(inst.to_dict())
    other.dists()
    return other


def col_lists(rng, m):
    return [list(range(m)), list(range(m))[::-1], [], [m - 1] * 3,
            rng.integers(0, m, 2 * m + 1).tolist()]


class TestRows:
    @pytest.mark.parametrize("dim", [0, 1, 2, 3])
    def test_bit_equal_to_matrix_columns(self, rng, dim):
        for _ in range(150):
            inst = point_case(rng, dim)
            D = twin(inst).dists()
            for cols in col_lists(rng, inst.m):
                assert bits(inst.rows(cols)) == bits(np.ascontiguousarray(D[:, cols].T))
            assert inst._ac is None
            for cols in col_lists(rng, inst.m):
                assert bits(inst.rows(cols)) == bits(np.ascontiguousarray(D[:, cols].T))

    def test_near_the_overflow_bound(self, rng):
        # coordinates up to 4.7e153 in 2-D: the largest squares add up just
        # under the float range, so the rows are computed, not gathered
        for _ in range(50):
            pts = (rng.random((20, 2)) * 2 - 1) * 4.7e153
            inst = Instance.euclidean(pts[:12], pts[12:], 3)
            assert inst._ac is None
            D = twin(inst).dists()
            for cols in col_lists(rng, inst.m):
                assert bits(inst.rows(cols)) == bits(np.ascontiguousarray(D[:, cols].T))
        # the span overflows though no distance does: dists() ran at
        # construction, and rows gathers from it
        inst = Instance.euclidean([[1.2e154, 0.0], [0.0, 1.2e154]], [[0.0, 0.0]], 1)
        assert inst._ac is not None
        assert bits(inst.rows([0, 0])) == bits(np.ascontiguousarray(inst.dists()[:, [0, 0]].T))

    def test_explicit(self, rng):
        for _ in range(100):
            inst = random_explicit(rng, int(rng.integers(1, 9)), int(rng.integers(1, 7)), 1)
            D = inst._matrix[:inst.n, inst.n:]
            for cols in col_lists(rng, inst.m):
                rows = inst.rows(cols)
                assert rows.flags.c_contiguous
                assert bits(rows) == bits(np.ascontiguousarray(D[:, cols].T))


def matrix_witnesses(D, X, n, k, gamma, eps):
    """The violations of ``_dc_scan`` over the matrix D, each with the
    closed ball at its radius and the centers it covers."""
    outs = np.asarray([c for c in range(D.shape[1]) if c not in X], dtype=np.intp)
    found = []
    for a, l, r in _dc_scan(D, X, outs, n, k, gamma, eps):
        members = np.flatnonzero(D[:, a] <= r + eps)
        reach = D[np.ix_(members, list(X))].min(axis=0)
        covered = {x for x, v in zip(X, reach) if v <= gamma * r + eps}
        found.append((a, l, r, set(members.tolist()), covered))
    return found


def as_tuple(w):
    return (w.center, w.level, w.radius, set(w.coalition), set(w.covered))


def audit_cases(rng, count):
    for it in range(count):
        if it % 5 == 4:
            n, m = int(rng.integers(1, 13)), int(rng.integers(1, 8))
            inst = random_explicit(rng, n, m, int(rng.integers(1, min(m, 4) + 1)))
        else:
            inst = point_case(rng, (2, 1, 3, 0)[it % 5])
        yield inst, tuple(sorted(int(x) for x in rng.choice(inst.m, inst.k, replace=False)))


def test_audits_match_matrix_path(rng):
    """Verdicts, witnesses and whole violation lists on 2,000 cases, at
    every (gamma, eps) of a 3 x 3 grid and every level of the fixed-level
    audit, equal those of the matrix path; a fresh Euclidean instance
    never builds its matrix."""
    violated = 0
    for inst, X in audit_cases(rng, 2000):
        cached = twin(inst)
        D = cached.dists()
        for gamma in (1.0, 1.5, 3.0):
            for eps in (0.0, 1e-9, 0.25):
                expect = matrix_witnesses(D, X, inst.n, inst.k, gamma, eps)
                for src in (inst, cached):
                    assert [as_tuple(w) for w in dc_violations(src, X, gamma, eps)] == expect
                    verdict = verify_dc_mpjr_plus(src, X, gamma, eps)
                    assert verdict.satisfied == (not expect)
                    if expect:
                        assert as_tuple(verdict.witness) == expect[0]
                violated += bool(expect)
                for ell in range(1, inst.k + 1):
                    got = verify_fixed_ell_dc(inst, X, ell, gamma, eps)
                    want = verify_fixed_ell_dc(cached, X, ell, gamma, eps)
                    assert (got.satisfied, got.witness) == (want.satisfied, want.witness)
        if inst.metric == "euclidean":
            assert inst._ac is None
    assert 1000 <= violated <= 17000


def test_multi_chunk_audits_match_matrix_path(monkeypatch, rng):
    """Chunks of 1, 3 and 16 anchors, so the rows of one audit are
    computed in many calls."""
    for grid in (False, True):
        pts = rng.integers(0, 6, (70, 2)).astype(float) if grid else rng.random((70, 2))
        inst = Instance.euclidean(pts[:30], pts[30:], 4)
        cached = twin(inst)
        for _ in range(5):
            X = tuple(sorted(int(x) for x in rng.choice(40, 4, replace=False)))
            for cap in (1, 3, 16):
                monkeypatch.setattr(verify, "_CHUNK_ELEMS", cap * inst.n)
                for gamma, eps in ((1.0, 0.0), (1.5, 0.25)):
                    expect = matrix_witnesses(cached.dists(), X, inst.n, inst.k, gamma, eps)
                    assert [as_tuple(w) for w in dc_violations(inst, X, gamma, eps)] == expect
                    for ell in range(1, inst.k + 1):
                        got = verify_fixed_ell_dc(inst, X, ell, gamma, eps)
                        want = verify_fixed_ell_dc(cached, X, ell, gamma, eps)
                        assert (got.satisfied, got.witness) == (want.satisfied, want.witness)
        assert inst._ac is None


def test_audits_leave_a_fresh_instance_without_its_matrix(rng):
    pts = rng.random((60, 2))
    inst = Instance.euclidean(pts[:40], pts[40:], 4)
    for X in ((0, 1, 2, 3), (4, 9, 14, 19)):
        verify_dc_mpjr_plus(inst, X)
        verify_fixed_ell_dc(inst, X, 2)
        dc_violations(inst, X, 1.5, 0.25)
    assert inst._ac is None


def test_no_audit_calls_dists(monkeypatch, rng):
    pts = rng.random((60, 2))
    inst = Instance.euclidean(pts[:40], pts[40:], 4)

    def refuse(self):
        raise AssertionError("Instance.dists called")

    monkeypatch.setattr(Instance, "dists", refuse)
    sels = [(0, 1, 2, 3), (4, 9, 14, 19)]
    for X in sels:
        for gamma, eps in ((1.0, 0.0), (1.5, 0.25)):
            verify_mpjr_plus_smallk(inst, X, gamma, eps=eps)
            verify_dc_mpjr_plus(inst, X, gamma, eps)
            dc_violations(inst, X, gamma, eps)
            verify_fixed_ell_dc(inst, X, 2, gamma, eps)
    for gamma in (1.0, 1.5):
        _smallk_verdicts(inst, sels, gamma)
        _dc_verdicts(inst, sels, gamma)


def smallk_outputs(inst, sels, gamma, eps):
    """The small-k audit of each selection (``to_dict()`` less
    ``elapsed_ms``) and, at eps = 0, both batches' verdicts."""
    out = []
    for X in sels:
        got = verify_mpjr_plus_smallk(inst, X, gamma, eps=eps).to_dict()
        del got["elapsed_ms"]
        out.append(got)
    if eps == 0:
        out += [_smallk_verdicts(inst, sels, gamma).tolist(),
                _dc_verdicts(inst, sels, gamma).tolist()]
    return out


def test_smallk_audit_and_batches_match_on_every_source(rng):
    """The same output from computed rows, from rows gathered after
    ``dists()`` and from the explicit twin, on 600 cases."""
    violated = 0
    for inst, X in audit_cases(rng, 600):
        sels = [X] + [tuple(sorted(int(x) for x in rng.choice(inst.m, inst.k, replace=False)))
                      for _ in range(3)]
        cached, explicit = twin(inst), inst.to_explicit()
        for gamma in (0.7, 1.0, 1.5):
            for eps in (0.0, 0.25):
                want = smallk_outputs(inst, sels, gamma, eps)
                assert smallk_outputs(cached, sels, gamma, eps) == want
                assert smallk_outputs(explicit, sels, gamma, eps) == want
                violated += sum(not v["satisfied"] for v in want[:len(sels)])
        if inst.metric == "euclidean":
            assert inst._ac is None
    assert 1000 <= violated <= 13000
