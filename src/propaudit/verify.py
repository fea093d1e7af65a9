"""Metric proportionality verifiers.

Two verification strategies live here:

* ``verify_mpjr_plus_smallk`` scans every proper subset Y of the selection
  and, per unselected anchor c, sweeps the half-open intervals
  [d(i,c), u_i / gamma) for a radius covered by enough agents, where u_i
  is agent i's distance to the nearest selected center outside Y.  Cost
  O(m n log n * 2^k): practical for small k only.

* ``verify_dc_mpjr_plus`` grows a ball around each unselected anchor,
  maintaining for every selected center its distance to the current
  prefix of agents, and checks the coverage the prefix deserves at each
  distinct radius.  Cost O(m n log n + m n k).

Both run on exact float distances; radius grouping and interval
endpoints compare with == by default (fixtures and embeddings have exact
small-integer distances).  An opt-in ``eps`` widens comparisons for
noisy data.

Every metric witness is built by ``_witness`` from the caller's coalition
rule: the closed ball for the default-coalition audits, the agents inside
the ball but out of reach of X \\ Y for the small-k audit.

Scan order is deterministic: anchors by candidate index, Y by popcount
then lexicographically, radii ascending.  The per-anchor loops are
independent, so callers may parallelize them at the cost of witness
determinism; verdicts are order-independent either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .core import (InfeasibleLevel, Instance, SizeError, Verdict, Witness,
                   check_selection, timed)

# soft cap on scratch elements per candidate chunk in the DC scan
_CHUNK_ELEMS = 4_000_000


@dataclass(frozen=True)
class DefaultCoalition:
    """Tightest ball around a center holding enough agents for its level."""

    center: int
    level: int
    radius: float
    members: frozenset


def default_coalition(instance: Instance, center: int, ell: int) -> DefaultCoalition:
    """Smallest-radius closed ball around `center` with at least ell*q agents.

    Members can exceed ell*q when several agents tie at the boundary
    radius.
    """
    n, k = instance.n, instance.k
    if not (1 <= ell <= k):
        raise InfeasibleLevel(f"level {ell} outside [1, {k}]")
    need = -((-ell * n) // k)   # ceil(ell*n/k); <= n for every ell <= k
    dc = instance.dists()[:, center]
    radius = float(np.partition(dc, need - 1)[need - 1])
    members = frozenset(np.flatnonzero(dc <= radius).tolist())
    return DefaultCoalition(center, ell, radius, members)


def _dc_scan(D, X, outs, n, k, gamma, eps, order=None, sd=None, find_all=False):
    """Core of the default-coalition sweep over unselected anchors.

    Returns the first violation as (anchor, level, radius, end_index) in
    deterministic order, a list of all (anchor, level, radius) triples
    when find_all, or None.  Anchors are processed in chunks laid out as
    (anchor, agent[, center]) so the prefix-min accumulation walks
    contiguous memory.
    """
    if len(outs) == 0:
        return [] if find_all else None
    xs = np.asarray(X, dtype=np.intp)
    found = []
    chunk = max(1, _CHUNK_ELEMS // (n * k))
    levels = ((np.arange(1, n + 1, dtype=np.int64) * k) // n)
    for lo in range(0, len(outs), chunk):
        cols = outs[lo: lo + chunk]
        if order is None:
            o = np.argsort(D[:, cols], axis=0).T
            s = np.take_along_axis(D[:, cols].T, o, axis=1)
        else:
            o = order[:, cols].T
            s = sd[:, cols].T
        # prefix-min distance from each selected center to the grown ball
        t = np.minimum.accumulate(D[o[:, :, None], xs[None, None, :]], axis=1)
        cov = (t <= gamma * s[:, :, None] + eps).sum(axis=2)
        group_end = np.empty(s.shape, dtype=bool)
        group_end[:, -1] = True
        group_end[:, :-1] = s[:, 1:] > s[:, :-1] + eps
        bad = group_end & (cov < levels[None, :])
        if not bad.any():
            continue
        if find_all:
            for ci in range(len(cols)):
                for i in np.flatnonzero(bad[ci]):
                    found.append((int(cols[ci]), int(levels[i]), float(s[ci, i])))
            continue
        ci = int(np.flatnonzero(bad.any(axis=1))[0])
        i = int(np.flatnonzero(bad[ci])[0])
        return int(cols[ci]), int(levels[i]), float(s[ci, i]), i
    return found if find_all else None


def _unselected(instance: Instance, X) -> np.ndarray:
    keep = np.ones(instance.m, dtype=bool)
    keep[list(X)] = False
    return np.flatnonzero(keep)


def _witness(D, X, anchor, level, radius, coalition, gamma, eps) -> Witness:
    """Violation witness for the agents in the boolean mask `coalition`,
    with the selected centers within gamma*radius (+eps) of any of them."""
    members = np.flatnonzero(coalition)
    reach = D[np.ix_(members, np.asarray(X, dtype=np.intp))].min(axis=0)
    covered = frozenset(int(x) for x, r in zip(X, reach) if r <= gamma * radius + eps)
    return Witness(center=int(anchor), level=level, radius=radius,
                   coalition=frozenset(members.tolist()), covered=covered)


@timed
def verify_dc_mpjr_plus(instance: Instance, selection, gamma: float = 1.0,
                        eps: float = 0.0) -> Verdict:
    """Default-coalitions audit: every anchor's tightest ball at every level
    must see the coverage its size deserves within gamma times its radius."""
    X = check_selection(instance, selection)
    D = instance.dists()
    hit = _dc_scan(D, X, _unselected(instance, X), instance.n, instance.k, gamma, eps)
    if hit is None:
        return Verdict("dc-mpjr+", gamma, True)
    anchor, level, radius, _ = hit
    return Verdict("dc-mpjr+", gamma, False,
                   _witness(D, X, anchor, level, radius, D[:, anchor] <= radius + eps,
                            gamma, eps))


def dc_violations(instance: Instance, selection, gamma: float = 1.0,
                  eps: float = 0.0) -> list:
    """Every violating (anchor, level) pair of the default-coalitions audit."""
    X = check_selection(instance, selection)
    D = instance.dists()
    triples = _dc_scan(D, X, _unselected(instance, X), instance.n, instance.k,
                       gamma, eps, find_all=True)
    return [_witness(D, X, a, l, r, D[:, a] <= r + eps, gamma, eps)
            for (a, l, r) in triples]


@timed
def verify_fixed_ell_dc(instance: Instance, selection, ell: int,
                        gamma: float = 1.0, eps: float = 0.0) -> Verdict:
    """Single-level default-coalitions audit.

    Per anchor, only the first radius whose ball deserves level >= ell is
    checked, per the sweep's early-stop specialization.
    """
    X = check_selection(instance, selection)
    n, k = instance.n, instance.k
    if not (1 <= ell <= k):
        raise InfeasibleLevel(f"level {ell} outside [1, {k}]")
    D = instance.dists()
    need = -((-ell * n) // k)
    for c in _unselected(instance, X):
        radius = float(np.partition(D[:, c], need - 1)[need - 1])
        wit = _witness(D, X, c, ell, radius, D[:, c] <= radius + eps, gamma, eps)
        if len(wit.covered) < ell:
            return Verdict("fixed-ell-dc", gamma, False, wit)
    return Verdict("fixed-ell-dc", gamma, True)


def _alg1_scan(Lt, DXt, rank, n, k, size, rest, gamma, eps):
    """One exclusion-set iteration of the small-k sweep, batched over anchors.

    ``Lt`` holds anchor distances as contiguous rows (anchor, agent) and
    ``DXt`` selected-center distances as rows (center, agent).  For the
    exclusion set Y (|Y| = size, complement rows `rest`), evaluates the
    maximum number of simultaneously live intervals [d(i,c), u_i/gamma)
    per anchor row and returns (row, radius, u/gamma vector) of the first
    anchor where the count clears (size+1) * n / k, else None.
    """
    u = DXt[rest[0]] if len(rest) == 1 else DXt[rest].min(axis=0)
    ug = u if (gamma == 1.0 and eps == 0.0) else (u - eps) / gamma
    need = -((-(size + 1) * n) // k)
    # the overlap count can never exceed the number of nonempty intervals,
    # so rows short of the target are pruned before sorting
    alive = np.flatnonzero((Lt < ug[None, :]).sum(axis=1) >= need)
    if alive.size == 0:
        return None
    # clamp empty intervals to zero width so they cancel in the counting
    Ls = np.sort(np.minimum(Lt[alive], ug[None, :]), axis=1)
    Us = np.sort(ug)
    dead = np.searchsorted(Us, Ls.ravel(), side="right").reshape(Ls.shape)
    live = rank[None, :] - dead
    smax = live.max(axis=1)
    hits = np.flatnonzero(smax >= need)
    if hits.size == 0:
        return None
    ci = int(hits[0])
    t = int(np.flatnonzero(live[ci] >= need)[0])
    return int(alive[ci]), float(Ls[ci, t]), ug


@timed
def verify_mpjr_plus_smallk(instance: Instance, selection, gamma: float = 1.0,
                            max_k: int = 24, eps: float = 0.0) -> Verdict:
    """Small-k audit of anchored proportional representation.

    Enumerates exclusion sets Y inside the selection (2^k of them); a
    violation is an anchor c and a radius r where at least (|Y|+1)*q
    agents sit within r of c yet farther than gamma*r from every selected
    center outside Y.
    """
    X = check_selection(instance, selection)
    n, k = instance.n, instance.k
    if k > max_k:
        raise SizeError(f"k={k} exceeds exhaustive cap {max_k}")
    D = instance.dists()
    outs = _unselected(instance, X)
    if len(outs) == 0:
        return Verdict("mpjr+", gamma, True)
    Lt = np.ascontiguousarray(D[:, outs].T)
    DXt = np.ascontiguousarray(D[:, np.asarray(X, dtype=np.intp)].T)
    rank = np.arange(1, n + 1, dtype=np.int64)
    positions = range(k)
    for size in range(k):
        for ypos in combinations(positions, size):
            rest = [p for p in positions if p not in ypos]
            hit = _alg1_scan(Lt, DXt, rank, n, k, size, rest, gamma, eps)
            if hit is None:
                continue
            ci, radius, ug = hit
            c = outs[ci]
            coalition = (D[:, c] <= radius) & (ug > radius)
            return Verdict("mpjr+", gamma, False,
                           _witness(D, X, c, size + 1, radius, coalition, gamma, eps))
    return Verdict("mpjr+", gamma, True)
