"""Metric proportionality verifiers.

Two verification strategies live here:

* ``verify_mpjr_plus_smallk`` checks proper subsets Y of the selection
  and, per unselected anchor c, sweeps the half-open intervals
  [d(i,c), g(u_i)) for a radius covered by enough agents, where u_i is
  agent i's distance to the nearest selected center outside Y and g is
  the reach rule of the DC audit below, so i counts at radius s exactly
  when gamma*s + eps < u_i.  The agents counted at a violating radius all
  reach past it, and it is at least the distance to c that the count
  itself needs, so each needs Y to hold every selected center nearer than
  that.  Per size |Y| >= 1, one bound over the anchors, from sorts taken
  once, keeps only the anchors with enough agents that have at most |Y|
  such centers, less the agents of the (|Y|+1)-th most common one
  (``_root_bounds``), and a size none keeps is skipped.  One pass bounds
  a group of sizes, as many as ``_BOUND_ELEMS`` (size, anchor, agent)
  entries hold, and one size alone past that.  A depth-first search over
  Y then skips every set where no kept anchor has enough agents whose
  such centers all lie in Y (``_exclusion_sets``).  Worst case
  O(m n log n * 2^k): practical for small k only.  The search,
  ``_smallk_hit``, takes the anchor rows, a source of their sorted copy
  and the selection's reach rows, so it also runs approval PJR+ on a
  {1, 2} ballot matrix, and ``_smallk_verdicts`` gives the experiment
  harness the verdicts of many selections of one instance at once: it
  builds the anchor and reach rows of all m candidates once, tests size 0
  (Y empty) for every selection together, and sends only the selections
  that pass it through the search, from size 1.

* ``verify_dc_mpjr_plus`` checks each unselected anchor's tightest ball at
  every level through coverage radii: selected center x is covered by the
  ball of radius s around anchor c exactly when
  mu(c,x) = min_j max(d(j,c), g(d(j,x))) <= s, where g(v) is the smallest
  float r with gamma*r + eps >= v (the identity when gamma = 1 and
  eps = 0).  The coverage at a radius is then a count of sorted mu
  values, with no per-radius distance work.  Cost O(m n log n + m n k).
  Anchors run in the chunks of one schedule, ``_anchor_chunks``, whose
  (anchor, agent) scratch is bounded by ``_CHUNK_ELEMS``: chunks start
  small and double, and ``_dc_scan`` yields violations in scan order, so
  an audit that stops at the first one computes only a few anchors when
  it fails early.  Each chunk computes its anchors' distance rows
  (``Instance.rows``), and the selection's rows are computed once per
  audit, so scratch is O(k n + ``_CHUNK_ELEMS``) with no n x m matrix.
  The sweep checks the i-th smallest radius s_i (1-based) at level
  floor(i k / n); ``verify_fixed_ell_dc`` is the same scan with every
  level but one switched off (level 0, which never falls short).  Only
  anchors with mu_l > R_l at a checked level l are walked radius by
  radius, mu_l being the l-th smallest mu(c, .) and R_l the
  ceil(l n / k)-th smallest d(., c).  This drops no violation at any
  gamma and eps: one at s_i has i >= ceil(l n / k), so mu_l > s_i >= R_l.
  At eps = 0 the filter is the verdict, as R_l's chain ends at R_l, at a
  level l' >= l with mu_l' >= mu_l.  So ``_dc_verdicts`` gives the
  experiment harness these verdicts for many selections of one instance at
  once: mu and R do not depend on the selection.

Both run on exact float distances, compared exactly by default (fixtures
and embeddings have exact small-integer distances).  An opt-in ``eps``
widens comparisons for noisy data.  In the DC audits an anchor's sorted
radii within eps of their neighbour form one chain, a chain is checked
at its end s, and coverage counts the centers within gamma*s + eps.
Every verifier rejects gamma that is not finite and > 0 and eps that is
not finite and >= 0.

g is ``_reach_radius``, the one code that turns gamma and eps into a
radius threshold: each audit builds the reach rows g(d(., x)) of the
selected centers once and compares radii against them.

Every metric witness is built by ``_witness`` from the caller's coalition
rule: the closed ball for the default-coalition audits, the agents inside
the ball but out of reach of X \\ Y for the small-k audit.  It counts
coverage with gamma*r + eps directly, as an independent check.

Scan order is deterministic: anchors by candidate index, Y by popcount
then lexicographically, radii ascending.  The per-anchor loops are
independent, so callers may parallelize them at the cost of witness
determinism; verdicts are order-independent either way.
"""

from __future__ import annotations

import functools
import math
from itertools import combinations

import numpy as np

from .core import (Instance, SizeError, Verdict, Witness, check_eps, check_gamma,
                   check_level, check_selection, timed)

# cap on the (anchor, agent) entries of one DC anchor chunk: a chunk holds
# _CHUNK_ELEMS // n anchors (at least one), so the coverage kernel's keys
# and scratch (512 KB each) stay in a 2 MB L2 cache across the k center
# rows.  Full sweeps (whole chunks, gamma=1, 2 vCPUs) at this cap against the
# earlier 4e6 // (n k) anchors: n=5000, m=100, k=20: 13 vs 40 anchors,
# 17.2 vs 21.6 ms; n=5e4, m=100, k=10: 1 vs 8, 260 vs 272 ms; n=1e5,
# m=200, k=20: 1 vs 2, 1.32 vs 1.50 s.  One anchor a chunk is the slowest
# choice at n=5000 (29 ms) and the fastest at the two larger sizes
_CHUNK_ELEMS = 1 << 16
_SIGN = np.uint64(1 << 63)
# the small-k audit scans a size's exclusion sets one by one up to this
# many; larger sizes go through the pruned search of _exclusion_sets.
# Few sets cost less than the search's set-up: with the search at every
# size, the k=5 experiment grid ran about 1.5x as long (0.66 vs 0.43 s,
# with the anchors cut by _root_bounds first)
_PLAIN_SETS = 16
# cap on the (size, anchor, agent) entries of one _root_bounds pass, which
# bounds as many sizes at once as fit (at least one); its scratch is 9 bytes
# an entry (t and fit), 2.3 MB at the cap.  Library audits of the smallk-sat
# benchmark's instances (n=200, m=100, k=12: all 11 sizes in 193,600
# entries, 2 vCPUs): one size a pass 0.96 ms, 2^16 (3 sizes) 0.68 ms, 2^17
# 0.61 ms, 2^18 0.57 ms, 2^20 0.57 ms.  Uncapped, a satisfied n=5000, m=100,
# k=20 audit peaked at 83 MB (tracemalloc) instead of 13 MB: there one size
# fills a pass
_BOUND_ELEMS = 1 << 18


def _float_key(r: np.ndarray) -> np.ndarray:
    """Map float64 values to uint64 keys in the same order (NaN aside)."""
    b = r.view(np.uint64)
    return np.where(b & _SIGN, ~b, b | _SIGN)


def _key_float(u: np.ndarray) -> np.ndarray:
    return np.where(u & _SIGN, u & ~_SIGN, ~u).view(np.float64)


def _reach_radius(v, gamma, eps) -> np.ndarray:
    """g(v): elementwise, the smallest float r with gamma * r + eps >= v.

    A center at distance v from an agent is within gamma * s + eps of it,
    in the float expression the audits compare with, exactly when
    s >= g(v), because that expression never decreases in s (gamma > 0).
    A bracket gallops out from (v - eps) / gamma in doubling steps over
    the float order until its low end fails and its high end passes, and
    only brackets still wider than one float (eps absorbing gamma * r,
    overflow) are bisected.  The first step settles most entries.
    """
    v = np.asarray(v, dtype=np.float64)
    if gamma == 1.0 and eps == 0.0:
        return v
    flat = v.ravel()
    kmin, kmax = _float_key(np.array([-np.inf, np.inf]))

    def passes(r, v):
        return gamma * r + eps >= v

    with np.errstate(over="ignore"):
        start = (flat - eps) / gamma
        down = passes(start, flat)          # gallop down from a passing start
        near = np.nextafter(start, np.where(down, -np.inf, np.inf))
        r = np.where(down, start, near)
        idx = np.flatnonzero(passes(near, flat) == down)
        vi, dn = flat[idx], down[idx]
        lo, hi = _float_key(near[idx]), _float_key(near[idx])
        j, step = np.arange(idx.size), 2
        while j.size:
            st = np.uint64(step)
            # clamped to -inf, which never passes, and inf, which always does
            probe = np.where(dn[j], np.maximum(hi[j], kmin + st) - st,
                             np.minimum(lo[j], kmax - st) + st)
            ok = passes(_key_float(probe), vi[j])
            hi[j[ok]] = probe[ok]
            lo[j[~ok]] = probe[~ok]
            j, step = j[ok == dn[j]], step * 2
        j = np.flatnonzero(hi - lo > 1)
        while j.size:
            mid = lo[j] + (hi[j] - lo[j]) // np.uint64(2)
            ok = passes(_key_float(mid), vi[j])
            hi[j[ok]] = mid[ok]
            lo[j[~ok]] = mid[~ok]
            j = j[hi[j] - lo[j] > 1]
        r[idx] = _key_float(hi)
    return r.reshape(v.shape)


def _reach_rows(D, X, gamma, eps) -> np.ndarray:
    """g(d(., x)) of the selected centers X, as contiguous (center, agent) rows."""
    return np.ascontiguousarray(
        _reach_radius(D[:, np.asarray(X, dtype=np.intp)], gamma, eps).T)


def _coverage_radii(keys, rows) -> np.ndarray:
    """Per (anchor, agent) row of `keys`, min_j max(keys_j, rows_tj) for
    each (center, agent) row t of `rows` in column t + 1, after a column 0
    of -inf: sorted per row, [:, l] is the l-th smallest, and level 0 is
    never short.  One column at a time, through one scratch like `keys`."""
    mu = np.empty((len(keys), len(rows) + 1))
    mu[:, 0] = -np.inf
    scratch = np.empty_like(keys)
    for t, row in enumerate(rows):
        np.maximum(keys, row, out=scratch)
        scratch.min(axis=1, out=mu[:, t + 1])
    return mu


def _anchor_chunks(count, cap):
    """Slices of range(count) in index order, each at most `cap` anchors.

    Sizes start at cap // 16 (at least one) and double up to `cap`, so a
    violation among the first anchors is found without computing a whole
    chunk.
    """
    size = max(1, cap // 16)
    lo = 0
    while lo < count:
        yield slice(lo, lo + size)
        lo += size
        size = min(2 * size, cap)


def _level_index(n, k) -> np.ndarray:
    """0-based index of the ceil(l n / k)-th smallest of n radii, l = 1..k."""
    return -((-np.arange(1, k + 1) * n) // k) - 1


def _dc_scan(D, X, outs, n, k, gamma, eps, XR=None, ell=None):
    """Every violating (anchor, level, radius) of the default-coalitions
    audit over the unselected anchors, in deterministic order: anchors
    ascending, then radii ascending.

    Anchor c's ball of radius s covers x (in gamma * s + eps) exactly when
    mu(c, x) <= s, so s falls short of a level when the level-th smallest
    mu exceeds it.  Radii within eps of their neighbour form one chain,
    checked only at its end: the i-th smallest radius at level
    floor(i k / n).  With `ell`, radii before the ceil(ell n / k)-th are
    checked at level 0, which mu's -inf column never fails, and the rest
    at ell.  Only anchors with mu_l > R_l at a checked level l (R_l is
    the ceil(l n / k)-th smallest radius) are walked radius by radius.

    `D` is the n x m distance matrix or a row source like
    ``Instance.rows``; `XR` is the selection's rows, if the caller has them.
    Anchors run in the chunks of ``_anchor_chunks`` (O(_CHUNK_ELEMS + n)
    scratch), each computed only when the caller asks past the ones before.
    """
    rows = D if callable(D) else lambda cols: np.ascontiguousarray(D[:, cols].T)
    XR = rows(np.asarray(X, dtype=np.intp)) if XR is None else XR
    G = _reach_radius(XR, gamma, eps)
    levels = (np.arange(1, n + 1, dtype=np.int64) * k) // n
    if ell is not None:
        levels = np.where(levels >= ell, ell, 0)
    q = _level_index(n, k)
    for part in _anchor_chunks(len(outs), max(1, _CHUNK_ELEMS // n)):
        cols = outs[part]
        s = rows(cols)                                  # (anchor, agent)
        mu = _coverage_radii(s, G)
        mu.sort(axis=1)
        s.sort(axis=1)
        short = mu[:, 1:] > s[:, q]                     # (anchor, level)
        for ci in np.flatnonzero(short.any(axis=1) if ell is None else short[:, ell - 1]):
            bad = mu[ci, levels] > s[ci]
            bad[:-1] &= s[ci, 1:] > s[ci, :-1] + eps    # chain ends only
            for i in np.flatnonzero(bad):
                yield int(cols[ci]), int(levels[i]), float(s[ci, i])
        # dropped before the next chunk is computed, so it reuses their memory:
        # held across it, they cost a satisfied n=5000, m=100 sweep about 4%
        del s, mu


def _dc_verdicts(instance: Instance, selections, gamma) -> np.ndarray:
    """``verify_dc_mpjr_plus(instance, X, gamma).satisfied`` for each row X
    of `selections`, an (s, k) array of distinct in-range centers, at
    eps = 0, where ``_dc_scan``'s filter mu_l > R_l is the verdict.

    Neither mu nor R depends on X, so ``_coverage_radii`` builds mu once
    for the centers some row uses, R comes from one sort per anchor, and
    each row is a gather of m * k radii, a sort per anchor and a
    comparison, in chunks of rows of at most _CHUNK_ELEMS radii; the
    selected anchors are then masked out.
    """
    check_gamma(gamma)
    D, k = instance.dists(), instance.k
    (n, m), sel = D.shape, np.asarray(selections, dtype=np.intp).reshape(-1, k)
    used, pos = np.unique(sel, return_inverse=True)
    keys = np.ascontiguousarray(D.T)                   # (anchor, agent)
    mu = _coverage_radii(keys, _reach_rows(D, used, gamma, 0.0))
    keys.sort(axis=1)
    R = keys[:, _level_index(n, k)]                    # (anchor, level)
    cols = pos.reshape(sel.shape) + 1
    ok = np.empty(len(sel), dtype=bool)
    step = max(1, _CHUNK_ELEMS // (m * k))
    for lo in range(0, len(sel), step):
        block = mu[:, cols[lo:lo + step]]               # (anchor, row, level)
        block.sort(axis=2)
        short = (block > R[:, None, :]).any(axis=2)
        short[sel[lo:lo + step], np.arange(block.shape[1])[:, None]] = False
        ok[lo:lo + step] = ~short.any(axis=0)
    return ok


def _unselected(instance: Instance, X) -> np.ndarray:
    keep = np.ones(instance.m, dtype=bool)
    keep[list(X)] = False
    return np.flatnonzero(keep)


def _witness(XR, X, anchor, level, radius, coalition, gamma, eps) -> Witness:
    """Violation witness for the agents in the boolean mask `coalition`,
    with the selected centers within gamma*radius (+eps) of any of them,
    read from the selection's (center, agent) distance rows `XR`."""
    members = np.flatnonzero(coalition)
    reach = XR[:, members].min(axis=1)
    covered = frozenset(int(x) for x, r in zip(X, reach) if r <= gamma * radius + eps)
    return Witness(center=int(anchor), level=level, radius=radius,
                   coalition=frozenset(members.tolist()), covered=covered)


def _dc_witnesses(instance: Instance, selection, gamma, eps, ell=None):
    """The violations of ``_dc_scan`` (at level `ell` only, if given) as
    witnesses, in its order; each coalition is the anchor's closed ball at
    the violating radius, read from the anchor's own row."""
    X = check_selection(instance, selection)
    check_gamma(gamma)
    check_eps(eps)
    if ell is not None:
        check_level(ell, instance.k)
    XR = instance.rows(X)
    row = None
    for a, l, r in _dc_scan(instance.rows, X, _unselected(instance, X), instance.n,
                            instance.k, gamma, eps, XR, ell):
        if row is None or a != row[0]:
            row = a, instance.rows([a])[0]
        yield _witness(XR, X, a, l, r, row[1] <= r + eps, gamma, eps)


@timed
def verify_dc_mpjr_plus(instance: Instance, selection, gamma: float = 1.0,
                        eps: float = 0.0) -> Verdict:
    """Default-coalitions audit: every anchor's tightest ball at every level
    must see the coverage its size deserves within gamma times its radius.
    The witness is the first one ``dc_violations`` lists."""
    wit = next(_dc_witnesses(instance, selection, gamma, eps), None)
    return Verdict("dc-mpjr+", gamma, wit is None, wit)


def dc_violations(instance: Instance, selection, gamma: float = 1.0,
                  eps: float = 0.0) -> list:
    """Every violating radius of the default-coalitions audit, as witnesses
    in scan order: anchors ascending, then radii ascending.

    Each distinct radius of an anchor's ball whose coverage falls short of
    its level is listed, so one (anchor, level) pair appears once per
    violating radius at that level.
    """
    return list(_dc_witnesses(instance, selection, gamma, eps))


@timed
def verify_fixed_ell_dc(instance: Instance, selection, ell: int,
                        gamma: float = 1.0, eps: float = 0.0) -> Verdict:
    """Single-level default-coalitions audit: the sweep's check at level
    ell only, per anchor at E, the end of the chain that holds the
    ceil(ell * n / k)-th smallest distance R_ell (at eps = 0, R_ell).
    It is ``_dc_scan`` with every other level switched off, walking only
    the anchors with mu_ell > R_ell, so some level falls short exactly
    when ``verify_dc_mpjr_plus`` rejects.
    """
    wit = next(_dc_witnesses(instance, selection, gamma, eps, ell), None)
    return Verdict("fixed-ell-dc", gamma, wit is None, wit)


def _blockers(Lt, G, need):
    """Each agent's blocker set per anchor row for a target count `need`,
    deduplicated per row.

    ``_alg1_scan`` counts agent i at anchor c and radius s only when
    d(i, c) <= s < g(u_i), and a count of `need` needs s at least R, the
    need-th smallest d(., c).  So i can count only if
    t_i = max(d(i, c), R) < g(d(i, x)) for every selected center x outside
    Y (g is monotone, so this is the test against the nearest one), read
    from the reach rows ``G``.  Center x_p blocks i unless the test passes
    for x_p.  Returns (rows, blocked, mult): anchor rows ascending,
    a bool matrix (entry, position) and the number of agents sharing each
    entry.  Blocker sets are int64 bit masks here, so k is at most 62.
    """
    t = np.maximum(Lt, np.partition(Lt, need - 1, axis=1)[:, need - 1:need])
    k = len(G)
    free = np.zeros(Lt.shape, dtype=np.int64)
    for p, reach in enumerate(G):
        free |= (t < reach[None, :]).astype(np.int64) << p
    masks = np.sort(free ^ ((1 << k) - 1), axis=1)
    first = np.ones(masks.shape, dtype=bool)
    first[:, 1:] = masks[:, 1:] != masks[:, :-1]
    first = np.flatnonzero(first)
    blocked = (masks.ravel()[first, None] >> np.arange(k)) & 1
    mult = np.empty(len(first), dtype=np.int64)
    mult[:-1] = first[1:] - first[:-1]
    mult[-1] = masks.size - first[-1]
    return first // Lt.shape[1], blocked.astype(bool), mult


def _root_bounds(Lt, Ls, G, Gs, first):
    """Upper bounds on the agents ``_alg1_scan`` counts per anchor row of
    ``Lt`` at any Y with |Y| = size, for sizes from `first` on, read from
    the rows sorted (``Ls``) and the reach rows ``G`` sorted per agent
    (``Gs``): row j of the (size, anchor) result is size first + j, its
    target `need` being ceil((size+1) n / k).

    The agents counted at a radius r have t_i <= r < g(u_i), so their
    blockers (``_blockers``) lie in Y: at most `size` of them, which holds
    exactly when the (size+1)-th smallest g(d(i, x)) exceeds t_i.  Where
    those agents reach `need`, Y also leaves out one of the size+1
    positions that block the most of them, and none of the agents that
    position blocks counts.  One pass takes as many sizes as fit in
    ``_BOUND_ELEMS`` (size, anchor, agent) entries, at least one; the
    correction runs only on the (size, anchor) pairs that reach `need`.
    """
    n, k = Lt.shape[1], len(G)
    sizes = np.arange(first, min(k, first + max(1, _BOUND_ELEMS // max(1, Lt.size))))
    need = -((-(sizes + 1) * n) // k)
    t = np.maximum(Lt, Ls[:, need - 1].T[:, :, None])         # (size, anchor, agent)
    fit = t < Gs[sizes][:, None, :]
    bound = fit.sum(axis=2)
    si, rows = np.nonzero(bound >= need[:, None])
    fit, t = fit[si, rows], t[si, rows]                         # (pair, agent)
    blocks = np.sort([(fit & (reach <= t)).sum(axis=1) for reach in G], axis=0)
    bound[si, rows] -= blocks[k - 1 - sizes[si], np.arange(len(si))]
    return bound


def _exclusion_sets(Lt, G, size, need):
    """The exclusion sets Y with |Y| = size, as bit masks in scan order,
    where some anchor has at least `need` agents whose
    blockers (``_blockers``) all lie in Y.  ``_alg1_scan`` finds nothing
    for any other Y.

    Depth first over positions, taking a position before leaving it out,
    which is lexicographic order.  At every node an anchor stays only while
    the agents of its entries still in play number at least `need`, and
    the branch ends with the last anchor.  This one count is exact where
    it must be and sound elsewhere:

    * A take step keeps only entries with fewer blockers left than
      positions still to take, so every entry in play once all size
      positions are taken has no blocker left: there the count is the
      test for Y itself.
    * Below a branch an anchor never gains entries, so an anchor short of
      `need` at a node is short at every set under it.
    """
    nrow, k = len(Lt), len(G)
    rows, blocked, mult = _blockers(Lt, G, need)

    def walk(p, y, r, rows, blocked, left, mult):
        keep = (np.bincount(rows, weights=mult, minlength=nrow) >= need)[rows]
        if not keep.any():
            return
        if r == 0:
            yield y
            return
        rows, blocked, left, mult = rows[keep], blocked[keep], left[keep], mult[keep]
        has = blocked[:, p]
        fit = left - has < r
        yield from walk(p + 1, y | 1 << p, r - 1, rows[fit], blocked[fit],
                        (left - has)[fit], mult[fit])
        if k - p > r:
            yield from walk(p + 1, y, r, rows[~has], blocked[~has], left[~has], mult[~has])

    left = blocked.sum(axis=1)
    fit = left <= size
    yield from walk(0, 0, size, rows[fit], blocked[fit], left[fit], mult[fit])


def _alg1_scan(Lt, G, rank, need, rest):
    """One exclusion-set iteration of the small-k sweep, batched over anchors.

    ``Lt`` holds anchor distances as contiguous rows (anchor, agent) and
    ``G`` the reach radii g(d) of the selected centers as rows (center,
    agent).  For the exclusion set Y (complement rows `rest`), evaluates
    the maximum number of simultaneously live intervals [d(i,c), g(u_i))
    per anchor row and returns (row, radius, g(u) vector) of the first
    anchor where the count reaches `need`, ceil((|Y|+1) * n / k), else
    None.  g is monotone, so g(u) is the min over the `rest` rows.
    """
    ug = G[rest[0]] if len(rest) == 1 else G[rest].min(axis=0)
    # the overlap count can never exceed the number of nonempty intervals,
    # so rows short of the target are pruned before sorting
    alive = np.flatnonzero((Lt < ug[None, :]).sum(axis=1) >= need)
    return _live_scan(Lt, ug, rank, need, alive)


def _live_scan(Lt, ug, rank, need, alive):
    """``_alg1_scan`` past its count prune, on the rows `alive` of ``Lt``
    and the reach vector ``ug``: (row, radius, ug) of the first where the
    live intervals reach `need`, else None."""
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


def _smallk_hit(Lt, G, k, sorted_rows=None, first=0):
    """The small-k audit's search over the anchors whose distance rows are
    ``Lt`` (anchor, agent), against the selection's reach rows ``G``: its
    first violation as (row of Lt, size, radius, coalition mask, y), y
    being Y as a bit mask over the rows of G, or None.  Sizes below
    `first` count as checked.

    Per size |Y| >= 1, only anchors that pass ``_root_bounds`` are
    scanned, and only the sets Y that ``_exclusion_sets`` keeps for them
    once a size has more than ``_PLAIN_SETS``; the rest cannot violate.
    The bounds come one group of sizes at a time (``_root_bounds``), each
    computed when the search reaches its first size.  They read Lt sorted
    per row from `sorted_rows()`, called at the first such size
    (``np.sort`` of Lt if not given).  The coalition is the agents within
    the radius, out of reach of X \\ Y.
    """
    n = Lt.shape[1]
    rank = np.arange(1, n + 1, dtype=np.int64)
    rows, Lk, Ls = np.arange(len(Lt)), Lt, None
    for size in range(first, k):
        need = -((-(size + 1) * n) // k)
        if size:
            if Ls is None:
                # sorted only past size 0, which ends most failing audits
                Ls = np.sort(Lt, axis=1) if sorted_rows is None else sorted_rows()
                Gs = np.sort(G, axis=0)
                lo, bounds = size, ()
            if size - lo == len(bounds):
                lo, bounds = size, _root_bounds(Lt, Ls, G, Gs, size)
            rows = np.flatnonzero(bounds[size - lo] >= need)
            if rows.size == 0:
                continue
            Lk = Lt[rows]
        if math.comb(k, size) <= _PLAIN_SETS:
            sets = (sum(1 << p for p in ypos) for ypos in combinations(range(k), size))
        else:
            sets = _exclusion_sets(Lk, G, size, need)
        for y in sets:
            hit = _alg1_scan(Lk, G, rank, need, [p for p in range(k) if not y >> p & 1])
            if hit is not None:
                ci, radius, ug = hit
                row = int(rows[ci])
                return row, size, radius, (Lt[row] <= radius) & (ug > radius), y
    return None


def _check_smallk_cap(k, max_k=24):
    cap = min(max_k, 62)                # exclusion sets are int64 bit masks
    if k > cap:
        raise SizeError(f"k={k} exceeds exhaustive cap {cap}")


def _smallk_verdicts(instance: Instance, selections, gamma) -> np.ndarray:
    """``verify_mpjr_plus_smallk(instance, X, gamma).satisfied`` for each
    row X of `selections`, an (s, k) array of distinct in-range centers,
    at eps = 0, with no witness built.

    The anchor rows D.T and the reach rows of all m candidates are built
    once; g is elementwise, so row x is bit-equal to ``_reach_rows(D,
    [x])``.  Size 0 (Y empty) is tested for all rows at once: u, the min
    over a row's k reach rows, goes through ``_alg1_scan``'s count prune
    over (row, anchor) in chunks of at most _CHUNK_ELEMS entries, with the
    selected anchors masked out, and ``_live_scan`` runs on the anchors it
    keeps.  A row with no hit there goes through ``_smallk_hit`` from
    size 1, on the anchor rows sorted once, when some row first needs them.
    """
    check_gamma(gamma)
    k = instance.k
    _check_smallk_cap(k)
    D = instance.dists()
    (n, m), sel = D.shape, np.asarray(selections, dtype=np.intp).reshape(-1, k)
    LA = np.ascontiguousarray(D.T)                     # (anchor, agent)
    GA = _reach_radius(LA, gamma, 0.0)                 # (center, agent)
    sorted_all = functools.cache(lambda: np.sort(LA, axis=1))
    rank = np.arange(1, n + 1, dtype=np.int64)
    need = -(-n // k)
    ok = np.empty(len(sel), dtype=bool)
    step = max(1, _CHUNK_ELEMS // (m * n))
    for lo in range(0, len(sel), step):
        block = sel[lo:lo + step]
        u = GA[block].min(axis=1)                      # (row, agent)
        alive = np.count_nonzero(LA[None, :, :] < u[:, None, :], axis=2) >= need
        alive[np.arange(len(block))[:, None], block] = False
        for j, X in enumerate(block):
            if _live_scan(LA, u[j], rank, need, np.flatnonzero(alive[j])) is not None:
                ok[lo + j] = False
                continue
            outs = _unselected(instance, X)
            ok[lo + j] = _smallk_hit(LA[outs], GA[X], k, lambda outs=outs: sorted_all()[outs],
                                     first=1) is None
    return ok


@timed
def verify_mpjr_plus_smallk(instance: Instance, selection, gamma: float = 1.0,
                            max_k: int = 24, eps: float = 0.0) -> Verdict:
    """Small-k audit of anchored proportional representation.

    Checks exclusion sets Y inside the selection, by size; a violation is
    an anchor c and a radius r where at least (|Y|+1)*q agents sit within
    r of c yet farther than gamma*r + eps from every selected center
    outside Y.  The search is ``_smallk_hit``.
    """
    X = check_selection(instance, selection)
    check_gamma(gamma)
    check_eps(eps)
    _check_smallk_cap(instance.k, max_k)
    D, outs = instance.dists(), _unselected(instance, X)
    hit = _smallk_hit(np.ascontiguousarray(D[:, outs].T), _reach_rows(D, X, gamma, eps),
                      instance.k)
    if hit is None:
        return Verdict("mpjr+", gamma, True)
    row, size, radius, coalition, _ = hit
    return Verdict("mpjr+", gamma, False, _witness(D[:, X].T, X, int(outs[row]), size + 1,
                                                   radius, coalition, gamma, eps))
