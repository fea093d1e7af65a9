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
  (``_root_bounds``), and a size none keeps is skipped; a depth-first
  search over Y then skips every set where no kept anchor has enough
  agents whose such centers all lie in Y (``_exclusion_sets``).  Worst
  case O(m n log n * 2^k): practical for small k only.

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
  it fails early.  ``verify_fixed_ell_dc`` reads its one radius per
  anchor from the same helper, ``_coverage_radii``, over the same
  schedule.

Both run on exact float distances; radius grouping and interval
endpoints compare with == by default (fixtures and embeddings have exact
small-integer distances).  An opt-in ``eps`` widens comparisons for
noisy data.  Every verifier rejects gamma that is not finite and > 0 and
eps that is not finite and >= 0.

g is ``_reach_radius``, the one code that turns gamma and eps into a
radius threshold: each audit builds the reach rows g(d(., x)) of the
selected centers once (``_reach_rows``) and compares radii against them.

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
    """Per (anchor, agent) row of `keys`, the sorted min_j max(keys_j,
    rows_tj) over the (center, agent) rows of `rows`, after a column 0 of
    -inf: [:, l] is the l-th smallest, and level 0 is never short."""
    mu = np.empty((len(keys), len(rows) + 1))
    mu[:, 0] = -np.inf
    scratch = np.empty_like(keys)
    for t, row in enumerate(rows):
        np.maximum(keys, row, out=scratch)
        scratch.min(axis=1, out=mu[:, t + 1])
    mu.sort(axis=1)
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


def _dc_scan(D, X, outs, n, k, gamma, eps):
    """Core of the default-coalitions audit over the unselected anchors.

    Selected center x is covered by anchor c's ball of radius s (in
    gamma * s + eps) exactly when mu(c, x) <= s, where
    mu(c, x) = min_j max(d(j, c), g(d(j, x))).  So the coverage at each
    distinct radius s of c's sorted agent distances is the number of
    sorted mu values <= s, and a radius falls short of its level exactly
    when the level-th smallest mu exceeds it.

    Yields every violating (anchor, level, radius) in deterministic
    order: anchors ascending, then radii ascending.  Anchors run in the
    chunks of ``_anchor_chunks``, at most _CHUNK_ELEMS / n anchors each,
    so each chunk's scratch is O(_CHUNK_ELEMS + n), and a chunk is
    computed only when the caller asks past the chunks before it.
    """
    G = _reach_rows(D, X, gamma, eps)
    levels = (np.arange(1, n + 1, dtype=np.int64) * k) // n
    for part in _anchor_chunks(len(outs), max(1, _CHUNK_ELEMS // n)):
        cols = outs[part]
        s = np.ascontiguousarray(D[:, cols].T)          # (anchor, agent)
        mu = _coverage_radii(s, G)
        s.sort(axis=1)
        group_end = np.empty(s.shape, dtype=bool)
        group_end[:, -1] = True
        group_end[:, :-1] = s[:, 1:] > s[:, :-1] + eps
        bad = group_end & (mu[:, levels] > s)
        if not bad.any():
            continue
        for ci, i in zip(*np.nonzero(bad)):             # anchors, then radii
            yield int(cols[ci]), int(levels[i]), float(s[ci, i])


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


def _dc_witnesses(instance: Instance, selection, gamma, eps):
    """The violations of ``_dc_scan`` as witnesses, in its order; each
    coalition is the anchor's closed ball at the violating radius."""
    X = check_selection(instance, selection)
    check_gamma(gamma)
    check_eps(eps)
    D = instance.dists()
    for a, l, r in _dc_scan(D, X, _unselected(instance, X), instance.n, instance.k,
                            gamma, eps):
        yield _witness(D, X, a, l, r, D[:, a] <= r + eps, gamma, eps)


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
    """Single-level default-coalitions audit.

    Per anchor, only the first radius R whose ball deserves level >= ell
    is checked, per the sweep's early-stop specialization: with the ball
    d <= R + eps as keys over all n agents (-inf inside, inf out) and
    reach rows g(d), ``_coverage_radii`` gives g of each center's distance
    to the ball, and the anchor falls short when the ell-th smallest
    exceeds R.  Anchors run in the chunks of ``_anchor_chunks``, as in
    ``_dc_scan``.
    """
    X = check_selection(instance, selection)
    check_gamma(gamma)
    check_eps(eps)
    n, k = instance.n, instance.k
    check_level(ell, k)
    D = instance.dists()
    need = -((-ell * n) // k)
    outs = _unselected(instance, X)
    G = _reach_rows(D, X, gamma, eps)
    for part in _anchor_chunks(len(outs), max(1, _CHUNK_ELEMS // n)):
        cols = outs[part]
        s = np.ascontiguousarray(D[:, cols].T)          # (anchor, agent)
        R = np.partition(s, need - 1, axis=1)[:, need - 1]
        near = _coverage_radii(np.where(s <= R[:, None] + eps, -np.inf, np.inf), G)
        bad = np.flatnonzero(near[:, ell] > R)
        if bad.size:
            c, radius = int(cols[bad[0]]), float(R[bad[0]])
            return Verdict("fixed-ell-dc", gamma, False,
                           _witness(D, X, c, ell, radius, D[:, c] <= radius + eps,
                                    gamma, eps))
    return Verdict("fixed-ell-dc", gamma, True)


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


def _root_bounds(Lt, Ls, G, Gs, need, size):
    """Per anchor row of ``Lt``, an upper bound on the agents
    ``_alg1_scan`` counts at any Y with |Y| = size, for a target `need`,
    read from the rows sorted (``Ls``) and the reach rows ``G`` sorted per
    agent (``Gs``).

    The agents counted at a radius r have t_i <= r < g(u_i), so their
    blockers (``_blockers``) lie in Y: at most `size` of them, which holds
    exactly when the (size+1)-th smallest g(d(i, x)) exceeds t_i.  Where
    those agents reach `need`, Y also leaves out one of the size+1
    positions that block the most of them, and none of the agents that
    position blocks counts.
    """
    t = np.maximum(Lt, Ls[:, need - 1:need])
    fit = t < Gs[size]
    bound = fit.sum(axis=1)
    rows = np.flatnonzero(bound >= need)
    fit, t = fit[rows], t[rows]
    blocks = [(fit & (reach <= t)).sum(axis=1) for reach in G]
    bound[rows] -= np.sort(blocks, axis=0)[-size - 1]
    return bound


def _exclusion_sets(Lt, G, size):
    """The exclusion sets Y with |Y| = size, as bit masks in scan order,
    where some anchor has at least need = (size+1) * n / k agents whose
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
    (nrow, n), k = Lt.shape, len(G)
    need = -((-(size + 1) * n) // k)
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


def _alg1_scan(Lt, G, rank, n, k, size, rest):
    """One exclusion-set iteration of the small-k sweep, batched over anchors.

    ``Lt`` holds anchor distances as contiguous rows (anchor, agent) and
    ``G`` the reach radii g(d) of the selected centers as rows (center,
    agent).  For the exclusion set Y (|Y| = size, complement rows `rest`),
    evaluates the maximum number of simultaneously live intervals
    [d(i,c), g(u_i)) per anchor row and returns (row, radius, g(u) vector)
    of the first anchor where the count clears (size+1) * n / k, else
    None.  g is monotone, so g(u) is the min over the `rest` rows.
    """
    ug = G[rest[0]] if len(rest) == 1 else G[rest].min(axis=0)
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

    Checks exclusion sets Y inside the selection, by size; a violation is
    an anchor c and a radius r where at least (|Y|+1)*q agents sit within
    r of c yet farther than gamma*r + eps from every selected center
    outside Y.  Only anchors that pass ``_root_bounds`` at a size are
    scanned, and only the sets Y that ``_exclusion_sets`` keeps for them
    once a size has more than ``_PLAIN_SETS``; the rest cannot violate.
    """
    X = check_selection(instance, selection)
    check_gamma(gamma)
    check_eps(eps)
    n, k = instance.n, instance.k
    cap = min(max_k, 62)                # exclusion sets are int64 bit masks
    if k > cap:
        raise SizeError(f"k={k} exceeds exhaustive cap {cap}")
    D = instance.dists()
    outs = _unselected(instance, X)
    if len(outs) == 0:
        return Verdict("mpjr+", gamma, True)
    Lt = np.ascontiguousarray(D[:, outs].T)
    G = _reach_rows(D, X, gamma, eps)
    rank = np.arange(1, n + 1, dtype=np.int64)
    rows, Lk = np.arange(len(outs)), Lt
    for size in range(k):
        if size:
            # sorted once, after size 0, which ends most failing audits
            if size == 1:
                Ls, Gs = np.sort(Lt, axis=1), np.sort(G, axis=0)
            need = -((-(size + 1) * n) // k)
            rows = np.flatnonzero(_root_bounds(Lt, Ls, G, Gs, need, size) >= need)
            if rows.size == 0:
                continue
            Lk = Lt[rows]
        if math.comb(k, size) <= _PLAIN_SETS:
            sets = (sum(1 << p for p in ypos) for ypos in combinations(range(k), size))
        else:
            sets = _exclusion_sets(Lk, G, size)
        for y in sets:
            rest = [p for p in range(k) if not y >> p & 1]
            hit = _alg1_scan(Lk, G, rank, n, k, size, rest)
            if hit is None:
                continue
            ci, radius, ug = hit
            c = outs[rows[ci]]
            coalition = (D[:, c] <= radius) & (ug > radius)
            return Verdict("mpjr+", gamma, False,
                           _witness(D, X, c, size + 1, radius, coalition, gamma, eps))
    return Verdict("mpjr+", gamma, True)
