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
  such centers, less the agents of the (|Y|+1)-th most common one, and a
  size none keeps is skipped.  The bound is a table no selection changes
  (``_bound_table``) and a count against the selection's reach rows
  (``_bound_counts``), taken over a batch of selections at once.  One
  pass counts as many (selection, size, anchor, agent) entries as
  ``_BOUND_ELEMS`` holds, and one size alone past that.  A depth-first
  search over Y then skips every set where no kept anchor has enough
  agents whose such centers all lie in Y (``_exclusion_sets``).  Worst
  case O(m n log n * 2^k): practical for small k only.  One kernel,
  ``_live_hits``, sweeps the intervals for every (reach row, anchor) pair
  of a call at once, on the table's rows for the size, and one driver,
  ``_smallk_hits``, runs the search for a batch of selections: size 0
  (Y empty) for the whole batch in stacked calls, then the selections
  that pass it through the sizes in groups, each group's table built once
  and bounded for them together, each size's exclusion sets stacked into
  calls.  It takes the anchor rows, the selections' reach rows and a mask
  of anchors to skip, so the single audit is a batch of one, approval
  PJR+ is a batch of one on {1, 2} ballot rows, and ``_smallk_verdicts``
  gives the experiment harness the verdicts of many selections of one
  instance: the anchor rows of all m candidates, built once, with each
  selection's own anchors skipped, and as many selections a call as fit
  in ``_BOUND_ELEMS`` reach entries, so the search's scratch does not grow
  with their number.

* ``verify_dc_mpjr_plus`` checks each unselected anchor's tightest ball at
  every level through coverage radii: selected center x is covered by the
  ball of radius s around anchor c exactly when
  mu(c,x) = min_j max(d(j,c), g(d(j,x))) <= s, where g(v) is the smallest
  float r with gamma*r + eps >= v (the identity when gamma = 1 and
  eps = 0).  The coverage at a radius is then a count of sorted mu
  values, with no per-radius distance work.  The kernel first runs over
  every ``_SCREEN_STRIDE``-th agent only: a minimum over fewer agents is
  never below mu, so an anchor whose screened mu_l stays within R_l
  (below) at every checked level passes at any gamma and eps, and only
  the anchors it flags get the exact mu.  Cost O(m n log n +
  m n k / _SCREEN_STRIDE), plus O(n k) per flagged anchor.  Anchors run
  in the chunks of one schedule, ``_anchor_chunks``, whose
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
  once: mu and R do not depend on the selection.  One function,
  ``_short``, tests mu_l > R_l for the screen, the exact step and
  fixed-l in ``_dc_scan`` and for ``_dc_verdicts``.

Both experiment batches take their set-up from ``_batch_rows`` (the
anchor rows, the used centers' reach rows, each selection's index into
them and its own-anchor mask) and keep their own loops.

Both run on exact float distances, compared exactly by default (fixtures
and embeddings have exact small-integer distances).  An opt-in ``eps``
widens comparisons for noisy data.  In the DC audits an anchor's sorted
radii within eps of their neighbour form one chain, a chain is checked
at its end s, and coverage counts the centers within gamma*s + eps.
Every verifier rejects gamma that is not finite and > 0 and eps that is
not finite and >= 0.

Every audit here reads distances as contiguous (candidate, agent) rows
from ``Instance.rows``, never as the n x m matrix.  g is
``_reach_radius``, the one code that turns gamma and eps into a radius
threshold: each audit applies it once to the rows of the selected centers
it holds, giving their reach rows g(d(., x)), and compares radii against
them.

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
from itertools import combinations, islice

import numpy as np

from .core import (InputError, Instance, SizeError, Verdict, Witness, check_eps,
                   check_gamma, check_level, check_selection, is_int, timed)

# cap on the (anchor, agent) entries of one DC anchor chunk: a chunk holds
# _CHUNK_ELEMS // n anchors (at least one), so the coverage kernel's keys
# and scratch (512 KB each) stay in a 2 MB L2 cache across the k center
# rows.  Full sweeps (whole chunks, gamma=1, 2 vCPUs) at this cap against the
# earlier 4e6 // (n k) anchors: n=5000, m=100, k=20: 13 vs 40 anchors,
# 17.2 vs 21.6 ms; n=5e4, m=100, k=10: 1 vs 8, 260 vs 272 ms; n=1e5,
# m=200, k=20: 1 vs 2, 1.32 vs 1.50 s.  One anchor a chunk is the slowest
# choice at n=5000 (29 ms) and the fastest at the two larger sizes
_CHUNK_ELEMS = 1 << 16
# the DC scan screens each chunk with coverage radii over every
# _SCREEN_STRIDE-th agent and runs the exact kernel only on the anchors
# the screen flags.  Library audits (2 vCPUs, interleaved in one process,
# medians; anchors flagged of 240 in brackets) at strides 8 / 16 / 32,
# against no screen: dc-sat's layout (n=5000, m=100, k=20) 4.37 / 3.82 /
# 3.54 vs 8.26 ms (0 / 0 / 0); 5 Gaussian clusters (n=2000, m=100, k=20)
# with SEAR's selection 1.84 / 1.74 / 2.00 vs 3.79 ms (0 / 3 / 19), with
# random ones (full sweep) 4.34 / 4.54 / 4.69 vs 5.49 ms (36 / 46 / 65;
# the exact filter keeps 31)
_SCREEN_STRIDE = 16
_SIGN = np.uint64(1 << 63)
# the small-k audit scans a size's exclusion sets one by one up to this
# many; larger sizes go through the pruned search of _exclusion_sets.
# Few sets cost less than the search's set-up: with the search at every
# size, the k=5 experiment grid ran about 1.5x as long (0.66 vs 0.43 s,
# with the anchors cut by the bounds first)
_PLAIN_SETS = 16
# cap on the (selection, size, anchor, agent) entries of one _bound_counts
# pass, which bounds as many sizes (and, in a batch, selections) at once as
# fit (one size at least), and on the (reach row, anchor, agent) entries of
# one small-k _live_hits call; a pass's scratch is 9 bytes an entry (the
# table and fit), 2.3 MB at the cap.  Library audits of the smallk-sat
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


def _short(mu, R, ell=None) -> np.ndarray:
    """The DC audits' level test: a bool mask over the anchors of `mu`,
    coverage radii sorted per anchor and shaped (..., anchor, 1 + k) with
    level 0's -inf first, set where mu_l > R_l at some level l (at `ell`
    only, if given), R (anchor, k) being each anchor's level radii, R_l
    the ceil(l n / k)-th smallest d(., c)."""
    if ell is not None:
        return mu[..., ell] > R[..., ell - 1]
    return (mu[..., 1:] > R).any(axis=-1)


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
    the ceil(l n / k)-th smallest radius; the test is ``_short``) are
    walked radius by radius.

    A screen runs first: the same kernel over every ``_SCREEN_STRIDE``-th
    agent gives ub >= mu entry by entry (a minimum over fewer agents is
    never smaller), so ub_l >= mu_l after both sorts, and an anchor with
    ub_l <= R_l at every checked level has none short at any gamma and
    eps.  Only the anchors the screen flags get their rows again for the
    exact mu (the chunk's rows are sorted in place for R), the filter
    above and the walk.  Cost O(m n log n + m n k / _SCREEN_STRIDE), plus
    the exact O(n k) per flagged anchor.

    `D` is the n x m distance matrix or a row source like
    ``Instance.rows``; `XR` is the selection's rows, if the caller has them.
    Anchors run in the chunks of ``_anchor_chunks`` (O(_CHUNK_ELEMS + n)
    scratch), each computed only when the caller asks past the ones before.
    """
    rows = D if callable(D) else lambda cols: np.ascontiguousarray(D[:, cols].T)
    XR = rows(np.asarray(X, dtype=np.intp)) if XR is None else XR
    G = _reach_radius(XR, gamma, eps)
    Gs = np.ascontiguousarray(G[:, ::_SCREEN_STRIDE])
    levels = (np.arange(1, n + 1, dtype=np.int64) * k) // n
    if ell is not None:
        levels = np.where(levels >= ell, ell, 0)
    q = _level_index(n, k)
    for part in _anchor_chunks(len(outs), max(1, _CHUNK_ELEMS // n)):
        cols = outs[part]
        s = rows(cols)                                  # (anchor, agent)
        ub = _coverage_radii(np.ascontiguousarray(s[:, ::_SCREEN_STRIDE]), Gs)
        ub.sort(axis=1)
        s.sort(axis=1)
        R = s[:, q]                                     # (anchor, level)
        flagged = np.flatnonzero(_short(ub, R, ell))
        if flagged.size:
            mu = _coverage_radii(rows(cols[flagged]), G)
            mu.sort(axis=1)
            for fi in np.flatnonzero(_short(mu, R[flagged], ell)):
                ci = flagged[fi]
                bad = mu[fi, levels] > s[ci]
                bad[:-1] &= s[ci, 1:] > s[ci, :-1] + eps    # chain ends only
                for i in np.flatnonzero(bad):
                    yield int(cols[ci]), int(levels[i]), float(s[ci, i])
        # dropped before the next chunk is computed, so it reuses the memory:
        # held across it, the rows cost a satisfied n=5000, m=100 sweep about 4%
        del s


def _batch_rows(instance: Instance, selections, gamma) -> tuple:
    """The set-up both experiment batches share, for `selections`, an
    (s, k) array of distinct in-range centers: (the (s, k) selections, the
    anchor rows of all m candidates (``Instance.rows``, a fresh array),
    the reach rows at eps = 0 of the centers some selection uses, each
    selection's (s, k) index into those reach rows, and the (s, m) mask of
    each selection's own anchors).  g is elementwise, so the reach row of
    x is bit-equal to ``_reach_radius(instance.rows([x]), gamma, 0.0)``,
    and g runs only on the used centers' rows."""
    check_gamma(gamma)
    sel = np.asarray(selections, dtype=np.intp).reshape(-1, instance.k)
    used = np.flatnonzero(np.bincount(sel.ravel(), minlength=instance.m))
    L = instance.rows(np.arange(instance.m))           # (anchor, agent)
    own = np.zeros((len(sel), instance.m), dtype=bool)
    own[np.arange(len(sel))[:, None], sel] = True
    return sel, L, _reach_radius(L[used], gamma, 0.0), np.searchsorted(used, sel), own


def _dc_verdicts(instance: Instance, selections, gamma) -> np.ndarray:
    """``verify_dc_mpjr_plus(instance, X, gamma).satisfied`` for each row X
    of `selections`, an (s, k) array of distinct in-range centers, at
    eps = 0, where the level test ``_short`` is the verdict.

    Neither mu nor R depends on X, so ``_coverage_radii`` builds mu once
    for the used centers from the rows of ``_batch_rows``, R comes from one
    in-place sort of those rows, and each row X is a gather of m (1 + k)
    radii (level 0's -inf column first), a sort per anchor and ``_short``,
    in chunks of rows of about _CHUNK_ELEMS radii, with X's own anchors
    masked out.
    """
    sel, L, GU, pos, own = _batch_rows(instance, selections, gamma)
    n, m, k = instance.n, instance.m, instance.k
    mu = _coverage_radii(L, GU)                        # (anchor, 1 + used)
    L.sort(axis=1)                                     # in place, once mu is built
    R = L[:, _level_index(n, k)]                       # (anchor, level)
    cols = np.hstack([np.zeros((len(sel), 1), dtype=np.intp), pos + 1])
    ok = np.empty(len(sel), dtype=bool)
    step = max(1, _CHUNK_ELEMS // (m * k))
    for lo in range(0, len(sel), step):
        block = mu[:, cols[lo:lo + step]].swapaxes(0, 1)   # (row, anchor, 1 + k)
        block.sort(axis=2)
        ok[lo:lo + step] = ~(_short(block, R) & ~own[lo:lo + step]).any(axis=1)
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


def _blockers(T, G):
    """Each agent's blocker set per anchor row, deduplicated per row.

    ``_live_hits`` counts agent i at anchor c only while
    t_i = max(d(i, c), R) < g(u_i), t_i being the entry of the size's
    table rows ``T`` (``_bound_table``).  g is monotone, so that holds
    exactly when t_i < g(d(i, x)) for every selected center x outside Y,
    read from the reach rows ``G``.  Center x_p blocks i unless the test
    passes for x_p.  Returns (rows, blocked, mult): anchor rows ascending,
    a bool matrix (entry, position) and the number of agents sharing each
    entry.  Blocker sets are int64 bit masks here, so k is at most 62.
    """
    k = len(G)
    free = np.zeros(T.shape, dtype=np.int64)
    for p, reach in enumerate(G):
        free |= (T < reach[None, :]).astype(np.int64) << p
    masks = np.sort(free ^ ((1 << k) - 1), axis=1)
    first = np.ones(masks.shape, dtype=bool)
    first[:, 1:] = masks[:, 1:] != masks[:, :-1]
    first = np.flatnonzero(first)
    blocked = (masks.ravel()[first, None] >> np.arange(k)) & 1
    mult = np.empty(len(first), dtype=np.int64)
    mult[:-1] = first[1:] - first[:-1]
    mult[-1] = masks.size - first[-1]
    return first // T.shape[1], blocked.astype(bool), mult


def _bound_table(Lt, Ls, k, sizes) -> np.ndarray:
    """The part of ``_bound_counts`` no selection changes: per size of
    `sizes`, t_i = max(d(i, c), R) for each (anchor, agent) entry of the
    rows ``Lt``, R being the need-th smallest d(., c), read from the rows
    sorted (``Ls``), and need ceil((size+1) n / k)."""
    need = -((-(sizes + 1) * Lt.shape[1]) // k)
    return np.maximum(Lt, Ls[:, need - 1].T[:, :, None])        # (size, anchor, agent)


def _bound_counts(T, G, Gs, sizes) -> np.ndarray:
    """Upper bounds on the agents ``_live_hits`` counts per anchor at any
    Y with |Y| = size, as (selection, size, anchor), for a batch of
    selections' reach rows ``G`` (selection, center, agent), sorted per
    agent in ``Gs``, and the table ``T`` of ``_bound_table`` for `sizes`.

    The agents counted at a radius r have t_i <= r < g(u_i), so their
    blockers (``_blockers``) lie in Y: at most `size` of them, which holds
    exactly when the (size+1)-th smallest g(d(i, x)) exceeds t_i.  Where
    those agents reach `need`, Y also leaves out one of the size+1
    positions that block the most of them, and none of the agents that
    position blocks counts.  The correction runs only on the (selection,
    size, anchor) triples that reach `need`.
    """
    n, k = T.shape[2], G.shape[1]
    need = -((-(sizes + 1) * n) // k)
    fit = T[None] < Gs[:, sizes, None, :]           # (selection, size, anchor, agent)
    bound = fit.sum(axis=3)
    b, si, rows = np.nonzero(bound >= need[:, None])
    fit, t = fit[b, si, rows], T[si, rows]                      # (triple, agent)
    blocks = np.sort([(fit & (G[b, p] <= t)).sum(axis=1) for p in range(k)], axis=0)
    bound[b, si, rows] -= blocks[k - 1 - sizes[si], np.arange(len(b))]
    return bound


def _exclusion_sets(T, G, size, need):
    """The exclusion sets Y with |Y| = size, as bit masks in scan order,
    where some anchor of the table rows ``T`` has at least `need` agents
    whose blockers (``_blockers``) all lie in Y.  ``_live_hits`` finds
    nothing for any other Y.

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
    nrow, k = len(T), len(G)
    rows, blocked, mult = _blockers(T, G)

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


def _live_hits(T, U, need, skip=None):
    """The live-interval test of the small-k audit over every (row of
    ``U``, row of ``T``) pair: do `need` intervals [d(i, c), u_i) overlap
    at some radius?  ``T`` holds one size's table rows max(d(i, c), R)
    (``_bound_table``), R the need-th smallest d(., c) and so the row's
    minimum; ``U`` holds reach rows, u_i = g(distance to the nearest center
    outside Y); pairs set in the bool mask `skip` (row of U, row of T)
    never hit.  Returns, per row of U, the first row of T with a hit
    (len(T) if none) and that hit's first radius (NaN if none).

    A hit at r counts need agents with d(i, c) <= r, so r >= R, where the
    starts max(d, R) and d give the same live count: the first radius is
    the same float.  So a pair with fewer than need entries T < u has no
    hit, and one with need entries T = R < u hits at R.  Only the pairs
    before their row's first such one count live intervals, at each
    sorted start: the t-th start (1-based) has t begun, and those whose
    end is at or below it have closed.
    """
    reach = T < U[:, None, :]                          # (row, anchor, agent)
    alive = reach.sum(axis=2) >= need
    if skip is not None:
        alive &= ~skip
    first, radius = np.full(len(U), len(T)), np.full(len(U), np.nan)
    if not alive.any():
        return first, radius
    R = T.min(axis=1)
    near = alive & ((reach & (T == R[:, None])).sum(axis=2) >= need)
    some = near.any(axis=1)
    first[some] = near[some].argmax(axis=1)
    radius[some] = R[first[some]]
    r, c = np.nonzero(alive & (np.arange(len(T)) < first[:, None]))   # pairs in row order
    rank = np.arange(1, T.shape[1] + 1)
    cut = np.searchsorted(r, np.arange(len(U) + 1))
    for j in np.flatnonzero(cut[1:] > cut[:-1]):
        cols = c[cut[j]:cut[j + 1]]
        Ls = np.sort(np.minimum(T[cols], U[j]), axis=1)
        live = rank - np.searchsorted(np.sort(U[j]), Ls, side="right")
        hit = np.flatnonzero(live.max(axis=1) >= need)
        if hit.size:
            p = hit[0]
            first[j], radius[j] = cols[p], Ls[p, np.argmax(live[p] >= need)]
    return first, radius


def _smallk_hits(L, G, skip=None) -> list:
    """The small-k audit's search for a batch of selections over the
    anchors whose distance rows are ``L`` (anchor, agent): per selection,
    with reach rows ``G[j]`` (center, agent), its first violation as (row
    of L, size, radius, coalition mask, y), y being Y as a bit mask over
    the rows of G[j], or None.  Anchors set in the bool mask `skip`
    (selection, anchor) never violate.

    Each size is one kernel, ``_live_hits``, on the size's table rows
    (``_bound_table``), over reach rows stacked as many as fit in
    ``_BOUND_ELEMS`` (reach row, anchor, agent) entries, at least one.
    Size 0 (Y empty), where most failing audits end, stacks the
    selections.  The rest go on through the sizes from 1 in groups of as
    many as fit in ``_BOUND_ELEMS`` (size, anchor, agent) entries, at
    least one: a group's table is built once, and ``_bound_counts``
    bounds the selections still live against it, as many at a time as fit
    in ``_BOUND_ELEMS`` (selection, size, anchor, agent) entries.  Per
    selection and size, only anchors whose bound reaches the size's target
    are scanned, the rest cannot violate, and the size's sets Y (all of
    them, or once a size has more than ``_PLAIN_SETS``, those
    ``_exclusion_sets`` keeps) are stacked: the first set with a hit in
    scan order gives the violation.  The coalition is the agents within
    the radius r, out of reach of X \\ Y, read from the table row: a hit
    has r >= R, where max(d, R) <= r exactly when d <= r.
    """
    s, k, n = G.shape
    Ls = np.sort(L, axis=1)
    hits = [None] * s

    def scan(T, rows, U, owners, size, ys, need, mask=None):
        first, radius = _live_hits(T, U, need, mask)
        for j in np.flatnonzero(first < len(T)):
            if hits[owners[j]] is None:
                r = float(radius[j])
                hits[owners[j]] = (int(rows[first[j]]), size, r,
                                   (T[first[j]] <= r) & (U[j] > r), ys[j])

    T = _bound_table(L, Ls, k, np.arange(1))[0]
    per = max(1, _BOUND_ELEMS // max(1, T.size))
    for lo in range(0, s, per):
        scan(T, np.arange(len(T)), G[lo:lo + per].min(axis=1), range(lo, lo + per), 0,
             [0] * per, -(-n // k), None if skip is None else skip[lo:lo + per])
    live, Gs = np.arange(s), None
    group = max(1, _BOUND_ELEMS // max(1, L.size))
    for lo in range(1, k, group):
        # drop the last group's table and every copy of its rows before the next
        # is built: held, they took a satisfied n=5000, m=100, k=20 audit's
        # tracemalloc peak from 11.6 to 14.8 MB
        T = Tk = sets = None
        keep = np.array([hits[j] is None for j in live], dtype=bool)
        if not keep.all():
            live, G, Gs = live[keep], G[keep], None
        if not live.size:
            break
        if Gs is None:
            Gs = np.sort(G, axis=1)
        sizes = np.arange(lo, min(k, lo + group))
        need = -((-(sizes + 1) * n) // k)
        T = _bound_table(L, Ls, k, sizes)
        per = max(1, _BOUND_ELEMS // max(1, T.size))
        for c in range(0, len(live), per):
            B = _bound_counts(T, G[c:c + per], Gs[c:c + per], sizes)
            if skip is not None:
                B *= ~skip[live[c:c + per], None]
            for j, G_j, B_j in zip(live[c:c + per], G[c:c + per], B):
                for size, Tk, b, t in zip(sizes.tolist(), T, B_j, need.tolist()):
                    rows = np.flatnonzero(b >= t)
                    if rows.size == 0:
                        continue
                    Tk = Tk[rows]
                    if math.comb(k, size) <= _PLAIN_SETS:
                        sets = (sum(1 << p for p in y) for y in combinations(range(k), size))
                    else:
                        sets = _exclusion_sets(Tk, G_j, size, t)
                    step = max(1, _BOUND_ELEMS // max(1, Tk.size))
                    while hits[j] is None and (ys := list(islice(sets, step))):
                        U = np.array([G_j[[p for p in range(k) if not y >> p & 1]].min(axis=0)
                                      for y in ys])
                        scan(Tk, rows, U, [j] * len(ys), size, ys, t)
                    if hits[j] is not None:
                        break
    return hits


def _check_smallk_cap(k, max_k=24):
    if not is_int(max_k):
        raise InputError(f"max_k must be an integer, got {max_k!r}")
    cap = min(max_k, 62)                # exclusion sets are int64 bit masks
    if k > cap:
        raise SizeError(f"k={k} exceeds exhaustive cap {cap}")


def _smallk_verdicts(instance: Instance, selections, gamma) -> np.ndarray:
    """``verify_mpjr_plus_smallk(instance, X, gamma).satisfied`` for each
    row X of `selections`, an (s, k) array of distinct in-range centers,
    at eps = 0, with no witness built: ``_smallk_hits`` over the anchor
    rows of ``_batch_rows``, with each row's own anchors in `skip`.  The
    selections go in calls of at most ``_BOUND_ELEMS`` (selection, center,
    agent) reach entries, at least one selection, so the search's scratch
    does not grow with their number.
    """
    sel, L, GU, pos, own = _batch_rows(instance, selections, gamma)
    _check_smallk_cap(instance.k)
    step = max(1, _BOUND_ELEMS // (instance.k * instance.n))
    return np.array([hit is None for lo in range(0, len(sel), step)
                     for hit in _smallk_hits(L, GU[pos[lo:lo + step]], own[lo:lo + step])],
                    dtype=bool)


@timed
def verify_mpjr_plus_smallk(instance: Instance, selection, gamma: float = 1.0,
                            max_k: int = 24, eps: float = 0.0) -> Verdict:
    """Small-k audit of anchored proportional representation.

    Checks exclusion sets Y inside the selection, by size; a violation is
    an anchor c and a radius r where at least (|Y|+1)*q agents sit within
    r of c yet farther than gamma*r + eps from every selected center
    outside Y.  The search is ``_smallk_hits``, on a batch of one.  `max_k` must be an
    integer (``InputError`` otherwise), and k past min(max_k, 62) raises
    ``SizeError``.
    """
    X = check_selection(instance, selection)
    check_gamma(gamma)
    check_eps(eps)
    _check_smallk_cap(instance.k, max_k)
    XR, outs = instance.rows(X), _unselected(instance, X)
    hit = _smallk_hits(instance.rows(outs), _reach_radius(XR, gamma, eps)[None])[0]
    if hit is None:
        return Verdict("mpjr+", gamma, True)
    row, size, radius, coalition, _ = hit
    return Verdict("mpjr+", gamma, False, _witness(XR, X, int(outs[row]), size + 1,
                                                   radius, coalition, gamma, eps))
