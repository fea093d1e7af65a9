"""Brute-force reference implementations of the metric axioms.

These transcribe the definitions directly (subset enumeration, explicit
ball computations) and deliberately share no sweep machinery with the
production verifiers, so that agreement between the two is meaningful
evidence of correctness.  All are desk-scale only, guarded by caps.

A violation's witness carries what the definition names: ``oracle_mpjr``
the radius, the coalition, its level and the selected centers its
members approve at that radius (``center`` None); ``oracle_mpjr_plus``
the anchor, the coalition's level, its radius (its farthest member from
the anchor), the coalition and the selected centers covering it;
``oracle_mpjr_plus_fixed_ell`` the same at level ell, with ``covered``
None; ``oracle_dc`` the anchor, the level, the ball's radius, the ball
and the selected centers covering it.  The two anchored oracles are one
transcription, ``_anchored_oracle``, that differs only in the level
vector.  Coalitions are enumerated by bit mask with the approval brute
forces' fold, ``approval._subset_fold``, and their sizes are the masks'
popcounts (``approval._subset_sizes``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .approval import _pjr_witness, _subset_fold, _subset_sizes
from .core import (InputError, Instance, SizeError, Verdict, Witness, check_eps,
                   check_gamma, check_level, check_selection, is_int, timed)

_MAX_AGENTS = 16
_MAX_BALL = 20


@timed
def oracle_mpjr(instance: Instance, selection, max_agents: int = _MAX_AGENTS) -> Verdict:
    """Metric PJR by radius enumeration.

    Only radii among the agent-candidate distances matter: the ball
    structure is constant between consecutive values.  At each distinct
    radius r, in ascending order, the approval election "agent i approves
    the candidates within r" is checked exhaustively (``_pjr_witness`` on
    the ballot rows D <= r); the first violation's witness gets radius r.
    `max_agents` must be an integer (``InputError`` otherwise), and n past
    it raises ``SizeError``.
    """
    X = check_selection(instance, selection)
    if not is_int(max_agents):
        raise InputError(f"max_agents must be an integer, got {max_agents!r}")
    if instance.n > max_agents:
        raise SizeError(f"n={instance.n} exceeds exhaustive cap {max_agents}")
    D = instance.dists()
    for r in np.unique(D):
        wit = _pjr_witness(D <= r, X, instance.k)
        if wit is not None:
            return Verdict("mpjr", 1.0, False, replace(wit, radius=float(r)))
    return Verdict("mpjr", 1.0, True)


def _anchored_oracle(instance: Instance, selection, gamma, ell=None) -> Verdict:
    """Both anchored oracles, one transcription.

    Every unselected center c and every coalition S is examined: the
    coalition's radius is its farthest member from c, a selected center
    covers it when some member is within gamma times that radius, and S is
    violated when its level exceeds its cover count.  The level is
    min(|S| k // n, k); with `ell` given, it is ell where that is at least
    ell and 0 elsewhere.  The first violated (c, S), by c then by S's bit
    mask, is the witness.
    """
    X = check_selection(instance, selection)
    check_gamma(gamma)
    n, k = instance.n, instance.k
    if ell is not None:
        check_level(ell, k)
    if n > _MAX_AGENTS:
        raise SizeError(f"n={n} exceeds exhaustive cap {_MAX_AGENTS}")
    D = instance.dists()
    level = np.minimum(_subset_sizes(n) * k // n, k)
    if ell is not None:
        level = np.where(level >= ell, ell, 0)
    # reach[S, p]: the distance from X[p] to the nearest member of coalition S
    reach = _subset_fold(D[:, list(X)], np.inf, np.minimum)
    axiom = "mpjr+-oracle" if ell is None else "fixed-ell-mpjr+-oracle"
    xset = set(X)
    for c in range(instance.m):
        if c in xset:
            continue
        rmax = _subset_fold(D[:, c], -np.inf, np.maximum)
        within = reach <= gamma * rmax[:, None]
        violated = level > within.sum(axis=1)
        if violated.any():
            s = int(np.flatnonzero(violated)[0])
            covered = frozenset(x for x, w in zip(X, within[s]) if w)
            wit = Witness(center=c, level=int(level[s]), radius=float(rmax[s]),
                          coalition=frozenset(i for i in range(n) if s >> i & 1),
                          covered=covered if ell is None else None)
            return Verdict(axiom, gamma, False, wit)
    return Verdict(axiom, gamma, True)


@timed
def oracle_mpjr_plus(instance: Instance, selection, gamma: float = 1.0) -> Verdict:
    """Anchored proportional representation, straight from the definition
    (``_anchored_oracle`` at every level).  A violation's witness carries
    the anchor, the coalition's level min(|S| k // n, k), its radius, the
    coalition and, as `covered`, the selected centers covering it: fewer
    than its level.
    """
    return _anchored_oracle(instance, selection, gamma)


@timed
def oracle_mpjr_plus_fixed_ell(instance: Instance, selection, ell: int,
                               gamma: float = 1.0) -> Verdict:
    """The anchored oracle at the single level `ell` (``_anchored_oracle``):
    only coalitions with |S| k >= ell n count, and each is violated when
    fewer than ell selected centers cover it.  A violation's witness
    carries the anchor, level ell, the radius and the coalition, with
    `covered` None.
    """
    return _anchored_oracle(instance, selection, gamma, ell)


@timed
def oracle_dc(instance: Instance, selection, gamma: float = 1.0, eps: float = 0.0) -> Verdict:
    """Default-coalitions audit transcribed per (anchor, level) pair.

    Level ell of anchor c is checked at E, the end of the eps-chain that
    holds R, the ceil(ell n / k)-th smallest d(., c): from R, the sorted
    distances are walked while the next is within eps of the last (at
    eps = 0, E = R).  The coalition is the closed ball of radius E, and a
    selected center covers it when some member is within gamma * E + eps.

    Independent of the sweep verifier: radii come from a plain sort, and
    coverage from explicit ball membership.
    """
    X = check_selection(instance, selection)
    check_gamma(gamma)
    check_eps(eps)
    n, k = instance.n, instance.k
    D = instance.dists()
    xs = np.asarray(X, dtype=np.intp)
    xset = set(X)
    for c in range(instance.m):
        if c in xset:
            continue
        by_dist = np.sort(D[:, c])
        for ell in range(1, k + 1):
            end = -((-ell * n) // k) - 1
            while end + 1 < n and by_dist[end + 1] <= by_dist[end] + eps:
                end += 1
            radius = float(by_dist[end])
            members = np.flatnonzero(D[:, c] <= radius)
            reach = D[np.ix_(members, xs)].min(axis=0)
            covered = frozenset(int(x) for x, d in zip(X, reach)
                                if d <= gamma * radius + eps)
            if len(covered) < ell:
                wit = Witness(center=c, level=ell, radius=radius,
                              coalition=frozenset(members.tolist()), covered=covered)
                return Verdict("dc-oracle", gamma, False, wit)
    return Verdict("dc-oracle", gamma, True)


@dataclass(frozen=True)
class SubmodularReport:
    """Exact minimum of the anchored deficiency function over one ball.

    The minimized value is coverage - |S|/q, kept as the integer pair
    (coverage, size); the violation test coverage * n <= size * k - n is
    the cross-multiplied form of "<= -1".
    """

    center: int
    radius: float
    coverage: int
    size: int
    violation: bool


def submodular_min_check(instance: Instance, selection, center: int,
                         r: float) -> SubmodularReport:
    """Exhaustively minimize coverage(S) - |S|/q over subsets of the ball.

    Ground set is B(center, r) among agents; coverage counts selected
    centers within r of the coalition.  Ties in the minimum resolve to
    the numerically first subset.  `center` must be an integer in [0, m)
    and `r` a finite number >= 0.
    """
    X = check_selection(instance, selection)
    n, k = instance.n, instance.k
    if not (is_int(center) and 0 <= center < instance.m):
        raise InputError(f"center must be an integer in [0, {instance.m}), got {center!r}")
    check_eps(r, "r")
    D = instance.dists()
    ground = np.flatnonzero(D[:, center] <= r)
    b = len(ground)
    if b > _MAX_BALL:
        raise SizeError(f"ball of {b} agents exceeds cap {_MAX_BALL}")
    if b == 0:
        return SubmodularReport(center, float(r), 0, 0, False)
    # cov[S]: the selected centers within r of some member of S
    cov = _subset_fold(D[np.ix_(ground, list(X))] <= r, False, np.logical_or).sum(axis=1)
    g = cov * n - _subset_sizes(b) * k   # n * f(S); exact integers
    best = int(np.argmin(g))
    return SubmodularReport(center, float(r), int(cov[best]), best.bit_count(),
                            bool(g[best] <= -n))
