"""Classical clustering objectives over a discrete candidate set.

These exist to produce the selections a practitioner would actually
compute (aggregate-cost optima), which the proportionality audits can
then reject.  Neither offers representation guarantees.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from .core import (EUCLIDEAN, InputError, Instance, SizeError, UnsupportedBackend,
                   check_selection)
from .gen import sample_selection, substream

_MAX_CANDIDATES = 12        # C(12, 6) = 924 subsets at most
_LLOYD_ROUNDS = 100


def _finite(cost: float, objective: str) -> float:
    if not math.isfinite(cost):
        raise InputError(f"{objective} cost overflows a float")
    return cost


@np.errstate(over="ignore")
def kmedian_cost(instance: Instance, selection) -> float:
    """Sum over agents of the distance to the nearest selected center; an
    InputError where that sum overflows a float."""
    xs = np.asarray(check_selection(instance, selection), dtype=np.intp)
    return _finite(float(instance.dists()[:, xs].min(axis=1).sum()), "k-median")


@np.errstate(over="ignore")
def kmeans_cost(instance: Instance, selection) -> float:
    """Sum over agents of the squared distance to the nearest selected
    center; an InputError where that sum overflows a float."""
    xs = np.asarray(check_selection(instance, selection), dtype=np.intp)
    return _finite(float((instance.dists()[:, xs] ** 2).min(axis=1).sum()), "k-means")


@np.errstate(over="ignore")
def kmedian_exhaustive(instance: Instance) -> tuple:
    """Global k-median optimum by subset enumeration (lexicographic
    tie-break); an InputError where every subset's cost overflows a float."""
    if instance.m > _MAX_CANDIDATES:
        raise SizeError(f"m={instance.m} exceeds exhaustive cap {_MAX_CANDIDATES}")
    D = instance.dists()
    best, best_cost = None, np.inf
    for subset in combinations(range(instance.m), instance.k):
        cost = D[:, subset].min(axis=1).sum()
        if cost < best_cost:
            best, best_cost = subset, cost
    if best is None:
        raise InputError("every k-median cost overflows a float")
    return tuple(best)


@np.errstate(over="ignore")             # an overflowing cost is kmedian_cost's error
def kmedian_local_search(instance: Instance, seed: int, start=None) -> tuple:
    """Best-improvement single-swap descent from a uniform random start.

    Swaps are scanned in (selected, unselected) index order and the
    largest strict cost reduction is applied, so runs are deterministic
    per seed.  Terminates at a local optimum: the subset lattice is
    finite and the cost strictly decreases.  An explicit `start`
    selection overrides the random initialization.
    """
    D = instance.dists()
    m, k = instance.m, instance.k
    if start is not None:
        current = list(check_selection(instance, start))
    else:
        current = list(sample_selection(m, k, substream(seed, "kmedian-init")))
    cost = D[:, current].min(axis=1).sum()
    while True:
        best_swap, best_cost = None, cost
        outside = sorted(set(range(m)) - set(current))
        for xi, x in enumerate(current):
            rest = current[:xi] + current[xi + 1:]
            base = D[:, rest].min(axis=1) if rest else np.full(instance.n, np.inf)
            for c in outside:
                trial = np.minimum(base, D[:, c]).sum()
                if trial < best_cost:
                    best_swap, best_cost = (xi, c), trial
        if best_swap is None:
            return tuple(sorted(current))
        xi, c = best_swap
        current[xi] = c
        cost = best_cost


def kmeans_lloyd_snapped(instance: Instance, seed: int) -> tuple:
    """Lloyd iterations on squared cost with centroids snapped to candidates.

    Cluster centroids are recomputed as coordinate means and snapped to
    the nearest candidate; a cluster whose snap target is already taken
    keeps its previous center (or the nearest unused candidate).  Stops
    when the selection is stable or after _LLOYD_ROUNDS rounds.
    """
    if instance.metric != EUCLIDEAN:
        raise UnsupportedBackend("snapped Lloyd requires coordinates")
    # C-order copies: the instance stores its points coordinate-major, and
    # there ((cands - centroid) ** 2).sum(axis=1) adds in another order,
    # which changed the last bit of some distances at d >= 8
    agents = np.ascontiguousarray(instance._agent_points)
    cands = np.ascontiguousarray(instance._candidate_points)
    m, k = instance.m, instance.k
    # seed with coordinate-distinct candidates where possible: coincident
    # starting centers would leave a cluster permanently empty
    gen = substream(seed, "kmeans-init")
    shuffled = list(gen.permutation(m))
    current, seen = [], set()
    for c in shuffled:
        pos = tuple(cands[c])
        if pos not in seen:
            current.append(int(c))
            seen.add(pos)
        if len(current) == k:
            break
    for c in shuffled:
        if len(current) == k:
            break
        if int(c) not in current:
            current.append(int(c))
    D = instance.dists()
    for _ in range(_LLOYD_ROUNDS):
        assign = np.argmin(D[:, current], axis=1)
        taken: set = set()
        nxt = []
        for ci in range(k):
            cluster = agents[assign == ci]
            centroid = cluster.mean(axis=0) if len(cluster) else cands[current[ci]]
            dist2 = ((cands - centroid) ** 2).sum(axis=1)
            target = int(np.argmin(dist2))
            if target in taken:
                target = current[ci]
            if target in taken:
                for j in np.argsort(dist2, kind="stable"):
                    if int(j) not in taken:
                        target = int(j)
                        break
            taken.add(target)
            nxt.append(target)
        if sorted(nxt) == sorted(current):
            break
        current = nxt
    return tuple(sorted(current))
