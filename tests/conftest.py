"""Shared generators for desk-scale fuzzing.

Explicit matrices are drawn with small integer entries and completed to
a metric by shortest paths, so distance ties are exact and every quota
comparison stays integral.
"""

import numpy as np
import pytest

from propaudit import Instance
from propaudit.gen import sample_selection, substream


def random_euclidean(rng, n, m, k):
    return Instance.euclidean(rng.random((n, 2)), rng.random((m, 2)), k)


def random_explicit(rng, n, m, k, max_dist=9):
    t = n + m
    d = rng.integers(1, max_dist + 1, size=(t, t)).astype(float)
    d = np.minimum(d, d.T)
    np.fill_diagonal(d, 0.0)
    for b in range(t):
        d = np.minimum(d, d[:, b][:, None] + d[b, :][None, :])
    return Instance.explicit(d, n, k)


def random_instance(rng, max_n=8, max_m=6, max_k=3):
    n = int(rng.integers(1, max_n + 1))
    m = int(rng.integers(1, max_m + 1))
    k = int(rng.integers(1, min(m, max_k) + 1))
    if rng.random() < 0.5:
        return random_euclidean(rng, n, m, k)
    return random_explicit(rng, n, m, k)


def random_case(rng, max_n=8, max_m=6, max_k=3):
    inst = random_instance(rng, max_n, max_m, max_k)
    return inst, sample_selection(inst.m, inst.k, rng)


def random_profile(rng, max_n=8, max_m=6, p=0.45):
    """Random approval election; k uniform in [1, m]."""
    from propaudit import ApprovalInstance
    n = int(rng.integers(1, max_n + 1))
    m = int(rng.integers(1, max_m + 1))
    k = int(rng.integers(1, m + 1))
    approvals = [frozenset(int(c) for c in np.flatnonzero(rng.random(m) < p))
                 for _ in range(n)]
    return ApprovalInstance(approvals, m, k)


def group_approval_set(inst, agents, r):
    """Candidates within distance r (closed) of at least one of `agents`."""
    near = (inst.dists()[list(agents)] <= r).any(axis=0)
    return frozenset(np.flatnonzero(near).tolist())


@pytest.fixture
def rng():
    return substream(20260809, "tests")
