"""Embed an approval election into an explicit metric instance.

Approved voter-candidate pairs sit at distance 1, disapproved pairs at 2.
Same-side distances are the two-hop minimum through the opposite side,
which equals the shortest-path metric of the weighted bipartite graph
(longer paths cost at least 4, and the two-hop minimum never exceeds 4).
At any radius r in [1, 2) the ball structure reproduces the ballots
exactly, so approval-side verdicts transfer to the metric instance.
"""

from __future__ import annotations

import numpy as np

from .approval import ApprovalInstance, _ballot_distances
from .core import Instance


def _two_hop(rows: np.ndarray) -> np.ndarray:
    """min over j of rows[j, a] + rows[j, b] for every pair (a, b), with a
    zero diagonal.  Folded in one row j at a time, so for rows of width w
    it holds two (w, w) arrays, never a (w, w, len(rows)) one."""
    out = np.add.outer(rows[0], rows[0])
    step = np.empty_like(out)
    for row in rows[1:]:
        np.minimum(out, np.add.outer(row, row, out=step), out=out)
    np.fill_diagonal(out, 0.0)
    return out


def embed_approval(inst: ApprovalInstance) -> Instance:
    """Explicit-matrix instance over voters + candidates, distances in {0,1,2,3,4}."""
    n, m = inst.n, inst.m
    ca = _ballot_distances(inst)                     # (candidate, voter)
    d = np.zeros((n + m, n + m))
    # two-hop minima: agent-agent through a candidate, candidate-candidate
    # through an agent
    d[:n, :n] = _two_hop(ca)
    d[:n, n:] = ca.T
    d[n:, :n] = ca
    d[n:, n:] = _two_hop(ca.T)
    return Instance.explicit(d, n, inst.k,
                             agent_names=[f"v{v}" for v in range(n)],
                             candidate_names=[f"c{c}" for c in range(m)])
