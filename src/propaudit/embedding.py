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


def embed_approval(inst: ApprovalInstance) -> Instance:
    """Explicit-matrix instance over voters + candidates, distances in {0,1,2,3,4}."""
    n, m = inst.n, inst.m
    ac = _ballot_distances(inst).T                   # (voter, candidate)
    # two-hop minima: agent-agent through a candidate, candidate-candidate
    # through an agent
    aa = (ac[:, None, :] + ac[None, :, :]).min(axis=2)
    np.fill_diagonal(aa, 0.0)
    cc = (ac[:, :, None] + ac[:, None, :]).min(axis=0)
    np.fill_diagonal(cc, 0.0)
    d = np.zeros((n + m, n + m))
    d[:n, :n] = aa
    d[:n, n:] = ac
    d[n:, :n] = ac.T
    d[n:, n:] = cc
    return Instance.explicit(d, n, inst.k,
                             agent_names=[f"v{v}" for v in range(n)],
                             candidate_names=[f"c{c}" for c in range(m)])
