"""Spatial expanding approvals: budgeted ball-growing center selection.

Every agent starts with one unit of budget, stored as the integer k so
that the quota n/k becomes the integer n and eligibility tests stay
exact.  One pass walks the agent-candidate pairs in ascending distance,
a run of equal distances at a time: a run adds its agents' weights to
their candidates' balls at its radius.  Whenever some candidate's ball
holds total weight >= n (in k-scaled units) the heaviest eligible ball
is opened, the candidate leaves the pool, and the ball's agents pay n in
total.  Selections made this way always pass the anchored-representation
audits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Instance, timed


@dataclass(frozen=True)
class SearStep:
    candidate: int
    radius: float
    charges: tuple          # (agent, amount in k-scaled units), ascending agent

    def to_dict(self) -> dict:
        return {
            "candidate": self.candidate,
            "radius": self.radius,
            "charges": [{"agent": a, "amount": t} for a, t in self.charges],
        }


@dataclass(frozen=True)
class SearResult:
    selection: tuple
    trace: tuple
    elapsed_ms: float = 0.0

    def to_dict(self) -> dict:
        return {
            "selection": list(self.selection),
            "trace": [step.to_dict() for step in self.trace],
        }


@timed
def run_sear(instance: Instance) -> SearResult:
    """Deterministic run of the expanding-approvals rule.

    Eligibility is re-evaluated after every selection at the current
    radius (weights changed, so other candidates may have become eligible
    or ineligible); among eligible candidates the maximum ball weight
    wins, ties to the smallest index.  Agents inside the opening ball are
    charged in ascending index order, each drained fully until exactly n
    k-scaled units are consumed.
    """
    n, m, k = instance.n, instance.m, instance.k
    D = instance.dists()
    rows, cols = np.unravel_index(np.argsort(D, axis=None, kind="stable"), D.shape)
    dist = D[rows, cols]
    # a run of equal distances ends where its neighbour's distance differs
    cuts = np.flatnonzero(dist[1:] != dist[:-1]) + 1

    w = np.full(n, k, dtype=np.int64)          # k-scaled budgets
    ballw = np.zeros(m, dtype=np.int64)
    alive = np.ones(m, dtype=bool)
    chosen: list = []
    trace: list = []

    for lo, hi in zip(np.r_[0, cuts], np.r_[cuts, dist.size]):
        r = dist[lo]
        np.add.at(ballw, cols[lo:hi], w[rows[lo:hi]])
        while len(chosen) < k:
            eligible = alive & (ballw >= n)
            if not eligible.any():
                break
            weights = np.where(eligible, ballw, -1)
            c = int(np.argmax(weights))        # argmax, ties to smallest index
            remaining = n
            charges = []
            for i in np.flatnonzero(D[:, c] <= r):
                if remaining == 0:
                    break
                take = int(min(w[i], remaining))
                if take == 0:
                    continue
                w[i] -= take
                ballw -= take * (D[i] <= r)
                remaining -= take
                charges.append((int(i), take))
            alive[c] = False
            chosen.append(c)
            trace.append(SearStep(c, float(r), tuple(charges)))
        if len(chosen) == k:
            return SearResult(tuple(chosen), tuple(trace))
    raise RuntimeError("radius ladder exhausted before k selections")
