"""Spatial expanding approvals: budgeted ball-growing center selection.

Every agent starts with one unit of budget, stored as the integer k so
that the quota n/k becomes the integer n and eligibility tests stay
exact.  The radius walks up the sorted distinct agent-candidate
distances; whenever some candidate's ball holds total weight >= n (in
k-scaled units) the heaviest eligible ball is opened, the candidate
leaves the pool, and the ball's agents pay n in total.  Selections made
this way always pass the anchored-representation audits.
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
    radii = np.unique(D)
    flat_order = np.argsort(D, axis=None, kind="stable")
    pair_rows, pair_cols = np.unravel_index(flat_order, D.shape)
    pair_dist = D[pair_rows, pair_cols]

    w = np.full(n, k, dtype=np.int64)          # k-scaled budgets
    ballw = np.zeros(m, dtype=np.int64)
    member = np.zeros((n, m), dtype=bool)
    alive = np.ones(m, dtype=bool)
    chosen: list = []
    trace: list = []

    ptr = 0
    jidx = -1

    def ingest(upto: float):
        nonlocal ptr
        hi = int(np.searchsorted(pair_dist, upto, side="right"))
        if hi > ptr:
            rows, cols = pair_rows[ptr:hi], pair_cols[ptr:hi]
            member[rows, cols] = True
            np.add.at(ballw, cols, w[rows])
            ptr = hi

    while len(chosen) < k:
        eligible = alive & (ballw >= n)
        if not eligible.any():
            jidx += 1
            if jidx >= len(radii):
                raise RuntimeError("radius ladder exhausted before k selections")
            ingest(radii[jidx])
            continue
        weights = np.where(eligible, ballw, -1)
        c = int(np.argmax(weights))            # argmax, ties to smallest index
        remaining = n
        charges = []
        for i in np.flatnonzero(member[:, c]):
            if remaining == 0:
                break
            take = int(min(w[i], remaining))
            if take == 0:
                continue
            w[i] -= take
            ballw -= take * member[i]
            remaining -= take
            charges.append((int(i), take))
        alive[c] = False
        chosen.append(c)
        trace.append(SearStep(c, float(radii[jidx]) if jidx >= 0 else 0.0,
                              tuple(charges)))

    return SearResult(tuple(chosen), tuple(trace))
