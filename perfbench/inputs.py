"""Input generators for the benchmark workloads.

Every draw comes from a numpy Generator keyed by (seed, stream tag, index),
so the same seed gives the same inputs in every process.  Instances are
written as Euclidean instance JSON by this module, not by the program, so
the program under test only ever receives the generated files.
"""

from __future__ import annotations

import json

import numpy as np

# stream tags, one per kind of draw
DC_INSTANCE, DC_VIOL, GAUSS_INSTANCE, EXPERIMENT = range(1, 5)


def stream(seed: int, tag: int, index: int = 0) -> np.random.Generator:
    return np.random.default_rng([int(seed), tag, index])


def _disc(gen, center, radius, count):
    """`count` points uniform in the closed disc of `radius` around `center`."""
    r = radius * np.sqrt(gen.random(count))
    theta = 2.0 * np.pi * gen.random(count)
    return center + np.column_stack([r * np.cos(theta), r * np.sin(theta)])


class DCSatisfiedInstance:
    """A Euclidean instance whose `cores` selection passes the DC audit.

    Layout, with disc radius R:
      * g cluster centers, pairwise at least 8R apart;
      * n/g agents per cluster, uniform in the disc of radius R;
      * k/g "core" candidates per cluster within R/2 of its center;
      * the other m - k candidates at least 3R from every cluster center.
    Agent order is shuffled.  Candidates come in random order, except that
    the first g are one core of each cluster, in random cluster order.

    Why the cores satisfy the default-coalitions audit (gamma = 1): every
    unselected anchor c is a far candidate, so each agent is at least
    3R - R = 2R from c, and any ball around c that holds an agent has
    radius rho >= 2R.  An agent of cluster j is within R + R/2 <= 2R <= rho
    of each of j's cores, so every cluster the ball touches contributes its
    k/g cores to the coverage.  A ball B touching t clusters holds at most
    t * n/g agents, hence deserves floor(|B| k / n) <= t * k/g centers,
    which the coverage meets.

    Why a selection missing every core of some cluster j is violated: take
    an unselected core c of j.  Cluster j's n/g >= ceil(n/k) agents lie
    within R/2 + R = 1.5R of c, so c's level-1 ball has radius rho <= 1.5R
    and, by the 8R separation, holds only agents of j.  A far candidate is
    at least 3R - R = 2R from each such agent and a core of another cluster
    at least 8R - R/2 - R, so no selected center is within rho of the ball:
    coverage 0 < 1.
    """

    R = 1.0

    def __init__(self, gen, n: int, m: int, k: int, g: int):
        if n % g or k % g or not g <= k < m:
            raise ValueError("need g | n, g | k and g <= k < m")
        R, per = self.R, k // g
        side = 10.0 * R * np.sqrt(g)
        centers = []
        while len(centers) < g:
            p = gen.uniform(0.0, side, 2)
            if all(np.hypot(*(p - q)) >= 8.0 * R for q in centers):
                centers.append(p)
        centers = np.array(centers)
        agents = np.vstack([_disc(gen, c, R, n // g) for c in centers])
        cores = np.vstack([_disc(gen, c, R / 2, per) for c in centers])
        far = []
        while len(far) < m - k:
            p = gen.uniform(-3.0 * R, side + 3.0 * R, 2)
            if np.hypot(*(centers - p).T).min() >= 3.0 * R:
                far.append(p)
        cand = np.vstack([cores, np.array(far).reshape(-1, 2)])
        cluster_of = np.concatenate([np.repeat(np.arange(g), per), np.full(m - k, -1)])
        lead = [c * per + int(gen.integers(per)) for c in gen.permutation(g)]
        perm = np.concatenate([lead, gen.permutation(np.setdiff1d(np.arange(m), lead))])
        self.agents = agents[gen.permutation(n)]
        self.candidates = cand[perm]
        self.cluster_of = cluster_of[perm]       # -1 for far candidates
        self.k, self.g = k, g
        self.cores = tuple(int(j) for j in np.flatnonzero(self.cluster_of >= 0))

    def violated_selection(self, gen) -> tuple:
        """Uniform k-subset of the candidates, redrawn until some cluster has
        no selected core, so it is violated by construction.  That cluster's
        leading core is among the first g candidates, so a scan of anchors
        in candidate order meets a violated anchor within its first g."""
        m = len(self.candidates)
        while True:
            sel = tuple(sorted(int(j) for j in gen.choice(m, self.k, replace=False)))
            if len({int(self.cluster_of[j]) for j in sel} - {-1}) < self.g:
                return sel


def gaussian_points(gen, n: int, m: int, g: int, sigma: float):
    """Agents and candidates from one mixture of g isotropic Gaussians with
    centers uniform in the unit square."""
    centers = gen.random((g, 2))
    agents = centers[gen.integers(0, g, n)] + gen.normal(size=(n, 2)) * sigma
    cands = centers[gen.integers(0, g, m)] + gen.normal(size=(m, 2)) * sigma
    return agents, cands


def write_instance(path, agents, candidates, k: int) -> None:
    """Euclidean instance JSON as the CLI reads it."""
    with open(path, "w") as fh:
        json.dump({"metric": "euclidean", "dim": 2, "agents": agents.tolist(),
                   "candidates": candidates.tolist(), "k": int(k)}, fh)
